"""Drive the batch front door: config documents in, CSV artifacts out.

Writes a small config, runs the `ptnls` entry point in two modes, and reads
the emitted artifacts back with the tool's own CSV loader.  Everything is
written to a temporary directory that is removed at the end.
"""

import tempfile
from pathlib import Path

from ptnls.cli import main, read_csv

tmp = tempfile.TemporaryDirectory(prefix="ptnls-demo-")
workdir = Path(tmp.name)

# --- criteria mode -------------------------------------------------------
cfg = workdir / "criteria.cfg"
cfg.write_text(
    "# strong input, focusing regime\n"
    "params.gamma = 0.5\n"
    "params.kappa = 1\n"
    "params.g = -0.5\n"
    "ic.A = 4\n"
    "ic.B = 2\n"
    "ic.a = 0.3\n"
    "ic.b = 0.1\n"
)
out1 = workdir / "criteria-out"
status = main(["criteria", "--config", str(cfg), "--out", str(out1)])
print(f"criteria mode exit status: {status}")
print((out1 / "report.txt").read_text())

header, data = read_csv(out1 / "criteria.csv")
print(f"criteria.csv columns: {header}, {len(data['t'])} rows")

# --- simulate mode on a coarse, fast grid --------------------------------
sim_cfg = workdir / "simulate.cfg"
sim_cfg.write_text(
    "params.gamma = 0.5\n"
    "ic.A = 1\n"
    "ic.B = 0.5\n"
    "grid.n = 999\n"
    "run.dt0 = 1e-3\n"
    "run.t_max = 1.0\n"
    "run.sample_every = 50\n"
)
out2 = workdir / "simulate-out"
status = main(["simulate", "--config", str(sim_cfg), "--out", str(out2)])
print(f"simulate mode exit status: {status}")
print((out2 / "outcome.txt").read_text())
header, data = read_csv(out2 / "trace.csv")
print(f"trace.csv columns: {header}")
print(f"power grew from {data['S0'][0]:.4f} to {data['S0'][-1]:.4f} "
      f"over t in [0, {data['t'][-1]:.2f}]")
tmp.cleanup()
