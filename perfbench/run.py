"""ptnls benchmark: certify, collapse and sweep workloads.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 the per-layer metrics of a separate traced pass.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

The package is imported from ``src`` of the checkout this file lives in, in
fresh child processes (perfbench/child.py); nothing is installed.  Run
artifacts go to ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "collapse", "sweep")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class ChildFailed(RuntimeError):
    pass


def child(role: str, workload: str, seed: int, *extra, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "child.py"), role, workload, str(seed),
           *map(str, extra)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{role} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(kind: str) -> dict:
    """name -> unit of the `end_to_end` or `per_layer` list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def with_units(values: dict, kind: str) -> dict:
    units = declared_metrics(kind)
    if values.keys() != units.keys():
        raise ChildFailed(f"measured {sorted(values)} but BENCHMARK.json "
                          f"declares {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    setup = [child("setup", workload, seed, deadline=deadline)["setup_s"]
             for _ in range(SETUP_PROBES)]
    res = child("measure", workload, seed, seconds, deadline=deadline)
    attempted, failed = res["attempted"], res["failed"]
    job_s = res["job_s"]
    walls = ", ".join(f"{w:.3f}" for w in res["wall_s"])
    print(f"{workload}: batches of {walls} s; {attempted} jobs, {failed} failed "
          f"(fail_frac {failed / attempted:.4f} of {attempted})")
    values = {
        "wall_s": statistics.median(res["wall_s"]),
        "job_s.p50": percentile(job_s, 50),
        "job_s.p90": percentile(job_s, 90),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {"attempted": attempted, "failed": failed, "problems": res["problems"],
            "metrics": with_units(values, "end_to_end")}


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    res = child("trace", workload, seed, deadline=deadline)
    if res["missing"]:
        print("not found, recorded as zero calls: " + ", ".join(res["missing"]))
    return {"attempted": res["attempted"], "failed": res["failed"],
            "problems": res["problems"],
            "metrics": with_units(res["metrics"], "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ptnls" / "__init__.py").is_file():
        print(f"no ptnls package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            out = per_layer(args.workload, args.seed, deadline)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in out.pop("problems"):
        print(f"wrong answer: {problem}", file=sys.stderr)
    out = {"correct": out["failed"] == 0, **out}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
