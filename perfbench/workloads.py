"""The three benchmark workloads: inputs from a seed, jobs, answers and checks.

A job is one answer: one input's certificates (certify), one ``run`` or one
``convergence_check`` (collapse), or one ``ptnls sweep`` invocation (sweep).
Each workload class offers ``draw(seed, batch)`` (the jobs of one batch),
``run(job)`` (its answer) and ``check(job, answer)`` (mismatches against the
committed fingerprint), plus ``warm_up()`` for the set-up probe.

Every call into ptnls goes through a module attribute looked up at call time
(``criteria.check_theorem1``, ``simulator.run``, ``cli.main``), so the span
recorder in ``tracer.py`` sees the benchmark's own calls once installed.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

import ptnls.cli as cli
import ptnls.criteria as criteria
import ptnls.functionals as functionals
import ptnls.simulator as simulator
from ptnls.model import GaussianIC, SystemParams

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
FINGERPRINT = Path(__file__).with_name("fingerprint.json")

# ---------------------------------------------------------------------------
# Tolerances of the answer fingerprint.  Verdicts, components, regimes,
# `satisfied` flags and exit codes must match exactly.
#
# Certified times come from bisection to criteria._TIME_TOL = 1e-9: two
# correct implementations each land within 1e-9 of the switch point, so they
# may differ by 2e-9.  The reference also carries the interpolation error of
# the grid-doubling running supremum in M(t), below 1.4e-9 relative to T0,
# hence the relative 2e-9 on top.
CERT_TIME_ABS = 2e-9
CERT_TIME_REL = 2e-9
# Lemma bounds and Manakov invariants are closed-form arithmetic; only the
# order of floating-point operations may change.
CLOSED_FORM_REL = 1e-12
# Simulated stop times use the criterion-10 refinement spread of the fig3a
# g=1 scenario, |tStop(n=3999) - tStop(n=7999)|, stored in the fingerprint as
# "tstop_spread": a change smaller than the discretisation's own refinement
# change is within the method's accuracy.  A run that ends at its horizon may
# also stop at exactly tMax: the seed steps past tMax (a recorded defect) and
# fixing that must not count as a wrong answer.


def load_fingerprint() -> dict:
    with open(FINGERPRINT, encoding="utf-8") as fh:
        return json.load(fh)


def _rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, batch])


def _close(a, b, abs_tol=0.0, rel_tol=0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


def _tstop_ok(got, ref, spread, t_max, verdict) -> bool:
    at_horizon = verdict in ("Dispersed", "MaxTimeReached")
    return abs(got - ref) <= spread or (at_horizon and abs(got - t_max) <= spread)


# ---------------------------------------------------------------------------
# certify

_ZERO_FUNCTIONALS = dict(
    s0=0.0, s1=0.0, s2=0.0, s3=0.0, energy=0.0, msw=0.0, mswRate=0.0,
    gradU2=0.0, gradV2=0.0, quarticU=0.0, quarticV=0.0, crossQuartic=0.0,
)


def certify_answer(entry: dict) -> dict:
    """What ``ptnls criteria`` computes for this input's regime."""
    params = SystemParams(**entry["params"])
    if "ic" in entry:
        initial = functionals.gaussian_moments(GaussianIC(**entry["ic"]), params)
    else:
        initial = functionals.InitialFunctionals(
            **{**_ZERO_FUNCTIONALS, **entry["functionals"]})
    answer = {"regime": []}
    if criteria.in_focusing_regime(params):
        answer["regime"].append("focusing")
        rep = criteria.check_theorem1(initial, params)
        lem1 = criteria.lemma1_threshold(initial, params)
        lem2 = criteria.lemma2_threshold(initial, params)
        answer["theorem1"] = [bool(rep.satisfied), rep.certifiedTime]
        answer["lemma1"] = [bool(lem1["satisfied"]), lem1["E0bound"],
                            lem1["T0max"], lem1["T0min"]]
        answer["lemma2"] = [bool(lem2["satisfied"]), lem2["Y0bound"],
                            lem2["T0max"], lem2["T0min"]]
    if criteria.in_early_collapse_regime(params):
        answer["regime"].append("early")
        rep = criteria.check_theorem2(initial, params)
        answer["theorem2"] = [bool(rep.satisfied), rep.certifiedTime]
    if params.g1 == params.g2 == params.g:
        answer["regime"].append("manakov")
        inv = criteria.manakov_invariants(initial, params)
        answer["manakov_invariants"] = [inv["S1const"], inv["Sconst"]]
        if params.g > 0:
            rep = criteria.check_manakov_theorem(initial, params)
            answer["manakov"] = [bool(rep.satisfied), rep.certifiedTime]
    return answer


def _all_close(got, ref) -> bool:
    return all(_close(a, b, rel_tol=CLOSED_FORM_REL) for a, b in zip(got, ref))


def certify_mismatches(got: dict, ref: dict) -> list:
    if got.keys() != ref.keys() or got["regime"] != ref["regime"]:
        return [f"regime {got['regime']} != {ref['regime']}"]
    bad = []
    for key in ("theorem1", "theorem2", "manakov"):
        if key in ref and (got[key][0] != ref[key][0] or not _close(
                got[key][1], ref[key][1], CERT_TIME_ABS, CERT_TIME_REL)):
            bad.append(f"{key} {got[key]} != {ref[key]}")
    for key in ("lemma1", "lemma2"):
        if key in ref and (got[key][0] != ref[key][0]
                           or not _all_close(got[key][1:], ref[key][1:])):
            bad.append(f"{key} {got[key]} != {ref[key]}")
    key = "manakov_invariants"
    if key in ref and not _all_close(got[key], ref[key]):
        bad.append(f"{key} {got[key]} != {ref[key]}")
    return bad


class Certify:
    """~104 certificate jobs through the criteria API.

    Per batch: one input from each block of the pool in fingerprint.json
    (120 lemma-1-bracketed and 60 lemma-2-bracketed inputs, 48 Manakov and
    48 early-collapse Gaussian inputs), plus the 12 bundled fig1a-fig1c
    points and fig2 panels.
    """

    BLOCK = 3

    def __init__(self, fingerprint: dict):
        self.pool = fingerprint["certify"]
        self.by_id = {e["id"]: e for e in self.pool}
        self.blocks = []
        for family in ("lemma1", "lemma2", "manakov", "early"):
            members = sorted((e for e in self.pool if e["family"] == family),
                             key=lambda e: e["cost_s"])
            block = []
            for e in members:
                if block and (len(block) == self.BLOCK
                              or e["cost_s"] > 2 * block[0]["cost_s"]):
                    self.blocks.append(block)
                    block = []
                block.append(e)
            self.blocks.append(block)

    def draw(self, seed: int, batch: int) -> list:
        """Every figure point, and one input from each block of the pool.

        A block holds up to three pool inputs of one family whose costs at
        the reference commit (``cost_s``) are within a factor of two, so
        every seed runs the same mix of cheap and dear inputs.
        """
        rng = _rng(seed, batch)
        jobs = [e["id"] for e in self.pool if e["family"] == "figure"]
        jobs += [block[rng.integers(len(block))]["id"] for block in self.blocks]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def run(self, job: str) -> dict:
        return certify_answer(self.by_id[job])

    def check(self, job: str, answer: dict) -> list:
        return certify_mismatches(answer, self.by_id[job]["answer"])

    def warm_up(self):
        self.run("fig1a-B=1.3")


# ---------------------------------------------------------------------------
# collapse

DESK_GRID = simulator.RadialGrid(16.0, 7999)
DESK_CFG = simulator.RunConfig(dt0=1e-4, dtMin=1e-8, tMax=2.0, sampleEvery=200)
FIG3A_IC = GaussianIC(4.5, 4.0, 1.0, 0.5)
FIG3C_IC = GaussianIC(0.5, 2.7, 0.3, 0.3)


def _desk_params(gamma=0.5, g=1.0) -> SystemParams:
    return SystemParams(gamma=gamma, kappa=1.0, g1=1.0, g2=1.0, g=g)


COLLAPSE_RUNS = {
    "fig3a_g=1": (FIG3A_IC, _desk_params(g=1.0)),
    "fig3a_g=-1": (FIG3A_IC, _desk_params(g=-1.0)),
    "fig3a_g=-2": (FIG3A_IC, _desk_params(g=-2.0)),
    "fig3c_gamma=0.5": (FIG3C_IC, _desk_params(gamma=0.5)),
}
CONVERGENCE_JOB = "convergence_fig3a_g=1"


def collapse_answer(job: str) -> dict:
    if job == CONVERGENCE_JOB:
        rep = simulator.convergence_check(
            FIG3A_IC, _desk_params(g=1.0), simulator.RadialGrid(16.0, 3999),
            DESK_CFG, refinements=1)
        return {"verdicts": list(rep.verdicts), "tStops": list(rep.tStops),
                "tStopDiffs": list(rep.tStopDiffs)}
    ic, params = COLLAPSE_RUNS[job]
    out = simulator.run(ic, params, DESK_GRID, DESK_CFG)
    return {"verdict": out.verdict, "component": out.component,
            "tStop": out.tStop}


class Collapse:
    """The criterion-8 desk scenarios and the criterion-10 convergence check.

    The scenarios are fixed; the seed sets the order they run in.
    """

    def __init__(self, fingerprint: dict):
        self.ref = fingerprint["collapse"]
        self.spread = fingerprint["tstop_spread"]

    def draw(self, seed: int, batch: int) -> list:
        names = [*COLLAPSE_RUNS, CONVERGENCE_JOB]
        return [names[i] for i in _rng(seed, batch).permutation(len(names))]

    def run(self, job: str) -> dict:
        return collapse_answer(job)

    def check(self, job: str, got: dict) -> list:
        ref, spread, t_max = self.ref[job], self.spread, DESK_CFG.tMax
        if job == CONVERGENCE_JOB:
            ok = (got["verdicts"] == ref["verdicts"]
                  and all(_tstop_ok(a, b, spread, t_max, v) for a, b, v in
                          zip(got["tStops"], ref["tStops"], ref["verdicts"]))
                  and all(abs(a - b) <= 2 * spread
                          for a, b in zip(got["tStopDiffs"], ref["tStopDiffs"])))
        else:
            ok = (got["verdict"] == ref["verdict"]
                  and got["component"] == ref["component"]
                  and _tstop_ok(got["tStop"], ref["tStop"], spread, t_max,
                                ref["verdict"]))
        return [] if ok else [f"{job}: {got} != {ref}"]

    def warm_up(self):
        ic, params = COLLAPSE_RUNS["fig3a_g=1"]
        state = simulator.load_initial(ic, DESK_GRID, params)
        simulator.step(state, params, DESK_CFG.dt0)


# ---------------------------------------------------------------------------
# sweep

SWEEP_VALUES = tuple(0.5 + 0.25 * i for i in range(8))
SWEEP_T_MAX = 1.0
SWEEP_BASE = """\
params.gamma = 0.5
params.kappa = 1
params.g1 = 1
params.g2 = 1
params.g = 1
ic.A = 1
ic.B = 0.5
ic.a = 1
ic.b = 1
grid.n = 999
run.dt0 = 1e-3
run.dt_min = 1e-6
run.t_max = 1
run.sample_every = 5
"""


class Sweep:
    """One in-process ``ptnls sweep`` over ic.A with ``--workers`` workers.

    The points are fixed; the seed sets the order of ``sweep.values``.  Each
    run writes into a fresh directory under the work directory, which is
    measured (files, bytes) and removed afterwards.
    """

    def __init__(self, fingerprint: dict, workers: int = 2):
        self.ref = fingerprint["sweep"]
        self.spread = fingerprint["tstop_spread"]
        self.workers = workers
        self.files_written = 0
        self.bytes_written = 0

    def draw(self, seed: int, batch: int) -> list:
        order = _rng(seed, batch).permutation(len(SWEEP_VALUES))
        values = ",".join(repr(SWEEP_VALUES[i]) for i in order)
        return [SWEEP_BASE + f"sweep.axis = ic.A\nsweep.values = {values}\n"]

    def _invoke(self, mode: str, config: str, workers: int) -> tuple:
        out = WORK / f"{mode}-{os.getpid()}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            cfg = out / "job.cfg"
            cfg.write_text(config, encoding="utf-8")
            code = cli.main([mode, "--config", str(cfg), "--out", str(out / "out"),
                             "--workers", str(workers)])
            files = [p for p in (out / "out").rglob("*") if p.is_file()]
            self.files_written = len(files)
            self.bytes_written = sum(p.stat().st_size for p in files)
            summary = out / "out" / "summary.csv"
            text = summary.read_text(encoding="utf-8") if summary.exists() else ""
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return code, text

    def run(self, job: str) -> dict:
        code, summary = self._invoke("sweep", job, self.workers)
        rows = {}
        for line in summary.splitlines()[1:]:
            value, outcome, time = line.split(",")
            rows[value] = [outcome, float(time)]
        return {"exit_code": code, "rows": rows}

    def check(self, job: str, got: dict) -> list:
        ref = self.ref
        ok = (got["exit_code"] == ref["exit_code"]
              and got["rows"].keys() == ref["rows"].keys()
              and all(got["rows"][k][0] == r[0]
                      and _tstop_ok(got["rows"][k][1], r[1], self.spread,
                                    SWEEP_T_MAX, r[0])
                      for k, r in ref["rows"].items()))
        return [] if ok else [f"sweep: {got} != {ref}"]

    def warm_up(self):
        """One `ptnls simulate` of a single step on the sweep's grid."""
        config = SWEEP_BASE.replace("run.t_max = 1\n", "run.t_max = 0.001\n")
        code, _ = self._invoke("simulate", config, 1)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"warm-up simulate exited with {code}")


WORKLOADS = {"certify": Certify, "collapse": Collapse, "sweep": Sweep}
