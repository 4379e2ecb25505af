"""Write fingerprint.json: the certify input pool and every reference answer.

Run from the repository root, at the commit whose answers are the reference:

    PYTHONPATH=src python3 perfbench/capture.py

The pool inputs are drawn once from POOL_SEED and stored with their answers;
the benchmark's --seed only chooses which pool entries a batch runs.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time

import numpy as np

import workloads as wl
from ptnls import InitialFunctionals, SystemParams, lemma1_threshold, lemma2_threshold

POOL_SEED = 20140709
POOL_SIZE = {"lemma1": 120, "lemma2": 60, "manakov": 48, "early": 48}


def _focusing_params(rng) -> dict:
    return dict(gamma=rng.uniform(0.2, 1.0), kappa=rng.uniform(0.3, 2.0),
                g1=rng.uniform(0.5, 3.0), g2=rng.uniform(0.5, 3.0),
                g=rng.uniform(0.0, 1.5))


def _base_functionals(rng) -> InitialFunctionals:
    return InitialFunctionals(
        s0=rng.uniform(0.1, 5.0), s1=0.0, s2=0.0, s3=0.0, energy=0.0,
        msw=rng.uniform(0.01, 2.0), mswRate=rng.uniform(-1.0, 1.0),
        gradU2=0.0, gradV2=0.0, quarticU=0.0, quarticV=0.0, crossQuartic=0.0)


def _functionals_entry(ini: InitialFunctionals) -> dict:
    return {k: getattr(ini, k) for k in ("s0", "msw", "mswRate", "energy")}


def lemma1_input(rng) -> dict:
    """As criterion 9: E(0) a random factor below the lemma-1 bound."""
    p = _focusing_params(rng)
    base = _base_functionals(rng)
    bound = lemma1_threshold(base, SystemParams(**p))["E0bound"]
    ini = dataclasses.replace(base, energy=bound * rng.uniform(1.01, 3.0))
    return {"params": p, "functionals": _functionals_entry(ini)}


def lemma2_input(rng) -> dict:
    """As criterion 9: Y(0) a random margin below the lemma-2 bound."""
    p = _focusing_params(rng)
    base = dataclasses.replace(_base_functionals(rng), energy=rng.uniform(-5, 5))
    bound = lemma2_threshold(base, SystemParams(**p))["Y0bound"]
    ini = dataclasses.replace(
        base, mswRate=bound - abs(bound) * rng.uniform(0.01, 1.0) - 0.5)
    return {"params": p, "functionals": _functionals_entry(ini)}


def _gaussian(rng, amp_u, amp_v, width) -> dict:
    return dict(ampU=rng.uniform(*amp_u), ampV=rng.uniform(*amp_v),
                widthU=rng.uniform(*width), widthV=rng.uniform(*width))


def manakov_input(rng) -> dict:
    g = rng.uniform(0.5, 2.0)
    p = dict(gamma=rng.uniform(0.2, 1.0), kappa=rng.uniform(0.3, 2.0),
             g1=g, g2=g, g=g)
    return {"params": p, "ic": _gaussian(rng, (2.0, 6.0), (2.0, 6.0), (0.15, 0.5))}


def early_input(rng) -> dict:
    p = dict(gamma=rng.uniform(0.2, 1.0), kappa=rng.uniform(0.3, 2.0),
             g1=rng.uniform(1.0, 5.0), g2=rng.uniform(-2.0, 0.0),
             g=rng.uniform(-1.0, 0.0))
    return {"params": p, "ic": _gaussian(rng, (2.0, 7.0), (0.5, 4.0), (0.2, 1.2))}


def figure_inputs() -> list:
    """The bundled fig1a-fig1c points and fig2 panels of `ptnls figure`."""
    fig1 = dict(gamma=0.5, kappa=1.0, g1=4.0, g2=-1.0, g=-0.5)
    fig2 = dict(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=-0.5)
    out = []
    for B in (1.3, 2.6, 3.9):
        out.append((f"fig1a-B={B}", fig1, dict(ampU=5.8, ampV=B)))
    for gamma in (0.15, 0.3, 0.45):
        out.append((f"fig1b-gamma={gamma}", {**fig1, "gamma": gamma},
                    dict(ampU=5.8, ampV=0.9)))
    for kappa in (0.4, 0.8, 1.2):
        out.append((f"fig1c-kappa={kappa}", {**fig1, "kappa": kappa},
                    dict(ampU=5.8, ampV=0.9)))
    for tag, B, b in (("a", 2.0, 0.1), ("c", 3.0, 0.1), ("e", 2.0, 0.16)):
        out.append((f"fig2-{tag}", fig2, dict(ampU=4.0, ampV=B, widthV=b)))
    entries = []
    for name, params, ic in out:
        ic = {"widthU": 1.0, "widthV": 1.0, **ic}
        if name.startswith("fig2"):
            ic["widthU"] = 0.3
        entries.append({"id": name, "family": "figure", "params": params, "ic": ic})
    return entries


GENERATORS = {"lemma1": lemma1_input, "lemma2": lemma2_input,
              "manakov": manakov_input, "early": early_input}


def certify_pool() -> list:
    pool = figure_inputs()
    for code, (family, gen) in enumerate(GENERATORS.items()):
        rng = np.random.default_rng([POOL_SEED, code])
        for i in range(POOL_SIZE[family]):
            pool.append({"id": f"{family}-{i:03d}", "family": family, **gen(rng)})
    for entry in pool:
        entry["answer"] = wl.certify_answer(entry)
        entry["cost_s"] = statistics.median(_timed(entry) for _ in range(3))
    return pool


def _timed(entry) -> float:
    start = time.perf_counter()
    wl.certify_answer(entry)
    return time.perf_counter() - start


def main() -> int:
    conv = wl.collapse_answer(wl.CONVERGENCE_JOB)
    fingerprint = {
        "tstop_spread": conv["tStopDiffs"][0],
        "certify": certify_pool(),
        "collapse": {job: wl.collapse_answer(job) for job in wl.COLLAPSE_RUNS},
    }
    fingerprint["collapse"][wl.CONVERGENCE_JOB] = conv
    sweep = wl.Sweep({**fingerprint, "sweep": None}, workers=1)
    fingerprint["sweep"] = sweep.run(sweep.draw(0, 0)[0])
    write_fingerprint(fingerprint)
    return 0


def write_fingerprint(fingerprint: dict):
    """JSON with one certify pool entry per line."""
    parts = []
    for key, value in sorted(fingerprint.items()):
        if key == "certify":
            body = "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in value) + "\n]"
        else:
            body = json.dumps(value, sort_keys=True)
        parts.append(f"{json.dumps(key)}: {body}")
    with open(wl.FINGERPRINT, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
