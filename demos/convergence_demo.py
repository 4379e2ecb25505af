"""Check that a blowup verdict survives grid and time-step refinement.

Reruns a collapsing scenario with dr and dt halved and reports the Cauchy
differences of the stopping time and of the recorded power trace.  A
verdict that flips, or differences that grow, would flag an
under-resolved run.  The levels run in worker processes, so the work sits
under the __main__ check: a worker may import this module again.
"""

from ptnls import (
    GaussianIC,
    RadialGrid,
    RunConfig,
    SystemParams,
    convergence_check,
)

if __name__ == "__main__":
    params = SystemParams(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0)
    ic = GaussianIC(ampU=4.5, ampV=4.0, widthU=1.0, widthV=0.5)

    report = convergence_check(
        ic, params,
        RadialGrid(L=16.0, n=1999),
        RunConfig(dt0=1e-4, dtMin=1e-8, tMax=1.0, sampleEvery=200),
        refinements=2,
    )

    print("resolution level ->", " -> ".join(report.verdicts))
    print("stopping times:", ", ".join(f"{t:.5f}" for t in report.tStops))
    print("tStop Cauchy differences:",
          ", ".join(f"{d:.2e}" for d in report.tStopDiffs))
    print("power-trace Cauchy differences:",
          ", ".join(f"{d:.2e}" for d in report.traceDiffs))
    print(f"converged: {report.converged}")
    print(f"adaptivity headroom (dt0 > dtMin): {report.adaptivityHeadroom}")
