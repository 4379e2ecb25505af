"""Extra integrals of motion when all nonlinear coefficients coincide.

With g1 = g2 = g the cubic terms act as a common potential for both fields,
so two additional quantities are conserved: the overlap S1 and the
combination kappa*S0 - gamma*S2.  The total power S0(t) then oscillates
harmonically around kappa*S/omega^2 -- verified here along a simulated
trajectory.
"""

import numpy as np

from ptnls import (
    GaussianIC,
    RadialGrid,
    RunConfig,
    SystemParams,
    gaussian_moments,
    manakov_invariants,
    run,
)

params = SystemParams(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=1.0)
ic = GaussianIC(ampU=1.0, ampV=0.5, widthU=1.0, widthV=1.0)

inv = manakov_invariants(gaussian_moments(ic, params), params)
osc = inv["oscillation"]
print(f"conserved: S1 = {inv['S1const']:.6g}, "
      f"kappa*S0 - gamma*S2 = {inv['Sconst']:.6g}")
print(f"predicted S0(t) = {osc['mean']:.6g} "
      f"+ {osc['S01']:.6g} cos(2wt) + {osc['S02']:.6g} sin(2wt), "
      f"w = {osc['omega']:.6g}")

out = run(ic, params, RadialGrid(16.0, 999),
          RunConfig(dt0=1e-3, dtMin=1e-8, tMax=3.0, sampleEvery=100))
t, s0, s1, s2 = (out.trace[c] for c in ("t", "S0", "S1", "S2"))

fit = (osc["mean"] + osc["S01"] * np.cos(2 * osc["omega"] * t)
       + osc["S02"] * np.sin(2 * osc["omega"] * t))
print("\n  t      S0 (simulated)  S0 (predicted)")
for i in range(0, len(t), max(1, len(t) // 10)):
    print(f"  {t[i]:.2f}   {s0[i]:.8f}     {fit[i]:.8f}")

S = params.kappa * s0 - params.gamma * s2
print(f"\nmax relative drift of S1 along the run: "
      f"{np.max(np.abs(s1 - s1[0])) / abs(s1[0]):.2e}")
print(f"max relative drift of kappa*S0 - gamma*S2: "
      f"{np.max(np.abs(S - S[0])) / abs(S[0]):.2e}")
print(f"max relative deviation of S0 from the oscillation: "
      f"{np.max(np.abs(s0 - fit)) / np.max(s0):.2e}")
