"""Simulate the radially symmetric system and watch collapse vs dispersal.

The 3D fields are reduced to one dimension via p = r*u, q = r*v and evolved
with the semi-implicit Crank-Nicolson stepper.  A run terminates when the
on-axis amplitude of either component grows a hundredfold (a blowup-like
event), or at the time horizon.
"""

import math

from ptnls import GaussianIC, RadialGrid, RunConfig, SystemParams, run

grid = RadialGrid(L=16.0, n=3999)
cfg = RunConfig(dt0=1e-4, dtMin=1e-8, tMax=1.0, sampleEvery=200)

print("strong two-component input, attractive vs repulsive cross-coupling:")
ic = GaussianIC(ampU=4.5, ampV=4.0, widthU=1.0, widthV=0.5)
for g in (1.0, -1.0, -2.0):
    params = SystemParams(gamma=0.5, kappa=1.0, g1=1.0, g2=1.0, g=g)
    out = run(ic, params, grid, cfg)
    print(f"  g={g:+.0f}: {out.verdict} in component {out.component} "
          f"at t={out.tStop:.4f}")
print("attractive coupling drags both components into the collapse;")
print("repulsive coupling funnels the growth into the lossy component,")
print("and stronger repulsion collapses earlier.\n")

print("same input, weak fields: gain/loss phase decides the fate:")
ic2 = GaussianIC(ampU=0.5, ampV=2.7, widthU=0.3, widthV=0.3)
for gamma in (0.5, 1.5):
    params = SystemParams(gamma=gamma, kappa=1.0, g1=1.0, g2=1.0, g=1.0)
    out = run(ic2, params, grid, cfg)
    print(f"  gamma={gamma}: {out.verdict} (t={out.tStop:.3f}, "
          f"final width^2={out.trace['X'][-1]:.3g}, "
          f"peak |u|={math.sqrt(out.trace['peakU2'][-1]):.3g})")
print("below the coupling strength the dynamics stays bounded long enough")
print("to focus; above it the pulses spread outward instead.")
