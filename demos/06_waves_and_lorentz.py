"""Time-dependent Maxwell and the Lorentz force.

A plane wave on a periodic grid shows the leapfrog update is second-order
accurate while conserving magnetic flux (dB = 0) to round-off. A moving
point charge with charge-conserving deposition keeps the Gauss residual
frozen. Finally the Lorentz force from a field 2-form is always orthogonal
to the 4-velocity.
"""

import math
from fractions import Fraction

import numpy as np

from formcalc.forms import PolyForm
from formcalc.grid import RectGrid
from formcalc.maxwell import (EMState, PointCharge, evolve_leapfrog, lorentz_force,
                              plane_wave_error)
from formcalc.metric import Metric


print("plane-wave convergence (one period):")
prev = None
for n in (64, 128, 256):
    err, divb = plane_wave_error(n)
    order = "" if prev is None else f"   order = {math.log2(prev / err):.3f}"
    print(f"  n = {n:3}  L2 error = {err:.3e}  max |dB| = {divb:.1e}{order}")
    prev = err

print("\nmoving point charge, 10,000 steps:")
n = 12
grid = RectGrid((n, n, n), (1.0 / n,) * 3)
state = EMState.zeros(grid)
charge = PointCharge(3.0, (0.3, 0.4, 0.55), (0.23, -0.11, 0.05))
state.rho[charge.cell_of(grid)] = 3.0
dt = 0.5 * state.cfl_limit()
vol = (1.0 / n) ** 3
r0 = float(np.abs(state.div_D() - state.rho / vol).max())
evolve_leapfrog(state, 10000, dt, lambda step: charge.push(grid, dt))
r1 = state.diagnostics["gauss_residual"][-1]
print(f"  Gauss residual drift: {abs(r1 - r0):.2e} "
      f"(relative {abs(r1 - r0) / r0:.1e})")
print(f"  total charge: {state.rho.sum():.12f}")

print("\nLorentz force on a charge at rest in a field E0 dt^dx:")
g = Metric.minkowski(4)
field = PolyForm.basis(4, (0,)).wedge(PolyForm.basis(4, (1,))).scale(Fraction(2))
rest = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
out = lorentz_force(Fraction(3), rest, field, g)
print("  force vector:", out["vector"])
print("  g(force, velocity):", out["orthogonality"])
