"""Exterior algebra on polynomial forms, and the discrete Stokes pairing.

The continuous side: wedge, exterior derivative, and interior product with
exact rational coefficients. The discrete side: a twisted 1-cochain on a
disk whose boundary values sum to -7, so both sides of Stokes's theorem
report -7.
"""

from fractions import Fraction

from formcalc import scenarios
from formcalc.forms import PolyForm, PolyVectorField
from formcalc.poly import parse_poly

# wedge and d on x dy in the plane
omega = PolyForm.basis(2, (1,)).scale(parse_poly("x0", 2))
print("omega      =", omega)
print("d omega    =", omega.d())
print("d d omega  =", omega.d().d())

V = PolyVectorField.constant((Fraction(1), Fraction(2)))
print("i_V omega  =", omega.interior(V))

# F^F for the electromagnetic 2-form dt^dx + dy^dz
ffwedge = scenarios.ffwedge_4d().values
print("\nF          =", ffwedge["F"])
print("F ^ F      =", ffwedge["FF"])

# Stokes on the disk: the -7 pairing
lhs, rhs = scenarios.stokes_disk_minus7().values["pairing"]
print("\nStokes pairing on the disk:")
print("  integral of d omega over the disk   =", lhs)
print("  integral of omega over the boundary =", rhs)
