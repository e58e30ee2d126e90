"""Static electromagnetism as discrete form equations.

Gauss: the flux of the twisted 2-form D through any surface enclosing a
point charge equals the charge. Ampere: the circulation of the twisted
1-form H around any loop linking a wire equals the current. Both hold to
solver tolerance on every surface/loop, not just asymptotically.
"""

from formcalc import scenarios

gauss = scenarios.gauss_point_charge().values
print(f"point charge Q = {gauss['charge']} on a grounded 32^3 box")
for radius, flux in zip(gauss["radii"], gauss["fluxes"]):
    print(f"  flux of D through box of radius {radius:2}: {flux:.9f}")

ampere = scenarios.ampere_wire().values
print(f"\nstraight wire I = {ampere['current']} through a 64^2 transverse grid")
for radius, circ in zip(ampere["radii"], ampere["linking"]):
    print(f"  circulation of H on linking loop of radius {radius}: {circ:.9f}")
print(f"  circulation on a non-linking loop: {ampere['non_linking']:.2e}")
