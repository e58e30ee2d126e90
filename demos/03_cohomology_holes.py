"""Detecting holes: Betti numbers and closed-but-not-exact cochains.

The winding cochain on the annulus measures the angle swept by each edge.
It is closed (its coboundary vanishes) but not exact, and its integral
distinguishes loops around the hole from contractible ones.
"""

from formcalc import meshes, scenarios
from formcalc.cohomology import betti_numbers

for name, cx in [("disk", meshes.disk()), ("annulus", meshes.annulus()),
                 ("sphere", meshes.sphere_octahedron()),
                 ("torus", meshes.torus()),
                 ("mobius", meshes.mobius_minimal())]:
    print(f"--- {name} ---")
    print(betti_numbers(cx).table())

hole = scenarios.annulus_hole().values
print("winding cochain on the annulus:")
print("  closed:", hole["closed"])
print("  exact: ", hole["exact"])
print("  integral around the hole (inner rim):", hole["hole"])
print("  integral around one quad (contractible):", hole["contractible"])
