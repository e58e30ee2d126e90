"""Detecting holes: Betti numbers and closed-but-not-exact cochains.

The winding cochain on the annulus measures the angle swept by each edge.
It is closed (its coboundary vanishes) but not exact, and its integral
distinguishes loops around the hole from contractible ones.
"""

from formcalc import meshes
from formcalc.cochain import integrate
from formcalc.cohomology import betti_numbers, is_closed, is_exact, winding_cochain
from formcalc.simplicial import loop_chain

for name, cx in [("disk", meshes.disk()), ("annulus", meshes.annulus()),
                 ("sphere", meshes.sphere_octahedron()),
                 ("torus", meshes.torus()),
                 ("mobius", meshes.mobius_minimal())]:
    print(f"--- {name} ---")
    print(betti_numbers(cx).table())

annulus = meshes.annulus()
w = winding_cochain(annulus)
print("winding cochain on the annulus:")
print("  closed:", is_closed(w, annulus))
print("  exact: ", is_exact(w, annulus)["exact"])
print("  integral around the hole (inner rim):",
      integrate(w, loop_chain(annulus, [0, 1, 2, 3])))
print("  integral around one quad (contractible):",
      integrate(w, loop_chain(annulus, [0, 1, 5, 4])))
