"""Simplicial complexes and the two kinds of orientation.

Builds the bundled meshes, checks boundary-of-boundary, and shows which
surfaces admit a coherent (straight) orientation and which only a twisted
one.
"""

import numpy as np

from formcalc import meshes, scenarios
from formcalc.parity import Parity

surfaces = {
    "disk": meshes.disk(),
    "annulus": meshes.annulus(),
    "sphere": meshes.sphere_octahedron(),
    "torus": meshes.torus(),
    "mobius": meshes.mobius_minimal(),
}

print("surface   cells (0/1/2)   Euler   orientable")
for name, cx in surfaces.items():
    counts = "/".join(str(cx.num_simplices(k)) for k in range(3))
    print(f"{name:9} {counts:15} {cx.euler_characteristic():5}   "
          f"{cx.orientable()}")

print()
print("boundary of the boundary vanishes:")
for name, cx in surfaces.items():
    product = cx.boundary_matrix(1) @ cx.boundary_matrix(2)
    print(f"  {name}: nonzero entries in d1*d2 = {np.count_nonzero(product)}")

print()
print("fundamental chains:")
torus = surfaces["torus"]
print("  torus, straight:", len(
    torus.fundamental_chain(Parity.STRAIGHT).coefficients), "cells")
mobius = scenarios.mobius_twisted_only().values
print("  mobius, twisted: integral of 1 =", mobius["twisted_integral"],
      "over", mobius["triangles"], "triangles")
print("  mobius, straight:", mobius["straight_error"])
