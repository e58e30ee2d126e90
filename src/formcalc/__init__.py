"""Exterior calculus engine: exact flat-space forms, discrete forms on
complexes, cohomology, metric geometry, and Maxwell's equations."""

from .cochain import (Cochain, Measure, coboundary, cup_wedge, hodge_diagonal,
                      integrate, measure_from_metric,
                      stokes_pairing_check, twist_cochain)
from .cohomology import CohomologyReport, betti_numbers, is_closed, is_exact
from .forms import (PolyForm, PolyVectorField, exterior_derivative, form_from_text,
                    form_to_text, hodge, interior_product, is_integrable_1form,
                    pair, pullback, wedge)
from .metric import (CausalClass, Metric, TimeOrientation, classify,
                     form_magnitude, gamma_factor, induced_metric, norm_squared,
                     orthogonal_complement, parse_metric)
from .orient import (FrameKind, OrientationFrame, RelativeSign, concat,
                     induced_boundary_sign, untwist)
from .parity import Parity
from .poly import Poly
from .simplicial import (Chain, MeshFormatError, SimplicialComplex, boundary,
                         build_complex, euler_characteristic, mesh_to_text,
                         orientability, parse_mesh)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
