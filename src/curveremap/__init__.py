"""Conservative remapping of cell averages between curvilinear quad meshes.

The pipeline clips every overlapping pair of curved cells exactly
(Weiler-Atherton traversal with Newton curve-curve intersections),
reconstructs per-cell polynomials with multi-resolution WENO, optionally
applies a positivity-preserving limiter, and integrates the polynomials
exactly over the clipped pieces, so total mass is conserved to round-off.

`curveremap.remap` is the function `remap`, re-exported here; as a package
attribute it hides the submodule of the same name. The module itself is
`importlib.import_module("curveremap.remap")`, and `from curveremap.remap
import build_plan` reaches into it as well.
"""

from .geometry import (Aabb, CurvedPolygon, CurveSpan, GeometryError,
                       ParamCurve, polygon_from_points, straight_span)
from .clipping import (ClipResult, ClipTopologyError, Crossings,
                       intersect_curves, kept_loops, wa_clip)
from .integrate import IntegrationError, TriangulationError, triangulate
from .limiter import LimiterError, positivity_limit
from .mesh import (Adjacency, CurvilinearMesh, Field, MeshError,
                   MeshParseError, boundary_loop, build_adjacency,
                   exact_cell_averages, gen_deformed_square_mesh,
                   gen_disk_mesh, read_field, read_mesh, rotate_mesh,
                   validate_mesh, write_field, write_mesh)
from .reconstruct import ReconField, build_stencil, weno_reconstruct
from .remap import (RemapPlan, RemapReport, RemapRequest, apply_plan,
                    build_plan, candidate_pairs, remap)

__version__ = "0.1.0"
