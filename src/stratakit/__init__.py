"""Exact-arithmetic invariants of graded affine quiver varieties.

The library computes, over an acyclic quiver: morphism spaces of the mesh
categories on level windows, the quiver and relation counts of the
singular category, Kan extensions of module points, the stratifying
decomposition with its degeneration order, closed orbits, resolution
shapes and desingularization fibers -- all in exact rational arithmetic,
with brute-force oracles bundled alongside every nontrivial computation.
"""

from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    StrataKitError,
    WindowInsufficiencyError,
)
from .exact_linalg import QQ
from .quiver_core import (
    Configuration,
    MeshRelator,
    QArrow,
    Quiver,
    RepArrow,
    RepQuiver,
    RepVertex,
    Window,
    a_n_quiver,
    build_repetition,
    d4_quiver,
    kronecker_quiver,
    parse_vertex,
    sigma,
    sigma_inv,
    tau,
    tau_inv,
)
from .mesh_hom import HomBasis, MeshContext, Morphism, check_configuration, compose, hom_basis, hom_dim
from .dq_engine import (
    DynkinInfo,
    ar_relation_vector,
    cartan_apply,
    cartan_solve,
    hom_dq,
    is_dynkin,
    nu_vertex,
    sigma_shift_vertex,
)
from .kan_strata import (
    FiberResult,
    PhiResult,
    SModulePoint,
    WindowRep,
    closed_orbit,
    degeneration_leq,
    fiber,
    is_costable,
    is_stable,
    kan_intermediate,
    kan_left,
    kan_right,
    phi,
    representable_rep,
    resolution_shape,
    restrict,
    same_stratum,
    stabilize,
    validate,
)
from .sing_builder import SingQuiverReport, build_sing_quiver, ext_oracle

__version__ = "0.1.0"
