"""Exact homological algebra for the local projective plane quiver.

The package computes Ext complexes between finite-dimensional modules of the
quiver with potential attached to the total space of O(-3) on the projective
plane, together with Euler pairings, determinant-line characters with their
Koszul rewriting calculus, window membership tests and the twist functors
moving a module between adjacent hearts.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .characters import (
    DetCharacter,
    geometric_char,
    koszul_rewrite,
    ori_char,
    verify_cocycle,
    verify_square_root,
    verify_theorem3,
    verify_theorem4,
)
from .errors import (
    HeartMismatchError,
    HeartRangeError,
    InputError,
    InternalCheckError,
    LocalP2Error,
    MembershipError,
    ShapeError,
)
from .homalg import (
    ExtComplex,
    build_ext_complex_P2,
    build_ext_complex_Y,
    euler_form_P2,
    euler_form_Y,
    ext_dims_P2,
    ext_dims_Y,
    ext_report,
    verify_cy3_duality,
    verify_pushforward_triangle,
)
from .linalg import RATIONAL, Mat, PrimeScalars, RationalScalars, rank
from .quiver import (
    BEILINSON,
    JACOBI,
    Representation,
    check_relations,
    cyclic_derivative,
    direct_sum,
    dumps_rep,
    epsilon,
    hom_space,
    loads_rep,
    p2_restrict,
    point_module,
    pushforward_module,
    simple_module,
    zero_module,
)
from .windows import (
    WindowVector,
    extend_window,
    koszul_maps,
    recursion_violations,
    twist_down,
    twist_up,
    window_membership,
    window_vector,
)
