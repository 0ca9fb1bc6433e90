"""Exact homological algebra for the local projective plane quiver.

The package computes Ext complexes between finite-dimensional modules of the
quiver with potential attached to the total space of O(-3) on the projective
plane, together with Euler pairings, determinant-line characters with their
Koszul rewriting calculus, window membership tests and the twist functors
moving a module between adjacent hearts.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

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

# ``characters`` and ``windows`` are loaded on first use: a caller that only
# builds modules and Ext complexes does not pay for importing them.  Their
# names resolve through the module ``__getattr__`` below (PEP 562), which
# keeps each value in the package namespace once it has been looked up.
_LAZY_MODULES = {
    "characters": (
        "DetCharacter",
        "geometric_char",
        "koszul_rewrite",
        "ori_char",
        "verify_cocycle",
        "verify_square_root",
        "verify_theorem3",
        "verify_theorem4",
    ),
    "windows": (
        "WindowVector",
        "extend_window",
        "koszul_complex",
        "twist_down",
        "twist_up",
        "window_membership",
        "window_vector",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY})
