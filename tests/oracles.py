"""Independent oracles used to freeze expected values.

Nothing here touches the complex builders under test: the Ext profiles come
from plane cohomology combinatorics and exterior-algebra dimension counts,
the Euler pairings from the closed bilinear forms evaluated directly.
"""

from __future__ import annotations

from math import comb


def h_plane(i: int, m: int) -> int:
    """Cohomology dimensions of the degree-m line bundle on the plane."""
    if i == 0:
        return comb(m + 2, 2) if m >= 0 else 0
    if i == 2:
        return h_plane(0, -m - 3)
    return 0


def ext_pushforward(a: int, b: int) -> tuple[int, int, int, int]:
    """Ext profile between the pushforwards of O(a), O(b) from the zero section.

    Normal-bundle contributions to the Ext sheaves sit in twists d and d-3
    with d = b - a; the profile is their cohomology, degree-shifted.
    """
    d = b - a
    return tuple(h_plane(q, d) + h_plane(q - 1, d - 3) for q in range(4))


def ext_point_self_Y() -> tuple[int, int, int, int]:
    """Self-Ext of a point on a smooth 3-fold: exterior algebra on 3 generators."""
    return tuple(comb(3, q) for q in range(4))


def ext_point_self_P2() -> tuple[int, int, int]:
    """Self-Ext of a plane point: exterior algebra on 2 generators."""
    return tuple(comb(2, q) for q in range(3))


def ext_thick_point_self_Y(k: int) -> tuple[int, int, int, int]:
    """Self-Ext of O_Z for a curvilinear subscheme Z of length k of a smooth 3-fold.

    Ext^0 = End(O_Z) = O_Z has dimension k, and Ext^1 = Hom(I_Z, O_Z) is the
    tangent space of Hilb^k at Z, of dimension 3k on the smooth curvilinear
    locus; CY3 duality gives Ext^2 and Ext^3.
    """
    return (k, 3 * k, 3 * k, k)
