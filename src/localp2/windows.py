"""Window vectors, heart-membership tests, and the twist functors.

Sliding a window one heart is a tilt at a simple module, so membership is Ext
vanishing against the simples S_v of M's heart: M moves up exactly when
Ext^2(S_0, M) = Ext^3(S_0, M) = 0, and down exactly when Ext^2(M, S_2) =
Ext^3(M, S_2) = 0.  ``koszul_complex`` builds the complex of a direction and
``_membership`` reads its ranks off ``ext_dims_of``.  RHom(S_0, M) has terms
(M_0, M_2^3, M_1^3, M_0), d0 = -(C1; C2; C3), d1 = kappa2, the skew map in the
B's, and d2 = kappa1 = (A1 A2 A3); RHom(M, S_2) has terms (M_2, M_0^3, M_1^3,
M_2), d0 = (C1^T; C2^T; C3^T), d1 = mu^T, mu the skew map in the A's, and
d2 = -nu^T, nu = (B1; B2; B3).

Each twist reads the complex that decided its membership.  ``twist_up`` takes
the new top space ker(kappa2), and the new c's as the coordinates of -d0 a_k in
it; ``twist_down`` takes the new bottom space ker(mu^T), and the new c's as the
transposed coordinates of d0 b_k^T in it.  RHom(M, S_2) is entry for entry the
negative of RHom(S_0, M^v), M^v the transpose module in heart -n-2 (slots
reversed, a_i and b_i swapped, every matrix transposed), so ``twist_down`` is
the dual of the up twist of M^v, entry for entry.  Relation validity is
asserted as a postcondition on every twist (a failure is an internal error,
not bad input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from .errors import InputError, InternalCheckError, MembershipError
from .homalg import ExtComplex, build_ext_complex_Y, ext_dims_of
from .linalg import MAX_DIM, Mat, nullspace, scalar
from .quiver import Representation, dumps_json, representation, require_valid, simple_module


# Every twist and membership test of a heart reads the same simples, so each
# is built once per (vertex, heart), in a bounded memo; a module is
# immutable, so one S_v serves every caller.
@lru_cache(maxsize=64)
def _simple(vertex: int, heart: int) -> Representation:
    return simple_module(vertex, heart)


@dataclass(frozen=True)
class MembershipReport:
    direction: str
    ok: bool
    ranks: dict
    reason: str | None = None

    def to_dict(self) -> dict:
        return {"direction": self.direction, "ok": self.ok,
                "ranks": dict(self.ranks), "reason": self.reason}


# Each direction's rank names and failure texts: for "up" the ranks of
# kappa1 = d2 and kappa2 = d1 of RHom(S_0, M), for "down" those of nu = d2
# and mu = d1 of RHom(M, S_2).
_NAMES = {
    "up": ("kappa1_rank", "kappa1_target", "kappa2_rank", "kappa2_required", "kernel_dim",
           "kappa1 not surjective", "im(kappa2) != ker(kappa1)"),
    "down": ("nu_rank", "nu_required", "mu_rank", "mu_required", "cokernel_dim",
             "nu not injective", "im(nu) != ker(mu)"),
}


def koszul_complex(rep: Representation, direction: str = "up") -> ExtComplex:
    """The Ext complex deciding membership in ``direction``: RHom(S_0, M) for
    "up", RHom(M, S_2) for "down", S_v the simple at vertex v of M's heart.

    The builder checks d.d = 0, which M's relations imply, and refuses a record
    that fails it (``InternalCheckError``); a term above ``MAX_DIM`` is refused
    before anything is allocated (``InputError``).
    """
    if direction == "up":
        return build_ext_complex_Y(_simple(0, rep.heart), rep)
    if direction == "down":
        return build_ext_complex_Y(rep, _simple(2, rep.heart))
    raise InputError(f"direction must be 'up' or 'down', got {direction!r}")


def _membership(cx: ExtComplex, direction: str) -> MembershipReport:
    """The membership report of a Koszul complex, under the names of ``direction``.

    With terms t and Ext dims e, d2 has rank t3 - e3 and d1 rank t2 - rank(d2) -
    e2, so the test passes exactly when e2 = e3 = 0.
    """
    r1_name, t3_name, r2_name, req_name, dim_name, fail1, fail2 = _NAMES[direction]
    _, t1, t2, t3 = cx.term_dims
    _, _, e2, e3 = ext_dims_of(cx)
    r1 = t3 - e3
    r2 = t2 - r1 - e2
    ranks = {r1_name: r1, t3_name: t3, r2_name: r2, req_name: t2 - t3, dim_name: t1 - r2}
    reasons = []
    if r1 != t3:
        reasons.append(f"{fail1}: rank {r1} < {t3}")
    if r2 != t2 - t3:
        reasons.append(f"{fail2}: rank {r2} != {t2 - t3}")
    return MembershipReport(direction, not reasons, ranks, "; ".join(reasons) or None)


def window_membership(rep: Representation, direction: str) -> MembershipReport:
    """Exactness diagnostics for sliding the window one slot up or down."""
    return _membership(koszul_complex(rep, direction), direction)


def _twist(rep: Representation, direction: str) -> Representation:
    """The module one heart up or down, read off the complex that decided its
    membership, as the module docstring describes."""
    up = direction == "up"
    heart = rep.heart + (1 if up else -1)
    cx = koszul_complex(rep, direction)
    membership = _membership(cx, direction)
    if not membership.ok:
        raise MembershipError(f"not a heart-{heart} module: {membership.reason}",
                              membership.to_dict())
    lo, mid, hi = rep.dims if up else rep.dims[::-1]
    mats = rep.matrices
    d0, d1, _ = cx.differentials
    kernel, free = nullspace(d1)
    outer = kernel.cols
    if lo != 3 * mid - 3 * hi + outer:
        raise InternalCheckError(f"twist_{direction}: kernel dimension breaks the window "
                                 "recursion")

    sign = -1 if up else 1
    new_mats: dict[str, Mat] = {}
    for k in (1, 2, 3):
        block = Mat(hi, outer, kernel.sparse[(k - 1) * hi: k * hi])
        # Up, d0 a_k stacks the c-composites -c_j a_k for j = 1, 2, 3; down,
        # d0 b_k^T stacks c_j^T b_k^T.  The kernel basis is the identity at
        # its free rows, so a vector of the kernel has its coordinates there.
        stacked = d0 @ (mats[f"a{k}"] if up else mats[f"b{k}"].transpose())
        rows = tuple(stacked.sparse[f] for f in free)
        if kernel @ Mat(outer, mid, rows) != stacked:
            raise InternalCheckError(f"twist_{direction}: c-composites left the kernel")
        coords = Mat(outer, mid, tuple({j: scalar(sign * v) for j, v in row.items()}
                                       for row in rows))
        if up:
            new_mats.update({f"a{k}": mats[f"b{k}"], f"b{k}": block, f"c{k}": coords})
        else:
            new_mats.update({f"a{k}": block.transpose(), f"b{k}": mats[f"a{k}"],
                             f"c{k}": coords.transpose()})
    dims = (mid, hi, outer) if up else (outer, hi, mid)
    return representation(heart, dims, new_mats, f"twist_{direction}({rep.label})")


def twist_up(rep: Representation) -> Representation:
    """Re-present the module in heart n+1; the new top space is ker(kappa2)."""
    return require_valid(_twist(rep, "up"), "twist_up")


def twist_down(rep: Representation) -> Representation:
    """Re-present the module in heart n-1; the new bottom space is ker(mu^T),
    the dual of coker(mu)."""
    return require_valid(_twist(rep, "down"), "twist_down")


@dataclass(frozen=True)
class WindowVector:
    """Window dimensions h_k on a range of slots, with membership certification flags."""

    base: int
    values: tuple[tuple[int, int], ...]
    certified: frozenset = field(default_factory=frozenset)

    @staticmethod
    def make(base: int, values: Mapping[int, int], certified) -> "WindowVector":
        return WindowVector(base, tuple(sorted((int(k), int(v)) for k, v in values.items())),
                            frozenset(int(k) for k in certified))

    def value(self, k: int) -> int:
        for key, v in self.values:
            if key == k:
                return v
        raise InputError(f"window has no value at {k}")

    def span(self) -> tuple[int, int]:
        ks = [k for k, _ in self.values]
        return min(ks), max(ks)

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "values": {str(k): v for k, v in self.values},
            "certified": sorted(self.certified),
        }

    def dumps(self) -> str:
        return dumps_json(self.to_dict()) + "\n"


def window_vector(rep: Representation) -> WindowVector:
    """Window slots of the representation; adjacent slots are added when membership proves them."""
    return certified_window(rep, window_membership(rep, "up"), window_membership(rep, "down"))


def certified_window(rep: Representation, up: MembershipReport,
                     down: MembershipReport) -> WindowVector:
    """The three slots of ``rep``, plus the adjacent slot of each passing membership report."""
    n = rep.heart
    values = {n: rep.dims[0], n + 1: rep.dims[1], n + 2: rep.dims[2]}
    if up.ok:
        values[n + 3] = up.ranks["kernel_dim"]
    if down.ok:
        values[n - 1] = down.ranks["cokernel_dim"]
    return WindowVector.make(n, values, values.keys())


def extend_window(wv: WindowVector, *targets: int) -> WindowVector:
    """Fill h_k for every target k (and anything between) by the 4-term
    recursion; extrapolated slots stay uncertified.  A window that would span
    more than ``MAX_DIM`` slots is refused (``InputError``) before any is filled."""
    values = dict(wv.values)
    lo, hi = wv.span()
    if hi - lo < 2:
        raise InputError("need at least three consecutive window values to extrapolate")
    for m in range(lo, hi + 1):
        if m not in values:
            raise InputError(f"window has a gap at {m}; cannot extrapolate")
    first, last = min(lo, *targets), max(hi, *targets)
    if last - first >= MAX_DIM:
        raise InputError(f"a window on [{first}, {last}] spans {last - first + 1} slots, more "
                         f"than the size bound {MAX_DIM}")
    while first < lo:
        values[lo - 1] = 3 * values[lo] - 3 * values[lo + 1] + values[lo + 2]
        lo -= 1
    while last > hi:
        values[hi + 1] = values[hi - 2] - 3 * values[hi - 1] + 3 * values[hi]
        hi += 1
    return WindowVector.make(wv.base, values, wv.certified)


def recursion_violations(wv: WindowVector) -> list[int]:
    """Indices k with four consecutive values where h_k != 3h_{k+1} - 3h_{k+2} + h_{k+3}."""
    values = dict(wv.values)
    out = []
    for k in sorted(values):
        if all(k + d in values for d in (1, 2, 3)):
            if values[k] != 3 * values[k + 1] - 3 * values[k + 2] + values[k + 3]:
                out.append(k)
    return out
