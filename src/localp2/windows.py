"""Window vectors, heart-membership tests, and the twist functors.

A module M of heart n can be re-presented in heart n+1 exactly when the
representation-level Koszul sequence is exact there: the assembled row map
kappa1 = (A1 A2 A3) must be onto the bottom slot and the signed skew map
kappa2 in the B's must fill its kernel.  The new top space is ker(kappa2).
These maps are the top two differentials of the Ext complex RHom(S_0, M)
(``koszul_maps``), so they come from the one assembler of every map read
off the sign table, with its size preflight and its d.d = 0 check.  Each
twist builds them once for both its membership check and the new space.

The down direction is the up direction seen through the transpose module
M^v (``_dual``: slots reversed, a_i and b_i swapped, every matrix
transposed, heart n -> -n-2), which is a module because the sign table is
antisymmetric.  Its Koszul maps are (nu^T, -mu^T), with nu = (B1; B2; B3) and
mu the skew map in the A's, so down-membership is the up-test of M^v and the
down twist is the dual of the up twist of M^v.  Relation validity is asserted
as a postcondition on every twist (a failure is an internal error, not bad
input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from .errors import InputError, InternalCheckError, MembershipError
from .homalg import build_ext_complex_Y
from .linalg import MAX_DIM, Mat, nullspace, rank, vstack
from .quiver import Representation, representation, require_valid, simple_module


# Every twist and membership test of a heart reads the same S_0, so it is
# built once per heart, in a bounded memo; a module is immutable, so one S_0
# serves every caller.
@lru_cache(maxsize=64)
def _simple0(heart: int) -> Representation:
    return simple_module(0, heart)


def koszul_maps(rep: Representation) -> tuple[Mat, Mat]:
    """(kappa1, kappa2): d2 and d1 of the Ext complex RHom(S_0, M), S_0 the
    simple module at vertex 0 of M's heart.

    Its terms are M_0, M_2^3, M_1^3 and M_0, and its differentials, read off
    the sign table, are d0 = -(C1; C2; C3), d1 = kappa2, the skew block map in
    the B's with block (i, j) = sum_k eps(i, k, j) * B_k, and d2 = kappa1 =
    (A1 A2 A3).  The builder checks d.d = 0: d1 . d0 = 0 says that M obeys
    its relations rel_a_i, and d2 . d1 = 0 its relations rel_c_k, so a record
    that breaks one is refused (``InternalCheckError``).  A term above
    ``MAX_DIM``, as 3 dim M_1 or 3 dim M_2 can be, is refused before anything
    is allocated (``InputError``).
    """
    _, kappa2, kappa1 = build_ext_complex_Y(_simple0(rep.heart), rep).differentials
    return kappa1, kappa2


def _dual(rep: Representation, label: str | None = None) -> Representation:
    """The transpose module M^v in heart -n-2: slots reversed, a_i <-> b_i^T, c_k -> c_k^T."""
    mats = rep.matrices
    swap = {"a": "b", "b": "a", "c": "c"}
    dual = {name: mats[swap[name[0]] + name[1]].transpose() for name in mats}
    return representation(-rep.heart - 2, rep.dims[::-1], dual, label)


@dataclass(frozen=True)
class MembershipReport:
    direction: str
    ok: bool
    ranks: dict
    reason: str | None = None

    def to_dict(self) -> dict:
        return {"direction": self.direction, "ok": self.ok,
                "ranks": dict(self.ranks), "reason": self.reason}


# The up-test's rank names and failure texts, and the names they take when
# the test runs on M^v for the down direction: kappa1 of M^v is nu^T, and
# kappa2 of M^v is -mu^T.
_NAMES = {
    "up": ("kappa1_rank", "kappa1_target", "kappa2_rank", "kappa2_required", "kernel_dim",
           "kappa1 not surjective", "im(kappa2) != ker(kappa1)"),
    "down": ("nu_rank", "nu_required", "mu_rank", "mu_required", "cokernel_dim",
             "nu not injective", "im(nu) != ker(mu)"),
}


def _membership(rep: Representation, kappa1: Mat, kappa2: Mat,
                direction: str) -> MembershipReport:
    """The up-test of ``rep`` (of M^v for "down"), reported under the names of ``direction``."""
    r1_name, h0_name, r2_name, req_name, dim_name, fail1, fail2 = _NAMES[direction]
    h0, h1, h2 = rep.dims
    r1, r2 = rank(kappa1), rank(kappa2)
    ranks = {r1_name: r1, h0_name: h0, r2_name: r2, req_name: 3 * h1 - h0,
             dim_name: 3 * h2 - r2}
    reasons = []
    if r1 != h0:
        reasons.append(f"{fail1}: rank {r1} < {h0}")
    if r2 != 3 * h1 - h0:
        reasons.append(f"{fail2}: rank {r2} != {3 * h1 - h0}")
    return MembershipReport(direction, not reasons, ranks, "; ".join(reasons) or None)


def window_membership(rep: Representation, direction: str) -> MembershipReport:
    """Exactness diagnostics for sliding the window one slot up or down."""
    if direction not in _NAMES:
        raise InputError(f"direction must be 'up' or 'down', got {direction!r}")
    if direction == "down":
        rep = _dual(rep)
    return _membership(rep, *koszul_maps(rep), direction)


def _twist(rep: Representation, direction: str, heart: int,
           label: str | None) -> Representation:
    """The module one heart up, whose new top space is ker(kappa2).

    For "down", ``rep`` is M^v; ``heart`` is the heart the caller moves to,
    named in a refusal.
    """
    kappa1, kappa2 = koszul_maps(rep)
    membership = _membership(rep, kappa1, kappa2, direction)
    if not membership.ok:
        raise MembershipError(f"not a heart-{heart} module: {membership.reason}",
                              membership.to_dict())
    h0, h1, h2 = rep.dims
    mats = rep.matrices
    kernel, free = nullspace(kappa2)
    new_top = kernel.cols
    if h0 != 3 * h1 - 3 * h2 + new_top:
        raise InternalCheckError(f"twist_{direction}: kernel dimension breaks the window "
                                 "recursion")

    new_mats: dict[str, Mat] = {}
    for i in (1, 2, 3):
        new_mats[f"a{i}"] = mats[f"b{i}"]
    for j in (1, 2, 3):
        new_mats[f"b{j}"] = Mat(h2, new_top, kernel.sparse[(j - 1) * h2: j * h2])
    # The c-composites c_j a_k for j = 1, 2, 3 are one product with the stacked c's.
    c_stack = vstack([mats[f"c{j}"] for j in (1, 2, 3)])
    for k in (1, 2, 3):
        # The kernel basis is the identity at its free rows, so a vector of the
        # kernel has its coordinates there.
        stacked = c_stack @ mats[f"a{k}"]
        coords = Mat(new_top, h1, tuple(stacked.sparse[f] for f in free))
        if kernel @ coords != stacked:
            raise InternalCheckError(f"twist_{direction}: c-composites left the kernel")
        new_mats[f"c{k}"] = coords
    return representation(rep.heart + 1, (h1, h2, new_top), new_mats, label)


def twist_up(rep: Representation) -> Representation:
    """Re-present the module in heart n+1; the new top space is ker(kappa2)."""
    out = _twist(rep, "up", rep.heart + 1, f"twist_up({rep.label})")
    return require_valid(out, "twist_up")


def twist_down(rep: Representation) -> Representation:
    """Re-present the module in heart n-1: the dual of the up twist of M^v.

    The new bottom space is coker(mu), the dual of ker(-mu^T).
    """
    out = _dual(_twist(_dual(rep), "down", rep.heart - 1, None), f"twist_down({rep.label})")
    return require_valid(out, "twist_down")


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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


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
