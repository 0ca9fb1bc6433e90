"""Window vectors, heart-membership tests, and the twist functors.

A module of heart n can be re-presented in heart n+1 exactly when the
representation-level Koszul sequence is exact there: the assembled row map
kappa1 = (A1 A2 A3) must be onto the bottom slot and the signed skew map
kappa2 in the B's must fill its kernel.  The new top space is ker(kappa2);
dually, twisting down takes the cokernel of the skew map in the A's as the
new bottom space.  The skew maps are read off the sign table of the
potential (``quiver.CYCLES``), and each twist builds its Koszul maps once for
both its membership check and the new space.  Relation validity is asserted
as a postcondition on every twist (a failure is an internal error, not bad
input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from .errors import InputError, InternalCheckError, MembershipError
from .linalg import Mat, coords_in_colspace, hstack, nullspace, quotient_projection, rank, vstack
from .quiver import CYCLES, Representation, representation, require_valid


def _skew(rep: Representation, family: str) -> Mat:
    """Signed skew 3x3 block matrix: block (i, j) = sum_k eps(i, k, j) * X_k.

    Read off the sign table: each off-diagonal block has exactly one term, so
    the nonzero rows of X_k are copied, signed, into place and nothing cancels.
    """
    mats = [rep.matrices[f"{family}{k}"] for k in (1, 2, 3)]
    rows, cols = mats[0].rows, mats[0].cols
    out: list[dict] = [{} for _ in range(3 * rows)]
    for i, k, j, e in CYCLES:
        roff, coff = (i - 1) * rows, (j - 1) * cols
        for r, row in enumerate(mats[k - 1].sparse):
            if row:
                out[roff + r].update((coff + c, e * v) for c, v in row.items())
    return Mat(3 * rows, 3 * cols, tuple(out))


def koszul_maps(rep: Representation) -> tuple[Mat, Mat]:
    """(kappa1, kappa2): the row map in the A's and the skew block map in the B's.

    kappa1 . kappa2 = 0 is a consequence of the relations and is asserted.
    """
    mats = rep.matrices
    kappa1 = hstack([mats["a1"], mats["a2"], mats["a3"]])
    kappa2 = _skew(rep, "b")
    if not (kappa1 @ kappa2).is_zero():
        raise InternalCheckError("kappa1 . kappa2 != 0; relations must be broken")
    return kappa1, kappa2


def down_maps(rep: Representation) -> tuple[Mat, Mat]:
    """(nu, mu): the column map in the B's and the skew block map in the A's."""
    mats = rep.matrices
    nu = vstack([mats["b1"], mats["b2"], mats["b3"]])
    mu = _skew(rep, "a")
    if not (mu @ nu).is_zero():
        raise InternalCheckError("mu . nu != 0; relations must be broken")
    return nu, mu


@dataclass(frozen=True)
class MembershipReport:
    direction: str
    ok: bool
    ranks: dict
    reason: str | None = None

    def to_dict(self) -> dict:
        return {"direction": self.direction, "ok": self.ok,
                "ranks": dict(self.ranks), "reason": self.reason}


def _membership_up(rep: Representation, kappa1: Mat, kappa2: Mat) -> MembershipReport:
    h0, h1, h2 = rep.dims
    r1, r2 = rank(kappa1), rank(kappa2)
    ranks = {
        "kappa1_rank": r1, "kappa1_target": h0,
        "kappa2_rank": r2, "kappa2_required": 3 * h1 - h0,
        "kernel_dim": 3 * h2 - r2,
    }
    reasons = []
    if r1 != h0:
        reasons.append(f"kappa1 not surjective: rank {r1} < {h0}")
    if r2 != 3 * h1 - h0:
        reasons.append(f"im(kappa2) != ker(kappa1): rank {r2} != {3 * h1 - h0}")
    return MembershipReport("up", not reasons, ranks, "; ".join(reasons) or None)


def _membership_down(rep: Representation, nu: Mat, mu: Mat) -> MembershipReport:
    h0, h1, h2 = rep.dims
    rn, rm = rank(nu), rank(mu)
    ranks = {
        "nu_rank": rn, "nu_required": h2,
        "mu_rank": rm, "mu_required": 3 * h1 - h2,
        "cokernel_dim": 3 * h0 - rm,
    }
    reasons = []
    if rn != h2:
        reasons.append(f"nu not injective: rank {rn} < {h2}")
    if rm != 3 * h1 - h2:
        reasons.append(f"im(nu) != ker(mu): rank {rm} != {3 * h1 - h2}")
    return MembershipReport("down", not reasons, ranks, "; ".join(reasons) or None)


def window_membership(rep: Representation, direction: str) -> MembershipReport:
    """Exactness diagnostics for sliding the window one slot up or down."""
    if direction == "up":
        return _membership_up(rep, *koszul_maps(rep))
    if direction == "down":
        return _membership_down(rep, *down_maps(rep))
    raise InputError(f"direction must be 'up' or 'down', got {direction!r}")


def twist_up(rep: Representation) -> Representation:
    """Re-present the module in heart n+1; the new top space is ker(kappa2)."""
    kappa1, kappa2 = koszul_maps(rep)
    membership = _membership_up(rep, kappa1, kappa2)
    if not membership.ok:
        raise MembershipError(f"not a heart-{rep.heart + 1} module: {membership.reason}",
                              membership.to_dict())
    h0, h1, h2 = rep.dims
    mats = rep.matrices
    kernel = nullspace(kappa2)
    new_top = kernel.cols
    if h0 != 3 * h1 - 3 * h2 + new_top:
        raise InternalCheckError("twist_up: kernel dimension breaks the window recursion")

    new_mats: dict[str, Mat] = {}
    for i in (1, 2, 3):
        new_mats[f"a{i}"] = mats[f"b{i}"]
    for j in (1, 2, 3):
        new_mats[f"b{j}"] = Mat(h2, new_top, kernel.sparse[(j - 1) * h2: j * h2])
    for k in (1, 2, 3):
        stacked = vstack([mats[f"c{j}"] @ mats[f"a{k}"] for j in (1, 2, 3)])
        coords = coords_in_colspace(kernel, stacked)
        if coords is None:
            raise InternalCheckError("twist_up: c-composites left the kernel")
        new_mats[f"c{k}"] = coords

    out = representation(rep.heart + 1, (h1, h2, new_top), new_mats,
                         f"twist_up({rep.label})")
    return require_valid(out, "twist_up")


def twist_down(rep: Representation) -> Representation:
    """Re-present the module in heart n-1; the new bottom space is coker(mu)."""
    nu, mu = down_maps(rep)
    membership = _membership_down(rep, nu, mu)
    if not membership.ok:
        raise MembershipError(f"not a heart-{rep.heart - 1} module: {membership.reason}",
                              membership.to_dict())
    h0, h1, h2 = rep.dims
    mats = rep.matrices
    proj, free = quotient_projection(mu)
    new_bottom = proj.rows
    if new_bottom != 3 * h0 - 3 * h1 + h2:
        raise InternalCheckError("twist_down: cokernel dimension breaks the window recursion")

    new_mats: dict[str, Mat] = {}
    for i in (1, 2, 3):
        off = (i - 1) * h0
        new_mats[f"a{i}"] = Mat(new_bottom, h0, tuple(
            {j - off: v for j, v in row.items() if off <= j < off + h0} for row in proj.sparse))
    for j in (1, 2, 3):
        new_mats[f"b{j}"] = mats[f"a{j}"]
    for k in (1, 2, 3):
        # On a representative e_f of a quotient basis vector, c_k acts through
        # the block of f: (phi in block j) -> B_k C_j phi.
        big = [mats[f"b{k}"] @ mats[f"c{j}"] for j in (1, 2, 3)]
        cols = []
        for f in free:
            j, pos = divmod(f, h0)
            cols.append(big[j].column(pos))
        new_mats[f"c{k}"] = Mat.from_rows([[col[r] for col in cols] for r in range(h1)],
                                          cols=new_bottom)

    out = representation(rep.heart - 1, (new_bottom, h0, h1), new_mats,
                         f"twist_down({rep.label})")
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


def extend_window(wv: WindowVector, k: int) -> WindowVector:
    """Fill h_k (and anything between) by the 4-term recursion; extrapolated slots stay uncertified."""
    values = dict(wv.values)
    lo, hi = wv.span()
    if hi - lo < 2:
        raise InputError("need at least three consecutive window values to extrapolate")
    for m in range(lo, hi + 1):
        if m not in values:
            raise InputError(f"window has a gap at {m}; cannot extrapolate")
    while k < lo:
        values[lo - 1] = 3 * values[lo] - 3 * values[lo + 1] + values[lo + 2]
        lo -= 1
    while k > hi:
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
