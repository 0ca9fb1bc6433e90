"""Ext complexes and Euler pairings.

The 4-term complex computes Ext^0..Ext^3 between modules in one heart from
the self-dual bimodule resolution of the algebra; the 3-term complex is the
plane-side analogue computing Ext^0..Ext^2.  In cohomological degree 0 sits
the intertwiner defect, in degree 1 the linearization of the quadratic
relations, and (on the 3-fold side) in degree 2 the signed dual of degree 0.

Differential orientation is pinned by the worked Euler values
euler_form_Y((1,0,0),(3,1,0)) = euler_form_P2((1,0,0),(3,1,0)) = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import HeartMismatchError, InternalCheckError
from .linalg import RATIONAL, BlockMap, Mat, Scalars, rank
from .quiver import (
    ARROW_ORDER,
    P2_ARROW_ORDER,
    P2Representation,
    Representation,
    VERTICES,
    arrow,
    epsilon,
    intertwiner_matrix,
)

ExtDims = tuple[int, ...]


@dataclass(frozen=True)
class ExtComplex:
    side: str
    term_dims: tuple[int, ...]
    differentials: tuple[Mat, ...]

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * t for i, t in enumerate(self.term_dims))


def _check_composition(diffs: Sequence[Mat], side: str) -> None:
    for i in range(len(diffs) - 1):
        if not (diffs[i + 1] @ diffs[i]).is_zero():
            raise InternalCheckError(f"{side} complex: d{i + 1} . d{i} != 0")


def _vertex_blocks(m, n) -> list[tuple[str, int, int]]:
    return [(f"v{v}", n.dims[v], m.dims[v]) for v in VERTICES]


def _t1_blocks(m, n, names) -> list[tuple[str, int, int]]:
    out = []
    for name in names:
        a = arrow(name)
        out.append((name, n.dims[a.source], m.dims[a.target]))
    return out


def _t2_blocks_y(m, n) -> list[tuple[str, int, int]]:
    out = []
    for name in ARROW_ORDER:
        a = arrow(name)
        out.append((name, n.dims[a.target], m.dims[a.source]))
    return out


def _terms_Y(m, n) -> tuple[list[tuple[str, int, int]], ...]:
    return (_vertex_blocks(m, n), _t1_blocks(m, n, ARROW_ORDER), _t2_blocks_y(m, n),
            _vertex_blocks(m, n))


def _term_dims(terms) -> tuple[int, ...]:
    return tuple(sum(r * c for _, r, c in blocks) for blocks in terms)


def build_ext_complex_Y(m: Representation, n: Representation) -> ExtComplex:
    """The 4-term complex whose cohomology is Ext^*(m, n) on the 3-fold side."""
    if m.heart != n.heart:
        raise HeartMismatchError(f"ext across hearts {m.heart} != {n.heart}")
    mm, nm = dict(m.matrices), dict(n.matrices)
    terms = _, t1, t2, t3 = _terms_Y(m, n)

    d0 = intertwiner_matrix(m, n, ARROW_ORDER)

    # Degree 1: Leibniz linearization of the nine 2-term relations; the
    # component indexed by an arrow is the derivative of its relation.
    b1 = BlockMap(t2, t1)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = epsilon(i, j, k)
                if not e:
                    continue
                b1.add_left(f"a{i}", f"c{k}", nm[f"b{j}"], e)
                b1.add_right(f"a{i}", f"b{j}", mm[f"c{k}"], e)
                b1.add_left(f"b{j}", f"a{i}", nm[f"c{k}"], e)
                b1.add_right(f"b{j}", f"c{k}", mm[f"a{i}"], e)
                b1.add_left(f"c{k}", f"b{j}", nm[f"a{i}"], e)
                b1.add_right(f"c{k}", f"a{i}", mm[f"b{j}"], e)
    d1 = b1.matrix()

    # Degree 2: the signed dual of degree 0.
    b2 = BlockMap(t3, t2)
    for name in ARROW_ORDER:
        a = arrow(name)
        b2.add_left(f"v{a.source}", name, nm[name], 1)
        b2.add_right(f"v{a.target}", name, mm[name], -1)
    d2 = b2.matrix()

    diffs = (d0, d1, d2)
    _check_composition(diffs, "Y")
    return ExtComplex("y", _term_dims(terms), diffs)


def build_ext_complex_P2(m: P2Representation, n: P2Representation) -> ExtComplex:
    """The 3-term complex computing Ext^0..Ext^2 on the plane side."""
    mm, nm = dict(m.matrices), dict(n.matrices)
    t0 = _vertex_blocks(m, n)
    t1 = _t1_blocks(m, n, P2_ARROW_ORDER)
    t2 = [(f"r_c{k}", n.dims[0], m.dims[2]) for k in (1, 2, 3)]

    d0 = intertwiner_matrix(m, n, P2_ARROW_ORDER)

    b1 = BlockMap(t2, t1)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = epsilon(i, j, k)
                if not e:
                    continue
                b1.add_left(f"r_c{k}", f"b{j}", nm[f"a{i}"], e)
                b1.add_right(f"r_c{k}", f"a{i}", mm[f"b{j}"], e)
    d1 = b1.matrix()

    dims = _term_dims((t0, t1, t2))
    diffs = (d0, d1)
    _check_composition(diffs, "P2")
    return ExtComplex("p2", dims, diffs)


def ext_dims_of(cx: ExtComplex, scalars: Scalars = RATIONAL) -> ExtDims:
    ranks = [rank(d, scalars) for d in cx.differentials] + [0]
    out = []
    prev = 0
    for i, t in enumerate(cx.term_dims):
        out.append(t - ranks[i] - prev)
        prev = ranks[i]
    if any(e < 0 for e in out):
        raise InternalCheckError(f"negative cohomology dimension {out}; rank backend broken")
    return tuple(out)


def ext_dims_Y(m: Representation, n: Representation, scalars: Scalars = RATIONAL) -> ExtDims:
    return ext_dims_of(build_ext_complex_Y(m, n), scalars)


def ext_dims_P2(m: P2Representation, n: P2Representation, scalars: Scalars = RATIONAL) -> ExtDims:
    return ext_dims_of(build_ext_complex_P2(m, n), scalars)


def euler_form_Y(m: Sequence[int], n: Sequence[int]) -> int:
    """Closed-form Euler pairing on the 3-fold side (antisymmetric)."""
    return 3 * ((m[0] * n[1] - m[1] * n[0])
                + (m[1] * n[2] - m[2] * n[1])
                + (m[2] * n[0] - m[0] * n[2]))


def euler_form_P2(m: Sequence[int], n: Sequence[int]) -> int:
    """Closed-form Euler pairing on the plane side."""
    return (sum(m[v] * n[v] for v in VERTICES)
            - 3 * (m[1] * n[0] + m[2] * n[1])
            + 3 * m[2] * n[0])


def verify_cy3_duality(m: Representation, n: Representation,
                       scalars: Scalars = RATIONAL) -> dict:
    """Check ext^i(m, n) = ext^{3-i}(n, m) for i = 0..3."""
    fwd = ext_dims_Y(m, n, scalars)
    bwd = ext_dims_Y(n, m, scalars)
    ok = all(fwd[i] == bwd[3 - i] for i in range(4))
    return {"passed": ok, "ext_mn": list(fwd), "ext_nm": list(bwd)}


def verify_pushforward_triangle(m: Representation, scalars: Scalars = RATIONAL) -> dict:
    """Compare self-Ext on the 3-fold with the two plane contributions.

    Checks e^i_Y = e^i_P2 + e^{3-i}_P2 degreewise; a mismatch is reported,
    flagged as potentially caused by nonzero connecting maps.
    """
    from .quiver import p2_restrict

    ey = ext_dims_Y(m, m, scalars)
    mp = p2_restrict(m)
    ep = ext_dims_P2(mp, mp, scalars)

    def p2(i: int) -> int:
        return ep[i] if 0 <= i <= 2 else 0

    per_degree = []
    ok = True
    for i in range(4):
        lhs = ey[i]
        rhs = p2(i) + p2(3 - i)
        per_degree.append({"degree": i, "y": lhs, "p2_sum": rhs, "equal": lhs == rhs})
        ok = ok and lhs == rhs
    return {
        "passed": ok,
        "ext_y": list(ey),
        "ext_p2": list(ep),
        "per_degree": per_degree,
        "note": None if ok else "mismatch may come from nonzero connecting maps",
    }


def ext_report(m, n, side: str, scalars: Scalars = RATIONAL) -> dict:
    """The CLI-facing record for one Ext computation."""
    if side == "y":
        duality = verify_cy3_duality(m, n, scalars)
        ext, cy3 = duality["ext_mn"], duality["passed"]
        term_dims = _term_dims(_terms_Y(m, n))
        euler = euler_form_Y(m.dims, n.dims)
    elif side == "p2":
        cx = build_ext_complex_P2(m, n)
        ext, cy3 = list(ext_dims_of(cx, scalars)), None
        term_dims = cx.term_dims
        euler = euler_form_P2(m.dims, n.dims)
    else:
        raise InternalCheckError(f"unknown side {side!r}")
    alt = sum((-1) ** i * e for i, e in enumerate(ext))
    if alt != euler:
        raise InternalCheckError(
            f"alternating sum {alt} disagrees with closed-form Euler pairing {euler}"
        )
    return {
        "side": side,
        "dims_M": list(m.dims),
        "dims_N": list(n.dims),
        "term_dims": list(term_dims),
        "ext_dims": ext,
        "euler": euler,
        "cy3_ok": cy3,
    }
