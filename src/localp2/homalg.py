"""Ext complexes and Euler pairings.

The 4-term complex computes Ext^0..Ext^3 between modules in one heart from
the self-dual bimodule resolution of the algebra; the 3-term complex is the
plane-side analogue computing Ext^0..Ext^2.  In cohomological degree 0 sits
the intertwiner defect, in degree 1 the linearization of the quadratic
relations, and (on the 3-fold side) in degree 2 the signed dual of degree 0.

Each differential is one ``BlockMap`` over a static term table
(``EXT_TABLES``), checked once where it is defined, so that every term fits
its blocks for all module dims.  Per (side, dims of M, dims of N) the tables
are only laid out as ``BlockPlan``s, in a memo bounded by ``PLAN_MEMO_SIZE``
entries, so a complex whose dims were seen before pays only for its entries:
each nonzero arrow entry is written where its terms put it.  The 3-fold side
takes two modules with a heart, the plane side two plane modules (``heart``
None) or two modules with a heart, read through their a and b arrows.

Every ``ExtComplex`` holds integer matrices over one denominator D
(``ExtComplex.integral``) whose ``d.d = 0`` was checked when it was made:
(D d2)(D d1) = D^2 d2 d1 is zero exactly when d2 d1 is.  The builders
assemble a complex once, over the lcm of the denominators of the arrow
entries, and check it; differentials supplied to ``ExtComplex`` are scaled
over the lcm of their own denominators, refused unless their shapes chain
the term dims, and checked the same way.  The rational matrices,
``ExtComplex.differentials``, are read back only when asked for.  Ranks
read the integer matrices, since rank(D d) = rank(d) over Q and over GF(p)
when p does not divide D, and run from the top differential down, with
clearing: ``d_i`` is eliminated without its rows at the pivot columns of
``d_{i+1}``, which ``d.d = 0`` puts in the span of its other rows.  The top
differential takes trailing pivots, so the rows it clears from the next are
rows that elimination would reduce to zero, and clearing there only saves
work (``ext_dims_of``).  Only prime mode when p divides D ranks in full,
d0 first, and refuses the rational matrices' first such entry.

Differential orientation is pinned by the worked Euler values
euler_form_Y((1,0,0),(3,1,0)) = euler_form_P2((1,0,0),(3,1,0)) = 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Sequence

from .errors import HeartMismatchError, InputError, InternalCheckError, ShapeError
from .linalg import (RATIONAL, BlockMap, BlockPlan, Mat, PrimeScalars, Scalars, cleared,
                     product_is_zero, rank, term_table)
from .quiver import (
    ARROW_SPACE,
    CYCLES,
    D0_TERMS,
    VERTEX_SPACE,
    VERTICES,
    Representation,
    p2_restrict,
)

ExtDims = tuple[int, ...]


def _rational(d: int, scaled: Sequence[Mat]) -> tuple[Mat, ...]:
    """The matrices m / d, an entry an int where it is integral."""
    return tuple(m if d == 1 else Mat(m.rows, m.cols, tuple(
        {j: Fraction(x, d) if x % d else x // d for j, x in row.items()}
        for row in m.sparse)) for m in scaled)


@dataclass(frozen=True, init=False)
class ExtComplex:
    """A complex checked when it is made: ``integral`` is ``(D, D * d)``, every
    entry an int, and ``d_{i+1} . d_i = 0`` holds, so ``ext_dims_of`` may rank
    it with clearing.  ``ExtComplex(side, term_dims, differentials)``, which
    ``dataclasses.replace`` calls too, refuses differentials that do not chain
    ``term_dims`` (``ShapeError``) or do not compose to zero
    (``InternalCheckError``).  Complexes compare by side, term dims and
    ``integral``: the same maps held over two denominators compare unequal."""

    side: str
    term_dims: tuple[int, ...]
    integral: tuple[int, tuple[Mat, ...]] = field(init=False, repr=False)

    def __init__(self, side: str, term_dims: Sequence[int], differentials: Sequence[Mat]):
        term_dims = tuple(term_dims)
        if [(m.cols, m.rows) for m in differentials] != list(zip(term_dims, term_dims[1:])):
            raise ShapeError(f"differentials of shapes {[(m.rows, m.cols) for m in differentials]} "
                             f"do not chain the term dims {term_dims}")
        d = lcm(*(x.denominator for m in differentials for row in m.sparse for x in row.values()))
        scaled = tuple(cleared(m, d) for m in differentials)
        _check_composition(scaled, side)
        self.__dict__.update(side=side, term_dims=term_dims, integral=(d, scaled))

    @cached_property
    def differentials(self) -> tuple[Mat, ...]:
        """The differentials over Q, read off ``integral`` when first read."""
        return _rational(*self.integral)


def _check_composition(diffs: Sequence[Mat], side: str) -> None:
    """Check d_{i+1} . d_i = 0 for each pair of consecutive differentials.

    Each product is tested by ``product_is_zero``, which never builds it; the
    first nonzero one raises ``InternalCheckError`` naming the pair.
    """
    for i in range(len(diffs) - 1):
        if not product_is_zero(diffs[i + 1], diffs[i]):
            raise InternalCheckError(f"{side.upper()} complex: d{i + 1} . d{i} != 0")


# The term spaces after those of d0: on the 3-fold side the dual arrow blocks
# Hom(M_src, N_tgt), on the plane side the three relation blocks Hom(M_2, N_0).
_DUAL_SPACE = tuple((label, c, r) for label, r, c in ARROW_SPACE)
_RELATION_SPACE = tuple((f"r_c{k}", 0, 2) for k in (1, 2, 3))

# Differentials after d0 as BlockMap terms (out block, in block, arrow, left
# with N or right with M, sign), read off the sign table; arrow a_i has index
# i - 1, b_j j + 2 and c_k k + 5.  Y d1 is the Leibniz linearization of the
# nine 2-term relations: the component indexed by an arrow is the derivative
# of its relation.  Y d2 is the signed dual of d0.  P2 d0 is the intertwiner
# system of ``quiver`` (``D0_TERMS``, which ``hom_space`` reads too) on the a
# and b arrows, its first twelve terms, and P2 d1 linearizes the three
# c-derivative relations.  Each is checked once, here, by ``term_table``: the
# cycles (i, j, k) are the permutations of (1, 2, 3), so any two of their
# indices fix the third and no (out, in) block pair repeats.
_Y_D1 = term_table(_DUAL_SPACE, ARROW_SPACE, ARROW_SPACE,
                   [term for i, j, k, e in CYCLES for a, b, c in [(i - 1, j + 2, k + 5)]
                    for term in ((a, c, b, True, e), (a, b, c, False, e),
                                 (b, a, c, True, e), (b, c, a, False, e),
                                 (c, b, a, True, e), (c, a, b, False, e))])
_Y_D2 = term_table(VERTEX_SPACE, _DUAL_SPACE, ARROW_SPACE,
                   [term for x, (_, src, tgt) in enumerate(ARROW_SPACE)
                    for term in ((src, x, x, True, 1), (tgt, x, x, False, -1))])
_P2_D0 = term_table(ARROW_SPACE[:6], VERTEX_SPACE, ARROW_SPACE[:6], D0_TERMS[:12])
_P2_D1 = term_table(_RELATION_SPACE, ARROW_SPACE[:6], ARROW_SPACE[:6],
                    [term for i, j, k, e in CYCLES
                     for term in ((k - 1, j + 2, i - 1, True, e), (k - 1, i - 1, j + 2, False, e))])

# One table per side: the term spaces in cohomological degree 0, 1, ..., then
# the term tables of the differentials d0, d1, ...  The 3-fold side ends with
# its degree-0 space again.  The character layouts of
# ``characters`` are derived from these spaces.
EXT_TABLES = {
    "y": ((VERTEX_SPACE, ARROW_SPACE, _DUAL_SPACE, VERTEX_SPACE),
          (D0_TERMS, _Y_D1, _Y_D2)),
    "p2": ((VERTEX_SPACE, ARROW_SPACE[:6], _RELATION_SPACE), (_P2_D0, _P2_D1)),
}


def _ext_terms(side: str, m_dims, n_dims) -> list[list[tuple[str, int, int]]]:
    """The blocks (label, dim N_r, dim M_c) of every term of the ``side`` complex
    between modules of these dims."""
    return [[(label, n_dims[r], m_dims[c]) for label, r, c in space]
            for space in EXT_TABLES[side][0]]


# The terms and plans of a complex depend on its side and module dims only,
# and a corpus run builds hundreds of complexes on a few dozen dims pairs, so
# they are laid out once per (side, dims of M, dims of N) and kept in a
# bounded memo: the least recently used entry leaves first.  A plan holds a
# few ints per nonempty term (at most 36 per differential), whatever the dims.
PLAN_MEMO_SIZE = 128


@lru_cache(maxsize=PLAN_MEMO_SIZE)
def _ext_plans(side: str, m_dims: tuple[int, ...],
               n_dims: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[BlockPlan, ...]]:
    """The term dims of the ``side`` complex between modules of these dims, and
    the plan of each of its differentials."""
    terms = _ext_terms(side, m_dims, n_dims)
    plans = tuple(BlockPlan(terms[d + 1], terms[d], table)
                  for d, table in enumerate(EXT_TABLES[side][1]))
    return tuple(sum(r * c for _, r, c in blocks) for blocks in terms), plans


def d0_plan(plane: bool, m_dims: tuple[int, ...], n_dims: tuple[int, ...]) -> BlockPlan:
    """The plan of d0, the intertwiner system of ``quiver.intertwiner_matrix``,
    for plane modules (``plane``) or modules with a heart of these dims, from the memo."""
    return _ext_plans("p2" if plane else "y", m_dims, n_dims)[1][0]


def _integer_differentials(side: str, m: Representation,
                           n: Representation) -> tuple[tuple[int, ...], int, list[Mat]]:
    """The term dims, D and D times the differentials of the ``side`` complex, unchecked."""
    term_dims, plans = _ext_plans(side, m.dims, n.dims)
    d = lcm(m.denominator, n.denominator)
    (bm, mm), (bn, nm) = m.arrows_over(d), n.arrows_over(d)
    # Every differential entry is ± an arrow entry of m or n (write-once tables).
    return term_dims, d, [BlockMap(plan, nm, mm, max(bm, bn)).matrix() for plan in plans]


def _build_ext_complex(side: str, m: Representation, n: Representation) -> ExtComplex:
    term_dims, d, diffs = _integer_differentials(side, m, n)
    _check_composition(diffs, side)
    cx = object.__new__(ExtComplex)  # checked above: skip the public constructor
    cx.__dict__.update(side=side, term_dims=term_dims, integral=(d, tuple(diffs)))
    return cx


def build_ext_complex_Y(m: Representation, n: Representation) -> ExtComplex:
    """The 4-term complex whose cohomology is Ext^*(m, n) on the 3-fold side,
    between two modules with a heart (``InputError`` otherwise)."""
    if m.heart is None or n.heart is None:
        raise InputError("the 3-fold side needs two modules with a heart, not plane modules")
    if m.heart != n.heart:
        raise HeartMismatchError(f"ext across hearts {m.heart} != {n.heart}")
    return _build_ext_complex("y", m, n)


def build_ext_complex_P2(m: Representation, n: Representation) -> ExtComplex:
    """The 3-term complex computing Ext^0..Ext^2 on the plane side, between two
    plane modules or two modules with a heart (``InputError`` otherwise).  Two
    modules with a heart are read through their a and b arrows, as their
    restrictions, and must share it (``HeartMismatchError``), as on the
    3-fold side; their ``p2_restrict`` images, which forget the heart, need not."""
    if (m.heart is None) != (n.heart is None):
        raise InputError(f"the plane side needs two plane modules or two modules with a "
                         f"heart, got hearts {m.heart} and {n.heart}")
    if m.heart != n.heart:
        raise HeartMismatchError(f"ext across hearts {m.heart} != {n.heart}")
    return _build_ext_complex("p2", m, n)


def ext_dims_of(cx: ExtComplex, scalars: Scalars = RATIONAL) -> ExtDims:
    """The cohomology dimensions of ``cx``: term dims minus the ranks of the
    differentials into and out of each term.

    Every complex was checked when it was made, so its integer differentials
    (``cx.integral``) are ranked from the top down, with clearing: ``d_i`` is
    eliminated without its rows at the pivot columns P of ``d_{i+1}``.  The
    check proved ``d_{i+1} . d_i = 0`` over Z, so every echelon row of
    ``d_{i+1}``, over Q or GF(p), annihilates ``d_i``.  On the columns P
    those rows are triangular with nonzero pivots, whichever side they pivot
    on, so the rows of ``d_i`` at P are combinations of its other rows, and
    its rank is unchanged.

    The top differential, ranked first, takes trailing pivots: its echelon
    row at c ends at c, so row c of the next differential is a combination
    of the rows before c.  Eliminated in full, in row order, that row meets
    pivot rows spanning every row before it and reduces to zero, adding no
    pivot row.  So the cleared elimination builds the same pivot rows as the
    full one and skips only rows that reduce to zero: it never does more
    work.  Every other differential keeps leading pivots and row order; the
    rows they clear are combinations of rows after them, the rank is still
    exact, but the work is not bounded that way (trailing pivots there
    measured slower on thick points).  Only prime mode when p divides D is
    ranked in full, d0 first, on the rational differentials, so that the
    first entry met whose denominator p divides is the one refused.
    """
    d, diffs = cx.integral
    if isinstance(scalars, PrimeScalars) and d % scalars.p == 0:
        ranks = [rank(m, scalars) for m in cx.differentials]
    else:
        ranks, skip = [], set()
        for m in reversed(diffs):
            pivots = set()
            ranks.append(rank(m, scalars, skip=skip, pivots=pivots, trailing=not ranks))
            skip = pivots
        ranks.reverse()
    ranks.append(0)
    out = []
    prev = 0
    for i, t in enumerate(cx.term_dims):
        out.append(t - ranks[i] - prev)
        prev = ranks[i]
    # This guards only the rank kernels and the clearing bookkeeping: the
    # check when made proved d.d = 0, so true ranks give no negative dimension.
    if any(e < 0 for e in out):
        raise InternalCheckError(f"negative cohomology dimension {out}; rank backend broken")
    return tuple(out)


def ext_dims_Y(m: Representation, n: Representation, scalars: Scalars = RATIONAL) -> ExtDims:
    return ext_dims_of(build_ext_complex_Y(m, n), scalars)


def ext_dims_P2(m: Representation, n: Representation, scalars: Scalars = RATIONAL) -> ExtDims:
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


def cy3_record(fwd: ExtDims, bwd: ExtDims) -> dict:
    """Compare ext^i(m, n) = ``fwd[i]`` with ext^{3-i}(n, m) = ``bwd[3 - i]`` for i = 0..3."""
    ok = all(fwd[i] == bwd[3 - i] for i in range(4))
    return {"passed": ok, "ext_mn": list(fwd), "ext_nm": list(bwd)}


def verify_cy3_duality(m: Representation, n: Representation,
                       scalars: Scalars = RATIONAL) -> dict:
    """Check ext^i(m, n) = ext^{3-i}(n, m) for i = 0..3."""
    return cy3_record(ext_dims_Y(m, n, scalars), ext_dims_Y(n, m, scalars))


def triangle_record(ey: ExtDims, ep: ExtDims) -> dict:
    """Compare self-Ext on the 3-fold, ``ey``, with the two plane contributions of ``ep``.

    Checks e^i_Y = e^i_P2 + e^{3-i}_P2 degreewise, where ``ep`` is the plane
    self-Ext of the restriction; a mismatch is reported, flagged as
    potentially caused by nonzero connecting maps.
    """
    def p2(i: int) -> int:
        return ep[i] if 0 <= i <= 2 else 0

    rhs = [p2(i) + p2(3 - i) for i in range(4)]
    per_degree = [{"degree": i, "y": ey[i], "p2_sum": rhs[i], "equal": ey[i] == rhs[i]}
                  for i in range(4)]
    ok = all(d["equal"] for d in per_degree)
    return {
        "passed": ok,
        "ext_y": list(ey),
        "ext_p2": list(ep),
        "per_degree": per_degree,
        "note": None if ok else "mismatch may come from nonzero connecting maps",
    }


def verify_pushforward_triangle(m: Representation, scalars: Scalars = RATIONAL) -> dict:
    """``triangle_record`` of the self-Ext of m and of its plane restriction."""
    ey = ext_dims_Y(m, m, scalars)
    mp = p2_restrict(m)
    return triangle_record(ey, ext_dims_P2(mp, mp, scalars))


def ext_report(m, n, side: str, scalars: Scalars = RATIONAL) -> dict:
    """The CLI-facing record for one Ext computation."""
    if side == "y":
        duality = verify_cy3_duality(m, n, scalars)
        ext, cy3 = duality["ext_mn"], duality["passed"]
        euler = euler_form_Y(m.dims, n.dims)
    elif side == "p2":
        ext, cy3 = list(ext_dims_P2(m, n, scalars)), None
        euler = euler_form_P2(m.dims, n.dims)
    else:
        raise InputError(f"side must be 'y' or 'p2', got {side!r}")
    alt = sum((-1) ** i * e for i, e in enumerate(ext))
    if alt != euler:
        raise InternalCheckError(
            f"alternating sum {alt} disagrees with closed-form Euler pairing {euler}"
        )
    return {
        "side": side,
        "dims_M": list(m.dims),
        "dims_N": list(n.dims),
        "term_dims": list(_ext_plans(side, m.dims, n.dims)[0]),
        "ext_dims": ext,
        "euler": euler,
        "cy3_ok": cy3,
    }
