"""Exact linear algebra kernel: ranks, kernels, block assembly."""

from __future__ import annotations

from copy import deepcopy
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localp2.errors import InputError, ScalarModeError, ShapeError
from localp2.linalg import (
    MAX_DIM,
    RATIONAL,
    BlockMap,
    BlockPlan,
    Mat,
    PrimeScalars,
    RationalScalars,
    Row,
    _echelon,
    _field_rows,
    block_diag,
    nullspace,
    product_is_zero,
    rank,
    sum_of_products_is_zero,
    term_table,
)

PRIME = PrimeScalars(2**31 + 11)


def _det(m: Mat) -> Fraction:
    # Laplace expansion; only used on tiny matrices as a rank oracle.
    if m.rows == 0:
        return Fraction(1)
    if m.rows == 1:
        return m.data[0][0]
    total = Fraction(0)
    for j in range(m.cols):
        if m.data[0][j]:
            minor = Mat.from_rows(
                [[row[c] for c in range(m.cols) if c != j] for row in m.data[1:]],
                cols=m.cols - 1)
            total += (-1) ** j * m.data[0][j] * _det(minor)
    return total


def _rank_by_minors(m: Mat) -> int:
    for size in range(min(m.rows, m.cols), 0, -1):
        for rows in combinations(range(m.rows), size):
            for cols in combinations(range(m.cols), size):
                sub = Mat.from_rows([[m.data[i][j] for j in cols] for i in rows], cols=size)
                if _det(sub):
                    return size
    return 0


def _matrices(entries):
    return st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r)))


small_matrices = _matrices(st.integers(-4, 4))
small_fraction_matrices = _matrices(st.fractions(-4, 4, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_matches_minor_oracle(rows):
    m = Mat.from_rows(rows)
    assert rank(m) == _rank_by_minors(m)


@settings(max_examples=60, deadline=None)
@given(small_fraction_matrices)
def test_rank_transpose_and_prime_agreement(rows):
    m = Mat.from_rows(rows)
    r = rank(m)
    assert rank(m.transpose()) == r
    # Scaling each row by its denominator lcm (at most 12) gives integer
    # entries of size at most 48, whose minors are far below the modulus, so
    # the mod-p rank cannot drop and must agree exactly.
    assert rank(m, PRIME) == r


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_nullspace_annihilates_and_has_complementary_rank(rows):
    m = Mat.from_rows(rows)
    ns, free = nullspace(m)
    assert ns.rows == m.cols
    assert ns.cols == len(free) == m.cols - rank(m)
    if ns.cols:
        assert (m @ ns).is_zero()
        assert rank(ns) == ns.cols


@settings(max_examples=80, deadline=None)
@given(small_fraction_matrices, st.sets(st.integers(0, 3)), st.sampled_from([RATIONAL, PRIME]))
def test_rank_leaves_out_skipped_rows_and_reports_its_pivot_columns(rows, skip, scalars):
    m = Mat.from_rows(rows)
    kept = [row for i, row in enumerate(rows) if i not in skip]
    pivots = {-1}
    r = rank(m, scalars, skip=skip, pivots=pivots)
    assert type(r) is int and r == rank(Mat.from_rows(kept, cols=m.cols), scalars)
    # The pivots are added to the set: the leading columns of the kept rows'
    # echelon form, the columns outside the kernel's free ones (entries are
    # small, so the prime rank of every column prefix is the rational one).
    free = nullspace(Mat.from_rows(kept, cols=m.cols))[1]
    assert pivots == {-1} | (set(range(m.cols)) - set(free)) and len(pivots) == r + 1
    assert rank(m, scalars, skip=set(range(m.rows))) == 0


def test_rank_of_empty_shapes():
    assert rank(Mat.zeros(0, 5)) == 0
    assert rank(Mat.zeros(5, 0)) == 0
    assert nullspace(Mat.zeros(0, 3)) == (Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                          (0, 1, 2))


def test_rank_with_fraction_entries():
    m = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]])
    assert rank(m) == _rank_by_minors(m)
    assert rank(m, PRIME) == rank(m)


def test_prime_rank_rejects_denominator_divisible_by_p():
    m = Mat.from_rows([[1, Fraction(1, PRIME.p)], [0, 1]])
    assert rank(m) == 2
    with pytest.raises(ScalarModeError):
        rank(m, PRIME)


# Entries at the edges of the symmetric residue range [-h, h] of PRIME, and
# beyond it, with Fractions whose denominators are invertible mod p.
_P, _H = PRIME.p, PRIME.p // 2
_EDGE_INTS = [0, 1, -1, 2, -2, _H, -_H, _H + 1, -(_H + 1), _P - 1, _P, -_P, 2 * _P + 3, _P ** 2]
edge_matrices = _matrices(st.one_of(
    st.sampled_from(_EDGE_INTS),
    st.builds(Fraction, st.sampled_from(_EDGE_INTS), st.sampled_from([2, 3, 7, _P + 1]))))


def _rank_mod_p(rows: list[list], p: int) -> int:
    # Dense textbook reference over GF(p), residues in [0, p).
    a = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in row]
         for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


@settings(max_examples=150, deadline=None)
@given(edge_matrices)
@example([[1, _H], [2, -1]])
@example([[_H + 1, 2], [2, 1]])
def test_prime_rank_matches_dense_mod_p_elimination(rows):
    assert rank(Mat.from_rows(rows), PRIME) == _rank_mod_p(rows, _P)


def test_prime_rank_can_fall_below_rational_rank():
    cases = [
        ([[_P]], 1, 0),
        ([[1, 1], [1, 1 + _P]], 2, 1),
        # Every entry is in range, and row 2 minus twice row 1 is
        # (0, -1 - 2h) = (0, -p): zero only once the row update reduces it.
        ([[1, _H], [2, -1]], 2, 1),
    ]
    for rows, over_q, mod_p in cases:
        m = Mat.from_rows(rows)
        assert (rank(m), rank(m, PRIME)) == (over_q, mod_p), rows


@settings(max_examples=150, deadline=None)
@given(edge_matrices)
@example([[1, _H], [2, -1]])
def test_prime_residues_are_nonzero_and_symmetric(rows):
    m = Mat.from_rows(rows)
    field_rows = _field_rows(m, _P)
    values = [x for row in field_rows for x in row.values()]
    pivots = _echelon(field_rows, _P)
    values += [x for row in pivots.values() for x in row.values()]
    assert all(type(x) is int and x and -_H <= x <= _H for x in values)


@settings(max_examples=120, deadline=None)
@given(st.one_of(small_fraction_matrices, edge_matrices), st.sampled_from([RATIONAL, PRIME]))
@example([[1, 1], [0, 1]], RATIONAL)
def test_trailing_pivots_keep_the_rank_and_end_their_rows(rows, scalars):
    m = Mat.from_rows(rows)
    p = scalars.p if isinstance(scalars, PrimeScalars) else 0
    trailing = set()
    assert rank(m, scalars, pivots=trailing, trailing=True) == rank(m, scalars)
    found = _echelon(_field_rows(m, p), p, trailing=True)
    assert set(found) == trailing and all(max(row) == c for c, row in found.items())
    # They are the leading pivots of the matrix with its columns reversed.
    flipped = set()
    rank(Mat.from_rows([row[::-1] for row in rows]), scalars, pivots=flipped)
    assert trailing == {m.cols - 1 - c for c in flipped}


def test_prime_scalars_rejects_small_modulus():
    with pytest.raises(ScalarModeError):
        PrimeScalars(97)


@pytest.mark.parametrize("modulus", [
    2**32,                            # even
    65537 * 65539,                    # product of two primes
    3825123056546413051,              # strong pseudoprime to every prime base up to 23
    318665857834031151167461,         # strong pseudoprime to every prime base up to 37
    3317044064679887385961981,        # at the bound where bases 2..41 stop being a proof
    2**89 - 1,                        # prime, but above that bound
])
def test_prime_scalars_rejects_moduli_not_proved_prime(modulus):
    with pytest.raises(ScalarModeError):
        PrimeScalars(modulus)


def test_prime_scalars_accepts_primes():
    for p in (2**31 + 11, 2147483693, 2**61 - 1):
        assert PrimeScalars(p).p == p


def test_scalar_names_are_constants():
    # The corpus report prints ``name``; it is a class constant, which no
    # constructor takes.
    assert (RATIONAL.name, PRIME.name) == ("rational", "prime")
    for make in (lambda: RationalScalars("q"), lambda: RationalScalars(name="q"),
                 lambda: PrimeScalars(2**31 + 11, "q"), lambda: PrimeScalars(2**31 + 11, name="q")):
        with pytest.raises(TypeError):
            make()


def test_stacking_and_shape_errors():
    a = Mat.from_rows([[1, 2]])
    b = Mat.from_rows([[3, 4]])
    assert block_diag(a, b).data[1][2] == 3
    with pytest.raises(ShapeError):
        a @ a


def _blockmap(out_space, in_space, arrows, terms, left=(), right=(), m_dims=(2, 2, 2),
              n_dims=(2, 2, 2)) -> BlockMap:
    # A table checked by ``term_table``, laid out on modules of these dims and applied.
    table = term_table(out_space, in_space, arrows, terms)
    out_blocks, in_blocks = ([(label, n_dims[r], m_dims[c]) for label, r, c in space]
                             for space in (out_space, in_space))
    return BlockMap(BlockPlan(out_blocks, in_blocks, table), left, right)


def test_blockmap_left_right_composition():
    # One block each side: phi -> L @ phi @ R, checked entrywise on a sample.
    # Arrow f runs from slot 1 to slot 0, so N_f @ phi reads phi at slots
    # (1, c) and phi @ M_f reads it at (r, 0).
    arrows = [("f", 0, 1)]
    left = Mat.from_rows([[1, 2], [0, 1]])
    right = Mat.from_rows([[1, 1], [2, 0]])
    op_left = _blockmap([("out", 0, 0)], [("in", 1, 0)], arrows, [(0, 0, 0, True, 1)],
                        [left]).matrix()
    phi = Mat.from_rows([[1, 0], [3, 4]])
    flat = [x for row in phi.data for x in row]
    image = op_left @ Mat.from_rows([[v] for v in flat], cols=1)
    expected = left @ phi
    assert [x for row in expected.data for x in row] == [r[0] for r in image.data]

    op_right = _blockmap([("out", 0, 1)], [("in", 0, 0)], arrows, [(0, 0, 0, False, -1)],
                         right=[right]).matrix()
    image = op_right @ Mat.from_rows([[v] for v in flat], cols=1)
    expected = phi @ right
    assert [-x for row in expected.data for x in row] == [r[0] for r in image.data]


def _values(m: Mat) -> list:
    return [v for row in m.sparse for v in row.values()] + [v for row in m.data for v in row]


def _exact(m: Mat) -> bool:
    return all(type(v) in (int, Fraction) for v in _values(m))


def _as_fractions(rows) -> Mat:
    # Bypasses from_rows, which would store the integral Fractions as ints.
    m = Mat.from_rows(rows)
    return Mat(m.rows, m.cols, tuple({j: Fraction(v) for j, v in row.items()} for row in m.sparse))


def test_blockmap_refuses_terms_above_the_size_bound():
    # The bound is checked per dims, when a table is laid out on its blocks.
    plan = BlockPlan([("out", MAX_DIM, 1)], [("in", 1, MAX_DIM)], ())
    assert BlockMap(plan, (), ()).out_dim == MAX_DIM
    for out_blocks, in_blocks in (([("out", MAX_DIM + 1, 1)], []),
                                  ([("out", 1, 1)], [("a", 1, MAX_DIM), ("b", 1, 1)])):
        with pytest.raises(InputError, match="size bound"):
            BlockPlan(out_blocks, in_blocks, ())


# Two out blocks p, q and two in blocks x, y over slots 0 and 1, and arrows
# f: 1 -> 0 and g: 0 -> 0.  With dims M = (3, 2), N = (2, 3) the blocks are
# p 2x3, q 2x2, x 3x3 and y 2x3, N_f is 2x3, N_g 2x2, M_f 3x2 and M_g 3x3.
_TWO_BY_TWO = ([("p", 0, 0), ("q", 0, 1)], [("x", 1, 0), ("y", 0, 0)], [("f", 0, 1), ("g", 0, 0)])


def test_blockmap_term_table_matches_one_term_tables():
    # Terms in any order on distinct block pairs, one matrix with a Fraction
    # entry: the table gives the sum of its one-term tables.  A zero matrix
    # adds nothing.
    left = [Mat.from_rows([[1, 0, 2], [0, -1, 1]]), Mat.zeros(2, 2)]
    right = [Mat.from_rows([[0, 1], [1, 0], [3, 0]]), Mat.from_rows([[1, 0, Fraction(1, 2)],
                                                                     [2, 1, 0], [0, 0, 1]])]
    terms = [(0, 1, 1, False, 1), (0, 0, 0, True, 1), (1, 1, 0, False, -1)]

    def build(table):
        return _blockmap(*_TWO_BY_TWO, table, left, right, (3, 2), (2, 3)).matrix()

    with pytest.raises(ShapeError):
        build([(1, 0, 0, True, 1)])
    one_term = [build([t]).data for t in terms]
    table = build(terms)
    assert table.data == tuple(tuple(map(sum, zip(*rows))) for rows in zip(*one_term))
    assert not table.is_zero()
    assert all(v for row in table.sparse for v in row.values())
    assert Fraction(1, 2) in table.sparse[2].values()
    assert build([(0, 1, 1, True, 1)]).is_zero()
    # A table is write-once: a repeated block pair (here a cancelling one, and
    # a left and a right term on one pair) and a sign other than ±1 are refused.
    for bad in ([(0, 1, 1, False, 1), (0, 1, 1, False, -1)],
                [(0, 1, 1, True, 1), (0, 1, 1, False, 1)],
                [(0, 1, 1, True, 2)],
                [(0, 0, 0, True, True)]):
        with pytest.raises(ShapeError):
            term_table(*_TWO_BY_TWO, bad)


def test_term_table_refuses_a_term_that_does_not_fit_its_blocks():
    # Arrow f runs from slot 1 to slot 0.  Left terms read N_f at p<-x; at
    # q<-x, whose out block sits at another slot, it cannot fit for any dims.
    # Right terms read M_f at r<-y; at p<-y it cannot fit either.  So no two
    # terms can read one matrix at two shapes, and the table is refused where
    # it is defined, before any dims or matrices are seen.
    out_space = [("p", 0, 2), ("q", 1, 2), ("r", 0, 1)]
    in_space, arrows = [("x", 1, 2), ("y", 0, 0)], [("f", 0, 1)]
    assert len(term_table(out_space, in_space, arrows,
                          [(0, 0, 0, True, 1), (2, 1, 0, False, 1)])) == 2
    for terms, message in (([(0, 0, 0, True, 1), (1, 0, 0, True, -1)],
                            "^left term of arrow f does not fit block pair q<-x$"),
                           ([(2, 1, 0, False, 1), (0, 1, 0, False, 1)],
                            "^right term of arrow f does not fit block pair p<-y$"),
                           ([(0, 0, 0, False, 1)],
                            "^right term of arrow f does not fit block pair p<-x$")):
        with pytest.raises(ShapeError, match=message):
            term_table(out_space, in_space, arrows, terms)


def test_blockplan_drops_empty_terms_and_serves_every_map_of_its_dims():
    # Arrow f: 1 -> 0 is read at p<-x and q<-y, arrow g: 0 -> 1 at p<-z.  With
    # M = (2, 0) and N = (2, 2) the blocks q, y and z are empty, so only the
    # p<-x term is walked; the plan keeps its offsets and strides, and applies
    # to any matrices of these dims, Fraction entries kept.
    out_space, in_space = [("p", 0, 0), ("q", 0, 1)], [("x", 1, 0), ("y", 1, 1), ("z", 0, 1)]
    arrows = [("f", 0, 1), ("g", 1, 0)]
    table = term_table(out_space, in_space, arrows,
                       [(0, 0, 0, True, 1), (1, 1, 0, True, -1), (0, 2, 1, False, 1)])
    plan = BlockPlan([("p", 2, 2), ("q", 2, 0)], [("x", 2, 2), ("y", 2, 0), ("z", 2, 0)], table)
    assert (plan.out_dim, plan.in_dim, plan.left, plan.right) == (4, 4, (0, False, 0, 2, 0, 2), ())
    right = [None, Mat.zeros(0, 2)]
    for left in (Mat.from_rows([[1, Fraction(1, 2)], [0, -1]]), Mat.from_rows([[0, 3], [1, 0]])):
        expected = _blockmap(out_space[:1], in_space[:1], arrows, [(0, 0, 0, True, 1)],
                             [left], m_dims=(2, 0), n_dims=(2, 2)).matrix()
        for _ in range(2):
            assert BlockMap(plan, [left], right).matrix() == expected
        assert left.sparse[0].get(1) in expected.sparse[0].values()


def test_from_rows_stores_integral_values_as_int():
    m = Mat.from_rows([[Fraction(4, 2), "3", True], [Fraction(1, 2), "-6/3", 0]])
    assert [type(v) for v in m.data[0]] == [int, int, int]
    assert m.data == ((2, 3, 1), (Fraction(1, 2), -2, 0))
    assert type(m.data[1][0]) is Fraction and type(m.data[1][1]) is int


def test_int_and_fraction_entries_compare_and_hash_alike():
    rows = [[1, 0, -2], [0, 3, 0]]
    a, b = Mat.from_rows(rows), _as_fractions(rows)
    assert all(type(v) is int for v in _values(a))
    assert all(type(v) is Fraction for row in b.sparse for v in row.values())
    assert a == b and hash(a) == hash(b)
    assert a != Mat.from_rows([[1, 0, -2], [0, 3, Fraction(1, 2)]])


def test_operations_on_int_matrices_produce_exact_scalars():
    m = Mat.from_rows([[2, 4, 0], [1, 3, -1], [3, 7, -1]])
    for out in (m @ m.transpose(), nullspace(m)[0]):
        assert _exact(out)
    assert all(type(v) is int for v in _values(m @ m.transpose()))
    # (phi, psi) -> -L phi + psi R: a left and a right term on two distinct
    # in blocks, since one block pair takes one term.  Arrow f runs from slot
    # 1 to slot 0.
    spaces = ([("out", 0, 1)], [("phi", 1, 1), ("psi", 0, 0)], [("f", 0, 1)])
    mats = [Mat.from_rows([[1, 2], [0, 1]])], [Mat.from_rows([[1, 1], [2, 0]])]
    bm = _blockmap(*spaces, [(0, 0, 0, True, -1), (0, 1, 0, False, 1)], *mats)
    assert all(type(v) is int for v in _values(bm.matrix()))
    with pytest.raises(ShapeError):
        term_table(*spaces, [(0, 0, 0, True, -1), (0, 0, 0, False, 1)])
    # The identity entries of a kernel basis are ints.
    assert all(type(v) is int for v in _values(nullspace(Mat.from_rows([[1, -1, 0]]))[0]))


@settings(max_examples=80, deadline=None)
@given(_matrices(st.integers(-3, 3)))
def test_int_entries_eliminate_like_fraction_entries(rows):
    # Entries in -3..3 give pivots other than ±1. Elimination clears them by
    # cross-multiplying and inverts none; only ``nullspace`` divides, each
    # kernel vector by its entry at its free column, and that quotient must be
    # a Fraction, not a float.
    m, f = Mat.from_rows(rows), _as_fractions(rows)
    assert rank(m) == rank(f) and rank(m, PRIME) == rank(f, PRIME) == rank(m)
    (ns, free), (ns_f, free_f) = nullspace(m), nullspace(f)
    assert ns == ns_f and free == free_f and _exact(ns)


def _gauss_jordan(rows: list[list], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    # Dense textbook reference: the nonzero rows of the reduced row echelon
    # form over Q and their pivot columns, all pivots cleared above and below.
    a = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _dense(rows: list[list], ncols: int) -> Mat:
    return Mat.from_rows(rows, cols=ncols)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_matrices(st.integers(-3, 3)), small_fraction_matrices))
def test_elimination_matches_dense_gauss_jordan(rows):
    # nullspace reads its basis off the forward elimination; the basis and
    # free columns must equal what the dense reference gives.
    m = Mat.from_rows(rows)
    nc = m.cols
    ref, piv = _gauss_jordan(rows, nc)
    free = [c for c in range(nc) if c not in piv]
    kernel = [[0] * len(free) for _ in range(nc)]
    for i, f in enumerate(free):
        kernel[f][i] = 1
        for row, c in zip(ref, piv):
            kernel[c][i] = -row[f]
    assert nullspace(m) == (_dense(kernel, len(free)), tuple(free))


def _rref_kernel(m: Mat) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    # Reference: the kernel read off the reduced row echelon form.  The
    # forward pivot rows are divided by their pivots and back-substituted
    # right to left; kernel vector i is 1 at free column i and minus pivot
    # row c's entry there at each pivot column c.
    pivots = _echelon(_field_rows(m, 0), 0)
    for c in sorted(pivots, reverse=True):
        v = pivots[c][c]
        prow = pivots[c] = {j: Fraction(x, v) if x % v else x // v for j, x in pivots[c].items()}
        for k in [k for k in prow if k != c and k in pivots]:
            f, get = prow[k], prow.get
            for j, w in pivots[k].items():
                x = get(j, 0) - f * w
                if x:
                    prow[j] = x
                else:
                    del prow[j]
    free = tuple(c for c in range(m.cols) if c not in pivots)
    index = {f: i for i, f in enumerate(free)}
    out: list[Row] = [{index[f]: 1} if f in index else {} for f in range(m.cols)]
    for c, prow in pivots.items():
        out[c] = {index[j]: -v for j, v in prow.items() if j != c}
    return tuple(out), free


# Row 0 of this kernel is an integral Fraction after the back-substitution
# (-2/3 - 4/3) and the int -2 when read off a column record.
_INTEGRAL_QUOTIENT = [[0, 0, 1, 0, -3, 0], [-1, Fraction(1, 2), 2, 1, Fraction(-2, 3), 0],
                      [0, Fraction(1, 2), 0, 0, 0, 1], [0, 0, 0, 1, 5, 1]]

# 0..4 rows and 0..5 columns, most entries 0, some Fractions.
_kernel_matrices = st.tuples(st.integers(0, 4), st.integers(0, 5)).flatmap(
    lambda s: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
                 min_size=s[1], max_size=s[1]),
        min_size=s[0], max_size=s[0]).map(lambda rows: Mat.from_rows(rows, cols=s[1])))


@settings(max_examples=200, deadline=None)
@given(_kernel_matrices)
@example(Mat.from_rows(_INTEGRAL_QUOTIENT))
@example(Mat.zeros(0, 3))
@example(Mat.zeros(3, 0))
@example(Mat.from_rows([[0, 2, 0], [0, 0, 0]]))
def test_nullspace_matches_the_reduced_echelon_kernel(m):
    kernel, free = nullspace(m)
    ref, ref_free = _rref_kernel(m)
    assert free == ref_free and (kernel.rows, kernel.cols) == (m.cols, len(free))
    for row, ref_row in zip(kernel.sparse, ref, strict=True):
        assert row == ref_row
        assert {j: str(x) for j, x in row.items()} == {j: str(x) for j, x in ref_row.items()}
        assert all(type(x) is int or x.denominator != 1 for x in row.values())


def test_nullspace_stores_integral_quotients_as_ints():
    m = Mat.from_rows(_INTEGRAL_QUOTIENT)
    ref, _ = _rref_kernel(m)
    kernel, free = nullspace(m)
    assert free == (4, 5) and kernel.sparse[0] == ref[0] == {0: Fraction(1, 3), 1: -2}
    assert type(ref[0][1]) is Fraction and type(kernel.sparse[0][1]) is int


# Factors a (r x k) and b (k x c) with 0..3 rows, inner dimension and
# columns; most entries are 0, so empty rows and cancelling sums are common.
_product_entries = st.one_of(st.just(0), st.just(0), st.integers(-2, 2),
                             st.fractions(-2, 2, max_denominator=3))
_factors = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda s: st.tuples(
        st.lists(st.lists(_product_entries, min_size=s[1], max_size=s[1]),
                 min_size=s[0], max_size=s[0]).map(lambda rows: Mat.from_rows(rows, cols=s[1])),
        st.lists(st.lists(_product_entries, min_size=s[2], max_size=s[2]),
                 min_size=s[1], max_size=s[1]).map(lambda rows: Mat.from_rows(rows, cols=s[2]))))


@settings(max_examples=200, deadline=None)
@given(_factors)
# Sums that cancel to exactly 0, over the ints and over Q.
@example((Mat.from_rows([[1, 1]]), Mat.from_rows([[1], [-1]])))
@example((Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)]]),
          Mat.from_rows([[Fraction(2, 3)], [-1]])))
# Zero rows, zero inner dimension, zero columns.
@example((Mat.zeros(0, 2), Mat.from_rows([[1, 0, 2], [0, 1, 0]])))
@example((Mat.zeros(2, 0), Mat.zeros(0, 3)))
@example((Mat.from_rows([[1], [2]]), Mat.zeros(1, 0)))
# The one nonzero sum sits in the last row.
@example((Mat.from_rows([[1, 1], [0, 0], [0, 1]]), Mat.from_rows([[1], [-1]])))
@example((Mat.from_rows([[1, 1], [Fraction(1, 2), 1]]), Mat.from_rows([[1, 0], [-1, 0]])))
# Denominators 2 and 3 mixed in both factors, cancelling exactly, and one that does not.
@example((Mat.from_rows([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]]),
          Mat.from_rows([[Fraction(2, 3), Fraction(1, 3)], [-1, 0], [0, -1]])))
@example((Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]),
          Mat.from_rows([[Fraction(2, 3), Fraction(-4, 3)], [-1, 2]])))
@example((Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]),
          Mat.from_rows([[Fraction(2, 3), Fraction(-4, 3)], [-1, Fraction(3, 2)]])))
def test_product_is_zero_matches_the_product(factors):
    a, b = factors
    assert product_is_zero(a, b) is (a @ b).is_zero()


def test_product_is_zero_on_cancelling_mixed_denominators():
    a = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    b = Mat.from_rows([[Fraction(2, 3), Fraction(-4, 3)], [-1, 2]])
    assert product_is_zero(a, b) and (a @ b).is_zero()
    # Scaling rows of a and columns of b by nonzero ints keeps the product zero.
    assert product_is_zero(Mat.from_rows([[3, 2], [9, 6]]), Mat.from_rows([[2, -4], [-3, 6]]))
    assert not product_is_zero(a, Mat.from_rows([[Fraction(2, 3), 0], [-1, Fraction(1, 2)]]))


def test_product_is_zero_refuses_a_shape_mismatch_as_matmul_does():
    for a, b in ((Mat.zeros(2, 3), Mat.zeros(2, 2)),
                 (Mat.from_rows([[1, 2]]), Mat.from_rows([[1, 2]])),
                 (Mat.zeros(0, 1), Mat.zeros(0, 4))):
        with pytest.raises(ShapeError) as via_matmul:
            a @ b
        with pytest.raises(ShapeError) as via_test:
            product_is_zero(a, b)
        assert str(via_test.value) == str(via_matmul.value)


def _stored_exactly(m: Mat) -> bool:
    # One sparse row per matrix row, no stored zero, no column out of range.
    return len(m.sparse) == m.rows and all(
        v and 0 <= j < m.cols for row in m.sparse for j, v in row.items())


@settings(max_examples=100, deadline=None)
@given(_factors, st.booleans(), st.booleans())
@example((Mat.zeros(0, 2), Mat.zeros(2, 3)), True, True)
@example((Mat.from_rows([[1], [2]]), Mat.zeros(1, 0)), False, True)
def test_product_with_a_zero_operand_is_the_zero_matrix_of_its_shape(factors, left, literal):
    # The zero operand is Mat.zeros or a literal of zeros; the other is any matrix.
    a, b = factors
    rows, cols = (a.rows, a.cols) if left else (b.rows, b.cols)
    zero = Mat.from_rows([[0] * cols] * rows, cols=cols) if literal else Mat.zeros(rows, cols)
    product = zero @ b if left else a @ zero
    assert product == Mat.zeros(a.rows, b.cols) and _stored_exactly(product)
    assert (product.rows, product.cols) == (a.rows, b.cols)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.lists(st.lists(_product_entries, min_size=s[1], max_size=s[1]),
                       min_size=s[0], max_size=s[0]).map(
        lambda rows: Mat.from_rows(rows, cols=s[1]))))
@example(Mat.zeros(0, 3))
@example(Mat.zeros(3, 0))
@example(Mat.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, 0]]))
def test_transpose_of_a_matrix_with_empty_rows_and_columns(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows) and _stored_exactly(t)
    assert t.data == tuple(tuple(m.data[i][j] for i in range(m.rows)) for j in range(m.cols))
    assert t.transpose() == m and t.transpose().data == m.data


# One to three signed products of one shape: a list of (sign, a, b) with
# a (r x k_t) and b (k_t x c), each inner dimension drawn on its own.
def _signed_products(shape):
    r, c = shape

    def term(k):
        return st.tuples(
            st.sampled_from((1, -1)),
            st.lists(st.lists(_product_entries, min_size=k, max_size=k),
                     min_size=r, max_size=r).map(lambda rows: Mat.from_rows(rows, cols=k)),
            st.lists(st.lists(_product_entries, min_size=c, max_size=c),
                     min_size=k, max_size=k).map(lambda rows: Mat.from_rows(rows, cols=c)))
    return st.lists(st.integers(0, 3).flatmap(term), min_size=1, max_size=3)


def _dense_sum(terms):
    total: dict[tuple[int, int], Fraction] = {}
    for sign, a, b in terms:
        for i, row in enumerate((a @ b).data):
            for j, x in enumerate(row):
                total[i, j] = total.get((i, j), 0) + sign * x
    return total


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(_signed_products))
# A relation that holds: p @ q - p @ q, and one that holds only with its signs.
@example([(1, Mat.from_rows([[1, 2]]), Mat.from_rows([[1], [1]])),
          (-1, Mat.from_rows([[1, 2]]), Mat.from_rows([[1], [1]]))])
@example([(1, Mat.from_rows([[1]]), Mat.from_rows([[2]])),
          (1, Mat.from_rows([[1]]), Mat.from_rows([[2]]))])
# Signs that change twice, the middle product zero, cancelling over Q.
@example([(1, Mat.from_rows([[Fraction(1, 2)]]), Mat.from_rows([[Fraction(2, 3)]])),
          (-1, Mat.from_rows([[5]]), Mat.zeros(1, 1)),
          (1, Mat.from_rows([[-1]]), Mat.from_rows([[Fraction(1, 3)]]))])
def test_sum_of_products_is_zero_matches_the_dense_sum(terms):
    assert sum_of_products_is_zero(terms) is not any(_dense_sum(terms).values())
    if len(terms) == 1 and terms[0][0] == 1:
        assert sum_of_products_is_zero(terms) is product_is_zero(*terms[0][1:])


def test_sum_of_products_is_zero_refuses_mismatched_shapes():
    with pytest.raises(ShapeError, match="matmul: 1x2 @ 1x1"):
        sum_of_products_is_zero([(1, Mat.zeros(1, 1), Mat.zeros(1, 1)),
                                 (1, Mat.zeros(1, 2), Mat.zeros(1, 1))])
    with pytest.raises(ShapeError, match="sum of products: 1x1 \\+ 2x1"):
        sum_of_products_is_zero([(1, Mat.zeros(1, 1), Mat.zeros(1, 1)),
                                 (-1, Mat.zeros(2, 1), Mat.zeros(1, 1))])
    assert sum_of_products_is_zero([])


def test_mat_is_a_frozen_dataclass_written_once():
    m = Mat.from_rows([[1, 0], [0, Fraction(1, 2)]])
    for name in ("rows", "cols", "sparse", "entry_bound"):
        with pytest.raises(FrozenInstanceError):
            setattr(m, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(m, name)
    assert [f.name for f in fields(Mat)] == ["rows", "cols", "sparse", "entry_bound"]
    assert vars(Mat(2, 3, ({}, {1: 4}))) == {"rows": 2, "cols": 3, "sparse": ({}, {1: 4}),
                                              "entry_bound": None}
    assert Mat(2, 3, ({}, {1: 4}), 4) == Mat(rows=2, cols=3, sparse=({}, {1: 4}), entry_bound=4)
    assert repr(Mat(1, 2, ({1: 4},), 4)) == "Mat(rows=1, cols=2, sparse=({1: 4},), entry_bound=4)"
    assert repr(Mat.zeros(0, 2)) == "Mat(rows=0, cols=2, sparse=(), entry_bound=None)"
    # Equality and hash read shape and entries; entry_bound takes no part.
    bounded = Mat(2, 2, m.sparse, 7)
    assert bounded == m and hash(bounded) == hash(m)
    assert m != Mat(2, 2, ({0: 1}, {1: Fraction(1, 3)}))
    assert m != Mat(2, 3, m.sparse) and Mat.zeros(0, 2) != Mat.zeros(0, 3)
    assert m.__eq__(m.sparse) is NotImplemented
    assert hash(Mat.from_rows([[2]])) == hash(Mat.from_rows([[Fraction(4, 2)]]))
    # dataclasses.replace builds through the same __init__ and keeps every other field.
    again = replace(m, entry_bound=3)
    assert (again.rows, again.cols, again.sparse, again.entry_bound) == (2, 2, m.sparse, 3)
    assert replace(m).entry_bound is None and replace(m, cols=5).cols == 5
    # entries is cached in the instance dict, next to the four fields.
    assert m.entries == ((0, 0, 1), (1, 1, Fraction(1, 2))) and "entries" in vars(m)


def _bounded(m: Mat) -> Mat:
    # The entry bound BlockMap.matrix would record: only for all-int matrices.
    values = [v for row in m.sparse for v in row.values()]
    if any(type(v) is not int for v in values):
        return m
    return replace(m, entry_bound=max(map(abs, values), default=0))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_matrices(st.integers(-3, 3)), edge_matrices, small_fraction_matrices))
# Row 1 is reduced by row 0, which is stored as it is.
@example([[1, 2], [1, 3]])
@example([[1, 1], [0, 1]])
def test_rank_and_nullspace_write_no_input_row(rows):
    # Elimination starts from a matrix's own rows, with or without a recorded
    # entry bound (which lets a prime rank skip the residue walk).
    base = Mat.from_rows(rows)
    for m in (base, _bounded(base), _as_fractions(rows)):
        snapshot, before = deepcopy(m.sparse), hash(m)
        rank(m)
        rank(m, PRIME)
        nullspace(m)
        assert m.sparse == snapshot and hash(m) == before
        assert [list(map(type, row.values())) for row in m.sparse] == \
            [list(map(type, row.values())) for row in snapshot]


# Rows over different denominators whose pivots are 2 or 3: over Q they are
# eliminated as integer rows, cross-multiplied at a non-unit pivot, so no
# pivot is ever inverted during forward elimination.
_mixed_rows = st.lists(
    st.tuples(st.sampled_from([1, 2, 3, 6]),
              st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, -3]), min_size=4, max_size=4)),
    min_size=1, max_size=5).map(
    lambda rows: [[Fraction(x, d) for x in xs] for d, xs in rows])


def _rank_checks(rows: list[list]) -> None:
    m = Mat.from_rows(rows)
    ref, piv = _gauss_jordan(rows, m.cols)
    assert rank(m) == rank(m.transpose()) == len(piv)
    assert rank(m, PRIME) == _rank_mod_p(rows, _P)
    free = [c for c in range(m.cols) if c not in piv]
    kernel = [[0] * len(free) for _ in range(m.cols)]
    for i, f in enumerate(free):
        kernel[f][i] = 1
        for row, c in zip(ref, piv):
            kernel[c][i] = -row[f]
    assert nullspace(m) == (_dense(kernel, len(free)), tuple(free))


@settings(max_examples=100, deadline=None)
@given(_mixed_rows)
@example([[Fraction(2, 3), 1, 0, 0], [Fraction(3, 2), 0, 1, 0], [1, 1, 1, 1]])
@example([[2, 3, 0, 1], [3, 2, 1, 0], [Fraction(1, 2), Fraction(1, 3), 0, 0]])
@example([[2, 1, 0, 0], [3, 0, 1, 0], [0, 3, -2, 0]])
def test_rank_on_mixed_denominators_and_non_unit_pivots(rows):
    _rank_checks(rows)


def test_rank_of_hilbert_matrices():
    hilbert = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]
    assert rank(Mat.from_rows(hilbert)) == rank(Mat.from_rows(hilbert), PRIME) == 6
    _rank_checks(hilbert)
    # A seventh column that is the sum of the first two: rank 6 and one kernel vector.
    _rank_checks([row + [row[0] + row[1]] for row in hilbert])
    _rank_checks([row[:4] for row in hilbert] + [[1, 1, 1, 1]])
