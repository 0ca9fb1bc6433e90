"""Non-split extensions and thick points: a generic module with an Ext oracle.

The builders of ``thick_points`` use the public API only; every module they
make is checked against its relations.  Thick points fill their Ext
differentials, so they test elimination where it is expensive, and the
cleared path of ``ext_dims_of`` is compared with the full one on them.
"""

from __future__ import annotations

import pytest

from localp2.corpus import standard_corpus
from localp2.homalg import build_ext_complex_P2, build_ext_complex_Y, ext_dims_of, ext_dims_Y
from localp2.linalg import RATIONAL, Mat, PrimeScalars, rank
from localp2.quiver import ARROW_ORDER, arrow, check_relations, direct_sum, hom_space, p2_restrict
from oracles import ext_thick_point_self_Y
from test_homalg import dims_from_ranks
from thick_points import extension, generic_class, thick_point

PRIME = PrimeScalars(2147483659)
PT = standard_corpus()["pt_mix"]


def test_generic_class_is_a_cocycle_outside_the_coboundaries():
    e = PT
    for _ in range(3):
        xi = generic_class(PT, e)
        d0, d1 = build_ext_complex_Y(PT, e).differentials[:2]
        column = Mat(len(xi), 1, tuple({0: x} if x else {} for x in xi))
        assert (d1 @ column).is_zero()
        image = d0.transpose().sparse
        with_xi = Mat(d0.cols + 1, d0.rows, image + ({i: x for i, x in enumerate(xi) if x},))
        assert rank(with_xi) == rank(d0) + 1
        split = direct_sum(e, PT)
        e = extension(PT, e, xi)
        assert check_relations(e).ok and e.dims == split.dims
        assert hom_space(e, e).dim < hom_space(split, split).dim


def test_an_extension_off_the_kernel_of_d1_is_refused():
    # Moving xi along a column that d1 does not kill breaks a relation.
    xi = generic_class(PT, PT)
    d1 = build_ext_complex_Y(PT, PT).differentials[1]
    j = min(c for row in d1.sparse for c in row)
    with pytest.raises(AssertionError, match="rel_"):
        extension(PT, PT, xi[:j] + [xi[j] + 1] + xi[j + 1:])
    with pytest.raises(AssertionError):
        extension(PT, PT, xi[:-1])


@pytest.mark.parametrize("scalars", [RATIONAL, PRIME], ids=["rational", "prime"])
def test_thick_point_self_ext_matches_the_hilbert_scheme_oracle(scalars):
    e = PT
    for k in range(1, 9):
        if k > 1:
            e = extension(PT, e, generic_class(PT, e))
        assert e.dims == (k, k, k)
        assert ext_dims_Y(e, e, scalars) == ext_thick_point_self_Y(k)


def test_hom_space_of_a_thick_point_is_its_endomorphism_ring():
    # End(O_Z) = O_Z has dimension k: k independent intertwiners of E with itself.
    e = thick_point(5, PT)
    entries = [x for mat in e.matrices.values() for row in mat.sparse for x in row.values()]
    assert all(type(x) is int or x.denominator != 1 for x in entries)
    hs = hom_space(e, e)
    assert hs.dim == len(hs.basis) == ext_thick_point_self_Y(5)[0] == 5
    for blocks in hs.basis:
        assert [(b.rows, b.cols) for b in blocks] == [(5, 5)] * 3
        for name in ARROW_ORDER:
            a = arrow(name)
            assert blocks[a.source] @ e.matrices[name] == e.matrices[name] @ blocks[a.target]
    flat = [[x for b in blocks for row in b.data for x in row] for blocks in hs.basis]
    assert rank(Mat.from_rows(flat)) == 5


@pytest.mark.parametrize("scalars", [RATIONAL, PRIME], ids=["rational", "prime"])
def test_cleared_ranks_match_supplied_full_ranks_on_thick_points(scalars):
    # The witness: each rational differential ranked in full by ``rank``.
    t6, t9 = thick_point(6, PT), thick_point(9, PT)
    for m, n in ((t6, t9), (t9, t6)):
        for cx in (build_ext_complex_Y(m, n),
                   build_ext_complex_P2(p2_restrict(m), p2_restrict(n))):
            full = [rank(d, scalars) for d in cx.differentials]
            assert ext_dims_of(cx, scalars) == dims_from_ranks(cx.term_dims, full)
