"""Ext complexes: term dimensions, frozen oracle profiles, Euler pairings, duality."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localp2 import homalg
from localp2.errors import (HeartMismatchError, InputError, InternalCheckError, ScalarModeError,
                            ShapeError)
from localp2.homalg import (
    EXT_TABLES,
    PLAN_MEMO_SIZE,
    ExtComplex,
    _check_composition,
    _ext_plans,
    _ext_terms,
    _integer_differentials,
    _rational,
    build_ext_complex_P2,
    build_ext_complex_Y,
    euler_form_P2,
    euler_form_Y,
    ext_dims_of,
    ext_dims_P2,
    ext_dims_Y,
    ext_report,
    verify_cy3_duality,
    verify_pushforward_triangle,
)
from localp2.linalg import (RATIONAL, BlockMap, BlockPlan, Mat, PrimeScalars, _echelon, _field_rows,
                            rank, term_table)
from localp2.quiver import (
    ARROW_ORDER,
    ARROW_SPACE,
    D0_TERMS,
    PLANE_ARROWS,
    arrow,
    check_relations,
    direct_sum,
    hom_space,
    intertwiner_matrix,
    p2_restrict,
    point_module,
    pushforward_module,
    representation,
    simple_module,
    zero_module,
)
from oracles import ext_point_self_P2, ext_point_self_Y, ext_pushforward
from test_golden_complexes import golden_objects
from test_linalg import _EDGE_INTS
from thick_points import thick_point

PRIME = PrimeScalars(2147483659)


def test_term_dimension_examples():
    s0 = simple_module(0, 0)
    assert build_ext_complex_Y(s0, s0).term_dims == (1, 0, 0, 1)
    pt = point_module((1, 1, 1), 1, 0)
    assert build_ext_complex_Y(pt, pt).term_dims == (3, 9, 9, 3)
    line = pushforward_module(1, 0)
    assert build_ext_complex_Y(line, line).term_dims == (10, 9, 9, 10)


def test_term_dims_self_duality():
    objs = [point_module((1, 0, 0), 0, 0), pushforward_module(2, 0), simple_module(1, 0)]
    for m in objs:
        for n in objs:
            t = build_ext_complex_Y(m, n).term_dims
            s = build_ext_complex_Y(n, m).term_dims
            assert t == tuple(reversed(s))


def test_ext_oracles_Y():
    pt = point_module((1, 2, 3), Fraction(1, 2), 0)
    assert ext_dims_Y(pt, pt) == ext_point_self_Y()
    other = point_module((1, 0, 0), 0, 0)
    assert ext_dims_Y(pt, other) == (0, 0, 0, 0)

    s0 = simple_module(0, 0)
    line = pushforward_module(1, 0)
    assert ext_dims_Y(s0, s0) == ext_pushforward(0, 0) == (1, 0, 0, 1)
    assert ext_dims_Y(line, line) == ext_pushforward(1, 1) == (1, 0, 0, 1)
    assert ext_dims_Y(s0, line) == ext_pushforward(0, 1) == (3, 0, 0, 0)
    assert ext_dims_Y(line, s0) == ext_pushforward(1, 0) == (0, 0, 0, 3)
    line2 = pushforward_module(2, 0)
    assert ext_dims_Y(line2, line2) == ext_pushforward(2, 2) == (1, 0, 0, 1)
    assert ext_dims_Y(s0, line2) == ext_pushforward(0, 2) == (6, 0, 0, 0)
    assert ext_dims_Y(line2, s0) == ext_pushforward(2, 0) == (0, 0, 0, 6)


@pytest.mark.parametrize("scalars", [RATIONAL, PRIME], ids=["rational", "prime"])
def test_ext_pushforward_ladder_matches_oracle(scalars):
    # Unlike the Euler cross-check, this sees every rank of every differential.
    mods = [pushforward_module(a, 0) for a in range(5)]
    for a, m in enumerate(mods):
        for b, n in enumerate(mods):
            assert ext_dims_Y(m, n, scalars) == ext_pushforward(a, b), (a, b)


def test_prime_ladder_past_o4_matches_oracle_and_rational_ranks():
    # The 24 pairs with 5 <= max(a, b) <= 6: larger complexes than any other
    # prime-mode check, each differential ranked in both modes.
    mods = [pushforward_module(a, 0) for a in range(7)]
    pairs = [(a, b) for a in range(7) for b in range(7) if max(a, b) >= 5]
    assert len(pairs) == 24
    for a, b in pairs:
        cx = build_ext_complex_Y(mods[a], mods[b])
        assert ext_dims_of(cx, PRIME) == ext_pushforward(a, b), (a, b)
        assert [rank(d, PRIME) for d in cx.differentials] == \
            [rank(d, RATIONAL) for d in cx.differentials], (a, b)


def test_ext_oracles_simples():
    s = [simple_module(v, 0) for v in range(3)]
    assert ext_dims_Y(s[1], s[0]) == (0, 3, 0, 0)
    assert ext_dims_Y(s[0], s[1]) == (0, 0, 3, 0)
    assert ext_dims_Y(s[2], s[1]) == (0, 3, 0, 0)
    assert ext_dims_Y(s[0], s[2]) == (0, 3, 0, 0)


def test_ext_oracles_P2():
    pt = p2_restrict(point_module((1, 1, 1), 1, 0))
    assert build_ext_complex_P2(pt, pt).term_dims == (3, 6, 3)
    assert ext_dims_P2(pt, pt) == ext_point_self_P2()
    s0 = p2_restrict(simple_module(0, 0))
    assert build_ext_complex_P2(s0, s0).term_dims == (1, 0, 0)
    assert ext_dims_P2(s0, s0) == (1, 0, 0)
    line = p2_restrict(pushforward_module(1, 0))
    # degree-2 block is Hom(M_2, N_0)-shaped per relation slot, so it vanishes here
    assert build_ext_complex_P2(line, line).term_dims == (10, 9, 0)
    assert ext_dims_P2(line, line) == (1, 0, 0)
    assert ext_dims_P2(p2_restrict(pushforward_module(2, 0)),
                       p2_restrict(pushforward_module(2, 0))) == (1, 0, 0)


def test_e0_equals_hom_dimension():
    objs = [point_module((1, 1, 1), 1, 0), simple_module(0, 0),
            pushforward_module(1, 0), pushforward_module(2, 0)]
    for m in objs:
        for n in objs:
            assert ext_dims_Y(m, n)[0] == hom_space(m, n).dim


def test_zero_module_gives_zero_complex():
    z = zero_module(0)
    cx = build_ext_complex_Y(z, z)
    assert cx.term_dims == (0, 0, 0, 0)
    assert ext_dims_Y(z, z) == (0, 0, 0, 0)
    pt = point_module((1, 0, 0), 0, 0)
    assert ext_dims_Y(z, pt) == (0, 0, 0, 0)


def test_heart_mismatch_rejected():
    with pytest.raises(HeartMismatchError):
        build_ext_complex_Y(simple_module(0, 0), simple_module(0, 1))


def test_plane_side_refuses_jacobi_modules_of_two_hearts():
    # Read through their a and b arrows, O(1) in hearts 0 and 1 have term dims
    # (3, 3, 0), and the plane side used to give (0, 0, 0) for them.
    m, n = pushforward_module(1, 0), pushforward_module(1, 1)
    for x, y in ((m, n), (n, m)):
        for refused in (build_ext_complex_Y, build_ext_complex_P2, ext_dims_P2):
            with pytest.raises(HeartMismatchError, match="ext across hearts"):
                refused(x, y)
    # The restrictions forget the heart, so the plane side takes them.
    assert ext_dims_P2(p2_restrict(m), p2_restrict(n)) == (0, 0, 0)


def test_euler_form_examples():
    assert euler_form_Y((1, 1, 1), (1, 1, 1)) == 0
    assert euler_form_Y((1, 0, 0), (3, 1, 0)) == 3
    assert euler_form_Y((3, 1, 0), (1, 0, 0)) == -3
    assert euler_form_P2((1, 0, 0), (1, 0, 0)) == 1
    assert euler_form_P2((1, 0, 0), (3, 1, 0)) == 3
    assert euler_form_P2((3, 1, 0), (1, 0, 0)) == 0
    assert euler_form_P2((1, 1, 1), (1, 1, 1)) == 0


dim_vectors = st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))


@settings(max_examples=80, deadline=None)
@given(dim_vectors, dim_vectors, dim_vectors)
def test_euler_antisymmetry_and_bilinearity(u, v, w):
    assert euler_form_Y(v, v) == 0
    assert euler_form_Y(u, v) == -euler_form_Y(v, u)
    s = tuple(a + b for a, b in zip(u, v))
    assert euler_form_Y(s, w) == euler_form_Y(u, w) + euler_form_Y(v, w)
    assert euler_form_Y(w, s) == euler_form_Y(w, u) + euler_form_Y(w, v)
    assert euler_form_P2(s, w) == euler_form_P2(u, w) + euler_form_P2(v, w)
    assert euler_form_P2(w, s) == euler_form_P2(w, u) + euler_form_P2(w, v)


def _alt(ext):
    return sum((-1) ** i * e for i, e in enumerate(ext))


def test_euler_equals_alternating_sum_on_pairs():
    objs = [point_module((1, 0, 0), 0, 0), point_module((1, 1, 1), 1, 0),
            simple_module(0, 0), simple_module(1, 0),
            pushforward_module(1, 0), pushforward_module(2, 0)]
    for m in objs:
        for n in objs:
            assert _alt(ext_dims_Y(m, n)) == euler_form_Y(m.dims, n.dims)
            mp, np_ = p2_restrict(m), p2_restrict(n)
            assert _alt(ext_dims_P2(mp, np_)) == euler_form_P2(m.dims, n.dims)


def test_cy3_duality_on_pairs_and_sums():
    objs = [point_module((1, 0, 0), 0, 0), point_module((1, 1, 1), 1, 0),
            simple_module(0, 0), simple_module(2, 0),
            pushforward_module(1, 0), pushforward_module(2, 0)]
    for m in objs:
        for n in objs:
            assert verify_cy3_duality(m, n)["passed"]
    ds1 = direct_sum(objs[0], objs[2])
    ds2 = direct_sum(objs[1], objs[4])
    rep = verify_cy3_duality(ds1, ds2)
    assert rep["passed"]


def test_cy3_mirror_profile_example():
    s0, s1 = simple_module(0, 0), simple_module(1, 0)
    rep = verify_cy3_duality(s0, s1)
    assert rep["passed"]
    assert rep["ext_mn"] == list(reversed(rep["ext_nm"]))


def _block_transpose(blocks, dual_blocks) -> list[int]:
    """Position of phi^T in the dual term for each position of a term (blocks flattened row-major)."""
    out, off = [], 0
    for (_, r, c), (_, dr, dc) in zip(blocks, dual_blocks, strict=True):
        assert (dr, dc) == (c, r)
        out.extend(off + j * r + i for i in range(r) for j in range(c))
        off += r * c
    return out


def _with_fraction_entries(rep):
    mats = {name: Mat(m.rows, m.cols, tuple({j: Fraction(v) for j, v in row.items()}
                                            for row in m.sparse))
            for name, m in rep.matrices.items()}
    return representation(rep.heart, rep.dims, mats, rep.label)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(3) for b in range(3)])
def test_cy3_differentials_are_block_transposes(a, b):
    # d_i(n, m) is the transpose of d_{2-i}(m, n) once block k of term j of
    # (n, m) is matched with block k of term 3-j of (m, n) by phi -> phi^T; the
    # sign is +1.  The (m, n) side is built from Fraction entries, so the exact
    # comparison also holds across int and integral-Fraction entries.
    m, n = pushforward_module(a, 0), pushforward_module(b, 0)
    fwd = build_ext_complex_Y(n, m).differentials
    bwd = build_ext_complex_Y(_with_fraction_entries(m), _with_fraction_entries(n)).differentials
    terms, dual = _ext_terms("y", n.dims, m.dims), _ext_terms("y", m.dims, n.dims)
    perm = [_block_transpose(terms[j], dual[3 - j]) for j in range(4)]
    for i in range(3):
        back = {p: k for k, p in enumerate(perm[i])}
        dt = bwd[2 - i].transpose()
        mapped = Mat(fwd[i].rows, fwd[i].cols,
                     tuple({back[r]: v for r, v in dt.sparse[perm[i + 1][row]].items()}
                           for row in range(fwd[i].rows)))
        assert mapped == fwd[i], i


def test_pushforward_triangle_examples():
    pt = point_module((1, 1, 1), 1, 0)
    rep = verify_pushforward_triangle(pt)
    assert rep["passed"] and rep["ext_p2"] == [1, 2, 1] and rep["ext_y"] == [1, 3, 3, 1]
    rep = verify_pushforward_triangle(simple_module(0, 0))
    assert rep["passed"] and rep["ext_p2"] == [1, 0, 0] and rep["ext_y"] == [1, 0, 0, 1]
    for d in (1, 2):
        rep = verify_pushforward_triangle(pushforward_module(d, 0))
        assert rep["passed"] and rep["ext_p2"] == [1, 0, 0]


def test_prime_mode_agrees_on_sample():
    objs = [point_module((1, 1, 1), 1, 0), simple_module(0, 0), pushforward_module(2, 0)]
    for m in objs:
        for n in objs:
            assert ext_dims_Y(m, n, PRIME) == ext_dims_Y(m, n)


def test_ext_report_record():
    pt = point_module((1, 1, 1), 1, 0)
    rec = ext_report(pt, pt, "y")
    assert rec == {
        "side": "y", "dims_M": [1, 1, 1], "dims_N": [1, 1, 1],
        "term_dims": [3, 9, 9, 3], "ext_dims": [1, 3, 3, 1],
        "euler": 0, "cy3_ok": True,
    }
    rec = ext_report(p2_restrict(pt), p2_restrict(pt), "p2")
    assert rec["ext_dims"] == [1, 2, 1] and rec["cy3_ok"] is None


@pytest.mark.parametrize("side", ["x", "Y", "", None])
def test_ext_report_refuses_an_unknown_side_as_input(side):
    # A caller's bad side is bad input (CLI exit 2), not an internal bug.
    pt = point_module((1, 1, 1), 1, 0)
    with pytest.raises(InputError, match=f"side must be 'y' or 'p2', got {side!r}"):
        ext_report(pt, pt, side)


def test_ext_d0_is_the_intertwiner_system_of_hom_space():
    # Both complexes take d0 from the term table that ``hom_space`` reads, so
    # Ext^0 and Hom are computed from one matrix on either side.
    pt = point_module((1, 2, 3), t=Fraction(1, 2))
    for m, n in ((pushforward_module(2), pushforward_module(3)), (pt, pushforward_module(1)),
                 (pt, pt)):
        assert build_ext_complex_Y(m, n).differentials[0] == intertwiner_matrix(m, n)
        mp, np_ = p2_restrict(m), p2_restrict(n)
        assert build_ext_complex_P2(mp, np_).differentials[0] == intertwiner_matrix(mp, np_)


# Write-once assembly: every term table names each (out block, in block) pair
# once with sign ±1, so each differential entry is ± one nonzero arrow entry
# of the two modules, and the larger of their entry bounds bounds it.

def _shipped_tables() -> list:
    # (out space, in space, arrow space, table) of every differential of both sides.
    out = []
    for side, (spaces, tables) in EXT_TABLES.items():
        arrows = ARROW_SPACE if side == "y" else ARROW_SPACE[:6]
        out += [(spaces[d + 1], spaces[d], arrows, table) for d, table in enumerate(tables)]
    return out


def test_shipped_term_tables_are_write_once():
    assert [len(t) for t in EXT_TABLES["y"][1]] == [18, 36, 18]
    assert [len(t) for t in EXT_TABLES["p2"][1]] == [12, 12]
    assert (EXT_TABLES["y"][1][0], EXT_TABLES["p2"][1][0]) == (D0_TERMS, D0_TERMS[:12])
    for out_space, in_space, arrows, table in _shipped_tables():
        assert type(table) is tuple and term_table(out_space, in_space, arrows, table) == table
        assert len({(o, i) for o, i, *_ in table}) == len(table)
        assert {sign for *_, sign in table} <= {1, -1}
        # A repeated block pair, a sign of 2 and a True sign are refused.
        o, i, k, left, sign = table[0]
        for bad in (table + table[:1], ((o, i, k, left, 2),) + table[1:],
                    ((o, i, k, left, True),) + table[1:]):
            with pytest.raises(ShapeError):
                term_table(out_space, in_space, arrows, bad)


def test_term_table_refuses_every_shipped_term_moved_off_its_blocks():
    # In every shipped table, a term moved to the other side, or to an out or
    # in block at other slots, fits no dims and is refused where the table is
    # defined.  Moving a term to another arrow of its family (a1 <-> a2, same
    # source and target) keeps every shape: that slip passes this check and
    # is left to the d.d = 0 check of every build (below).
    for out_space, in_space, arrows, table in _shipped_tables():
        for t, (o, i, k, left, sign) in enumerate(table):
            moved = [(o, i, k, not left, sign)]
            moved += [(p, i, k, left, sign) for p, (_, *slots) in enumerate(out_space)
                      if slots != list(out_space[o][1:])]
            moved += [(o, j, k, left, sign) for j, (_, *slots) in enumerate(in_space)
                      if slots != list(in_space[i][1:])]
            assert len(moved) >= 3
            for term in moved:
                with pytest.raises(ShapeError):
                    term_table(out_space, in_space, arrows, table[:t] + (term,) + table[t + 1:])


def test_an_arrow_swapped_within_its_family_is_caught_by_d_d_zero():
    # The first term of Y d1 moved to another arrow of its family passes
    # ``term_table``; the complex of a point with distinct coordinates then
    # fails the d.d = 0 check.
    spaces, (d0, d1, d2) = EXT_TABLES["y"]
    o, i, k, left, sign = d1[0]
    family = [x for x, a in enumerate(ARROW_SPACE) if a[1:] == ARROW_SPACE[k][1:] and x != k]
    swapped = term_table(spaces[2], spaces[1], ARROW_SPACE, ((o, i, family[0], left, sign),)
                         + d1[1:])
    pt = point_module((1, 2, 3), t=5)
    blocks = _ext_terms("y", pt.dims, pt.dims)
    arrows = tuple(pt.matrices.values())
    diffs = [BlockMap(BlockPlan(blocks[d + 1], blocks[d], table), arrows, arrows).matrix()
             for d, table in enumerate((d0, swapped, d2))]
    with pytest.raises(InternalCheckError):
        _check_composition(diffs, "y")


def _cy3_self_dual(spaces, tables) -> bool:
    # Term j and term 3 - j hold the same blocks with r and c swapped, and
    # table d_i is d_{2-i} with out and in blocks exchanged, left and right
    # swapped, signs unchanged.
    top = len(spaces) - 1
    return (all(spaces[j] == tuple((label, c, r) for label, r, c in spaces[top - j])
                for j in range(top + 1))
            and all(set(tables[d]) == {(i, o, k, not left, sign)
                                       for o, i, k, left, sign in tables[top - 1 - d]}
                    for d in range(top)))


def test_cy3_self_duality_of_the_y_tables():
    # For every pair of modules, d_i(n, m) is then the block transpose of
    # d_{2-i}(m, n); ``test_cy3_differentials_are_block_transposes`` samples
    # that on pushforwards.  A copy of Y d1 with one sign flipped breaks it.
    spaces, (d0, d1, d2) = EXT_TABLES["y"]
    assert _cy3_self_dual(spaces, (d0, d1, d2))
    o, i, k, left, sign = d1[5]
    flipped = term_table(spaces[2], spaces[1], ARROW_SPACE,
                         d1[:5] + ((o, i, k, left, -sign),) + d1[6:])
    assert not _cy3_self_dual(spaces, (d0, flipped, d2))


def test_ext_and_intertwiners_refuse_modules_of_mixed_presentations():
    # Nothing in BlockMap checks a matrix's shape, so the builders check that
    # the modules' algebras are the ones their plans are laid out for.
    line = pushforward_module(1, 0)
    plane = p2_restrict(line)
    for m, n in ((plane, plane), (plane, line), (line, plane)):
        with pytest.raises(InputError, match="3-fold side needs two modules"):
            build_ext_complex_Y(m, n)
    for m, n in ((plane, line), (line, plane)):
        with pytest.raises(InputError, match="two modules with a heart or two plane modules"):
            intertwiner_matrix(m, n)
    # O(1) has no c-blocks (dim N_2 = 0), so both algebras give one system.
    assert intertwiner_matrix(plane, plane) == intertwiner_matrix(line, line)


def test_plane_side_refuses_modules_of_mixed_presentations():
    # Two modules with a heart are read through their a and b arrows, as their
    # restrictions; one of each kind is refused, as intertwiner_matrix refuses it.
    line = pushforward_module(2, 0)
    plane = p2_restrict(line)
    for m, n in ((line, plane), (plane, line)):
        with pytest.raises(InputError, match="plane side needs two plane modules or two"):
            build_ext_complex_P2(m, n)
        with pytest.raises(InputError, match="plane side needs two plane modules or two"):
            ext_dims_P2(m, n)
    assert build_ext_complex_P2(line, line).integral == build_ext_complex_P2(plane, plane).integral
    assert ext_dims_P2(line, line) == ext_dims_P2(plane, plane) == (1, 0, 0)


def _arrow_values(*reps) -> list:
    return [v for rep in reps for m in rep.matrices.values() for row in m.sparse
            for v in row.values()]


def _assert_write_once(m, n):
    for build, mm, nn in ((build_ext_complex_Y, m, n),
                          (build_ext_complex_P2, p2_restrict(m), p2_restrict(n))):
        arrows = _arrow_values(mm, nn)
        magnitudes = {abs(v) for v in arrows}
        exact_ints = all(type(v) is int for v in arrows)
        for d in build(mm, nn).differentials:
            values = [v for row in d.sparse for v in row.values()]
            assert all(v and abs(v) in magnitudes for v in values)
            if exact_ints:
                assert d.entry_bound == max(map(abs, arrows), default=0)
                assert all(abs(v) <= d.entry_bound for v in values)
            else:
                assert d.entry_bound is None


def test_differentials_are_signed_arrow_entries_on_golden_objects_and_sums():
    objs = golden_objects()
    pt_mix = objs["pt_mix"]
    for m in objs.values():
        for n in objs.values():
            _assert_write_once(m, n)
        _assert_write_once(direct_sum(pt_mix, m), m)
        _assert_write_once(m, direct_sum(m, pt_mix))


_edge_scalars = st.one_of(st.sampled_from(_EDGE_INTS),
                          st.builds(Fraction, st.sampled_from(_EDGE_INTS), st.sampled_from([2, 3])))
_edge_points = st.builds(lambda x, y, t: point_module((1, x, y), t), _edge_scalars, _edge_scalars,
                         _edge_scalars)
_edge_modules = st.one_of(
    _edge_points,
    st.builds(direct_sum, _edge_points,
              st.one_of(_edge_points, st.sampled_from([pushforward_module(1), simple_module(2)]))))


def _bound_cleared(cx):
    return replace(cx, differentials=tuple(Mat(d.rows, d.cols, d.sparse)
                                           for d in cx.differentials))


@settings(max_examples=40, deadline=None)
@given(_edge_modules, _edge_modules)
def test_edge_entries_keep_write_once_and_prime_dims_with_or_without_bound(m, n):
    # Entries h, h + 1, p and -p sit at and beyond the symmetric residue range:
    # a recorded bound lets in-range rows be copied unread, and the dims must
    # be those of the per-entry residue walk that a cleared bound takes.
    _assert_write_once(m, n)
    for cx in (build_ext_complex_Y(m, n), build_ext_complex_P2(p2_restrict(m), p2_restrict(n))):
        assert ext_dims_of(cx, PRIME) == ext_dims_of(_bound_cleared(cx), PRIME)


def test_entry_equal_to_p_takes_the_residue_walk():
    p, h = PRIME.p, PRIME.p // 2
    in_range, at_p = point_module((1, h, -h), 1), point_module((1, p, 0), 1)
    assert in_range.arrows_over(1)[0] == h and at_p.arrows_over(1)[0] == p
    for m, walks in ((in_range, False), (at_p, True)):
        d0 = build_ext_complex_Y(m, m).differentials[0]
        rows = _field_rows(d0, p)
        assert (rows != [dict(r) for r in d0.sparse if r]) is walks
        assert all(type(x) is int and x and -h <= x <= h for row in rows for x in row.values())
    # Mod p the point (1 : p : 0) is (1 : 0 : 0).
    pt = point_module((1, 0, 0), 1)
    assert ext_dims_Y(at_p, at_p, PRIME) == ext_dims_Y(pt, pt) == (1, 3, 3, 1)
    assert ext_dims_Y(at_p, pt, PRIME) == (1, 3, 3, 1) != ext_dims_Y(at_p, pt)


def test_composition_check_refuses_a_module_that_violates_its_relations():
    # a1 of the point (0 : 1 : 2) is 0; as 2, a1 b2 = 2 != a2 b1 = 0.
    pt = point_module((0, 1, 2), Fraction(1, 2))
    bad = representation(pt.heart, pt.dims, {**pt.matrices, "a1": Mat.from_rows([[2]])})
    assert not check_relations(bad).ok
    for m, n in ((bad, pt), (pt, bad)):
        with pytest.raises(InternalCheckError, match=r"^Y complex: d1 \. d0 != 0$"):
            build_ext_complex_Y(m, n)
        with pytest.raises(InternalCheckError, match=r"^P2 complex: d1 \. d0 != 0$"):
            build_ext_complex_P2(p2_restrict(m), p2_restrict(n))


def test_composition_check_names_the_pair_whose_product_is_nonzero():
    o2 = pushforward_module(2)
    diffs = build_ext_complex_Y(o2, o2).differentials
    _check_composition(diffs, "y")
    d0, d1, d2 = diffs
    # Negate an entry in the last row of d2 at a column where d1 has a row:
    # d2 . d1 then has nonzero sums in that last row only.
    r = d2.rows - 1
    c = next(c for c in d2.sparse[r] if d1.sparse[c])
    rows = list(d2.sparse)
    rows[r] = {**rows[r], c: -rows[r][c]}
    with pytest.raises(InternalCheckError, match=r"^Y complex: d2 \. d1 != 0$"):
        _check_composition((d0, d1, Mat(d2.rows, d2.cols, tuple(rows))), "y")


# Memoized assembly: the plans of a complex are compiled once per (side, dims
# of M, dims of N), and a build from the memo must equal one assembled term by
# term from the tables, with every term summed in (no write-once shortcut).

def _dense_reference(side: str, m, n) -> list:
    # The term dims, then each differential as dense rows.
    spaces, tables = EXT_TABLES[side]
    left = [mat.data for mat in n.matrices.values()]
    right = [mat.data for mat in m.matrices.values()]

    def layout(space):
        blocks, offsets, off = [], [], 0
        for _, r, c in space:
            blocks.append((n.dims[r], m.dims[c]))
            offsets.append(off)
            off += n.dims[r] * m.dims[c]
        return blocks, offsets, off

    out = [tuple(layout(space)[2] for space in spaces)]
    for d, table in enumerate(tables):
        (iblocks, ioffs, idim), (oblocks, ooffs, odim) = layout(spaces[d]), layout(spaces[d + 1])
        dense = [[0] * idim for _ in range(odim)]
        for o, i, k, is_left, sign in table:
            (ro, co), (ri, ci) = oblocks[o], iblocks[i]
            # The image of the matrix unit E_ab of block i.
            for a in range(ri):
                for b in range(ci):
                    col = ioffs[i] + a * ci + b
                    if is_left:  # (L @ E_ab)[x, b] = L[x, a]
                        for x in range(ro):
                            dense[ooffs[o] + x * co + b][col] += sign * left[k][x][a]
                    else:  # (E_ab @ R)[a, y] = R[b, y]
                        for y in range(co):
                            dense[ooffs[o] + a * co + y][col] += sign * right[k][b][y]
        out.append(tuple(map(tuple, dense)))
    return out


_arrow_entries = st.one_of(st.integers(-2, 2),
                           st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _modules_of(draw, heart, arrows):
    # Random dims 0..3 per slot and random arrow matrices: the relations need
    # not hold, since the differentials are compared before d.d = 0 is checked.
    dims = draw(st.tuples(*[st.integers(0, 3)] * 3))
    mats = {}
    for a in arrows:
        r, c = dims[a.source], dims[a.target]
        rows = draw(st.lists(st.lists(_arrow_entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))
        mats[a.name] = Mat.from_rows(rows, cols=c)
    return representation(heart, dims, mats)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("y", 0, tuple(map(arrow, ARROW_ORDER))), ("p2", None, PLANE_ARROWS)]),
       st.data())
def test_memoized_assembly_matches_a_dense_term_by_term_reference(side_heart_arrows, data):
    side, heart, arrows = side_heart_arrows
    m, n = data.draw(_modules_of(heart, arrows)), data.draw(_modules_of(heart, arrows))
    term_dims, *reference = _dense_reference(side, m, n)
    _ext_plans.cache_clear()
    for _ in range(2):
        dims, d, scaled = _integer_differentials(side, m, n)
        diffs = _rational(d, scaled)
        assert dims == term_dims and [d.data for d in diffs] == reference
        assert all(v for d in diffs for row in d.sparse for v in row.values())
    info = _ext_plans.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_plan_memo_stays_within_its_bound():
    _ext_plans.cache_clear()
    dims = [(a, b, c) for a in range(4) for b in range(4) for c in range(3)]
    pairs = [(x, y) for x in dims for y in dims[:3]]
    assert len(pairs) > PLAN_MEMO_SIZE
    for x, y in pairs:
        cx = build_ext_complex_Y(representation(0, x), representation(0, y))
        assert cx.term_dims == _term_dims_of(x, y)
        assert _ext_plans.cache_info().currsize <= PLAN_MEMO_SIZE
    info = _ext_plans.cache_info()
    assert info.maxsize == info.currsize == PLAN_MEMO_SIZE and info.misses == len(pairs)


def _term_dims_of(x, y) -> tuple[int, ...]:
    # dim Hom(M, N) over the vertices, over the arrows, over the dual arrows, and again.
    vertex = sum(y[v] * x[v] for v in range(3))
    arrow = 3 * (y[0] * x[1] + y[1] * x[2] + y[2] * x[0])
    dual = 3 * (y[1] * x[0] + y[2] * x[1] + y[0] * x[2])
    return (vertex, arrow, dual, vertex)


# Integer complexes: each complex is assembled once as integer matrices over
# one denominator D, the lcm of its arrow entries' denominators.  The check
# and both ranks run on them, so a fractional module makes no Fraction there,
# while ``differentials`` stays the rational matrices.

def _counting_fractions(monkeypatch) -> list:
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return made


def test_ext_of_fractional_modules_makes_no_fraction(monkeypatch):
    objs = golden_objects()
    pairs = [(direct_sum(objs["pt_mix"], objs["s0"]), direct_sum(objs["pt_diag"], objs["pt_mix"])),
             (objs["pt_mix"], objs["line1"]), (objs["line2"], objs["pt_mix"])]
    expected = [ext_dims_of(build_ext_complex_Y(m, n)) for m, n in pairs]
    made = _counting_fractions(monkeypatch)
    for (m, n), dims in zip(pairs, expected):
        for scalars in (RATIONAL, PRIME):
            assert ext_dims_of(build_ext_complex_Y(m, n), scalars) == dims
    assert made == []
    # The counter does see Fractions: reading the rational matrices makes them.
    build_ext_complex_Y(*pairs[0]).differentials
    assert made


def test_prime_mode_refuses_a_denominator_divisible_by_p():
    # When p divides D the rational matrices are ranked in full, d0 first, as
    # before clearing; top down, d2 of the last pair would name -1/p.
    p = PRIME.p
    m, n = point_module((1, 2, 3), Fraction(1, p)), point_module((1, 2, 3), Fraction(5, 3 * p))
    for x, y, entry, dims in ((m, m, "-1/2147483659", (1, 3, 3, 1)),
                              (n, n, "-5/6442450977", (1, 3, 3, 1)),
                              (m, n, "-5/6442450977", (0, 0, 0, 0))):
        cx = build_ext_complex_Y(x, y)
        with pytest.raises(ScalarModeError) as refused:
            ext_dims_of(cx, PRIME)
        assert str(refused.value) == (f"matrix entry {entry} has a denominator divisible "
                                      f"by the prime {p}")
        assert ext_dims_of(cx) == dims
    with pytest.raises(ScalarModeError, match="entry -1/2147483659 "):
        rank(cx.differentials[2], PRIME)
    pt = point_module((1, 2, 3), Fraction(1, 3))
    assert ext_dims_of(build_ext_complex_Y(pt, pt), PRIME) == (1, 3, 3, 1)


def test_rational_differentials_are_read_from_the_integer_complex():
    objs = golden_objects()
    m, n = direct_sum(objs["pt_mix"], objs["s0"]), objs["line1"]
    cx = build_ext_complex_Y(m, n)
    dims, d, scaled = _integer_differentials("y", m, n)
    assert cx.term_dims == dims and cx.integral == (d, tuple(scaled)) and d > 1
    diffs = cx.differentials
    assert diffs == _rational(d, scaled) and diffs is cx.differentials
    assert all(x.entry_bound is None for x in diffs)
    assert any(type(v) is Fraction for x in diffs for row in x.sparse for v in row.values())
    # Supplied matrices are scaled over their own denominator and checked:
    # the same matrices give the same complex, zeros the term dims.
    again = replace(cx, differentials=diffs)
    assert again == cx and hash(again) == hash(cx) and again.differentials == diffs
    assert ext_dims_of(again) == ext_dims_of(cx) and ext_dims_of(again, PRIME) == ext_dims_of(cx)
    zeros = replace(cx, differentials=tuple(Mat.zeros(x.rows, x.cols) for x in diffs))
    assert zeros.integral[0] == 1 and ext_dims_of(zeros) == dims
    # A 1/p entry makes p | D: refused in prime mode, ranked over Q.
    p = PRIME.p
    tiny = ExtComplex("p2", (1, 1, 1), (Mat.from_rows([[Fraction(1, p)]]), Mat.zeros(1, 1)))
    assert tiny.integral == (p, (Mat.from_rows([[1]]), Mat.zeros(1, 1)))
    assert ext_dims_of(tiny) == (0, 0, 1)
    with pytest.raises(ScalarModeError, match=f"entry 1/{p} "):
        ext_dims_of(tiny, PRIME)
    integral = build_ext_complex_Y(objs["line1"], objs["line2"])
    assert all(x.entry_bound == 1 for x in integral.differentials)


def test_supplied_differentials_are_checked_when_made():
    # Not complexes (d1 . d0 = 1): refused when made, so nothing ranks them.
    # Ranked with clearing, the first would give (1, 0, 0) and the second,
    # whose ranks (1, 1) cancel its term dims, (0, 0, 0).
    one = Mat.from_rows([[1]])
    d0, d1 = Mat.from_rows([[1], [0]]), Mat.from_rows([[1, 0]])
    for dims, diffs in (((1, 1, 1), (one, one)), ((1, 2, 1), (d0, d1))):
        with pytest.raises(InternalCheckError, match=r"^P2 complex: d1 \. d0 != 0$"):
            ExtComplex("p2", dims, diffs)
    good = ExtComplex("p2", (1, 2, 1), (d0, Mat.from_rows([[0, 1]])))
    assert ext_dims_of(good) == ext_dims_of(good, PRIME) == (0, 0, 0)
    with pytest.raises(InternalCheckError, match=r"^P2 complex: d1 \. d0 != 0$"):
        replace(good, differentials=(d0, d1))
    # Differentials must chain the term dims, in count and in shape.
    for diffs in ((one,), (one, one, one), (one, Mat.zeros(2, 1))):
        with pytest.raises(ShapeError, match="do not chain the term dims"):
            ExtComplex("p2", (1, 1, 1), diffs)
    with pytest.raises(ShapeError):
        replace(good, differentials=(d0,))


def test_self_ext_of_o4_eliminates_only_the_rows_left_by_clearing(monkeypatch):
    # Term dims (361, 900, 900, 361), ranks (360, 540, 360): d1 is eliminated
    # on 900 - 360 of its rows and d0 on 900 - 540.  Only the top
    # differential, ranked first, takes trailing pivots.
    seen = []

    def counting(m, scalars=RATIONAL, **kwargs):
        r = rank(m, scalars, **kwargs)
        seen.append((m.rows, len(kwargs.get("skip", ())), kwargs.get("trailing", False), r))
        return r

    monkeypatch.setattr(homalg, "rank", counting)
    o4 = pushforward_module(4)
    for scalars in (RATIONAL, PRIME):
        seen.clear()
        assert ext_dims_Y(o4, o4, scalars) == (1, 0, 0, 1)
        assert seen == [(361, 0, True, 360), (900, 360, False, 540), (900, 540, False, 360)]


def dims_from_ranks(term_dims, ranks) -> tuple[int, ...]:
    # Each term's dim minus the ranks of the differentials out of and into it.
    return tuple(t - r - q for t, r, q in zip(term_dims, list(ranks) + [0], [0] + list(ranks)))


def _pivots(m, scalars) -> set:
    pivots = set()
    rank(m, scalars, pivots=pivots)
    return pivots


@settings(max_examples=40, deadline=None)
@given(st.one_of(_edge_modules, st.sampled_from([pushforward_module(a) for a in range(5)])),
       st.one_of(_edge_modules, st.sampled_from([pushforward_module(a) for a in range(5)])),
       st.sampled_from([RATIONAL, PRIME]))
def test_clearing_keeps_every_rank_and_dimension(m, n, scalars):
    for cx in (build_ext_complex_Y(m, n), build_ext_complex_P2(p2_restrict(m), p2_restrict(n))):
        diffs = cx.integral[1]
        for d, above in zip(diffs, diffs[1:]):
            assert rank(d, scalars, skip=_pivots(above, scalars)) == rank(d, scalars)
        # The witness: each rational differential ranked in full.
        full = [rank(d, scalars) for d in cx.differentials]
        assert ext_dims_of(cx, scalars) == dims_from_ranks(cx.term_dims, full)


def test_trailing_top_pivots_clear_only_rows_that_elimination_zeroes():
    # The echelon row of the top differential at trailing pivot c ends at c
    # and annihilates the one below, so row c of that one is a combination of
    # the rows before it: eliminated in full, in row order, it reduces to
    # zero.  Leaving those rows out builds the very same pivot rows.  With
    # leading top pivots a cleared row is a combination of the rows after it,
    # and the pivot rows change on some of these pairs.
    objs = golden_objects()
    mods = [pushforward_module(a) for a in range(5)] + [
        objs["pt_mix"], direct_sum(objs["pt_diag"], objs["s2"]),
        thick_point(3, objs["pt_mix"]), thick_point(7, objs["pt_mix"])]
    cases = changed = 0
    for m in mods:
        for n in mods:
            for cx in (build_ext_complex_Y(m, n),
                       build_ext_complex_P2(p2_restrict(m), p2_restrict(n))):
                top, below = cx.integral[1][-1], cx.integral[1][-2]
                for scalars in (RATIONAL, PRIME):
                    p = scalars.p if isinstance(scalars, PrimeScalars) else 0
                    full = _echelon(_field_rows(below, p), p)
                    for trailing in (True, False):
                        pivots = set()
                        rank(top, scalars, pivots=pivots, trailing=trailing)
                        same = _echelon(_field_rows(below, p, pivots), p) == full
                        assert same or not trailing, (m.label, n.label, cx.side, scalars)
                        changed += not same
                    cases += 1
    assert cases == 324 and changed > 0
