"""Koszul maps, window membership, twist functors and window vectors."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import pytest

from localp2.characters import koszul_rewrite, ori_char
from localp2.corpus import standard_corpus
from localp2.errors import InputError, InternalCheckError, MembershipError
from localp2.homalg import build_ext_complex_Y, ext_dims_Y
from localp2.linalg import Mat, rank
from localp2.quiver import (
    check_relations,
    direct_sum,
    dumps_json,
    epsilon,
    h0,
    hom_space,
    point_module,
    pushforward_module,
    representation,
    simple_module,
    zero_module,
)
from localp2.windows import (
    WindowVector,
    _membership,
    certified_window,
    extend_window,
    koszul_complex,
    twist_down,
    twist_up,
    window_membership,
    window_vector,
)
from thick_points import thick_point


def _dual(rep, label=None):
    # The transpose module M^v in heart -n-2: slots reversed, a_i <-> b_i^T,
    # c_k -> c_k^T.  It is a module because the sign table is antisymmetric,
    # and its up test is the down test of M.
    mats = rep.matrices
    swap = {"a": "b", "b": "a", "c": "c"}
    dual = {name: mats[swap[name[0]] + name[1]].transpose() for name in mats}
    return representation(-rep.heart - 2, rep.dims[::-1], dual, label)


def _koszul_maps(rep):
    _, kappa2, kappa1 = koszul_complex(rep).differentials
    return kappa1, kappa2


def test_koszul_map_examples():
    pt = point_module((1, 1, 1), 1, 0)
    k1, k2 = _koszul_maps(pt)
    assert (k1.rows, k1.cols) == (1, 3)
    assert rank(k2) == 2  # nonzero skew 3x3 has rank 2
    assert (k1 @ k2).is_zero()

    s0 = simple_module(0, 0)
    k1, _ = _koszul_maps(s0)
    assert (k1.rows, k1.cols) == (1, 0) or k1.is_zero()

    line = pushforward_module(1, 0)
    k1, _ = _koszul_maps(line)
    assert rank(k1) == 3  # the linear forms span


def test_koszul_maps_refuse_broken_relations():
    # ``representation`` skips ``require_valid``: moving a1 off the point
    # (0:1:2) breaks a_i b_j = a_j b_i, so kappa1 . kappa2 = d2 . d1 != 0.
    pt = point_module((0, 1, 2), 1, 0)
    broken = representation(0, pt.dims, {**pt.matrices, "a1": Mat.from_rows([[2]])})
    assert not check_relations(broken).ok
    with pytest.raises(InternalCheckError, match=r"Y complex: d2 \. d1 != 0"):
        koszul_complex(broken)


def test_a_record_with_broken_c_relations_is_refused():
    # Moving c1 off the point keeps every relation in the a and b arrows, so
    # kappa1 . kappa2 = 0, but breaks rel_a2, rel_a3, rel_b2 and rel_b3:
    # d1 . d0 of RHom(S_0, M) for the up test, and of RHom(M, S_2) for the
    # down test.
    pt = point_module((0, 1, 2), 1, 0)
    broken = representation(0, pt.dims, {**pt.matrices, "c1": Mat.from_rows([[5]])})
    assert check_relations(broken).violated == ("rel_a2", "rel_a3", "rel_b2", "rel_b3")
    for refuse in (lambda: window_membership(broken, "up"),
                   lambda: window_membership(broken, "down"), lambda: twist_up(broken),
                   lambda: twist_down(broken)):
        with pytest.raises(InternalCheckError, match=r"Y complex: d1 \. d0 != 0"):
            refuse()


def _dense_koszul_maps(rep):
    # kappa1 = (A1 A2 A3), nu = (B1; B2; B3), and the skew maps with block
    # (i, j) = sum_k eps(i, k, j) * X_k, entry by entry from epsilon.
    x = {name: m.data for name, m in rep.matrices.items()}
    n0, n1, n2 = rep.dims

    def skew(family, rows, cols):
        return Mat.from_rows([[sum(epsilon(i, k, j) * x[f"{family}{k}"][r][c] for k in (1, 2, 3))
                               for j in (1, 2, 3) for c in range(cols)]
                              for i in (1, 2, 3) for r in range(rows)], cols=3 * cols)

    kappa1 = Mat.from_rows([[v for k in (1, 2, 3) for v in x[f"a{k}"][r]] for r in range(n0)],
                           cols=3 * n1)
    nu = Mat.from_rows([row for k in (1, 2, 3) for row in x[f"b{k}"]], cols=n2)
    return (kappa1, skew("b", n1, n2)), (nu, skew("a", n0, n1))


def _dense_transpose(m, sign=1):
    return Mat.from_rows([[sign * row[j] for row in m.data] for j in range(m.cols)], cols=m.rows)


def _sign_table_reps():
    pt_mix = standard_corpus()["pt_mix"]
    frac = point_module((0, 2, 3), "-7/3", 0)  # a3 = b3 = 3/2
    thick = thick_point(4, pt_mix)  # a generic module, none of the constructors above
    return [pt_mix, frac, *(pushforward_module(d, 0) for d in range(4)), simple_module(1, 0),
            direct_sum(frac, pushforward_module(2, 0)), twist_up(pushforward_module(2, 0)),
            point_module((1, 1, 1), 1, 0), zero_module(0), thick, twist_up(thick)]


def test_koszul_maps_match_the_sign_table():
    # A global sign flip of kappa2 or mu keeps every rank and kernel, so the
    # twist and rank tests cannot see it; this compares every entry.  The
    # Koszul maps of the dual module are (nu^T, -mu^T).
    for rep in _sign_table_reps():
        up, (nu, mu) = _dense_koszul_maps(rep)
        assert _koszul_maps(rep) == up, rep.label
        kappa1, kappa2 = _koszul_maps(_dual(rep))
        assert (kappa1, kappa2) == (_dense_transpose(nu), _dense_transpose(mu, -1)), rep.label
        assert (mu @ nu).is_zero() and (kappa1 @ kappa2).is_zero(), rep.label
        # RHom(M, S_2), which down-membership ranks, has d2 = -nu^T and d1 = mu^T.
        _, d1, d2 = koszul_complex(rep, "down").differentials
        assert (d2, d1) == (_dense_transpose(nu, -1), _dense_transpose(mu)), rep.label
    frac = point_module((0, 2, 3), "-7/3", 0)
    assert any(type(v) is Fraction for row in _koszul_maps(frac)[1].sparse for v in row.values())


def test_koszul_complex_d0_is_the_negated_c_stack():
    # d0 of RHom(S_0, M) maps M_0 to M_2^3 by -(C1; C2; C3); for M^v the c's
    # are the transposed c's of M.
    for rep in _sign_table_reps():
        for m in (rep, _dual(rep)):
            x = {name: mat.data for name, mat in m.matrices.items()}
            negated = Mat.from_rows([[-v for v in row] for k in (1, 2, 3) for row in x[f"c{k}"]],
                                    cols=m.dims[0])
            d0 = build_ext_complex_Y(simple_module(0, m.heart), m).differentials[0]
            assert d0 == negated, m.label


def test_down_maps_compose_to_zero():
    # The down maps (nu, mu) are read off the dual module's Koszul maps,
    # (nu^T, -mu^T); their composite mu . nu must vanish.
    for rep in (point_module((1, 1, 1), 1, 0), pushforward_module(2, 0)):
        kappa1, kappa2 = _koszul_maps(_dual(rep))
        nu, mu = _dense_transpose(kappa1), _dense_transpose(kappa2, -1)
        assert (mu @ nu).is_zero(), rep.label
        assert (kappa1 @ kappa2).is_zero(), rep.label


def test_dual_is_an_involution():
    for rep in _sign_table_reps():
        dual = _dual(rep)
        assert dual.heart == -rep.heart - 2 and dual.dims == rep.dims[::-1]
        assert check_relations(dual).ok, rep.label
        assert _dual(dual, rep.label) == rep, rep.label


def test_down_membership_equals_the_up_test_of_the_dual():
    # Down-membership reads RHom(M, S_2); the up test of M^v, under the down
    # names, is the same test.  The two reports must be equal.
    reps = _sign_table_reps() + [simple_module(v, 0) for v in (0, 2)] + \
        [pushforward_module(3, n) for n in range(4)]
    for rep in reps:
        assert window_membership(rep, "down") == _membership(koszul_complex(_dual(rep)), "down"), \
            rep.label


def _equivalence_modules():
    objs = standard_corpus()
    thick = thick_point(4, objs["pt_mix"])
    return [*objs.values(),
            *(pushforward_module(d, n) for d in range(6) for n in range(d + 1)),
            *(point_module((1, 2, 3), Fraction(1, 3), n) for n in (-1, 0, 2)),
            thick, twist_up(thick), direct_sum(objs["pt_e0"], objs["line1"])]


def test_membership_is_ext_vanishing_against_the_simples():
    # Each report against references that bypass ``_membership``: its ranks
    # are those of the dense Koszul maps, it passes exactly when Ext^2 and
    # Ext^3 against the simple vanish, and its new slot is h - ext^0 + ext^1.
    modules = _equivalence_modules()
    assert len(modules) == 36
    for rep in modules:
        (kappa1, kappa2), (nu, mu) = _dense_koszul_maps(rep)
        h0, _, h2 = rep.dims
        e = ext_dims_Y(simple_module(0, rep.heart), rep)
        up = window_membership(rep, "up")
        assert (up.ranks["kappa1_rank"], up.ranks["kappa2_rank"]) == \
            (rank(kappa1), rank(kappa2)), rep.label
        assert up.ok == (e[2:] == (0, 0)), rep.label
        assert up.ranks["kernel_dim"] == h0 - e[0] + e[1], rep.label
        e = ext_dims_Y(rep, simple_module(2, rep.heart))
        down = window_membership(rep, "down")
        assert (down.ranks["nu_rank"], down.ranks["mu_rank"]) == (rank(nu), rank(mu)), rep.label
        assert down.ok == (e[2:] == (0, 0)), rep.label
        assert down.ranks["cokernel_dim"] == h2 - e[0] + e[1], rep.label


def _entry_types(rep):
    return {name: [type(v) for row in mat.sparse for v in row.values()]
            for name, mat in rep.matrices.items()}


def _dual_route_modules():
    objs = standard_corpus()
    return _sign_table_reps() + _equivalence_modules() + \
        [thick_point(3, objs["pt_diag"]), thick_point(5, objs["pt_mix"])]


def test_down_complex_is_the_negated_complex_of_the_dual():
    # RHom(M, S_2) = -RHom(S_0, M^v) in every differential, so their d1 have
    # one kernel basis and ``twist_down`` needs no transposed module.
    for rep in _dual_route_modules():
        down, dual = koszul_complex(rep, "down"), koszul_complex(_dual(rep))
        assert down.term_dims == dual.term_dims, rep.label
        for d, e in zip(down.differentials, dual.differentials, strict=True):
            assert d == Mat.from_rows([[-v for v in row] for row in e.data], cols=e.cols), \
                rep.label


def test_twist_down_is_the_dual_of_the_up_twist_of_the_dual():
    # ``twist_down`` reads RHom(M, S_2); the reference route is the dual of
    # the up twist of M^v.  The two agree in value, label and entry types, for
    # each module and its down twist, and refuse the same modules.
    checked = 0
    for rep in _dual_route_modules():
        for _ in range(2):
            try:
                down = twist_down(rep)
            except MembershipError as exc:
                assert exc.report == window_membership(rep, "down").to_dict(), rep.label
                with pytest.raises(MembershipError):
                    twist_up(_dual(rep))
                break
            via_dual = _dual(twist_up(_dual(rep)), f"twist_down({rep.label})")
            assert down == via_dual and down.label == via_dual.label, rep.label
            assert _entry_types(down) == _entry_types(via_dual), rep.label
            rep, checked = down, checked + 1
    assert checked >= 90


def test_membership_pushforwards():
    for d in range(4):
        for n in range(d + 1):
            rep = pushforward_module(d, n)
            assert window_membership(rep, "up").ok == (n < d)
            if n > 0:
                assert window_membership(rep, "down").ok


def test_membership_down_at_window_start():
    # The window of a pushforward extends below heart 0 as well: the twisted
    # module exists, satisfies the relations, and has the plane-cohomology
    # dimensions of the next twist down.
    for d in range(3):
        rep = pushforward_module(d, 0)
        assert window_membership(rep, "down").ok
        down = twist_down(rep)
        assert down.heart == -1
        assert down.dims == (h0(d + 1), h0(d), h0(d - 1))
        assert check_relations(down).ok


def test_membership_point_all_hearts():
    for n in range(-8, 9):
        pt = point_module((1, 2, 3), Fraction(1, 3), n)
        assert window_membership(pt, "up").ok
        assert window_membership(pt, "down").ok


def test_membership_refusals_with_diagnostics():
    s0 = simple_module(0, 0)
    rep = window_membership(s0, "up")
    assert not rep.ok and "kappa1 not surjective" in rep.reason
    assert rep.ranks["kappa1_rank"] == 0 and rep.ranks["kappa1_target"] == 1

    s1 = simple_module(1, 0)
    assert not window_membership(s1, "up").ok
    assert not window_membership(s1, "down").ok

    s2 = simple_module(2, 0)
    rep = window_membership(s2, "down")
    assert not rep.ok and rep.ranks["nu_rank"] == 0 and rep.ranks["nu_required"] == 1
    with pytest.raises(MembershipError) as err:
        twist_down(s2)
    assert err.value.report["ranks"]["nu_rank"] == 0
    with pytest.raises(InputError):
        window_membership(s0, "outward")


def test_twist_up_point_is_the_shifted_point():
    for coords, t in (((1, 0, 0), 0), ((1, 1, 1), 1), ((0, 1, 2), Fraction(1, 2))):
        pt = point_module(coords, t, 0)
        up = twist_up(pt)
        assert up.heart == 1 and up.dims == (1, 1, 1)
        assert check_relations(up).ok
        model = point_module(coords, t, 1)
        assert hom_space(up, model).dim == 1
        assert hom_space(model, up).dim == 1


def test_twist_up_pushforward_and_refusal():
    line = pushforward_module(1, 0)
    up = twist_up(line)
    assert up.heart == 1 and up.dims == (1, 0, 0)
    assert hom_space(up, pushforward_module(1, 1)).dim == 1
    with pytest.raises(MembershipError):
        twist_up(simple_module(0, 0))


def test_twist_down_pushforward():
    rep = pushforward_module(1, 1)
    down = twist_down(rep)
    assert down.heart == 0 and down.dims == (3, 1, 0)
    line = pushforward_module(1, 0)
    assert hom_space(down, line).dim == 1
    assert hom_space(line, down).dim == 1


def test_twist_round_trips():
    objs = [
        point_module((1, 0, 0), 0, 0),
        point_module((1, 1, 1), 1, 0),
        point_module((0, 1, 2), Fraction(1, 2), 0),
        pushforward_module(1, 0),
        pushforward_module(2, 1),
    ]
    for m in objs:
        up = twist_up(m)
        back = twist_down(up)
        assert back.heart == m.heart and back.dims == m.dims
        assert hom_space(back, m).dim == 1 and hom_space(m, back).dim == 1
    s2 = simple_module(2, 0)
    back = twist_down(twist_up(s2))
    assert back.dims == s2.dims and hom_space(back, s2).dim == 1

    down_first = [point_module((1, 1, 1), 1, 0), pushforward_module(1, 1)]
    for m in down_first:
        back = twist_up(twist_down(m))
        assert back.dims == m.dims and hom_space(back, m).dim == 1


def test_twists_produce_exact_scalars():
    # An entry is an int when integral, else a Fraction: the c-composites of
    # the point (1:2:3) at t = 1/2 multiply halves into whole numbers.
    for m in (pushforward_module(3, 0), point_module((0, 1, 2), Fraction(1, 2), 0),
              point_module((1, 2, 3), "1/2", 0)):
        up = twist_up(m)
        for rep in (up, twist_up(up), twist_down(up), twist_down(twist_down(twist_up(up))),
                    twist_down(m)):
            values = [v for mat in rep.matrices.values() for row in mat.data for v in row]
            assert all(type(v) is int or type(v) is Fraction and v.denominator > 1
                       for v in values), rep.label


def test_ext_profiles_invariant_under_simultaneous_twist():
    pairs = [
        (point_module((1, 1, 1), 1, 0), pushforward_module(1, 0)),
        (point_module((1, 0, 0), 0, 0), point_module((1, 1, 1), 1, 0)),
        (pushforward_module(1, 0), pushforward_module(2, 0)),
    ]
    for m, n in pairs:
        assert ext_dims_Y(m, n) == ext_dims_Y(twist_up(m), twist_up(n))
        assert ext_dims_Y(n, m) == ext_dims_Y(twist_up(n), twist_up(m))


def test_twist_matches_character_rewrite():
    # the representation-level face of the gluing: evaluating the rewritten
    # heart-n character on the extended window equals evaluating the heart-n+1
    # character on the twisted module's window
    m = pushforward_module(2, 0)
    wv = extend_window(window_vector(m), 3)
    assign = {k: v for k, v in wv.values}
    up = twist_up(m)
    lhs = koszul_rewrite(ori_char(0), 0, "up").evaluate(assign)
    rhs = ori_char(1).evaluate({1: up.dims[0], 2: up.dims[1], 3: up.dims[2]})
    assert lhs == rhs


def test_window_vector_certification():
    line = pushforward_module(1, 0)
    wv = window_vector(line)
    assert wv.value(3) == 0 and 3 in wv.certified  # h3 from proven up-membership
    assert wv.value(-1) == 6 and -1 in wv.certified
    s0 = simple_module(0, 0)
    wv = window_vector(s0)
    assert 3 not in wv.certified  # up-membership fails, nothing certified above

    # A certified slot is the recursion's value; rank-nullity makes it the
    # passing report's kernel_dim (up) or cokernel_dim (down).
    objs = standard_corpus()
    reps = [*objs.values(), *(pushforward_module(d, n) for d in range(7) for n in range(d + 1)),
            thick_point(3, objs["pt_diag"]), thick_point(5, objs["pt_mix"]),
            direct_sum(objs["pt_e0"], pushforward_module(1, 0))]
    for rep in (pushforward_module(2, 0), objs["pt_mix"]):
        for _ in range(4):
            rep = twist_down(rep)
            reps.append(rep)
    certified = Counter()
    for rep in reps:
        n, up, down = rep.heart, window_membership(rep, "up"), window_membership(rep, "down")
        wv = certified_window(rep, up.ok, down.ok)
        assert wv.certified == {n, n + 1, n + 2, *[n + 3] * up.ok, *[n - 1] * down.ok}
        if up.ok:
            assert wv.value(n + 3) == up.ranks["kernel_dim"], rep.label
        if down.ok:
            assert wv.value(n - 1) == down.ranks["cokernel_dim"], rep.label
        certified.update(up=up.ok, down=down.ok)
    assert certified == {"up": 39, "down": 46}


def test_extend_window_examples():
    pt = point_module((1, 1, 1), 1, 0)
    wv = extend_window(extend_window(window_vector(pt), 8), -8)
    assert all(wv.value(k) == 1 for k in range(-8, 9))

    s0 = simple_module(0, 0)
    wv = extend_window(window_vector(s0), 3)
    assert wv.value(3) == 1 and 3 not in wv.certified  # extrapolated, not certified

    with pytest.raises(InputError):
        extend_window(WindowVector.make(0, {0: 1, 1: 1}, [0, 1]), 4)


def test_extend_window_reproduces_twisted_dims():
    for rep in (pushforward_module(2, 0), point_module((1, 2, 3), 4, 0)):
        wv = extend_window(window_vector(rep), rep.heart + 3)
        up = twist_up(rep)
        assert (wv.value(rep.heart + 1), wv.value(rep.heart + 2),
                wv.value(rep.heart + 3)) == up.dims


def test_window_vector_json_round_trip():
    wv = window_vector(pushforward_module(1, 0))
    data = json.loads(dumps_json(wv.to_dict()))
    again = WindowVector.make(data["base"], {int(k): v for k, v in data["values"].items()},
                              data["certified"])
    assert again == wv


def test_direct_sum_twists():
    a = point_module((1, 0, 0), 0, 0)
    b = pushforward_module(1, 0)
    ds = direct_sum(a, b)
    up = twist_up(ds)
    assert up.dims == tuple(x + y for x, y in zip(twist_up(a).dims, twist_up(b).dims))
    assert check_relations(up).ok
