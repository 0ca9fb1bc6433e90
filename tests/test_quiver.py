"""Relations, cyclic derivatives, constructors, intertwiners, JSON round trips."""

from __future__ import annotations

import json
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localp2 import quiver
from localp2.corpus import standard_corpus
from localp2.errors import HeartMismatchError, HeartRangeError, InputError, ShapeError
from localp2.linalg import MAX_DIM, Mat, scalar
from localp2.windows import twist_up
from localp2.quiver import (
    ARROW_ORDER,
    PLANE_ARROWS,
    POTENTIAL,
    RELATIONS,
    check_relations,
    cyclic_derivative,
    direct_sum,
    dumps_json,
    dumps_rep,
    epsilon,
    h0,
    hom_space,
    loads_rep,
    monomial_basis,
    p2_restrict,
    parse_scalar,
    point_module,
    pushforward_module,
    rep_from_dict,
    rep_to_dict,
    representation,
    simple_module,
    word_endpoints,
    zero_module,
)

# All nine derivatives of the potential, rotated by hand.
DERIVATIVES = {
    "a1": ((1, ("c3", "b2")), (-1, ("c2", "b3"))),
    "a2": ((1, ("c1", "b3")), (-1, ("c3", "b1"))),
    "a3": ((1, ("c2", "b1")), (-1, ("c1", "b2"))),
    "b1": ((-1, ("a2", "c3")), (1, ("a3", "c2"))),
    "b2": ((1, ("a1", "c3")), (-1, ("a3", "c1"))),
    "b3": ((-1, ("a1", "c2")), (1, ("a2", "c1"))),
    "c1": ((1, ("b3", "a2")), (-1, ("b2", "a3"))),
    "c2": ((1, ("b1", "a3")), (-1, ("b3", "a1"))),
    "c3": ((1, ("b2", "a1")), (-1, ("b1", "a2"))),
}


def test_cyclic_derivatives_match_hand_rotation():
    for name, expected in DERIVATIVES.items():
        got = cyclic_derivative(POTENTIAL, name)
        assert sorted(got) == sorted(expected), name
        # each relation of the fixed potential has exactly two terms
        assert len(got) == 2


def test_cyclic_derivative_edge_cases():
    assert cyclic_derivative((), "a1") == ()
    with pytest.raises(InputError):
        cyclic_derivative(POTENTIAL, "z9")


def test_presentation_invariants():
    assert len(RELATIONS) == 9 and [a.name for a in PLANE_ARROWS] == list(ARROW_ORDER[:6])
    for _, word in POTENTIAL:
        src, tgt = word_endpoints(word)
        assert src == tgt
    for _, terms in RELATIONS:
        assert len({word_endpoints(w) for _, w in terms}) == 1


def test_epsilon_table_is_alternating():
    assert epsilon(1, 2, 3) == 1 and epsilon(2, 3, 1) == 1 and epsilon(3, 1, 2) == 1
    assert epsilon(1, 3, 2) == -1 and epsilon(3, 2, 1) == -1 and epsilon(2, 1, 3) == -1
    assert epsilon(1, 1, 2) == 0


def test_point_module_examples():
    pt = point_module((1, 0, 0), 0, 0)
    assert pt.dims == (1, 1, 1)
    assert pt.matrices["a1"].data == ((Fraction(1),),)
    assert pt.matrices["b2"].data == ((Fraction(0),),)
    assert all(pt.matrices[f"c{k}"].is_zero() for k in (1, 2, 3))
    assert check_relations(pt).ok

    diag = point_module((1, 1, 1), 1, 0)
    assert all(diag.matrices[n].data == ((Fraction(1),),) for n in ARROW_ORDER)
    assert check_relations(diag).ok

    with pytest.raises(InputError):
        point_module((0, 0, 0), 1, 0)


def test_point_module_chart_normalization():
    a = point_module((2, 4, 6), 5, 0)
    b = point_module((1, 2, 3), 5, 0)
    assert a.dims == b.dims and a.matrices == b.matrices
    assert a.matrices["a1"].data == ((Fraction(1),),)


def test_point_module_lies_in_every_heart():
    for n in range(-8, 9):
        pt = point_module((1, 2, 3), Fraction(1, 7), n)
        assert check_relations(pt).ok


def test_pushforward_examples():
    assert pushforward_module(0, 0).dims == (1, 0, 0)
    line = pushforward_module(1, 0)
    assert line.dims == (3, 1, 0)
    # coordinate inclusions of the 1-dim space into the space of linear forms
    for i in (1, 2, 3):
        col = tuple(row[0] for row in line.matrices[f"a{i}"].data)
        assert col == tuple(Fraction(1 if j == i - 1 else 0) for j in range(3))
    assert pushforward_module(2, 0).dims == (6, 3, 1)
    assert pushforward_module(1, 1).dims == (1, 0, 0)
    for d in range(4):
        for n in range(d + 1):
            assert check_relations(pushforward_module(d, n)).ok


def test_pushforward_heart_range_rejected():
    with pytest.raises(HeartRangeError):
        pushforward_module(1, 2)
    with pytest.raises(HeartRangeError):
        pushforward_module(1, -1)
    with pytest.raises(HeartRangeError):
        pushforward_module(-1, 0)


def test_h0_and_monomial_order():
    assert [h0(m) for m in (-2, -1, 0, 1, 2, 3)] == [0, 0, 1, 3, 6, 10]
    assert monomial_basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomial_basis(2)[:3] == ((2, 0, 0), (1, 1, 0), (1, 0, 1))
    assert len(monomial_basis(3)) == 10


def test_simple_and_zero_modules():
    assert simple_module(0, 0).dims == (1, 0, 0)
    assert simple_module(1, 0).dims == (0, 1, 0)
    assert simple_module(2, 5).dims == (0, 0, 1)
    assert simple_module(2, 5).heart == 5
    z = zero_module(0)
    assert z.dims == (0, 0, 0) and check_relations(z).ok
    with pytest.raises(InputError):
        simple_module(3, 0)


def test_dims_and_intertwiner_systems_are_size_bounded():
    big = representation(0, (MAX_DIM, 0, 0))
    with pytest.raises(InputError, match="size bound"):
        representation(0, (0, MAX_DIM + 1, 0))
    assert hom_space(big, zero_module(0)).dim == 0
    with pytest.raises(InputError, match="size bound"):
        hom_space(big, representation(0, (2, 0, 0)))


def test_pushforward_dims_are_checked_before_any_matrix_is_built():
    # Degree 446 is the first whose top slot, h0(446) = 100128, exceeds the
    # bound; the refusal comes before a single multiplication matrix exists.
    assert h0(445) <= MAX_DIM < h0(446)
    start = time.perf_counter()
    with pytest.raises(InputError, match="size bound"):
        pushforward_module(446)
    assert time.perf_counter() - start < 0.5


def test_records_above_the_record_bound_are_refused_before_any_entry_list(monkeypatch):
    # A record lists rows * cols entries per arrow: a zero module of dims
    # (4000, 4000, 0) has 48 million and allocates nothing until it is written.
    big = representation(0, (4000, 4000, 0))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="has 48000000 entries, more than the record bound"):
            dumps_rep(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    # O(45) is the largest pushforward in heart 0 that can be written.
    o45, o46 = pushforward_module(45), pushforward_module(46)
    sizes = [sum(m.rows * m.cols for m in rep.matrices.values()) for rep in (o45, o46)]
    assert sizes == [9641025, 10517049]
    assert sizes[0] <= quiver.MAX_RECORD_ENTRIES < sizes[1]
    with pytest.raises(InputError, match="record bound"):
        rep_to_dict(o46)
    # The bound counts the entries of every arrow, zero matrices included.
    pt = point_module((1, 2, 3), 1)
    monkeypatch.setattr(quiver, "MAX_RECORD_ENTRIES", 9)
    assert loads_rep(dumps_rep(pt)) == pt
    monkeypatch.setattr(quiver, "MAX_RECORD_ENTRIES", 8)
    with pytest.raises(InputError, match="record of dims \\[1, 1, 1\\] has 9 entries"):
        dumps_rep(pt)


def test_relations_of_zero_matrices_at_the_size_bound_are_checked_quickly():
    # Every path has a zero factor, so no relation term is evaluated.
    for text in ('{"heart": 0, "dims": [100000, 100000, 100000], "matrices": {}}',
                 '{"dims": [100000, 100000, 100000], "matrices": {}}'):
        rep = loads_rep(text)
        start = time.perf_counter()
        assert check_relations(rep) == (True, ())
        assert time.perf_counter() - start < 0.5


def test_relation_violation_detected():
    # Break a nontrivial relation by replacing one multiplication matrix.
    line2 = pushforward_module(2, 0)
    mats = dict(line2.matrices)
    mats["a1"] = Mat.from_rows([[1, 7, 0], [0, 1, 0], [2, 0, 1], [0, 0, 0], [0, 3, 0], [0, 0, 5]])
    broken = representation(0, line2.dims, mats)
    chk = check_relations(broken)
    assert not chk.ok
    assert all(lab.startswith("rel_c") for lab in chk.violated)

    pt = point_module((1, 1, 1), 1, 0)
    mats = dict(pt.matrices)
    mats["a1"] = Mat.from_rows([[3]])
    assert not check_relations(representation(0, pt.dims, mats)).ok


def _violated_reference(rep):
    # Each relation of the algebra is the cyclic derivative of the potential
    # by one arrow; evaluate it entry by entry on dense rows.
    names = ARROW_ORDER if rep.heart is not None else ("c1", "c2", "c3")
    violated = []
    for name in names:
        acc = {}
        for coeff, (u, v) in cyclic_derivative(POTENTIAL, name):
            left, right = rep.matrices[v].data, rep.matrices[u].data
            for r, row in enumerate(left):
                for j in range(rep.matrices[u].cols):
                    acc[r, j] = acc.get((r, j), 0) + coeff * sum(
                        x * right[k][j] for k, x in enumerate(row))
        if any(acc.values()):
            violated.append(f"rel_{name}")
    return tuple(violated)


_small_modules = st.one_of(
    st.builds(lambda p, t: point_module(p, t, 0),
              st.tuples(*[st.integers(-2, 2)] * 3).filter(any),
              st.fractions(-2, 2, max_denominator=3)),
    st.builds(pushforward_module, st.integers(0, 2)),
    st.builds(simple_module, st.sampled_from((0, 1, 2))))


@st.composite
def _maybe_perturbed(draw):
    rep = draw(st.one_of(_small_modules, st.builds(direct_sum, _small_modules, _small_modules)))
    if draw(st.booleans()):
        rep = p2_restrict(rep)
    mats = dict(rep.matrices)
    nonempty = [a for a, m in mats.items() if m.rows and m.cols]
    if nonempty and draw(st.booleans()):
        a = draw(st.sampled_from(nonempty))
        r, c = draw(st.integers(0, mats[a].rows - 1)), draw(st.integers(0, mats[a].cols - 1))
        data = [list(row) for row in mats[a].data]
        data[r][c] += draw(st.sampled_from((-2, -1, 1, Fraction(1, 2))))
        mats[a] = Mat.from_rows(data)
    return representation(rep.heart, rep.dims, mats)


@settings(max_examples=80, deadline=None)
@given(_maybe_perturbed())
def test_check_relations_matches_entrywise_cyclic_derivatives(rep):
    violated = _violated_reference(rep)
    assert check_relations(rep) == (not violated, violated)


def _relation_products_differ(rep):
    # The definition: relation (u1, v1) = (u2, v2) holds when M_v1 @ M_u1 == M_v2 @ M_u2.
    mats = rep.matrices
    relations = RELATIONS if rep.heart is not None else RELATIONS[6:]
    return tuple(lab for lab, ((_, (u1, v1)), (_, (u2, v2))) in relations
                 if mats[v1] @ mats[u1] != mats[v2] @ mats[u2])


def test_check_relations_lists_the_relations_whose_products_differ():
    reps = [*standard_corpus().values(), *(pushforward_module(d, 0) for d in range(4)),
            twist_up(pushforward_module(2, 0))]
    cases = 0
    for rep in reps + [p2_restrict(rep) for rep in reps]:
        variants = [rep]
        # Each nonempty arrow in turn gets one entry changed by 1.
        for name, m in rep.matrices.items():
            if m.rows and m.cols:
                data = [list(row) for row in m.data]
                data[m.rows // 2][m.cols // 2] += 1
                variants.append(representation(rep.heart, rep.dims,
                                               {**rep.matrices, name: Mat.from_rows(data)}))
        for variant in variants:
            violated = _relation_products_differ(variant)
            assert check_relations(variant) == (not violated, violated), variant.label
            cases += bool(violated)
    # The perturbed modules break relations; the modules themselves break none.
    assert cases > 50 and all(check_relations(rep).ok for rep in reps)


def test_library_constructors_refuse_non_int_hearts_and_dims():
    for heart in (2.7, "3", True, False, Fraction(2), 2.0):
        for build in (lambda h: representation(h, (0, 0, 0)),
                      lambda h: simple_module(0, h),
                      lambda h: point_module((1, 0, 0), 0, h),
                      lambda h: pushforward_module(3, h),
                      zero_module):
            with pytest.raises(InputError, match=re.escape(f"heart must be an integer, got {heart!r}")):
                build(heart)
    for dims in ((1.0, 0, 0), (0, "1", 0), (0, 0, True)):
        with pytest.raises(InputError, match="dims entry must be an integer"):
            representation(0, dims)
        with pytest.raises(InputError, match="dims entry must be an integer"):
            representation(None, dims)
    with pytest.raises(InputError, match="degree must be an integer, got 1.5"):
        pushforward_module(1.5)
    with pytest.raises(InputError, match="vertex must be an integer, got True"):
        simple_module(True)
    # ints are taken as they are, and a plane module still has no heart.
    assert representation(2, (1, 0, 0)).heart == 2 and simple_module(0, -4).heart == -4
    assert representation(None, (1, 0, 0)).heart is None


def test_library_constructors_refuse_labels_that_are_not_strings():
    pt = point_module((1, 0, 0))
    for label in (1.5, 7, [1], True, b"x", Fraction(1, 2)):
        for build in (lambda lab: representation(0, (0, 0, 0), label=lab),
                      lambda lab: representation(None, (1, 0, 0), label=lab),
                      lambda lab: simple_module(0, 0, lab),
                      lambda lab: point_module((1, 0, 0), 0, 0, lab),
                      lambda lab: pushforward_module(1, 0, lab),
                      lambda lab: direct_sum(pt, pt, lab)):
            with pytest.raises(InputError, match=re.escape(f"label must be a string or null, "
                                                           f"got {label!r}")):
                build(label)
    assert representation(0, (0, 0, 0), label="").label == ""
    assert representation(0, (0, 0, 0)).label is None


# Strings with quotes, backslashes, control characters, non-ASCII and astral
# characters and a lone surrogate; ints beyond 2**64.
_json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f \u00e9\u20ac\u2028\ud800'),
                               st.characters()), max_size=8)
_json_scalars = st.one_of(st.none(), st.booleans(), _json_text,
                          st.integers(), st.integers(-2**80, 2**80),
                          st.sampled_from((2**64, -2**64 - 1, 10**40)))
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_json_text, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_json_payloads)
@example({})
@example([])
@example(())
@example({"b": [], "a": {}, "": [[], {}, ()], "A": None})
@example({"x": [True, False, None, 0, -1, 2**100], "\u00e9": "\\\"\n"})
def test_dumps_json_matches_the_standard_library(payload):
    assert dumps_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("bad", [
    1.5, 0.0, float("nan"), Fraction(1, 2), Fraction(2), {1, 2}, frozenset(), b"x", object(),
    {1: "int key"}, {(1, 2): "tuple key"}, {None: 0}, {True: 0}, {"ok": [1, {"deep": 2.5}]},
    [Fraction(3)], ({"k": {0.5}},),
])
def test_dumps_json_refuses_every_other_type(bad):
    with pytest.raises(TypeError):
        dumps_json(bad)


def test_shape_errors_are_distinct_from_relation_failures():
    with pytest.raises(ShapeError):
        representation(0, (1, 1, 1), {"a1": Mat.zeros(2, 2)})


def test_direct_sum():
    s0 = simple_module(0, 0)
    assert direct_sum(s0, s0).dims == (2, 0, 0)
    p, q = point_module((1, 0, 0), 0, 0), point_module((1, 1, 1), 1, 0)
    ds = direct_sum(p, q)
    assert ds.dims == (2, 2, 2)
    a1 = ds.matrices["a1"]
    assert a1.data[0][1] == 0 and a1.data[1][0] == 0
    assert check_relations(ds).ok
    with pytest.raises(HeartMismatchError):
        direct_sum(simple_module(0, 0), simple_module(0, 1))


def test_hom_space_examples():
    p = point_module((1, 2, 3), Fraction(1, 2), 0)
    assert hom_space(p, p).dim == 1
    q = point_module((1, 2, 4), Fraction(1, 2), 0)
    assert hom_space(p, q).dim == 0
    same_p_other_fiber = point_module((1, 2, 3), 5, 0)
    assert hom_space(p, same_p_other_fiber).dim == 0
    s0 = simple_module(0, 0)
    line = pushforward_module(1, 0)
    hs = hom_space(s0, line)
    assert hs.dim == 3
    # basis intertwiners really intertwine: phi blocks commute with every arrow
    for blocks in hs.basis:
        for name in ARROW_ORDER:
            from localp2.quiver import arrow
            a = arrow(name)
            lhs = blocks[a.source] @ s0.matrices[name]
            rhs = line.matrices[name] @ blocks[a.target]
            assert lhs == rhs
    with pytest.raises(HeartMismatchError):
        hom_space(simple_module(0, 0), simple_module(0, 1))


def test_hom_space_identity_and_additivity():
    objs = [point_module((1, 1, 1), 1, 0), pushforward_module(1, 0), simple_module(2, 0)]
    for m in objs:
        assert hom_space(m, m).dim >= 1
    target = pushforward_module(2, 0)
    for m in objs:
        for n in objs:
            lhs = hom_space(direct_sum(m, n), target).dim
            assert lhs == hom_space(m, target).dim + hom_space(n, target).dim


def test_p2_restrict_keeps_matrices():
    pt = point_module((1, 2, 3), 7, 0)
    res = p2_restrict(pt)
    assert res.heart is None and tuple(res.matrices) == ARROW_ORDER[:6]
    assert res.dims == pt.dims
    for name in ("a1", "a2", "a3", "b1", "b2", "b3"):
        assert res.matrices[name] == pt.matrices[name]
    assert check_relations(res).ok
    # A heart of None builds a plane module, which has no c arrows.
    assert representation(None, pt.dims, dict(res.matrices), res.label) == res
    with pytest.raises(InputError, match="unexpected arrow names"):
        representation(None, pt.dims, dict(pt.matrices))
    line = p2_restrict(pushforward_module(1, 0))
    assert line.dims == (3, 1, 0)
    assert p2_restrict(simple_module(1, 0)).dims == (0, 1, 0)


def test_json_round_trip_bit_exact():
    reps = [
        point_module((0, 1, 2), Fraction(1, 2), -3),
        pushforward_module(2, 1),
        simple_module(1, 0),
        direct_sum(point_module((1, 0, 0), 0, 0), simple_module(0, 0)),
    ]
    for rep in reps:
        text = dumps_rep(rep)
        again = loads_rep(text)
        assert again == rep
        assert dumps_rep(again) == text
    p2 = p2_restrict(reps[0])
    assert loads_rep(dumps_rep(p2)) == p2


def test_json_fraction_strings_have_no_decimals():
    rep = point_module((0, 1, 2), Fraction(1, 2), 0)
    data = rep_to_dict(rep)
    entries = [x for mat in data["matrices"].values() for x in mat]
    assert "1/2" in entries
    assert all("." not in x for x in entries)
    assert rep_from_dict(data) == rep


def test_json_malformed_inputs_rejected():
    with pytest.raises(InputError):
        loads_rep("{not json")
    with pytest.raises(InputError):
        loads_rep('{"dims": [1, 1]}')
    with pytest.raises(ShapeError):
        loads_rep('{"heart": 0, "dims": [1,1,1], "matrices": {"a1": ["1", "2"]}, "label": null}')


def _entries(rep):
    return [v for m in rep.matrices.values() for row in m.sparse for v in row.values()]


def test_constructors_and_json_store_integral_entries_as_int():
    reps = [
        pushforward_module(3, 0),
        pushforward_module(3, 2),
        point_module((2, 4, 6), 5, 0),
        point_module((0, 1, 2), Fraction(1, 2), -1),
        simple_module(1, 0),
        direct_sum(pushforward_module(1, 0), point_module((1, 2, 3), Fraction(1, 3), 0)),
    ]
    for rep in reps + [p2_restrict(reps[3])]:
        for again in (rep, loads_rep(dumps_rep(rep))):
            for v in _entries(again):
                assert type(v) is (int if v.denominator == 1 else Fraction), (rep.label, v)
    assert {type(v) for v in _entries(reps[0])} == {int}
    assert Fraction in {type(v) for v in _entries(reps[3])}


def _fraction_parse_scalar(value, what):
    # Reference: every value through Fraction, under the same exponent and
    # digit bounds as parse_scalar.
    try:
        e = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", value)
        if e and abs(int(e[1])) > 4300:
            raise ValueError("decimal exponent beyond 4300 in magnitude")
        x = scalar(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc
    if abs(x.numerator) >= 10 ** 4300 or x.denominator >= 10 ** 4300:
        raise InputError(f"bad {what}: more than 4300 digits")
    return x


def _outcome(parse, text):
    try:
        x = parse(text, "entry")
    except InputError as exc:
        return "error", str(exc)
    return type(x), x


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from([*"0123456789-+_ /.e", "\u0661", "\u0662", "\u00b2"]),
               max_size=12))
@example("-0")
@example("007")
@example("\u0661\u0662")
@example("\u00b2")
@example("9" * 4300)
@example("-" + "9" * 4300)
@example("1" + "0" * 4300)
@example("-" + "1" * 4301)
# A record entry is a JSON string: a number, bool, null, list or object is refused.
@example(0.5)
@example(1)
@example(0)
@example(True)
@example(None)
@example([1])
@example({"1": 1})
@example(Fraction(1, 2))
def test_parse_scalar_matches_the_fraction_reference(text):
    assert _outcome(parse_scalar, text) == _outcome(_fraction_parse_scalar, text)
    assert isinstance(text, str) or _outcome(parse_scalar, text)[0] == "error"


def test_json_round_trip_keeps_every_matrix():
    reps = [*standard_corpus().values(), *(pushforward_module(d, 0) for d in range(5))]
    for rep in reps:
        again = loads_rep(dumps_rep(rep))
        assert again.matrices.keys() == rep.matrices.keys()
        for name, mat in rep.matrices.items():
            assert again.matrices[name] == mat, (rep.label, name)


def _dense_dumps_rep(rep):
    # Reference writer: every entry of the dense view, zeros included.
    data = {"dims": list(rep.dims), "label": rep.label,
            "matrices": {name: [str(x) for row in m.data for x in row]
                         for name, m in rep.matrices.items()}}
    if rep.heart is not None:
        data["heart"] = rep.heart
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_records_are_written_and_read_from_the_nonzero_entries(monkeypatch):
    # A record lists every entry, but the writer fills a list of "0" from the
    # nonzero entries and the reader parses only what is not exactly "0".
    reps = [pushforward_module(12, 0), standard_corpus()["pt_mix"],
            point_module((1, 2, 3), Fraction(-7, 3), 2), zero_module(), simple_module(1, 0)]
    texts = [_dense_dumps_rep(rep) for rep in reps]

    def dense(self):
        raise AssertionError("Mat.data read")

    parsed = []

    def counted(value, what):
        parsed.append(value)
        return parse_scalar(value, what)

    monkeypatch.setattr(Mat, "data", property(dense))
    monkeypatch.setattr(quiver, "parse_scalar", counted)
    for rep, text in zip(reps, texts, strict=True):
        assert dumps_rep(rep) == text, rep.label
        parsed.clear()
        assert loads_rep(text) == rep, rep.label
        assert len(parsed) == sum(len(m.entries) for m in rep.matrices.values()), rep.label
    assert any(type(x) is Fraction for rep in reps for m in rep.matrices.values()
               for _, _, x in m.entries)

    # Other spellings of zero are still parsed, and checked.
    record = json.loads(texts[1])
    for zero in ("0/5", "-0", "00", "0.0"):
        record["matrices"]["a1"][0] = zero
        assert rep_from_dict(record) == reps[1], zero
    record["matrices"]["a1"][0] = "0/0"
    with pytest.raises(InputError):
        rep_from_dict(record)
