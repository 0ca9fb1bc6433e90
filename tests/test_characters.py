"""Determinant-character calculus: window characters, Koszul rewriting, the four identities."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localp2 import homalg
from localp2.characters import (
    _KOSZUL,
    _P2_LAYOUT,
    _Y_LAYOUT,
    DetCharacter,
    _combine,
    _complex_char,
    _net_blocks,
    char_diff,
    expand_extension,
    format_form,
    full_complex_char,
    geometric_char,
    koszul_rewrite,
    ori_char,
    verify_cocycle,
    verify_square_root,
    verify_theorem3,
    verify_theorem4,
)
from localp2.errors import InputError, MissingVariableError


def char(exponents):
    """A character from ``{symbol: ({variable: coeff}, const)}``, on flat keys."""
    flat = {}
    for (sb, sk), (form, const) in exponents.items():
        flat.update(((sb, sk, vb, vk), c) for (vb, vk), c in form.items())
        flat[sb, sk, None, None] = const
    return DetCharacter(flat)


def test_ori_char_heart1_displayed_formula():
    forms = ori_char(1).forms()
    assert forms[None, 1] == {(None, 3): 3, (None, 2): -3}
    assert forms[None, 2] == {(None, 1): 3, (None, 3): -3}
    assert forms[None, 3] == {(None, 2): 3, (None, 1): -3}
    assert (None, 0) not in forms and (None, 4) not in forms


@settings(max_examples=200, deadline=None)
@given(st.integers(-300, 300), st.sampled_from([None, "1", "2", "3"]))
def test_ori_char_is_the_cyclic_definition(n, branch):
    # D_{n+i} -> 3(h_{n+i+2} - h_{n+i+1}), indices read cyclically in n..n+2.
    expected = {}
    for i in range(3):
        expected[branch, n + i, branch, n + (i + 2) % 3] = 3
        expected[branch, n + i, branch, n + (i + 1) % 3] = -3
    assert ori_char(n, branch).coeffs == expected


def test_ori_char_evaluations():
    zeros = ori_char(0).evaluate({0: 1, 1: 1, 2: 1})
    assert set(zeros.values()) == {0}
    vals = ori_char(0).evaluate({0: 3, 1: 1, 2: 0})
    assert vals == {(None, 0): -3, (None, 1): 9, (None, 2): -6}


def test_koszul_rewrite_hand_expansion():
    # substituting h0 = 3h1 - 3h2 + h3 and D0 = 3D1 - 3D2 + D3 into the
    # heart-0 character must produce the heart-1 character
    rewritten = koszul_rewrite(ori_char(0), 0, "up")
    assert rewritten == ori_char(1)
    forms = rewritten.forms()
    assert forms[None, 1] == {(None, 3): 3, (None, 2): -3}
    assert forms[None, 2] == {(None, 1): 3, (None, 3): -3}
    assert forms[None, 3] == {(None, 2): 3, (None, 1): -3}


def test_koszul_rewrite_zero_and_direction_validation():
    assert koszul_rewrite(DetCharacter(), 0, "up").is_zero()
    with pytest.raises(InputError):
        koszul_rewrite(ori_char(0), 0, "sideways")


window_chars = st.builds(
    lambda c0, c1, c2, d0, d1, d2: DetCharacter({
        (None, 0, None, 0): c0, (None, 0, None, 1): c1, (None, 0, None, 2): c2,
        (None, 0, None, None): 0,
        (None, 1, None, 0): d0, (None, 1, None, 1): d1, (None, 1, None, None): 0,
        (None, 2, None, 2): d2, (None, 2, None, None): c1,
    }),
    *(st.integers(-5, 5) for _ in range(6)))


@settings(max_examples=60, deadline=None)
@given(window_chars)
def test_koszul_rewrite_round_trip(c):
    # characters supported on symbols/variables {0,1,2}: down(0) inverts up(0)
    assert koszul_rewrite(koszul_rewrite(c, 0, "up"), 0, "down") == c


@settings(max_examples=30, deadline=None)
@given(window_chars, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_eval_commutes_with_rewrite_on_recursive_dims(ch, a, b, c):
    # assignment obeying h0 = 3h1 - 3h2 + h3; rewriting then evaluating equals
    # evaluating then redistributing the integer exponents
    assign = {1: a, 2: b, 3: c, 0: 3 * a - 3 * b + c}
    lhs = koszul_rewrite(ch, 0, "up").evaluate(assign)

    raw = ch.evaluate(assign)
    redistributed: dict = {}
    for (branch, k), e in raw.items():
        if k == 0:
            for k2, mult in ((1, 3), (2, -3), (3, 1)):
                key = (branch, k2)
                redistributed[key] = redistributed.get(key, 0) + mult * e
        else:
            redistributed[(branch, k)] = redistributed.get((branch, k), 0) + e
    redistributed = {k: v for k, v in redistributed.items() if v}
    assert {k: v for k, v in lhs.items() if v} == redistributed


def test_theorem3_report():
    rep = verify_theorem3(0, 1)
    assert rep["status"] == "pass" and rep["diff"] == []
    assert rep["witness"]["character"]["D1"] == "-3*h2 + 3*h3"
    assert verify_theorem3(-5, 5)["status"] == "pass"
    assert verify_theorem3(-8, 8)["status"] == "pass"
    json.dumps(rep)  # reports must serialize
    with pytest.raises(InputError):
        verify_theorem3(3, 3)


def test_theorem3_corrupted_character_fails_with_localized_diff():
    # exponent 2 instead of 3 on one slot
    corrupted = DetCharacter({
        (None, 0, None, 2): 2, (None, 0, None, 1): -2, (None, 0, None, None): 0,
        (None, 1, None, 0): 3, (None, 1, None, 2): -3, (None, 1, None, None): 0,
        (None, 2, None, 1): 3, (None, 2, None, 0): -3, (None, 2, None, None): 0,
    })
    diff = char_diff(koszul_rewrite(corrupted, 0, "up"), ori_char(1))
    assert diff
    symbols = {d["symbol"] for d in diff}
    assert symbols <= {"D1", "D2", "D3"}


def test_theorem4_geometric_equals_window_character():
    assert geometric_char(0) == ori_char(0)
    rep = verify_theorem4()
    assert rep["status"] == "pass" and rep["diff"] == []
    # an evaluated instance of the identity
    for dims in ((1, 0, 0), (1, 1, 1), (6, 3, 1)):
        assign = dict(enumerate(dims))
        assert geometric_char(0).evaluate(assign) == ori_char(0).evaluate(assign)
    assert geometric_char(0).evaluate({0: 1, 1: 0, 2: 0})[(None, 0)] == 0
    assert geometric_char(0).evaluate({0: 1, 1: 1, 2: 1}) == {
        (None, 0): 0, (None, 1): 0, (None, 2): 0}


def test_square_root_identity():
    rep = verify_square_root(-8, 8)
    assert rep["status"] == "pass"
    assert full_complex_char(0) == ori_char(0).scale(2)
    vals = full_complex_char(0).evaluate({0: 3, 1: 1, 2: 0})
    assert vals[(None, 0)] == -6 == 2 * (-3)
    zero = full_complex_char(0).evaluate({0: 0, 1: 0, 2: 0})
    assert set(zero.values()) == {0}


def test_square_root_degree_parts_are_exact_negatives():
    # raw term characters: degree 1 and degree 2 are exact negatives, so the
    # alternating total is twice the degree-2 part; degrees 0 and 3 are trivial
    deg0 = _complex_char(_net_blocks(_Y_LAYOUT[:1]), 0, None, None)
    raw_deg1 = -_complex_char(_net_blocks(_Y_LAYOUT[1:2]), 0, None, None)  # parity -1
    raw_deg2 = _complex_char(_net_blocks(_Y_LAYOUT[2:3]), 0, None, None)
    deg3 = -_complex_char(_net_blocks(_Y_LAYOUT[3:]), 0, None, None)
    assert deg0.is_zero() and deg3.is_zero()
    assert raw_deg1 == -raw_deg2
    assert raw_deg2 == ori_char(0)
    assert full_complex_char(0) == raw_deg2.scale(2)


def test_cocycle_identity():
    rep = verify_cocycle(-8, 8)
    assert rep["status"] == "pass"
    lhs = expand_extension(ori_char(0, "2")) - ori_char(0, "1") - ori_char(0, "3")
    assert lhs == full_complex_char(0, "1", "3")


def test_expand_extension_into_equal_parts_doubles():
    # D^(2) -> 2 D^(1) in symbol and variable alike, so a symbol-variable
    # coefficient is scaled by 4 and a constant term by 2.
    assert expand_extension(ori_char(0, "2"), "2", ("1", "1")) == ori_char(0, "1").scale(4)
    with_const = DetCharacter({("2", 0, "2", 1): 1, ("2", 0, None, None): 5, (None, 1, "2", 0): 1})
    assert expand_extension(with_const, "2", ("3", "3")).coeffs == {
        ("3", 0, "3", 1): 4, ("3", 0, None, None): 10, (None, 1, "3", 0): 2}
    assert expand_extension(with_const, "2", ("1", "3")) == DetCharacter({
        ("1", 0, "1", 1): 1, ("1", 0, "3", 1): 1, ("3", 0, "1", 1): 1, ("3", 0, "3", 1): 1,
        ("1", 0, None, None): 5, ("3", 0, None, None): 5, (None, 1, "1", 0): 1,
        (None, 1, "3", 0): 1})


@pytest.mark.parametrize("key", [((None, 0), (None, 1)), ((None, 0), None), (None, 0, None),
                                 (None, 0, None, 1, 0), "D0", 0])
def test_character_refuses_a_key_that_is_not_flat(key):
    # The nested (symbol, variable) keys of earlier versions must not build a character.
    with pytest.raises(InputError, match="flat 4-tuple"):
        DetCharacter({(None, 0, None, 1): 3, key: 1})


def test_character_refuses_a_constant_key_with_a_variable_branch():
    # Such a key would be a second constant of its symbol: D0^(2) would read
    # 2, not 3, in ``forms`` and ``evaluate``.
    with pytest.raises(InputError, match="constant key has variable branch None"):
        DetCharacter({("2", 0, "1", None): 1, ("2", 0, None, None): 2})
    assert DetCharacter({("2", 0, None, None): 3}).evaluate({}) == {("2", 0): 3}


def test_cocycle_mixed_character_niceties():
    # full mixed character = sum of the two half characters (the duality that
    # makes the square root multiplicative)
    full = full_complex_char(0, "1", "3")
    half = _complex_char(_net_blocks(_Y_LAYOUT[2:]), 0, "1", "3")  # degrees 2 and 3 alone
    assert half + _complex_char(_net_blocks(_Y_LAYOUT[2:]), 0, "3", "1") == full
    # the half character alone is the wrong right-hand side
    lhs = expand_extension(ori_char(0, "2")) - ori_char(0, "1") - ori_char(0, "3")
    assert lhs != half
    assert char_diff(lhs, half)


def test_cocycle_zero_branch_reduction():
    lhs = expand_extension(ori_char(0, "2")) - ori_char(0, "1") - ori_char(0, "3")
    rhs = full_complex_char(0, "1", "3")
    # drop branch-3 variables from every exponent, then the branch-3 symbols
    kill3 = lambda c: DetCharacter({k: x for k, x in c.coeffs.items()
                                    if k[0] != "3" and (k[3] is None or k[2] != "3")})
    assert kill3(lhs) == kill3(rhs)
    assert kill3(rhs).is_zero()


def test_evaluate_missing_variable():
    with pytest.raises(MissingVariableError):
        ori_char(0).evaluate({0: 1, 1: 1})


def test_branch_rendering_and_forms():
    c = ori_char(0, "1")
    rendered = set(c.rendered().values())
    assert "-3*h1^(1) + 3*h2^(1)" in rendered
    assert format_form({}) == "0"
    assert format_form({(None, 2): -1, None: 4}) == "-h2 + 4"


tagged_index = st.tuples(st.sampled_from(["1", "3"]), st.integers(0, 2))
# Per-symbol forms, turned into flat keys by ``char``.
tagged_chars = st.dictionaries(
    tagged_index,
    st.tuples(st.dictionaries(tagged_index, st.integers(-5, 5), max_size=4),
              st.integers(-3, 3)),
    max_size=4).map(char)


@settings(max_examples=60, deadline=None)
@given(tagged_chars)
def test_koszul_rewrite_round_trip_branch_tagged(c):
    # both branches are rewritten, each by its own relation: down(0) inverts up(0)
    assert koszul_rewrite(koszul_rewrite(c, 0, "up"), 0, "down") == c


def test_verifiers_fail_on_corrupted_layout(monkeypatch):
    from localp2 import characters

    parity, blocks = characters._Y_LAYOUT[1]
    corrupted = (parity, (((1, 0), 2),) + blocks[1:])  # multiplicity 2 instead of 3
    layout = characters._Y_LAYOUT[:1] + (corrupted,) + characters._Y_LAYOUT[2:]
    monkeypatch.setattr(characters, "_Y_NET", _net_blocks(layout))
    for verify in (verify_square_root, verify_cocycle):
        rep = verify(-3, 3)
        assert rep["status"] == "fail" and rep["diff"]
        assert rep["witness"] == {"failed_heart": -3}


def test_theorem4_fails_on_corrupted_plane_layout(monkeypatch):
    from localp2 import characters

    parity, _ = characters._P2_LAYOUT[2]
    corrupted = (parity, (((2, 0), 2),))  # multiplicity 2 instead of 3
    layout = characters._P2_LAYOUT[:2] + (corrupted,)
    monkeypatch.setattr(characters, "_P2_NET", _net_blocks(layout))
    rep = verify_theorem4()
    assert rep["status"] == "fail" and rep["diff"]


def test_theorem3_fails_on_corrupted_koszul_relation(monkeypatch):
    from localp2 import characters

    monkeypatch.setitem(characters._KOSZUL, "up", (0, ((1, 3), (2, -2), (3, 1))))
    rep = verify_theorem3(-3, 3)
    assert rep["status"] == "fail" and rep["diff"]
    assert rep["witness"] == {"failed_pair": [-3, -2]}


def test_cocycle_fails_when_the_extension_rule_is_wrong(monkeypatch):
    from localp2 import characters

    exact = characters.expand_extension
    monkeypatch.setattr(characters, "expand_extension",
                        lambda char, whole="2", parts=("1", "3"): exact(char, whole, ("1", "1")))
    rep = verify_cocycle(-3, 3)
    assert rep["status"] == "fail" and rep["diff"]
    assert rep["witness"] == {"failed_heart": -3}


def test_verifiers_check_every_heart_of_the_range(monkeypatch):
    # A window character wrong in heart 2 alone must be found inside [-3, 3].
    from localp2 import characters

    exact = characters.ori_char
    monkeypatch.setattr(characters, "ori_char",
                        lambda heart, branch=None: exact(heart, branch).scale(1 + (heart == 2)))
    rep = verify_theorem3(-3, 3)
    assert rep["status"] == "fail" and rep["witness"] == {"failed_pair": [1, 2]}
    for verify in (verify_square_root, verify_cocycle):
        rep = verify(-3, 3)
        assert rep["status"] == "fail" and rep["witness"] == {"failed_heart": 2}


def _count_calls(monkeypatch, module, names):
    """Wrap each named module function; return {name: [args of each call]}."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _inner=getattr(module, name), _log=calls[name]):
            _log.append(args)
            return _inner(*args)
        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("lo, hi", [(-3, 3), (4, 5), (-20, -7)])
def test_verifiers_build_each_heart_once(monkeypatch, lo, hi):
    # The per-heart contract: every heart of [lo, hi] is built once and
    # compared once, and theorem3 rewrites once per consecutive pair, which is
    # what a trace's ``characters.rewrite_calls`` counts.
    from localp2 import characters

    names = ("ori_char", "koszul_rewrite", "expand_extension", "full_complex_char", "char_diff")
    hearts = list(range(lo, hi + 1))

    calls = _count_calls(monkeypatch, characters, names)
    assert verify_theorem3(lo, hi)["status"] == "pass"
    assert [args[1:] for args in calls["koszul_rewrite"]] == [(n, "up") for n in hearts[:-1]]
    assert calls["ori_char"] == [(n,) for n in hearts]
    assert len(calls["char_diff"]) == hi - lo
    assert not calls["expand_extension"] and not calls["full_complex_char"]

    calls = _count_calls(monkeypatch, characters, names)
    assert verify_square_root(lo, hi)["status"] == "pass"
    assert calls["full_complex_char"] == [(n,) for n in hearts]
    assert calls["ori_char"] == [(n,) for n in hearts]
    assert len(calls["char_diff"]) == len(hearts)
    assert not calls["koszul_rewrite"] and not calls["expand_extension"]

    calls = _count_calls(monkeypatch, characters, names)
    assert verify_cocycle(lo, hi)["status"] == "pass"
    assert calls["full_complex_char"] == [(n, "1", "3") for n in hearts]
    assert calls["ori_char"] == [(n, b) for n in hearts for b in ("2", "1", "3")]
    assert len(calls["expand_extension"]) == len(calls["char_diff"]) == len(hearts)
    assert not calls["koszul_rewrite"]


def _minus_reference(a, b, c):
    # a - b - c from the raw maps, zeros dropped.
    out = dict(a.coeffs)
    for other in (b, c):
        for k, x in other.coeffs.items():
            out[k] = out.get(k, 0) - x
    return {k: x for k, x in out.items() if x}


@settings(max_examples=150, deadline=None)
@given(tagged_chars, tagged_chars, tagged_chars, st.booleans())
def test_fused_cocycle_difference_is_a_minus_b_minus_c(a, b, c, cancel):
    # The cocycle's left side is one fused sum; ``cancel`` makes it vanish.
    if cancel:
        a = DetCharacter(_minus_reference(DetCharacter(), b, c)).scale(-1)
    fused = _combine(a, -1, b, c)
    assert fused.coeffs == _minus_reference(a, b, c)
    assert fused == a - b - c
    assert all(fused.coeffs.values())
    assert fused.is_zero() or not cancel
    assert _combine(a, 1, b).coeffs == _minus_reference(a, -b, DetCharacter())


@pytest.mark.parametrize("verify", [verify_square_root, verify_cocycle])
def test_per_heart_verifiers_refuse_a_reversed_range(verify):
    # [5, 2] holds no heart: a pass would check nothing.
    with pytest.raises(InputError, match=r"need n_max >= n_min, got \[5, 2\]"):
        verify(5, 2)
    assert verify(5, 5)["status"] == "pass"


def _two_pass_substitute(coeffs, symbol_map, variable_map):
    # Reference: rewrite the symbols (key[:2]), then the variables (key[2:]),
    # with a fresh ``{part: 1}`` for every unmapped part; zeros dropped at the end.
    def apply(items, which, mapping):
        out = {}
        for key, c in items:
            part = key[which:which + 2]
            for x, a in mapping.get(part, {part: 1}).items():
                new = x + key[2:] if which == 0 else key[:2] + x
                out[new] = out.get(new, 0) + a * c
        return out

    once = apply(coeffs.items(), 0, symbol_map)
    twice = apply(once.items(), 2, variable_map)
    return {k: c for k, c in twice.items() if c}


# Few branches and indices, so that rewritten keys often land on keys already there.
BRANCHES = [None, "2", "3"]
flat_vars = st.tuples(st.sampled_from(BRANCHES), st.integers(0, 2))
# (symbol, variable) spelled as one flat key; a variable index None is the
# constant term, whose variable branch is None too.
flat_keys = st.tuples(flat_vars, st.sampled_from(BRANCHES), st.one_of(st.none(), st.integers(0, 2))
                      ).map(lambda svk: svk[0] + (svk[1:] if svk[2] is not None else (None, None)))
flat_chars = st.dictionaries(flat_keys, st.integers(-4, 4), max_size=20)


@settings(max_examples=150, deadline=None)
@given(flat_chars, st.integers(-3, 2), st.sampled_from(["up", "down"]))
# A rewritten variable, and a rewritten symbol, landing on a key met before it.
@example({("2", 1, "2", 1): 1, ("2", 1, "2", 0): 1}, 0, "up")
@example({("2", 0, None, None): 1, ("2", 2, None, None): 1, ("2", 2, "3", 2): 1}, -1, "down")
def test_koszul_rewrite_matches_two_pass_reference(coeffs, k, direction):
    # The map a generic substitution would be given: the eliminated index of
    # every branch, in symbols and variables alike.
    offset, combo = _KOSZUL[direction]
    relation = {(b, k + offset): {(b, k + j): c for j, c in combo} for b in BRANCHES}
    out = koszul_rewrite(DetCharacter(coeffs), k, direction)
    assert out.coeffs == _two_pass_substitute(coeffs, relation, relation)
    assert all(out.coeffs.values())


@settings(max_examples=150, deadline=None)
@given(flat_chars, st.sampled_from(["1", "2", "3"]),
       st.tuples(st.sampled_from(["1", "2", "3"]), st.sampled_from(["1", "2", "3"])))
@example({("3", 0, "3", 0): 1, ("3", 0, "2", 0): 1, ("2", 1, None, None): 1}, "2", ("1", "3"))
@example({("1", 0, "1", 0): 1, ("2", 0, "2", 0): 1, ("2", 0, "1", 0): 1}, "2", ("1", "1"))
def test_expand_extension_matches_two_pass_reference(coeffs, whole, parts):
    # Equal parts double; parts that contain ``whole`` are replaced once, not again.
    a, b = parts
    split = {(whole, k): {(a, k): 2} if a == b else {(a, k): 1, (b, k): 1} for k in range(3)}
    out = expand_extension(DetCharacter(coeffs), whole, parts)
    assert out.coeffs == _two_pass_substitute(coeffs, split, split)
    assert all(out.coeffs.values())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([_Y_LAYOUT, _P2_LAYOUT]), st.integers(-300, 300),
       st.sampled_from([None, "1", "2", "3"]), st.sampled_from([None, "1", "2", "3"]))
def test_complex_char_is_the_sum_of_its_degree_slices(layout, heart, branch_m, branch_n):
    # The degrees are folded into one net table; slicing one degree at a time
    # must give the same character.
    total = DetCharacter()
    for i in range(len(layout)):
        total = total + _complex_char(_net_blocks(layout[i:i + 1]), heart, branch_m, branch_n)
    whole = _complex_char(_net_blocks(layout), heart, branch_m, branch_n)
    assert whole == total and all(whole.coeffs.values())


def _pairing(layout, m, n):
    return sum(parity * mult * m[s] * n[t] for parity, blocks in layout for (s, t), mult in blocks)


def test_character_layouts_are_the_ext_term_spaces():
    # The layouts are derived from the Ext term spaces whose ranks the corpus
    # computes; these literal tables are the independent witness of that
    # derivation: (degree parity, ((slot_M, slot_N), multiplicity) ...).
    assert _Y_LAYOUT == (
        (1, (((0, 0), 1), ((1, 1), 1), ((2, 2), 1))),
        (-1, (((1, 0), 3), ((2, 1), 3), ((0, 2), 3))),
        (1, (((0, 1), 3), ((1, 2), 3), ((2, 0), 3))),
        (-1, (((0, 0), 1), ((1, 1), 1), ((2, 2), 1))),
    )
    assert _P2_LAYOUT == (
        (1, (((0, 0), 1), ((1, 1), 1), ((2, 2), 1))),
        (-1, (((1, 0), 3), ((2, 1), 3))),
        (1, (((2, 0), 3),)),
    )
    # Their alternating pairings are the closed-form Euler forms; both sides
    # are bilinear, so the unit-vector grid proves it.
    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    for m in units:
        for n in units:
            assert _pairing(_Y_LAYOUT, m, n) == homalg.euler_form_Y(m, n), (m, n)
            assert _pairing(_P2_LAYOUT, m, n) == homalg.euler_form_P2(m, n), (m, n)
