"""Acceptance suite: every criterion exact (zero tolerance), one pass/fail line each.

The identities are categorical, so every comparison below is an equality of
integers, integer vectors, or characters with linear-form exponents; there are no
numerical tolerances anywhere.
"""

from __future__ import annotations

import time
from fractions import Fraction

from localp2 import characters, corpus, homalg, windows
from localp2.errors import MembershipError
from localp2.linalg import PrimeScalars
from localp2.quiver import (
    direct_sum,
    hom_space,
    p2_restrict,
    point_module,
    pushforward_module,
    simple_module,
)
from oracles import ext_point_self_P2, ext_point_self_Y, ext_pushforward

PRIME = PrimeScalars(2147483659)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_theorem3_symbolic():
    start = time.perf_counter()
    rep = characters.verify_theorem3(-8, 8)
    elapsed = time.perf_counter() - start
    _report(1, "theorem3 symbolic gluing", rep["status"] == "pass" and elapsed < 1.0)


def test_criterion_02_theorem4_symbolic():
    start = time.perf_counter()
    rep = characters.verify_theorem4()
    ok = (rep["status"] == "pass"
          and characters.geometric_char(0) == characters.ori_char(0)
          and time.perf_counter() - start < 1.0)
    _report(2, "theorem4 geometric=window", ok)


def test_criterion_03_square_root():
    rep = characters.verify_square_root(-8, 8)
    ok = rep["status"] == "pass" and all(
        characters.full_complex_char(n) == characters.ori_char(n).scale(2)
        for n in range(-8, 9))
    _report(3, "square root of the 4-term character", ok)


def test_criterion_04_cocycle():
    rep = characters.verify_cocycle(-8, 8)
    lhs = (characters.expand_extension(characters.ori_char(0, "2"))
           - characters.ori_char(0, "1") - characters.ori_char(0, "3"))
    ok = rep["status"] == "pass" and lhs == characters.full_complex_char(0, "1", "3")
    _report(4, "cocycle identity on extensions", ok)


def test_criterion_05_ext_oracles():
    start = time.perf_counter()
    pt = point_module((1, 1, 1), 1, 0)
    other = point_module((1, 0, 0), 0, 0)
    same_chart_other_fiber = point_module((1, 1, 1), 2, 0)
    s0 = simple_module(0, 0)
    line = pushforward_module(1, 0)
    checks = [
        homalg.ext_dims_Y(pt, pt) == ext_point_self_Y() == (1, 3, 3, 1),
        homalg.ext_dims_Y(pt, other) == (0, 0, 0, 0),
        homalg.ext_dims_Y(pt, same_chart_other_fiber) == (0, 0, 0, 0),
        homalg.ext_dims_Y(s0, s0) == ext_pushforward(0, 0) == (1, 0, 0, 1),
        homalg.ext_dims_Y(line, line) == ext_pushforward(1, 1) == (1, 0, 0, 1),
        homalg.ext_dims_Y(s0, line) == ext_pushforward(0, 1) == (3, 0, 0, 0),
        homalg.ext_dims_Y(line, s0) == ext_pushforward(1, 0) == (0, 0, 0, 3),
        homalg.ext_dims_P2(p2_restrict(pt), p2_restrict(pt))
        == ext_point_self_P2() == (1, 2, 1),
    ]
    _report(5, "ext dimension oracles", all(checks) and time.perf_counter() - start < 5.0)


def _corpus_objects():
    objs = corpus.standard_corpus()
    return [objs[name] for name in corpus.CORE_PAIR_NAMES]


def _seeded_sum_pairs(samples: int = 100):
    import random

    objs = corpus.standard_corpus()
    pool = [objs[name] for name in corpus.SUM_POOL_NAMES]
    rng = random.Random(0)
    for _ in range(samples):
        yield (direct_sum(rng.choice(pool), rng.choice(pool)),
               direct_sum(rng.choice(pool), rng.choice(pool)))


def test_criterion_06_cy3_duality():
    ok = True
    reps = _corpus_objects()
    for m in reps:
        for n in reps:
            ok = ok and homalg.verify_cy3_duality(m, n)["passed"]
    for m, n in _seeded_sum_pairs(100):
        ok = ok and homalg.verify_cy3_duality(m, n)["passed"]
    _report(6, "CY3 duality on corpus and seeded sums", ok)


def test_criterion_07_euler_consistency():
    alt = lambda ext: sum((-1) ** i * e for i, e in enumerate(ext))
    ok = True
    reps = _corpus_objects()
    for m in reps:
        for n in reps:
            ok = ok and alt(homalg.ext_dims_Y(m, n)) == homalg.euler_form_Y(m.dims, n.dims)
            mp, np_ = p2_restrict(m), p2_restrict(n)
            ok = ok and alt(homalg.ext_dims_P2(mp, np_)) == homalg.euler_form_P2(m.dims, n.dims)
    for m, n in _seeded_sum_pairs(100):
        ok = ok and alt(homalg.ext_dims_Y(m, n)) == homalg.euler_form_Y(m.dims, n.dims)
    for v in ((0, 0, 0), (1, 2, 3), (7, 0, 5), (9, 9, 9)):
        ok = ok and homalg.euler_form_Y(v, v) == 0
    _report(7, "Euler pairing equals alternating sums", ok)


def test_criterion_08_twist_functoriality():
    ok = True
    roundtrip = [point_module((1, 0, 0), 0, 0), point_module((1, 1, 1), 1, 0),
                 point_module((0, 1, 2), Fraction(1, 2), 0), pushforward_module(1, 0)]
    for m in roundtrip:
        back = windows.twist_down(windows.twist_up(m))
        ok = ok and back.dims == m.dims
        ok = ok and hom_space(back, m).dim == 1 and hom_space(m, back).dim == 1
    pairs = [(roundtrip[1], roundtrip[3]), (roundtrip[0], roundtrip[1])]
    for m, n in pairs:
        ok = ok and homalg.ext_dims_Y(m, n) == homalg.ext_dims_Y(
            windows.twist_up(m), windows.twist_up(n))
    ok = ok and windows.twist_up(pushforward_module(1, 0)).dims == (1, 0, 0)
    try:
        windows.twist_up(simple_module(0, 0))
        ok = False
    except MembershipError:
        pass
    _report(8, "twist round trips and invariance", ok)


def test_criterion_09_window_recursion():
    # Membership ranks Ext(S_0, M) and Ext(M, S_2); CY3 duality checks those
    # ranks against the complexes of the reversed pairs.
    ok = True
    s0, s2 = simple_module(0, 0), simple_module(2, 0)
    for rep in corpus.standard_corpus().values():
        ok = ok and homalg.verify_cy3_duality(s0, rep)["passed"]
        ok = ok and homalg.verify_cy3_duality(rep, s2)["passed"]
    pt = windows.window_vector(point_module((1, 1, 1), 1, 0))
    pt = windows.extend_window(windows.extend_window(pt, 8), -8)
    ok = ok and all(pt.value(k) == 1 for k in range(-8, 9))
    _report(9, "window membership duality and point extension", ok)


def test_criterion_10_pushforward_triangle():
    ok = True
    for rep in (point_module((1, 1, 1), 1, 0), point_module((1, 0, 0), 0, 0),
                simple_module(0, 0), pushforward_module(1, 0), pushforward_module(2, 0)):
        ok = ok and homalg.verify_pushforward_triangle(rep)["passed"]
    _report(10, "pushforward triangle dimension check", ok)


def test_criterion_11_mode_agreement():
    reps = _corpus_objects()
    ok = True
    for m in reps:
        for n in reps:
            ok = ok and homalg.ext_dims_Y(m, n, PRIME) == homalg.ext_dims_Y(m, n)
    for i, (m, n) in enumerate(_seeded_sum_pairs(25)):
        ok = ok and homalg.ext_dims_Y(m, n, PRIME) == homalg.ext_dims_Y(m, n)
    report = corpus.run_corpus(corpus.RunConfig(scalars=PRIME))
    ok = ok and report["passed"]
    _report(11, "prime-field mode agreement", ok)
