"""CLI behavior: commands, exit codes, JSON output, corpus determinism."""

from __future__ import annotations

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from localp2 import characters, corpus, homalg, windows
from localp2.cli import VERIFY_IDENTITIES, build_parser, main
from localp2.errors import InputError, InternalCheckError, LocalP2Error
from localp2.linalg import MAX_DIM, Mat, PrimeScalars
from localp2.quiver import (
    ARROW_ORDER,
    dumps_rep,
    loads_rep,
    matrix_shape,
    point_module,
    pushforward_module,
    representation,
    simple_module,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mk_point_writes_file(tmp_path, capsys):
    out = tmp_path / "pt.json"
    code, stdout, _ = run(capsys, "mk", "point", "1:0:0", "--t", "0", "--heart", "0",
                          "-o", str(out))
    assert code == 0
    assert "dims=[1, 1, 1]" in stdout and "relations=ok" in stdout
    assert loads_rep(out.read_text()) == point_module((1, 0, 0), 0, 0)


def test_mk_point_takes_negative_values_after_an_equals_sign_or_a_double_dash(tmp_path, capsys):
    # argparse reads a word that starts with "-" and is not a plain number as an
    # option, so "--t -3/2" is refused; "--t=-3/2" and "-- -1:2:0" pass the value.
    out = tmp_path / "pt.json"
    with pytest.raises(SystemExit) as exc:
        main(["mk", "point", "1:1:1", "--t", "-3/2"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    assert run(capsys, "mk", "point", "1:1:1", "--t=-3/2", "-o", str(out))[0] == 0
    assert loads_rep(out.read_text()) == point_module((1, 1, 1), Fraction(-3, 2), 0)
    assert run(capsys, "mk", "point", "--heart", "1", "-o", str(out), "--", "-1:2:0")[0] == 0
    assert loads_rep(out.read_text()) == point_module((-1, 2, 0), 0, 1)


def test_mk_pushforward_and_sum(tmp_path, capsys):
    pf = tmp_path / "pf.json"
    assert run(capsys, "mk", "pushforward", "1", "--heart", "0", "-o", str(pf))[0] == 0
    total = tmp_path / "sum.json"
    code, stdout, _ = run(capsys, "mk", "sum", str(pf), str(pf), "-o", str(total))
    assert code == 0 and "dims=[6, 2, 0]" in stdout


def test_mk_heart_range_is_input_error(capsys):
    code, _, stderr = run(capsys, "mk", "pushforward", "1", "--heart", "2")
    assert code == 2 and "heart" in stderr


def test_mk_stdout_mode(capsys):
    code, stdout, stderr = run(capsys, "mk", "simple", "0")
    assert code == 0
    assert loads_rep(stdout) == simple_module(0, 0)
    assert "relations=ok" in stderr


def test_ext_text_and_json(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    run(capsys, "mk", "point", "1:1:1", "--t", "1", "-o", str(pt))
    code, stdout, _ = run(capsys, "ext", str(pt), str(pt))
    assert code == 0 and "ext_dims=[1, 3, 3, 1]" in stdout
    code, stdout, _ = run(capsys, "ext", str(pt), str(pt), "--format", "json")
    payload = json.loads(stdout)
    assert payload["ext_dims"] == [1, 3, 3, 1] and payload["cy3_ok"] is True
    assert payload["conventions"]["det_parity"] == "plus-even-degrees"
    code, stdout, _ = run(capsys, "ext", str(pt), str(pt), "--side", "p2", "--format", "json")
    assert json.loads(stdout)["ext_dims"] == [1, 2, 1]


def test_ext_distinct_points(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "mk", "point", "1:0:0", "-o", str(a))
    run(capsys, "mk", "point", "1:1:1", "--t", "1", "-o", str(b))
    code, stdout, _ = run(capsys, "ext", str(a), str(b), "--format", "json")
    assert code == 0 and json.loads(stdout)["ext_dims"] == [0, 0, 0, 0]


def test_ext_prime_mode(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    run(capsys, "mk", "point", "1:1:1", "--t", "1", "-o", str(pt))
    code, stdout, _ = run(capsys, "ext", str(pt), str(pt), "--mode", "prime", "2147483659",
                          "--format", "json")
    assert code == 0 and json.loads(stdout)["ext_dims"] == [1, 3, 3, 1]
    code, _, stderr = run(capsys, "ext", str(pt), str(pt), "--mode", "prime", "97")
    assert code == 2 and "2**30" in stderr


def test_ext_prime_mode_denominator_divisible_by_p(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    run(capsys, "mk", "point", "1:0:0", "--t", "1/2147483659", "-o", str(pt))
    code, _, stderr = run(capsys, "ext", str(pt), str(pt), "--mode", "prime", "2147483659")
    assert code == 2
    assert "Traceback" not in stderr and stderr.startswith("error:")
    assert len(stderr.splitlines()) == 1
    # The refusal names the first such entry of d0, d1, d2 in that order.
    m, n = tmp_path / "m.json", tmp_path / "n.json"
    run(capsys, "mk", "point", "1:2:3", "--t", "1/2147483659", "-o", str(m))
    run(capsys, "mk", "point", "1:2:3", "--t", "5/6442450977", "-o", str(n))
    assert run(capsys, "ext", str(m), str(n), "--mode", "prime", "2147483659") == (
        2, "", "error: matrix entry -5/6442450977 has a denominator divisible by the prime "
        "2147483659\n")


def test_ext_heart_mismatch_exit_code(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "mk", "simple", "0", "--heart", "0", "-o", str(a))
    run(capsys, "mk", "simple", "0", "--heart", "1", "-o", str(b))
    assert run(capsys, "ext", str(a), str(b))[0] == 2


def test_euler_command(capsys):
    assert run(capsys, "euler", "1,0,0", "3,1,0") == (0, "3\n", "")
    assert run(capsys, "euler", "1,0,0", "3,1,0", "--side", "p2")[1] == "3\n"
    assert run(capsys, "euler", "1,0", "3,1,0")[0] == 2


def test_orichar_command(capsys):
    code, stdout, _ = run(capsys, "orichar", "0")
    assert code == 0 and "D0: -3*h1 + 3*h2" in stdout
    code, stdout, _ = run(capsys, "orichar", "0", "--dims", "3,1,0", "--format", "json")
    payload = json.loads(stdout)
    assert payload["exponents"] == {"D0": -3, "D1": 9, "D2": -6}


def test_twist_command(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    up = tmp_path / "up.json"
    run(capsys, "mk", "point", "1:1:1", "--t", "1", "-o", str(pt))
    code, stdout, _ = run(capsys, "twist", str(pt), "up", "-o", str(up))
    assert code == 0
    twisted = loads_rep(up.read_text())
    assert twisted.heart == 1 and twisted.dims == (1, 1, 1)

    s0 = tmp_path / "s0.json"
    run(capsys, "mk", "simple", "0", "-o", str(s0))
    code, _, stderr = run(capsys, "twist", str(s0), "up")
    assert code == 2 and "kappa1 not surjective" in stderr


def test_window_command(tmp_path, capsys):
    pf = tmp_path / "pf.json"
    run(capsys, "mk", "pushforward", "1", "-o", str(pf))
    code, stdout, _ = run(capsys, "window", str(pf), "--format", "json")
    payload = json.loads(stdout)
    assert code == 0
    assert payload["values"]["3"] == 0 and "recursion_violations" not in payload
    assert payload["membership"]["up"]["ok"] is True
    code, stdout, _ = run(capsys, "window", str(pf), "--extend", "-8", "8", "--format", "json")
    payload = json.loads(stdout)
    # Above the certified slots the recursion extrapolates Euler characteristics:
    # h_8 = chi of the degree -7 twist = 15, advisory rather than certified.
    assert payload["values"]["8"] == 15
    assert 8 not in payload["certified"]


def test_verify_commands_pass(capsys):
    for identity in ("theorem3", "theorem4", "square-root", "cocycle"):
        code, stdout, _ = run(capsys, "verify", identity, "--range", "-8", "8")
        assert code == 0 and "pass" in stdout
    code, stdout, _ = run(capsys, "verify", "theorem3", "--format", "json")
    payload = json.loads(stdout)
    assert payload["status"] == "pass" and payload["window"] == [-8, 8]
    assert payload["version"]


@pytest.mark.parametrize("identity", ["square-root", "cocycle", "theorem4"])
def test_verify_refuses_a_reversed_range(capsys, identity):
    code, stdout, stderr = run(capsys, "verify", identity, "--range", "5", "2")
    assert code == 2 and stdout == ""
    assert stderr == "error: need n_max >= n_min, got [5, 2]\n"
    # theorem4 is an identity of heart 0, whatever range it is given.
    window = "[0, 0]" if identity == "theorem4" else "[5, 5]"
    code, stdout, _ = run(capsys, "verify", identity, "--range", "5", "5")
    assert code == 0 and stdout.startswith(f"{identity}: pass on window {window}")


def test_corpus_cli_smoke(capsys):
    code, stdout, _ = run(capsys, "corpus", "--format", "json", "--seed", "7")
    payload = json.loads(stdout)
    assert code == 0 and payload["passed"] is True
    names = [c["name"] for c in payload["cells"]]
    assert "verify:theorem3" in names and "twist-refused:s0" in names


@pytest.mark.parametrize("lo, hi", [(5, 2), (3, 3)])
def test_corpus_refuses_a_window_without_a_pair_of_hearts(capsys, lo, hi):
    # theorem3 needs two consecutive hearts; the window is refused before any
    # cell runs, as ``localp2 verify theorem3`` refuses it.
    code, stdout, stderr = run(capsys, "corpus", "--range", str(lo), str(hi))
    assert code == 2 and stdout == ""
    assert stderr == f"error: need n_max > n_min, got [{lo}, {hi}]\n"
    assert run(capsys, "verify", "theorem3", "--range", str(lo), str(hi))[2] == stderr
    with pytest.raises(InputError, match="need n_max > n_min"):
        corpus.RunConfig(window=(lo, hi))


def test_spans_beyond_the_size_bound_are_refused_before_any_loop(tmp_path, capsys):
    # One window slot or one heart per step: a span of MAX_DIM passes, one
    # more is refused, and a span of 10**8 is refused as fast.
    pf = tmp_path / "pf.json"
    run(capsys, "mk", "pushforward", "1", "-o", str(pf))
    wv = windows.window_vector(pushforward_module(1))
    assert wv.span() == (-1, 3)
    assert windows.extend_window(wv, MAX_DIM - 2, -1).span() == (-1, MAX_DIM - 2)
    with pytest.raises(InputError, match="spans 100001 slots"):
        windows.extend_window(wv, 3, MAX_DIM - 1)
    characters.require_hearts(1, MAX_DIM, pairs=True)
    with pytest.raises(InputError, match="spans 100001 hearts"):
        characters.require_hearts(0, MAX_DIM)
    start = time.perf_counter()
    for argv, what in ((("window", str(pf), "--extend", "-100000000", "0"), "slots"),
                       (("window", str(pf), "--extend", "0", str(MAX_DIM - 1)), "slots"),
                       (("verify", "theorem3", "--range", "-100000000", "100000000"), "hearts"),
                       (("verify", "cocycle", "--range", "0", str(MAX_DIM)), "hearts"),
                       (("corpus", "--range", "0", str(MAX_DIM)), "hearts")):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2 and stdout == "" and f"{what}, more than the size bound" in stderr
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode, cells", [((), 172), (("--mode", "prime", "2147483659"), 173)])
def test_corpus_on_the_narrowest_window_keeps_every_cell(capsys, mode, cells):
    code, stdout, _ = run(capsys, "corpus", "--range", "3", "4", "--format", "json", *mode)
    payload = json.loads(stdout)
    assert code == 0 and payload["passed"] is True and len(payload["cells"]) == cells
    assert payload["config"]["window"] == [3, 4]
    # A twist-invariance cell that compares (0, 0, 0, 0) with itself tests nothing.
    invariance = [c["detail"] for c in payload["cells"]
                  if c["name"].startswith("twist-ext-invariance:")]
    assert len(invariance) == 3 and all(any(d["before"]) for d in invariance)


def test_corpus_deterministic_under_seed():
    a = corpus.run_corpus(corpus.RunConfig(seed=3))
    b = corpus.run_corpus(corpus.RunConfig(seed=3))
    assert [c["name"] for c in a["cells"]] == [c["name"] for c in b["cells"]]
    assert a == b
    c = corpus.run_corpus(corpus.RunConfig(seed=4))
    assert [x["name"] for x in a["cells"]] != [x["name"] for x in c["cells"]]


def test_corpus_prime_mode_has_agreement_cell():
    rep = corpus.run_corpus(corpus.RunConfig(scalars=PrimeScalars(2147483659)))
    assert rep["passed"]
    assert any(c["name"] == "mode-agreement" for c in rep["cells"])


def test_corpus_cell_without_a_verdict_fails_the_run_loudly(monkeypatch, capsys):
    # A cell function that forgets "_ok" is a bug in the corpus, not a pass.
    with pytest.raises(InternalCheckError, match="corpus cell stub gave no verdict"):
        corpus._cell("stub", lambda: {"detail": 1})
    assert corpus._cell("stub", lambda: {"_ok": False, "x": 1}) == {
        "name": "stub", "status": "fail", "detail": {"x": 1}}
    monkeypatch.setattr(corpus, "_window_cell", lambda rep, up, down: {"window": {}})
    with pytest.raises(InternalCheckError, match="corpus cell window:pt_e0 gave no verdict"):
        corpus.run_corpus(corpus.RunConfig())
    assert main(["corpus"]) == 3
    err = capsys.readouterr().err
    assert "internal check failed: corpus cell window:pt_e0 gave no verdict" in err


def test_corpus_corrupted_fixture_fails_exactly_one_cell():
    objs = corpus.standard_corpus()
    line2 = pushforward_module(2, 0)
    mats = dict(line2.matrices)
    mats["a1"] = Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1], [1, 1, 0], [0, 0, 2]])
    objs["bad"] = representation(0, line2.dims, mats, "corrupted")
    rep = corpus.run_corpus(corpus.RunConfig(), objects=objs)
    failing = [c["name"] for c in rep["cells"] if c["status"] != "pass"]
    assert failing == ["relations:bad"]
    assert rep["passed"] is False


def test_corpus_ext_error_fails_only_the_cells_that_read_it():
    # pt_diag with an entry 1/p: every prime-mode Ext of it raises, and each
    # core pair is computed once, so the error must reach exactly the cells
    # that read that pair: ext cells (a, b) and (b, a), the window cell of
    # pt_diag, which reads (s0, pt_diag) first, and mode agreement.
    prime = PrimeScalars(2147483659)
    objs = corpus.standard_corpus()
    objs["pt_diag"] = point_module((1, Fraction(1, prime.p), 1), 1, 0, label="pt_diag")
    rational = corpus.run_corpus(corpus.RunConfig(), objects=objs)
    assert rational["passed"]
    rep = corpus.run_corpus(corpus.RunConfig(scalars=prime), objects=objs)
    cells = {c["name"]: c for c in rep["cells"]}
    assert len(cells) == len(rational["cells"]) + 1

    def first_error(*pairs):
        for a, b in pairs:
            try:
                homalg.ext_dims_Y(objs[a], objs[b], prime)
            except LocalP2Error as exc:
                return str(exc)
        return None

    names = corpus.CORE_PAIR_NAMES
    for a in names:
        for b in names:
            cell, error = cells[f"ext:{a}|{b}"], first_error((a, b), (b, a))
            assert (cell["status"] == "fail") is ("pt_diag" in (a, b)) is (error is not None)
            assert cell["detail"].get("error") == error
    assert cells["mode-agreement"]["detail"] == {
        "error": first_error(*((a, b) for a in names for b in names))}
    assert cells["window:pt_diag"]["detail"] == {"error": first_error(("s0", "pt_diag"))}
    for name, cell in cells.items():
        assert (cell["status"] == "pass") is not (
            "pt_diag" in name and not name.startswith(("relations:", "twist-round"))
            or name == "mode-agreement"), name


@pytest.mark.parametrize("scalars", [corpus.RATIONAL, PrimeScalars(2147483659)])
def test_corpus_window_cells_build_the_simples_the_objects_lack(scalars):
    # Without objects s0 and s2, or for a module of another heart, a window
    # cell reads the Ext dims of the simples of its module's heart.
    config = corpus.RunConfig(scalars=scalars)
    full = {c["name"]: c for c in corpus.run_corpus(config)["cells"]}
    objs = corpus.standard_corpus()
    del objs["s0"], objs["s2"]
    objs["pt_h1"] = windows.twist_up(objs["pt_e0"])
    rep = corpus.run_corpus(config, objects=objs)
    assert rep["passed"]
    cells = {c["name"]: c for c in rep["cells"] if c["name"].startswith("window:")}
    assert cells.keys() == {f"window:{name}" for name in objs}
    for name in objs.keys() - {"pt_h1"}:
        assert cells[f"window:{name}"] == full[f"window:{name}"]
    m, s0, s2 = objs["pt_h1"], simple_module(0, 1), simple_module(2, 1)
    detail = cells["window:pt_h1"]["detail"]
    assert detail["up"] == homalg.cy3_record(homalg.ext_dims_Y(s0, m, scalars),
                                             homalg.ext_dims_Y(m, s0, scalars))
    assert detail["down"] == homalg.cy3_record(homalg.ext_dims_Y(m, s2, scalars),
                                               homalg.ext_dims_Y(s2, m, scalars))
    assert detail["window"] == windows.extend_window(windows.window_vector(m), 6, -2).to_dict()


def test_corpus_window_cells_fail_on_wrong_ext_ranks(monkeypatch):
    # Once membership passes, a window's values follow from term dims alone,
    # so only CY3 duality against the simples can see wrong ranks: a mutant
    # that adds 5 to e0 and 7 to e1 of every 3-fold Ext fails a window cell.
    ext_dims_of = homalg.ext_dims_of

    def mutant(cx, scalars=corpus.RATIONAL):
        dims = ext_dims_of(cx, scalars)
        return (dims[0] + 5, dims[1] + 7, *dims[2:]) if len(dims) == 4 else dims

    monkeypatch.setattr(homalg, "ext_dims_of", mutant)
    monkeypatch.setattr(windows, "ext_dims_of", mutant)
    for scalars in (corpus.RATIONAL, PrimeScalars(2147483659)):
        report = corpus.run_corpus(corpus.RunConfig(scalars=scalars))
        assert any(c["status"] == "fail" for c in report["cells"]
                   if c["name"].startswith("window:")), scalars


@pytest.mark.parametrize("scalars, count", [(corpus.RATIONAL, 172),
                                             (PrimeScalars(2147483659), 173)])
def test_corpus_window_cells_call_no_membership_function(monkeypatch, scalars, count):
    # A window cell certifies its slots by the Ext^2 and Ext^3 that its CY3
    # records read from the run's Ext table, so it builds no Koszul complex.
    def refuse(*args):
        raise AssertionError("run_corpus called a membership function")

    monkeypatch.setattr(windows, "window_membership", refuse)
    monkeypatch.setattr(windows, "window_vector", refuse)
    report = corpus.run_corpus(corpus.RunConfig(scalars=scalars))
    assert report["passed"]
    assert [c["status"] for c in report["cells"]] == ["pass"] * count


@pytest.mark.parametrize("scalars", [corpus.RATIONAL, PrimeScalars(2147483659)])
def test_corpus_builds_each_module_and_each_ext_once(monkeypatch, scalars):
    # A module is told apart by its label and content.  Every 3-fold complex
    # is built once, whatever ranks it: in prime mode, mode agreement ranks
    # the complexes of the 36 core pairs over Q instead of building them again.
    builds: Counter = Counter()
    sums: Counter = Counter()
    build, direct_sum = homalg.build_ext_complex_Y, corpus.direct_sum

    def key(m, n):
        return tuple((r.label, r.heart, r.dims, tuple(r.matrices.items())) for r in (m, n))

    def counted_build(m, n):
        builds[key(m, n)] += 1
        return build(m, n)

    def counted_sum(a, b, label=None):
        sums[id(a), id(b)] += 1
        return direct_sum(a, b, label)

    monkeypatch.setattr(homalg, "build_ext_complex_Y", counted_build)
    monkeypatch.setattr(corpus, "direct_sum", counted_sum)
    objs = corpus.standard_corpus()
    report = corpus.run_corpus(corpus.RunConfig(scalars=scalars), objects=objs)
    assert report["passed"]
    assert [k for k, count in builds.items() if count > 1] == []
    assert set(sums.values()) == {1}
    core = [key(objs[a], objs[b]) for a in corpus.CORE_PAIR_NAMES for b in corpus.CORE_PAIR_NAMES]
    assert len(set(core)) == 36 and all(builds[k] == 1 for k in core)
    agreement = [c for c in report["cells"] if c["name"] == "mode-agreement"]
    assert [c["status"] for c in agreement] == (["pass"] if scalars.name == "prime" else [])


def test_corpus_twists_each_module_once(monkeypatch):
    # Seed 0 twists up 7 modules: the five round-trip objects, line2 and the
    # refused s0, whose error is raised in its cell, not stored.
    twisted: Counter = Counter()
    twist_up = windows.twist_up

    def counted_twist(m):
        twisted[m.label] += 1
        return twist_up(m)

    monkeypatch.setattr(windows, "twist_up", counted_twist)
    report = corpus.run_corpus(corpus.RunConfig(seed=0))
    assert report["passed"]
    assert sum(twisted.values()) == 7 and set(twisted.values()) == {1}
    refused = next(c for c in report["cells"] if c["name"] == "twist-refused:s0")
    assert refused["status"] == "pass" and refused["detail"]["reason"]


def test_corpus_leaves_no_garbage_cycle():
    gc.collect()
    gc.disable()
    try:
        assert corpus.run_corpus(corpus.RunConfig())["passed"]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(capsys, "ext", str(bad), str(bad))[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, "twist", str(missing), "up")[0] == 2


DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
IDENTITY_NAMES = ("theorem3", "theorem4", "square-root", "cocycle")


@pytest.mark.parametrize("argv, golden", [
    *((("verify", name, "--range", "-256", "256", "--format", "json"),
       f"verify_{name}_-256_256.json") for name in IDENTITY_NAMES),
    (("orichar", "5", "--format", "json"), "orichar_5.json"),
])
def test_json_output_matches_golden(capsys, argv, golden):
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout == (DATA / golden).read_text()


def _refuse_float(text):
    raise AssertionError(f"JSON output holds the float {text}")


@pytest.mark.parametrize("argv", [
    ("ext", "PT", "LINE", "--format", "json"),
    ("ext", "PT", "LINE", "--side", "p2", "--mode", "prime", "2147483659", "--format", "json"),
    ("window", "PT", "--format", "json"),
    ("orichar", "2", "--format", "json"),
    ("orichar", "2", "--dims", "1,2,3", "--format", "json"),
    *(("verify", name, "--format", "json") for name in IDENTITY_NAMES),
    ("corpus", "--format", "json"),
])
def test_json_output_holds_no_float(tmp_path, capsys, argv):
    # Rationals are written as fraction strings: no JSON number may parse as a float.
    records = {"PT": point_module((0, 1, 2), "1/2", 0), "LINE": pushforward_module(1, 0)}
    for name, rep in records.items():
        (tmp_path / name).write_text(dumps_rep(rep))
    argv = [str(tmp_path / a) if a in records else a for a in argv]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    json.loads(stdout, parse_float=_refuse_float, parse_constant=_refuse_float)


def test_package_source_has_no_float_literal_or_float_name():
    for path in sorted((SRC / "localp2").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Constant)
                        and isinstance(node.value, (float, complex))), where
            assert not (isinstance(node, ast.Name) and node.id == "float"), where


def _record(heart=0, dims=(1, 1, 1), a1=None):
    matrices = {} if a1 is None else {"a1": [a1]}
    return json.dumps({"heart": heart, "dims": list(dims), "matrices": matrices, "label": None})


@pytest.mark.parametrize("argv, record", [
    (("mk", "pushforward", "x"), None),
    (("mk", "simple", "x"), None),
    (("mk", "point", "1:0:0", "--t", "abc"), None),
    (("mk", "point", "1:0:0", "--t", "1/0"), None),
    (("ext", "REC", "REC", "--mode", "prime", "4294967296"), _record()),
    (("corpus", "--mode", "prime", "4294967296"), None),
    (("ext", "REC", "REC"), _record(heart="1.5")),
    (("ext", "REC", "REC"), _record(heart=1.5)),
    (("ext", "REC", "REC"), _record(heart=True)),
    (("ext", "REC", "REC"), _record(dims=(1.5, 1, 1))),
    (("ext", "REC", "REC"), _record(a1="1/0")),
    (("ext", "REC", "REC"), _record(a1="abc")),
    (("ext", "REC", "REC"), _record().replace('"matrices": {}', '"matrices": ["a1"]')),
    (("ext", "REC", "REC"), _record().replace('"matrices": {}', '"matrices": {"a1": 5}')),
    (("ext", "REC", "REC"), _record(a1="Infinity").replace('"Infinity"', "Infinity")),
    (("ext", "REC", "REC"), _record(dims=(1,)).replace("{}", '{"a1": []}')),
    (("ext", "REC", "REC"), _record().replace("{}", '{"a1": ["1"], "b2": ["1"], "c3": ["1"]}')),
    (("window", "REC"), _record().replace("{}", '{"a1": ["1"], "b2": ["1"], "c3": ["1"]}')),
    (("ext", "REC", "REC", "--side", "p2"),
     json.dumps({"dims": [1, 1, 1], "matrices": {"c1": ["1"]}, "label": None})),
    (("ext", "REC", "REC"), _record().replace("{}", '{"z9": ["1"]}')),
    (("ext", "REC", "REC"), "[" * 100000 + "]" * 100000),
    (("ext", "REC", "REC"), b'\xff\xfe{"heart": 0}'),
    (("ext", "REC", "REC"), _record(dims=(10**30, 0, 0))),
    (("ext", "REC", "REC"), _record(dims=(400, 0, 0))),
    (("ext", "REC", "REC"), _record(a1="X").replace('"X"', "1" * 5000)),
    (("ext", "REC", "REC"), _record(a1="1e5000000")),
    (("mk", "point", "1:0:0", "--t", "1e500000"), None),
    (("mk", "point", "1:2:0", "--t", "1e4300"), None),
    (("mk", "point", "1e-4299:1e4299:0"), None),
    (("mk", "sum", "REC", "REC"), _record(dims=(1, 1, 0), a1="1e4300")),
    (("mk", "sum", "REC", "REC"), _record(dims=(1, 1, 0), a1="1e-4300")),
    (("mk", "point", "1:0:0", "extra"), None),
    (("mk", "pushforward", "2", "3"), None),
    (("mk", "simple", "0", "1", "2"), None),
    (("mk", "sum", "REC"), _record()),
    (("ext", "REC", "REC", "--mode", "rational", "5"), _record()),
    (("corpus", "--mode", "rational", "5"), None),
], ids=["pushforward-x", "simple-x", "point-t-abc", "point-t-1/0", "ext-composite-modulus",
        "corpus-composite-modulus", "heart-str", "heart-float", "heart-bool", "dims-float",
        "entry-1/0", "entry-abc", "matrices-list", "matrix-not-list", "entry-infinity",
        "dims-short-with-matrix", "ext-relations-violated", "window-relations-violated",
        "plane-record-c-arrow", "unknown-arrow",
        "nested-too-deep", "not-utf8", "dims-above-bound", "term-dim-above-bound",
        "int-literal-5000-digits", "entry-exponent-5000000", "point-t-exponent-500000",
        "point-t-4301-digits", "point-normalized-8599-digits", "sum-entry-4301-digits",
        "sum-entry-denominator-4301-digits", "point-extra-argument", "pushforward-two-degrees",
        "simple-three-vertices", "sum-one-file", "ext-rational-with-argument",
        "corpus-rational-with-argument"])
def test_bad_input_exits_2_without_traceback(tmp_path, argv, record):
    if record is not None:
        path = tmp_path / "rec.json"
        path.write_bytes(record if isinstance(record, bytes) else record.encode())
        argv = tuple(str(path) if a == "REC" else a for a in argv)
    proc = subprocess.run([sys.executable, "-m", "localp2.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


# Every name the package re-exported when it imported all of its modules.
PACKAGE_NAMES = (
    "DetCharacter", "geometric_char", "koszul_rewrite", "ori_char", "verify_cocycle",
    "verify_square_root", "verify_theorem3", "verify_theorem4",
    "HeartMismatchError", "HeartRangeError", "InputError", "InternalCheckError",
    "LocalP2Error", "MembershipError", "ShapeError",
    "ExtComplex", "build_ext_complex_P2", "build_ext_complex_Y", "euler_form_P2",
    "euler_form_Y", "ext_dims_P2", "ext_dims_Y", "ext_report", "verify_cy3_duality",
    "verify_pushforward_triangle",
    "RATIONAL", "Mat", "PrimeScalars", "RationalScalars", "rank",
    "Representation", "check_relations", "cyclic_derivative",
    "direct_sum", "dumps_rep", "epsilon", "hom_space", "loads_rep", "p2_restrict",
    "point_module", "pushforward_module", "simple_module", "zero_module",
    "WindowVector", "extend_window", "koszul_complex", "twist_down", "twist_up",
    "window_membership", "window_vector",
    "characters", "windows",
)


def _fresh_interpreter(script: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env}, timeout=60)


@pytest.mark.parametrize("lookup", [
    "from localp2 import {name}",
    "getattr(localp2, {name!r})",
])
def test_import_loads_no_command_module_and_keeps_every_name(lookup):
    # A fresh interpreter: this one has imported every module already.
    lookups = "\n".join(lookup.format(name=name) for name in PACKAGE_NAMES)
    script = f"""
import sys
import localp2, localp2.cli
loaded = [m for m in ("localp2.corpus", "localp2.windows", "localp2.characters")
          if m in sys.modules]
assert not loaded, loaded
missing = set({PACKAGE_NAMES!r}) - set(dir(localp2))
assert not missing, missing
{lookups}
"""
    proc = _fresh_interpreter(script)
    assert proc.returncode == 0, proc.stderr


def test_verify_choices_are_the_identities():
    assert VERIFY_IDENTITIES == tuple(characters.IDENTITIES)


def test_commands_outside_characters_do_not_load_it():
    proc = _fresh_interpreter("""
import sys
from localp2.cli import main
assert main(["euler", "1,0,0", "3,1,0"]) == 0
assert "localp2.characters" not in sys.modules
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3\n"


def test_verify_refuses_an_unknown_identity():
    proc = _fresh_interpreter("""
import sys
from localp2.cli import main
sys.exit(main(["verify", "bogus"]))
""", COLUMNS="80")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "usage: localp2 verify [-h] [--range RANGE RANGE] [--format {text,json}]\n"
        "                      {theorem3,theorem4,square-root,cocycle}\n"
        "localp2 verify: error: argument identity: invalid choice: 'bogus' (choose from "
        "'theorem3', 'theorem4', 'square-root', 'cocycle')\n")


def test_huge_decimal_exponent_is_refused_quickly(tmp_path, capsys):
    # Fraction("1e5000000") alone takes seconds; the entry is refused first.
    path = tmp_path / "rec.json"
    path.write_text(_record(a1="1e5000000"))
    start = time.perf_counter()
    code, _, stderr = run(capsys, "ext", str(path), str(path))
    assert code == 2 and "exponent" in stderr
    assert time.perf_counter() - start < 0.5
    path.write_text(_record(dims=(1, 1, 0), a1="1e2"))
    assert run(capsys, "ext", str(path), str(path))[0] == 0
    assert loads_rep(path.read_text()).matrices["a1"].data == ((100,),)


def test_window_of_a_zero_record_at_the_size_bound_is_quick(tmp_path, capsys):
    # The Koszul terms of a record of dims (h0, h1, h2) are (h0, 3h2, 3h1, h0),
    # so the size bound caps h1 and h2 at MAX_DIM // 3 = 33333.  Nine zero
    # matrices between 33333-dimensional slots pass; one more is refused by
    # `window` and `twist` before any Koszul map is allocated.
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"heart": 0, "dims": [33333] * 3, "matrices": {}}))
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "window", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 0 and stdout == (
        "base=0 values={'0': 33333, '1': 33333, '2': 33333}\n"
        "certified=[0, 1, 2]\n"
        "membership up: ok=False ranks={'kappa1_rank': 0, 'kappa1_target': 33333, "
        "'kappa2_rank': 0, 'kappa2_required': 66666, 'kernel_dim': 99999}\n"
        "membership down: ok=False ranks={'nu_rank': 0, 'nu_required': 33333, "
        "'mu_rank': 0, 'mu_required': 66666, 'cokernel_dim': 99999}\n")
    for dim in (33334, 100000):
        path.write_text(json.dumps({"heart": 0, "dims": [dim] * 3, "matrices": {}}))
        for argv in (("window", str(path)), ("twist", str(path), "up")):
            start = time.perf_counter()
            code, stdout, stderr = run(capsys, *argv)
            assert time.perf_counter() - start < 2.0
            assert (code, stdout) == (2, ""), (dim, argv)
            assert f"exceed the size bound {MAX_DIM}" in stderr


_RECORD_COMMANDS = (("ext", "REC", "REC"), ("window", "REC"), ("twist", "REC", "up"),
                    ("twist", "REC", "down"), ("mk", "sum", "REC", "REC"))


def _record_value(entry, label=None):
    return json.dumps({"heart": 0, "dims": [1, 1, 0], "matrices": {"a1": [entry]},
                       "label": label})


@pytest.mark.parametrize("text", [
    *(_record_value(entry) for entry in (0.5, 1, 0, True, None, "0/0")),
    *(_record_value("1", label) for label in (1.5, 7, [1])),
], ids=["entry-0.5", "entry-1", "entry-0", "entry-true", "entry-null", "entry-0/0",
        "label-1.5", "label-7", "label-[1]"])
def test_records_with_non_string_entries_or_labels_are_input_errors(tmp_path, capsys, text):
    path = tmp_path / "rec.json"
    path.write_text(text)
    for argv in _RECORD_COMMANDS:
        code, stdout, stderr = run(capsys, *(str(path) if a == "REC" else a for a in argv))
        assert (code, stdout) == (2, ""), argv
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)


@pytest.mark.parametrize("spelling, value", [
    ("1/2", "1/2"), ("0/5", "0"), ("-0", "0"), ("1e3", "1000"), (" 3 ", "3"),
])
def test_record_entry_spellings_read_as_their_value(tmp_path, capsys, spelling, value):
    # Every command gives the same outputs as on the record spelled as the writer spells it.
    path = tmp_path / "rec.json"
    outputs = []
    for entry in (spelling, value):
        path.write_text(_record_value(entry))
        assert loads_rep(path.read_text()).matrices["a1"].data == ((Fraction(value),),)
        outputs.append([run(capsys, *(str(path) if a == "REC" else a for a in argv))
                        for argv in _RECORD_COMMANDS])
    assert outputs[0] == outputs[1]
    assert outputs[0][0][0] == outputs[0][-1][0] == 0


def test_a_record_above_the_record_bound_is_refused_and_no_file_is_written(tmp_path, capsys):
    # O(46) has 10517049 entries; nothing is written, to a file or to stdout.
    out = tmp_path / "big.json"
    for argv in (("-o", str(out)), ()):
        code, stdout, stderr = run(capsys, "mk", "pushforward", "46", *argv)
        assert (code, stdout) == (2, "") and not out.exists()
        assert stderr == ("error: a record of dims [1128, 1081, 1035] has 10517049 entries, "
                          "more than the record bound 10000000\n")


def test_entries_of_4300_digits_round_trip_bit_exactly(tmp_path, capsys):
    # 10**4299 has 4300 digits, the most the interpreter prints: it is accepted
    # and written back exactly; one more digit is refused on reading.
    path = tmp_path / "rec.json"
    for entry in ("1e4299", "1e-4299"):
        path.write_text(_record(dims=(1, 1, 0), a1=entry))
        code, stdout, _ = run(capsys, "mk", "sum", str(path), str(path))
        assert code == 0
        again = loads_rep(stdout)
        assert again.matrices["a1"].data == ((Fraction(entry), 0), (0, Fraction(entry)))
        assert loads_rep(path.read_text()).matrices["a1"].data == ((Fraction(entry),),)
        assert loads_rep(stdout) == again and stdout == dumps_rep(again)
    code, stdout, _ = run(capsys, "mk", "point", "1:9:0", "--t", "1e4299")
    assert code == 0 and loads_rep(stdout).matrices["c2"].data == ((9 * 10**4299,),)


def test_successive_main_calls_share_no_state(capsys):
    # The parser is built once per process; options and defaults of one call
    # must not reach the next.
    assert build_parser() is build_parser()
    assert run(capsys, "euler", "1,0,0", "0,1,0", "--side", "p2") == (0, "0\n", "")
    assert run(capsys, "euler", "1,0,0", "0,1,0") == (0, "3\n", "")
    code, stdout, _ = run(capsys, "verify", "theorem3", "--range", "-2", "2", "--format", "json")
    assert code == 0 and json.loads(stdout)["window"] == [-2, 2]
    code, stdout, _ = run(capsys, "verify", "cocycle")
    assert code == 0 and stdout.startswith("cocycle: pass on window [-8, 8]")
    code, stdout, _ = run(capsys, "mk", "point", "1:0:0", "--t", "1/2", "--heart", "3")
    assert code == 0 and json.loads(stdout)["heart"] == 3
    code, stdout, _ = run(capsys, "mk", "point", "1:0:0")
    assert json.loads(stdout)["label"] == "point (1:0:0) t=0 heart=0"
    code, stdout, _ = run(capsys, "orichar", "0", "--dims", "3,1,0", "--format", "json")
    assert json.loads(stdout)["dims"] == [3, 1, 0]
    code, stdout, _ = run(capsys, "orichar", "0")
    assert code == 0 and stdout.startswith("D0: -3*h1 + 3*h2")


# Random JSON records for the loader and for `ext`.  Loose records also draw
# dims up to 10**40: entries above linalg.MAX_DIM, and terms built from them,
# are refused before anything is allocated, so they are input cases too.
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)
_entry = (st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "x", "", " 3 ", "1e2"])
          | st.integers(-3, 3) | st.floats() | _junk)
_dims = st.lists(st.integers(-1, 3) | st.integers(4, 10**40), min_size=3, max_size=3)


@st.composite
def _shaped_record(draw, with_heart: bool):
    # Matrices of the right sizes, mostly zero, so that some records are modules.
    dims = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    names = ARROW_ORDER if with_heart else ARROW_ORDER[:6]
    record = {"dims": dims, "matrices": {}, "label": draw(st.none() | st.text(max_size=4))}
    if with_heart:
        record["heart"] = draw(st.just(0) | st.integers(-3, 3))
    for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=4)):
        rows, cols = matrix_shape(name, dims)
        size = rows * cols
        valid = st.sampled_from(["0", "0", "0", "1", "-1", "1/2"])
        record["matrices"][name] = draw(st.lists(st.one_of(valid, valid, valid, _entry),
                                                 min_size=size, max_size=size))
    return record


_loose_record = st.fixed_dictionaries({}, optional={
    "heart": st.integers(-3, 3) | _junk,
    "dims": _dims | _junk,
    "matrices": st.dictionaries(st.sampled_from(ARROW_ORDER + ("z9",)),
                                st.lists(_entry, max_size=9) | _junk, max_size=4) | _junk,
    "label": _junk,
})
_record_text = (st.one_of(_shaped_record(True), _shaped_record(False), _loose_record,
                          _junk).map(json.dumps)
                | st.text(max_size=20))


@settings(max_examples=200, deadline=None)
@given(_record_text)
def test_fuzzed_records_load_or_raise_input_error(text):
    try:
        rep = loads_rep(text)
    except InputError:
        return
    for m in rep.matrices.values():
        for v in (v for row in m.sparse for v in row.values()):
            assert type(v) is (int if v.denominator == 1 else Fraction)


@settings(max_examples=200, deadline=None)
@given(_shaped_record(True) | _shaped_record(False), st.none() | st.text(max_size=4) | _junk)
@example({"heart": 0, "dims": [1, 1, 0], "matrices": {"a1": ["1/2"]}}, 1.5)
def test_every_record_that_loads_writes_back_and_reloads_equal(record, label):
    record["label"] = label
    try:
        rep = loads_rep(json.dumps(record))
    except InputError:
        return
    text = dumps_rep(rep)
    assert loads_rep(text) == rep and dumps_rep(loads_rep(text)) == text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_records_ext_exits_cleanly(data):
    side = data.draw(st.sampled_from(["y", "p2"]))
    records = _shaped_record(side == "y").map(json.dumps) | _record_text
    text_m, text_n = data.draw(records), data.draw(records)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("m.json", "n.json")]
        for path, text in zip(paths, (text_m, text_n)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ext", *paths, "--side", side])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# Command-line tokens: numbers with decimal exponents up to 10**6 in
# magnitude (often near the 4300-digit bound), fractions over 0 and junk, for
# `mk point` and its `--t`.
_mantissa = st.sampled_from(["1", "-2", "7", "1.5", "0.001", "-0.25", "12_3"])
_exponent = st.integers(-10**6, 10**6) | st.integers(-4400, -4200) | st.integers(4200, 4400)
_number = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(_mantissa, st.sampled_from(["e", "E", "e+"]), _exponent)
    .map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
    st.tuples(st.integers(-99, 99), st.integers(-3, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
)
_token = st.one_of(
    _number, _number, _number,
    st.sampled_from(["", "x", "1/", "/2", "1e", "e5", "nan", "inf", "0x1", " 3 ", "1:2"]),
    st.text(max_size=4),
)
_small = st.integers(-16, 16)
_dims_arg = st.lists(_small, min_size=2, max_size=4).map(lambda d: ",".join(map(str, d)))
_point_argv = st.builds(
    lambda coords, t, heart: ["mk", "point", ":".join(coords), f"--t={t}", "--heart", str(heart)],
    st.lists(_number, min_size=3, max_size=3) | st.lists(_token, max_size=4), _token, _small)
_argv = st.one_of(
    _point_argv, _point_argv, _point_argv,
    st.builds(lambda kind, d, heart: ["mk", kind, str(d), "--heart", str(heart)],
              st.sampled_from(["simple", "pushforward"]), st.integers(-16, 12), _small),
    st.builds(lambda m, n, side: ["euler", m, n, "--side", side],
              _dims_arg, _dims_arg, st.sampled_from(["y", "p2"])),
    st.builds(lambda heart, dims: ["orichar", str(heart)] + (["--dims", dims] if dims else []),
              _small, st.none() | _dims_arg),
    st.builds(lambda name, lo, hi: ["verify", name, "--range", str(lo), str(hi)],
              st.sampled_from(IDENTITY_NAMES), _small, _small),
)


@settings(max_examples=300, deadline=None)
@given(_argv)
def test_fuzzed_argv_exits_cleanly(argv):
    # In process, one call per example: argparse errors arrive as SystemExit,
    # and any other exception escaping main fails the test.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
