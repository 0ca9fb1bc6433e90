"""CLI behavior: commands, exit codes, JSON output, corpus determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from localp2 import corpus
from localp2.cli import main
from localp2.linalg import Mat, PrimeScalars
from localp2.quiver import (
    loads_rep,
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
    assert payload["values"]["3"] == 0 and payload["recursion_violations"] == []
    assert payload["membership"]["up"]["ok"] is True
    code, stdout, _ = run(capsys, "window", str(pf), "--extend", "-8", "8", "--format", "json")
    payload = json.loads(stdout)
    # Above the certified slots the recursion extrapolates Euler characteristics:
    # h_8 = chi of the degree -7 twist = 15, advisory rather than certified.
    assert payload["values"]["8"] == 15
    assert 8 not in payload["certified"]
    assert payload["recursion_violations"] == []


def test_verify_commands_pass(capsys):
    for identity in ("theorem3", "theorem4", "square-root", "cocycle"):
        code, stdout, _ = run(capsys, "verify", identity, "--range", "-8", "8")
        assert code == 0 and "pass" in stdout
    code, stdout, _ = run(capsys, "verify", "theorem3", "--format", "json")
    payload = json.loads(stdout)
    assert payload["status"] == "pass" and payload["window"] == [-8, 8]
    assert payload["version"]


def test_corpus_cli_smoke(capsys):
    code, stdout, _ = run(capsys, "corpus", "--format", "json", "--seed", "7")
    payload = json.loads(stdout)
    assert code == 0 and payload["passed"] is True
    names = [c["name"] for c in payload["cells"]]
    assert "verify:theorem3" in names and "twist-refused:s0" in names


def test_corpus_deterministic_under_seed():
    a = corpus.run_corpus(corpus.RunConfig(seed=3))
    b = corpus.run_corpus(corpus.RunConfig(seed=3))
    assert [c["name"] for c in a["cells"]] == [c["name"] for c in b["cells"]]
    assert a == b
    c = corpus.run_corpus(corpus.RunConfig(seed=4))
    assert [x["name"] for x in a["cells"]] != [x["name"] for x in c["cells"]]


def test_corpus_prime_mode_has_agreement_cell():
    rep = corpus.run_corpus(corpus.RunConfig(scalars=PrimeScalars(2147483659), sum_samples=5))
    assert rep["passed"]
    assert any(c["name"] == "mode-agreement" for c in rep["cells"])


def test_corpus_corrupted_fixture_fails_exactly_one_cell():
    objs = corpus.standard_corpus()
    line2 = pushforward_module(2, 0)
    mats = dict(line2.matrices)
    mats["a1"] = Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1], [1, 1, 0], [0, 0, 2]])
    objs["bad"] = representation(0, line2.dims, mats, "corrupted")
    rep = corpus.run_corpus(corpus.RunConfig(sum_samples=5), objects=objs)
    failing = [c["name"] for c in rep["cells"] if c["status"] != "pass"]
    assert failing == ["relations:bad"]
    assert rep["passed"] is False


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
], ids=["pushforward-x", "simple-x", "point-t-abc", "point-t-1/0", "ext-composite-modulus",
        "corpus-composite-modulus", "heart-str", "heart-float", "heart-bool", "dims-float",
        "entry-1/0", "entry-abc", "matrices-list", "matrix-not-list"])
def test_bad_input_exits_2_without_traceback(tmp_path, argv, record):
    if record is not None:
        path = tmp_path / "rec.json"
        path.write_text(record)
        argv = tuple(str(path) if a == "REC" else a for a in argv)
    proc = subprocess.run([sys.executable, "-m", "localp2.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
