"""Exact Ext differentials against golden fixtures.

Rank-based checks (oracles, Euler pairings, CY3 duality) cannot see a sign
or an index slip in an assembled differential that keeps every rank, so
every complex here is compared exactly with one captured into
``tests/data/golden_complexes.json``: its term dimensions, the number of
nonzeros of each differential, and the sha256 of ``canonical_text``, which
lists every nonzero entry.

Whole corpus reports are pinned the same way: the sha256 of each report's
sorted-key JSON, for two seeds in both scalar modes, is kept in
``tests/data/corpus_sha256.json``, so a change to any cell detail fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from localp2.corpus import RunConfig, run_corpus, standard_corpus
from localp2.homalg import build_ext_complex_P2, build_ext_complex_Y
from localp2.linalg import RATIONAL, PrimeScalars
from localp2.quiver import p2_restrict, pushforward_module

GOLDEN = Path(__file__).parent / "data" / "golden_complexes.json"
GOLDEN_CORPUS = Path(__file__).parent / "data" / "corpus_sha256.json"


def golden_objects() -> dict:
    objs = standard_corpus()
    objs.update({f"O({d})": pushforward_module(d, 0) for d in range(3)})
    return objs


def canonical_text(cx) -> str:
    """One line per differential shape, then one ``row col value`` line per nonzero, sorted."""
    lines = [f"{cx.side} {' '.join(map(str, cx.term_dims))}"]
    for i, d in enumerate(cx.differentials):
        lines.append(f"d{i} {d.rows}x{d.cols}")
        lines.extend(f"{r} {c} {row[c]}" for r, row in enumerate(d.sparse) for c in sorted(row))
    return "\n".join(lines) + "\n"


def complex_record(cx) -> dict:
    return {"term_dims": list(cx.term_dims),
            "nnz": [sum(map(len, d.sparse)) for d in cx.differentials],
            "sha256": hashlib.sha256(canonical_text(cx).encode()).hexdigest()}


def golden_records() -> dict:
    objs = golden_objects()
    out = {}
    for a, m in objs.items():
        for b, n in objs.items():
            out[f"y:{a}|{b}"] = complex_record(build_ext_complex_Y(m, n))
            out[f"p2:{a}|{b}"] = complex_record(build_ext_complex_P2(p2_restrict(m),
                                                                     p2_restrict(n)))
    return out


def test_differentials_equal_golden_fixture():
    expected = json.loads(GOLDEN.read_text())
    got = golden_records()
    assert len(expected) == 2 * len(golden_objects()) ** 2
    assert got.keys() == expected.keys()
    wrong = [key for key in expected if got[key] != expected[key]]
    assert not wrong, wrong[:5]


def corpus_hashes() -> dict:
    out = {}
    for seed in (0, 3):
        for name, scalars in (("rational", RATIONAL),
                              ("prime 2147483659", PrimeScalars(2147483659))):
            report = run_corpus(RunConfig(scalars=scalars, seed=seed))
            text = json.dumps(report, sort_keys=True)
            out[f"seed {seed}, {name}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_corpus_reports_equal_golden_hashes():
    assert corpus_hashes() == json.loads(GOLDEN_CORPUS.read_text())


if __name__ == "__main__":
    # Prints the fixtures: PYTHONPATH=src python tests/test_golden_complexes.py
    print(json.dumps(corpus_hashes(), indent=2))
    records = sorted(golden_records().items())
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                             for k, v in records) + "\n}")
