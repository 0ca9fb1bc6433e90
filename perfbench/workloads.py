"""The four benchmark workloads.

A workload's ``setup(seed)`` does what a user pays before the first
computation (constructors and the JSON read-back the CLI performs) and
returns a factory for one pass: a fresh list of ``(label, operation)`` pairs
in the order the seed fixes.  Every operation checks its own result and
raises ``CheckFailed`` on a wrong answer.  Operations reach the program
through module attributes at call time (``homalg.build_ext_complex_Y``), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import json
import random
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PRIME = 2147483659

# Corpus cells per run: 9 relation checks, 36 core Ext pairs, 100 seeded
# direct-sum pairs, 4 identities, 5 twist round trips, 1 refused twist,
# 3 twist-invariance pairs, 5 triangle checks and 9 window cells; prime mode
# adds the mode-agreement cell.
CORPUS_CELLS = {"rational": 172, "prime": 173}
# The corpus seed is the CLI default.  The work of a corpus run depends on its
# seed (by up to about 15 %), so a seed drawn per run would hide changes of
# that size; the workload seed fixes the order of the two runs.
CORPUS_SEED = 0

IDENTITY_RANGE = (-256, 256)
TWIST_DEGREES = (1, 2, 3)

Ops = list[tuple[str, Callable[[], None]]]


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@functools.cache
def _oracle_ext() -> Callable[[int, int], tuple[int, ...]]:
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("localp2_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ext_pushforward


def _read_back(rep):
    from localp2 import quiver

    return quiver.loads_rep(quiver.dumps_rep(rep))


def _ladder(seed: int, degrees: range, prime: bool) -> Callable[[], Ops]:
    from localp2 import homalg, linalg, quiver

    oracle = _oracle_ext()
    scalars = linalg.PrimeScalars(PRIME) if prime else linalg.RATIONAL
    modules = {a: _read_back(quiver.pushforward_module(a, 0)) for a in degrees}
    order = [(a, b) for a in degrees for b in degrees]
    random.Random(seed).shuffle(order)

    def make_ops() -> Ops:
        seen: dict[tuple[int, int], tuple[int, ...]] = {}

        def pair(a: int, b: int) -> None:
            m, n = modules[a], modules[b]
            ext = tuple(homalg.ext_dims_of(homalg.build_ext_complex_Y(m, n), scalars))
            seen[a, b] = ext
            want = tuple(oracle(a, b))
            expect(ext == want, f"ext {ext} != oracle {want}")
            alt = sum((-1) ** i * e for i, e in enumerate(ext))
            euler = homalg.euler_form_Y(m.dims, n.dims)
            expect(alt == euler, f"alternating sum {alt} != euler_form_Y {euler}")
            # CY3 duality against the reverse pair of this pass, computed once.
            if (b, a) in seen:
                dual = seen[b, a]
                expect(all(ext[i] == dual[3 - i] for i in range(4)),
                       f"CY3 duality: ext(O({a}),O({b})) {ext} vs ext(O({b}),O({a})) {dual}")

        return [(f"ext O({a}) O({b})", functools.partial(pair, a, b)) for a, b in order]

    return make_ops


def ext_ladder(seed: int) -> Callable[[], Ops]:
    return _ladder(seed, range(4), prime=False)


def ext_ladder_prime(seed: int) -> Callable[[], Ops]:
    return _ladder(seed, range(5), prime=True)


def corpus(seed: int) -> Callable[[], Ops]:
    from localp2 import cli

    def run(mode: str) -> None:
        argv = ["corpus", "--seed", str(CORPUS_SEED), "--format", "json"]
        if mode == "prime":
            argv += ["--mode", "prime", str(PRIME)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        expect(code == 0, f"exit code {code}")
        report = json.loads(out.getvalue())
        failing = [c["name"] for c in report["cells"] if c["status"] != "pass"]
        expect(report["passed"] is True and not failing, f"failing cells {failing[:5]}")
        expect(len(report["cells"]) == CORPUS_CELLS[mode],
               f"{len(report['cells'])} cells, expected {CORPUS_CELLS[mode]}")
        expect(report["config"]["seed"] == CORPUS_SEED, "report carries another seed")

    ops = [(f"corpus {mode}", functools.partial(run, mode)) for mode in CORPUS_CELLS]
    random.Random(seed).shuffle(ops)
    return lambda: list(ops)


def twist_verify(seed: int) -> Callable[[], Ops]:
    from localp2 import characters, quiver, windows

    start = {d: _read_back(quiver.pushforward_module(d, 0)) for d in TWIST_DEGREES}
    dims = {(d, h): quiver.pushforward_module(d, h).dims
            for d in TWIST_DEGREES for h in range(d + 1)}

    def round_trip(d: int) -> None:
        rep = start[d]
        hearts = list(range(1, d + 1)) + list(range(d - 1, -1, -1))
        for h in hearts:
            rep = windows.twist_up(rep) if h > rep.heart else windows.twist_down(rep)
            expect(rep.heart == h and rep.dims == dims[d, h],
                   f"O({d}) at heart {rep.heart}: dims {rep.dims}, expected {dims[d, h]}")
        homs = (quiver.hom_space(rep, start[d]).dim, quiver.hom_space(start[d], rep).dim)
        expect(homs == (1, 1), f"hom dims after the round trip {homs}, expected (1, 1)")

    def identity(name: str, *args: int) -> None:
        report = getattr(characters, name)(*args)
        expect(report["status"] == "pass", f"{name}: {report['status']} {report['diff'][:3]}")

    lo, hi = IDENTITY_RANGE
    ops = [(f"twist round trip O({d})", functools.partial(round_trip, d)) for d in TWIST_DEGREES]
    ops += [("verify theorem3", functools.partial(identity, "verify_theorem3", lo, hi)),
            ("verify theorem4", functools.partial(identity, "verify_theorem4")),
            ("verify square-root", functools.partial(identity, "verify_square_root", lo, hi)),
            ("verify cocycle", functools.partial(identity, "verify_cocycle", lo, hi))]
    random.Random(seed).shuffle(ops)
    return lambda: list(ops)


WORKLOADS = {
    "ext-ladder": ext_ladder,
    "ext-ladder-prime": ext_ladder_prime,
    "corpus": corpus,
    "twist-verify": twist_verify,
}
