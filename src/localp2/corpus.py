"""The regression corpus: named constructor objects and the full check matrix.

Everything here is deterministic: the direct-sum sampling is driven entirely
by the configured seed, so a corpus run is reproducible cell by cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import characters, homalg, windows
from .errors import InternalCheckError, LocalP2Error, MembershipError
from .linalg import RATIONAL, PrimeScalars, Scalars
from .quiver import (
    Representation,
    check_relations,
    direct_sum,
    hom_space,
    p2_restrict,
    point_module,
    pushforward_module,
    simple_module,
)


@dataclass(frozen=True)
class RunConfig:
    scalars: Scalars = RATIONAL
    seed: int = 0
    window: tuple[int, int] = (-8, 8)

    def __post_init__(self):
        # The identities run over the window; theorem3 needs a consecutive pair.
        characters.require_hearts(*self.window, pairs=True)


def standard_corpus() -> dict[str, Representation]:
    objs = {
        "pt_e0": point_module((1, 0, 0), 0, 0, label="pt_e0"),
        "pt_e0_t1": point_module((1, 0, 0), 1, 0, label="pt_e0_t1"),
        "pt_diag": point_module((1, 1, 1), 1, 0, label="pt_diag"),
        "pt_mix": point_module((0, 1, 2), "1/2", 0, label="pt_mix"),
        "s0": simple_module(0, 0, label="s0"),
        "s1": simple_module(1, 0, label="s1"),
        "s2": simple_module(2, 0, label="s2"),
        "line1": pushforward_module(1, 0, label="line1"),
        "line2": pushforward_module(2, 0, label="line2"),
    }
    return objs


# Ordered-pair stock for the exact CY3/Euler matrix (36 pairs).
CORE_PAIR_NAMES = ("pt_e0", "pt_diag", "s0", "s1", "line1", "line2")
# Seeded CY3 cells per run, and the small objects whose direct sums feed them.
SUM_SAMPLES = 100
SUM_POOL_NAMES = ("pt_e0", "pt_e0_t1", "pt_diag", "pt_mix", "s0", "s1", "s2")
# Self-pairs whose Ext profiles are compared against the two plane contributions.
TRIANGLE_NAMES = ("pt_diag", "pt_e0_t1", "s0", "line1", "line2")
# Objects with a full up/down twist round trip.
ROUNDTRIP_NAMES = ("pt_e0", "pt_e0_t1", "pt_diag", "pt_mix", "line1")


def _cell(name: str, fn) -> dict:
    try:
        detail = fn()
    except LocalP2Error as exc:
        return {"name": name, "status": "fail", "detail": {"error": str(exc)}}
    if "_ok" not in detail:
        raise InternalCheckError(f"corpus cell {name} gave no verdict")
    return {"name": name, "status": "pass" if detail.pop("_ok") else "fail", "detail": detail}


def _check_pair(m: Representation, n: Representation, fwd, bwd) -> dict:
    """The CY3/Euler cell of (m, n) from the dims ext(m, n) and ext(n, m)."""
    cy3 = homalg.cy3_record(fwd, bwd)
    ext = cy3["ext_mn"]
    euler = homalg.euler_form_Y(m.dims, n.dims)
    alt = sum((-1) ** i * e for i, e in enumerate(ext))
    ok = alt == euler and cy3["passed"]
    return {"_ok": ok, "ext": ext, "euler": euler, "cy3": cy3["passed"]}


def _twist_roundtrip(m: Representation, up: Representation) -> dict:
    back = windows.twist_down(up)
    homs = (hom_space(back, m).dim, hom_space(m, back).dim)
    ok = back.dims == m.dims and homs == (1, 1)
    return {"_ok": ok, "up_dims": list(up.dims), "back_dims": list(back.dims),
            "hom_dims": list(homs)}


def _twist_ext_invariance(before: homalg.ExtDims, up_m: Representation, up_n: Representation,
                          scalars: Scalars) -> dict:
    after = homalg.ext_dims_Y(up_m, up_n, scalars)
    return {"_ok": before == after, "before": list(before), "after": list(after)}


def _window_cell(m: Representation) -> dict:
    wv = windows.window_vector(m)
    lo, hi = wv.span()
    extended = windows.extend_window(wv, hi + 2, lo - 2)
    bad = windows.recursion_violations(extended)
    return {"_ok": not bad, "window": extended.to_dict(), "violations": bad}


def run_corpus(config: RunConfig, objects: dict[str, Representation] | None = None) -> dict:
    """Full regression matrix; any failing cell marks the run failed."""
    objs = objects if objects is not None else standard_corpus()
    scalars = config.scalars
    cells: list[dict] = []

    checks = {name: check_relations(rep) for name, rep in objs.items()}
    for name, chk in checks.items():
        cells.append(_cell(f"relations:{name}", lambda chk=chk: {
            "_ok": chk.ok, "violated": list(chk.violated)}))

    # Cells beyond the relation check are only meaningful for valid objects;
    # a corrupted fixture therefore fails exactly its own relation cell.
    objs = {name: rep for name, rep in objs.items() if checks[name].ok}

    # Per-run memos keyed by object names: ``module`` takes a name, or a pair
    # of names whose direct sum it builds once; ``ext`` computes each ordered
    # pair once, and ``twisted`` each up-twist once, when a cell first reads
    # it.  An error is not kept: every cell that reads a failing pair or a
    # refused twist raises it again.  In prime mode ``ext`` also ranks the
    # complex of each core pair over Q, for mode agreement, so that no
    # complex is built twice and none is kept.
    pair_names = [n for n in CORE_PAIR_NAMES if n in objs]
    prime = isinstance(scalars, PrimeScalars)
    modules: dict = dict(objs)
    exts: dict = {}
    rational_exts: dict = {}
    twists: dict = {}

    def module(key) -> Representation:
        if key not in modules:
            modules[key] = direct_sum(objs[key[0]], objs[key[1]])
        return modules[key]

    def ext(x, y) -> homalg.ExtDims:
        if (x, y) not in exts:
            cx = homalg.build_ext_complex_Y(module(x), module(y))
            dims = homalg.ext_dims_of(cx, scalars)
            if prime and x in pair_names and y in pair_names:
                rational_exts[x, y] = homalg.ext_dims_of(cx, RATIONAL)
            exts[x, y] = dims
        return exts[x, y]

    def twisted(name: str) -> Representation:
        if name not in twists:
            twists[name] = windows.twist_up(objs[name])
        return twists[name]

    def pair_cell(name: str, x, y) -> None:
        # Both modules are built outside ``_cell``: an error there is not a cell's.
        m, n = module(x), module(y)
        cells.append(_cell(name, lambda: _check_pair(m, n, ext(x, y), ext(y, x))))

    for a in pair_names:
        for b in pair_names:
            pair_cell(f"ext:{a}|{b}", a, b)

    pool = [n for n in SUM_POOL_NAMES if n in objs]
    rng = random.Random(config.seed)
    for i in range(SUM_SAMPLES):
        na, nb = rng.choice(pool), rng.choice(pool)
        nc, nd = rng.choice(pool), rng.choice(pool)
        pair_cell(f"cy3-sum:{i}:{na}+{nb}|{nc}+{nd}", (na, nb), (nc, nd))

    lo, hi = config.window
    for identity, fn in characters.IDENTITIES.items():
        cells.append(_cell(f"verify:{identity}", lambda fn=fn: (
            lambda rep: {"_ok": rep["status"] == "pass", "diff": rep["diff"]})(fn(lo, hi))))

    for name in (n for n in ROUNDTRIP_NAMES if n in objs):
        cells.append(_cell(f"twist-roundtrip:{name}",
                           lambda name=name: _twist_roundtrip(objs[name], twisted(name))))
    if "s0" in objs:
        def refused() -> dict:
            try:
                twisted("s0")
            except MembershipError as exc:
                return {"_ok": True, "reason": str(exc)}
            return {"_ok": False, "reason": "up-twist of s0 unexpectedly allowed"}
        cells.append(_cell("twist-refused:s0", refused))

    for a, b in (("pt_e0", "line1"), ("line1", "line2"), ("line1", "pt_e0")):
        if a in objs and b in objs:
            cells.append(_cell(f"twist-ext-invariance:{a}|{b}",
                               lambda a=a, b=b: _twist_ext_invariance(
                                   ext(a, b), twisted(a), twisted(b), scalars)))

    def triangle(name: str) -> dict:
        ey, mp = ext(name, name), p2_restrict(objs[name])
        rep = homalg.triangle_record(ey, homalg.ext_dims_P2(mp, mp, scalars))
        return {"_ok": rep["passed"], "ext_y": rep["ext_y"], "ext_p2": rep["ext_p2"]}

    for name in (n for n in TRIANGLE_NAMES if n in objs):
        cells.append(_cell(f"triangle:{name}", lambda name=name: triangle(name)))

    for name, rep in objs.items():
        cells.append(_cell(f"window:{name}", lambda rep=rep: _window_cell(rep)))

    if prime:
        def agreement() -> dict:
            mismatches = []
            for a in pair_names:
                for b in pair_names:
                    mod, rat = ext(a, b), rational_exts[a, b]
                    if rat != mod:
                        mismatches.append({"pair": [a, b], "rational": list(rat),
                                           "prime": list(mod)})
            return {"_ok": not mismatches, "mismatches": mismatches}
        cells.append(_cell("mode-agreement", agreement))

    passed = all(c["status"] == "pass" for c in cells)
    return {
        "passed": passed,
        "cells": cells,
        "config": {
            "scalars": scalars.name if not isinstance(scalars, PrimeScalars)
            else f"prime:{scalars.p}",
            "seed": config.seed,
            "sum_samples": SUM_SAMPLES,
            "window": list(config.window),
        },
    }
