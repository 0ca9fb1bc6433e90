"""Both twists against golden fixtures.

Round trips and hom checks see a twist only up to isomorphism, so every
twisted module here is compared byte for byte with the ``dumps_rep`` text
captured into ``tests/data/golden_twists.json``, and every refusal with its
message and membership report.
"""

from __future__ import annotations

import json
from pathlib import Path

from localp2.corpus import standard_corpus
from localp2.errors import MembershipError
from localp2.quiver import (
    direct_sum,
    dumps_rep,
    point_module,
    pushforward_module,
    simple_module,
)
from localp2.windows import twist_down, twist_up
from thick_points import thick_point

GOLDEN = Path(__file__).parent / "data" / "golden_twists.json"


def golden_objects() -> dict:
    objs = {f"O({d}) heart={n}": pushforward_module(d, n) for d in range(1, 5)
            for n in range(d + 1)}
    corpus = standard_corpus()
    objs["pt_mix"] = corpus["pt_mix"]
    objs["frac_point"] = point_module((0, 2, 3), "-7/3", 1)
    objs["point+O(2)"] = direct_sum(point_module((1, 2, 3), 4, 0), pushforward_module(2, 0))
    objs["s0"] = simple_module(0, 0)
    objs["s2"] = simple_module(2, 0)
    # Modules that are not bricks: their c's and kernels are not those of a
    # point or a line bundle.
    objs["thick4 pt_mix"] = thick_point(4, corpus["pt_mix"])
    objs["twist_up(thick4 pt_mix)"] = twist_up(objs["thick4 pt_mix"])
    objs["thick3 pt_diag"] = thick_point(3, corpus["pt_diag"])
    objs["pt_e0+line1"] = direct_sum(corpus["pt_e0"], corpus["line1"])
    return objs


def twist_record(twist, rep) -> dict:
    """The twisted module as parsed ``dumps_rep`` text, or the refusal's message and report."""
    try:
        return {"module": json.loads(dumps_rep(twist(rep)))}
    except MembershipError as exc:
        return {"error": str(exc), "report": exc.report}


def golden_records() -> dict:
    return {name: {"up": twist_record(twist_up, rep), "down": twist_record(twist_down, rep)}
            for name, rep in golden_objects().items()}


def test_twists_equal_golden_fixture():
    expected = json.loads(GOLDEN.read_text())
    objs = golden_objects()
    assert expected.keys() == objs.keys()
    assert expected["s0"]["up"]["report"]["reason"].startswith("kappa1 not surjective")
    assert expected["s2"]["down"]["report"]["reason"].startswith("nu not injective")
    for name, rep in objs.items():
        for direction, twist in (("up", twist_up), ("down", twist_down)):
            want = expected[name][direction]
            if "module" not in want:
                assert twist_record(twist, rep) == want, (name, direction)
                continue
            text = json.dumps(want["module"], sort_keys=True, indent=2) + "\n"
            assert dumps_rep(twist(rep)) == text, (name, direction)


if __name__ == "__main__":
    # Prints the fixture: PYTHONPATH=src python tests/test_golden_twists.py
    print(json.dumps(golden_records(), sort_keys=True, indent=1))
