"""Self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

It checks four things, each against a real run of ``run.py``:

1. a deliberately wrong rank is counted as a failure, and the run still
   finishes every other operation.  A child interpreter wraps
   ``localp2.homalg.rank`` to add 1 to the first rank the Ext path asks
   for, then calls ``run.main``;
2. a workload that hits its wall-clock limit records its unfinished
   operations as failed and exits promptly;
3. the traced run reports every per-layer metric, and the layer self times
   sum to no more than the traced wall time;
4. in a directory holding only BENCHMARK.json and the benchmark's own files
   the benchmark exits non-zero without printing a result.

Scratch files go to ``.perfbench-selftest/`` in the repository root, which is
removed afterwards.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-selftest"

WRONG_RANK_CHILD = f"""
import sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / "src")!r}]
import run
from localp2 import homalg

rank = homalg.rank
armed = [True]


def wrong_rank(*args, **kwargs):
    value = rank(*args, **kwargs)
    if armed:
        armed.pop()
        return value + 1
    return value


homalg.rank = wrong_rank
sys.exit(run.main(sys.argv[1:]))
"""


def bench(*args: str, cwd: Path = ROOT, timeout: float = 180,
          program: tuple[str, ...] = ("perfbench/run.py",)) -> tuple[int, list[str], float]:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *program, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout.splitlines(), time.monotonic() - start


def result(lines: list[str]) -> tuple[dict, dict]:
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def check(ok: bool, message: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def main() -> int:
    failures: list[str] = []

    code, lines, _ = bench("--workload", "ext-ladder", "--seed", "1", "--seconds", "1",
                           "--trace", "0", program=("-c", WRONG_RANK_CHILD))
    stamp, res = result(lines)
    check(code == 0, "wrong rank: run exits 0", failures)
    check(not res["correct"] and res["failed"] >= 1 and stamp["fail_ratio"] > 0,
          f"wrong rank: fail_ratio {stamp['fail_ratio']:.3f} > 0", failures)
    check(res["failed"] < res["attempted"],
          f"wrong rank: the other operations still ran "
          f"({res['failed']}/{res['attempted']} failed)", failures)

    limit = 1.5
    code, lines, elapsed = bench("--workload", "ext-ladder-prime", "--seed", "1", "--seconds",
                                 "1", "--trace", "0", "--limit", str(limit))
    stamp, res = result(lines)
    check(code == 0 and res["failed"] >= 1 and not res["correct"],
          f"limit: {res['failed']}/{res['attempted']} operations counted failed", failures)
    check(elapsed < limit + 30, f"limit: run ended after {elapsed:.1f} s", failures)

    code, lines, _ = bench("--workload", "twist-verify", "--seed", "1", "--seconds", "1",
                           "--trace", "1")
    stamp, res = result(lines)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]}
    check(code == 0 and res["correct"], "traced run: passes its correctness checks", failures)
    check(set(res["metrics"]) == wanted,
          f"traced run: per-layer metrics missing {sorted(wanted - set(res['metrics']))}",
          failures)
    check(stamp["layer_self_sum_s"] <= stamp["traced_wall_s"][0],
          f"traced run: self times {stamp['layer_self_sum_s']:.3f} s <= traced wall "
          f"{stamp['traced_wall_s'][0]:.3f} s", failures)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        shutil.copytree(HERE, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", SCRATCH / "BENCHMARK.json")
        code, lines, _ = bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                               "--trace", "0", cwd=SCRATCH)
        check(code != 0 and not any(line.startswith('{"correct"') for line in lines),
              f"bare directory: exit code {code} and no result line", failures)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
