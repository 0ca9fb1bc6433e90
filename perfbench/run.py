"""Benchmark of localp2: four fixed exact-arithmetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ext-ladder --seed 1 --seconds 20 --trace 0

Load model: one client in a closed loop, a single process with no threads or
pools, one workload per interpreter.  The workload's fixed operation list is
run in passes until the next pass would end after ``--seconds``; at least one
pass always runs.  ``--trace 0`` prints the end-to-end metrics with no
wrappers installed; ``wall_s`` and ``max_op_s`` are medians over the
passes, and they and ``setup_s`` are given at reference speed: each measured
time is scaled by the time of a fixed pure-Python kernel run right before and
after it (median of three runs each), so that the machine's changing speed cancels out.  The measured
times are in the stamp.  ``--trace 1`` alternates
a fixed number of untraced and traced passes of set-up plus operations,
whatever ``--seconds`` says, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the machine and input facts.  Operations not finished when the
wall-clock limit (``--limit``) passes count as failed.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
COLD_START_SAMPLES = 3
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 20.0
# Time of one reference_kernel() call at reference speed: the fast state of
# the machine the benchmark was tuned on (see README.md, "Reference speed").
REFERENCE_KERNEL_S = 0.0025


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation when the wall-clock limit passes.

    A BaseException, so that no handler inside the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def reference_kernel() -> int:
    """Fixed pure-Python work (dict churn, modular products, fractions).

    It shares no code with localp2, so a change to the program cannot move it;
    only the speed of the machine can.
    """
    table: dict[int, int] = {}
    total = 0
    for i in range(8000):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 1) * (i + 3) % 2147483659
        total += table[key]
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i, i + 1)
    return total + acc.denominator


def kernel_s() -> float:
    """The median time of three reference_kernel() calls: one call can catch a hiccup."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Scale a measured time by the machine's speed, read from the kernel times around it."""
    return seconds * REFERENCE_KERNEL_S / ((before + after) / 2)


@dataclass
class Pass:
    wall_s: float = 0.0
    op_times: dict[str, float] = field(default_factory=dict)
    op_ref_s: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    timed_out: bool = False

    @property
    def wall_ref_s(self) -> float:
        return sum(self.op_ref_s.values())

    @property
    def max_op_ref_s(self) -> float:
        return max(self.op_ref_s.values(), default=0.0)


def run_pass(ops, deadline: float, calibrate: bool = False) -> Pass:
    """Run one pass; exceptions are counted as failures, never raised.

    With ``calibrate``, the reference kernel runs before the first operation
    and after each one, and each operation's time is also recorded at
    reference speed.
    """
    result = Pass(attempted=len(ops))
    start = time.perf_counter()
    before = kernel_s() if calibrate else 0.0
    for i, (label, op) in enumerate(ops):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            result.failures += [f"{lab}: not started before the wall-clock limit"
                                for lab, _ in ops[i:]]
            result.timed_out = True
            break
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                op()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            sys.stdout = sys.__stdout__
            result.failures.append(f"{label}: stopped by the wall-clock limit")
            result.failures += [f"{lab}: not started before the wall-clock limit"
                                for lab, _ in ops[i + 1:]]
            result.timed_out = True
            break
        except Exception as exc:  # every operation is a check; a crash is one failure
            result.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        result.op_times[label] = time.perf_counter() - t0
        if calibrate:
            after = kernel_s()
            result.op_ref_s[label] = at_reference_speed(result.op_times[label], before, after)
            before = after
    result.wall_s = time.perf_counter() - start
    return result


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def sample_setup(workload: str, seed: int, samples: int) -> list[float]:
    """Set-up times of fresh interpreters, from spawn to the end of set-up, at reference speed.

    CLOCK_MONOTONIC is shared by all processes, so the child measures from
    the moment the parent recorded before spawning it.
    """
    out = []
    for _ in range(samples):
        before = kernel_s()
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only", repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(at_reference_speed(float(proc.stdout.split()[-1]), before, kernel_s()))
    return out


def sample_cold_start(samples: int) -> list[float]:
    """Wall time of the CLI command `localp2 euler 1,0,0 3,1,0` in a fresh interpreter."""
    out = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "localp2.cli", "euler", "1,0,0", "3,1,0"],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.monotonic() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "3":
            raise RuntimeError(f"cold-start command failed: {proc.stderr.strip()[-500:]}")
        out.append(elapsed)
    return out


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _stamp(args, workloads) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes_rule": (f"{TRACE_PAIRS} untraced and {TRACE_PAIRS} traced passes; "
                        "--seconds not used") if args.trace else "passes until --seconds",
        "trace": args.trace,
        "limit_s": args.limit,
        "prime_modulus": workloads.PRIME,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "machine": platform.machine(),
        "commit": _commit(),
    }


def _import_program():
    """Import localp2 from this checkout's src/, refusing any other copy."""
    if not (SRC / "localp2" / "__init__.py").is_file():
        raise SystemExit(f"error: no localp2 package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import localp2
    import localp2.cli  # noqa: F401  (the corpus workload drives the CLI in-process)

    if SRC.resolve() not in Path(localp2.__file__).resolve().parents:
        raise SystemExit(f"error: imported localp2 from {localp2.__file__}, not from {SRC}")


def measure(make_ops, seconds: float, deadline: float) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while True:
        done = run_pass(make_ops(), deadline, calibrate=True)
        passes.append(done)
        if done.timed_out or time.perf_counter() - start + done.wall_s > seconds:
            return passes


def end_to_end(args, setup) -> tuple[list[Pass], dict]:
    make_ops = setup(args.seed)
    passes = measure(make_ops, args.seconds, START + args.limit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = sample_setup(args.workload, args.seed, SETUP_SAMPLES)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_ref_s for p in passes),
        "max_op_s": statistics.median(p.max_op_ref_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    return passes, _with_units(metrics, "end_to_end")


def traced(args, setup, extra: dict) -> tuple[list[Pass], dict]:
    """Alternate untraced and traced passes (set-up included) TRACE_PAIRS times.

    The per-layer metrics come from the first traced pass; the overhead ratio
    compares the medians of the traced and the untraced passes.
    """
    from tracer import Tracer

    deadline = START + args.limit
    passes, walls, tracers = [], {False: [], True: []}, []
    for _ in range(TRACE_PAIRS):
        for with_trace in (False, True):
            tracer = Tracer()
            if with_trace:
                tracer.install()
                tracers.append(tracer)
            try:
                t0 = time.perf_counter()
                passes.append(run_pass(setup(args.seed)(), deadline))
                walls[with_trace].append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()

    first = tracers[0]
    values = first.metrics()
    values["cli.cold_start_s"] = statistics.median(sample_cold_start(COLD_START_SAMPLES))
    values["trace.overhead_ratio"] = (statistics.median(walls[True])
                                      / statistics.median(walls[False]))
    extra.update({"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
                  "layer_self_sum_s": first.self_time_sum(),
                  "absent_layers": first.absent, "missing_targets": first.missing})
    return passes, _with_units(values, "per_layer")


def _with_units(values: dict, section: str) -> dict:
    """Attach each metric's unit as BENCHMARK.json declares it in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[section]}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of an untraced run; a traced run always "
                             f"runs {TRACE_PAIRS} untraced and {TRACE_PAIRS} traced passes "
                             "and does not use it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=float, default=150.0,
                        help="wall-clock limit for the operations, from interpreter start")
    parser.add_argument("--setup-only", metavar="SPAWNED_AT", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    _import_program()

    if args.setup_only is not None:
        setup(args.seed)
        print(repr(time.monotonic() - args.setup_only))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    stamp = _stamp(args, workloads)
    if args.trace:
        passes, metrics = traced(args, setup, stamp)
    else:
        passes, metrics = end_to_end(args, setup)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    stamp.update({"passes": len(passes), "ops_per_pass": passes[0].attempted,
                  "pass_wall_s": [p.wall_s for p in passes],
                  "pass_ops_s": [sum(p.op_times.values()) for p in passes],
                  "pass_ops_ref_s": [p.wall_ref_s for p in passes],
                  "pass_max_op_ref_s": [p.max_op_ref_s for p in passes],
                  "fail_ratio": len(failures) / attempted, "failures": failures[:20]})
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
