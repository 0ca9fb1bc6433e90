"""Command-line interface: constructors, Ext reports, twists, and identity verification.

Exit codes: 0 pass, 1 identity/corpus failure, 2 input error,
3 internal postcondition violation.  All output is deterministic given the
flags; rationals are printed as fraction strings, never as floats.

Importing this module loads only what every command shares (``errors``,
``linalg``, ``quiver``, ``homalg``).  A command module is imported by the
first command that runs it: ``windows`` by ``twist`` and ``window``,
``corpus`` by ``corpus``, and ``characters`` by ``orichar`` and ``verify``.
The ``verify`` choices are the constant ``VERIFY_IDENTITIES``, so building
the parser loads no command module.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, homalg
from .errors import InputError, InternalCheckError, LocalP2Error, MembershipError
from .linalg import RATIONAL, PrimeScalars, Scalar, Scalars
from .quiver import (
    Representation,
    check_relations,
    direct_sum,
    dumps_json,
    dumps_rep,
    loads_rep,
    p2_restrict,
    parse_scalar,
    point_module,
    pushforward_module,
    simple_module,
)

# Normative bookkeeping choices, stamped into every report so regression
# artifacts are self-describing.
CONVENTIONS = {
    "arrow_action": "precompose",        # an arrow u->w acts slot(heart+w) -> slot(heart+u)
    "sign_table": "potential-epsilon",   # alternating signs read off the six potential terms
    "euler_orientation": "hom-forward",  # euler((1,0,0),(3,1,0)) = +3 on both sides
    "det_parity": "plus-even-degrees",   # complex determinants alternate, + in even degree
    "twist_signs": "epsilon-curl",       # Koszul skew blocks reuse the same sign table
}


def _meta() -> dict:
    return {"version": __version__, "conventions": CONVENTIONS}


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _parse_point(text: str) -> tuple[Scalar, Scalar, Scalar]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"expected x0:x1:x2, got {text!r}")
    return tuple(parse_scalar(p, f"coordinate in {text!r}") for p in parts)


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"expected three comma-separated dims, got {text!r}")
    return tuple(_int(p, f"dimension in {text!r}") for p in parts)


def _parse_scalars(mode: list[str] | None) -> Scalars:
    if not mode or mode == ["rational"]:
        return RATIONAL
    if mode[0] == "rational":
        raise InputError("usage: --mode rational")
    if mode[0] == "prime":
        if len(mode) != 2:
            raise InputError("usage: --mode prime <p>")
        return PrimeScalars(_int(mode[1], "prime"))
    raise InputError(f"unknown scalar mode {mode[0]!r}")


def _load(path: str) -> Representation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rep = loads_rep(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # A record that breaks a relation is not a module; the commands assume one
    # and would report a broken relation as an internal failure (exit 3).
    chk = check_relations(rep)
    if not chk.ok:
        raise InputError(f"{path} is not a module: relations violated: {list(chk.violated)}")
    return rep


def _load_y(path: str) -> Representation:
    rep = _load(path)
    if rep.heart is None:
        raise InputError(f"{path} holds a plane-side record; a heart is required here")
    return rep


def _emit_rep(rep, out: str | None) -> None:
    text = dumps_rep(rep)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        stream = sys.stdout
    else:
        sys.stdout.write(text)
        stream = sys.stderr
    chk = check_relations(rep)
    stream.write(f"dims={list(rep.dims)} relations={'ok' if chk.ok else 'VIOLATED'}\n")


def _print_json(payload: dict) -> None:
    sys.stdout.write(dumps_json(payload) + "\n")


def cmd_mk(args) -> int:
    if args.constructor != "sum" and len(args.args) != 1:
        raise InputError(f"{args.constructor} takes one argument, got {len(args.args)}")
    if args.constructor == "point":
        rep = point_module(_parse_point(args.args[0]), parse_scalar(args.t, "--t"), args.heart)
    elif args.constructor == "pushforward":
        rep = pushforward_module(_int(args.args[0], "degree"), args.heart)
    elif args.constructor == "simple":
        rep = simple_module(_int(args.args[0], "vertex"), args.heart)
    elif args.constructor == "sum":
        if len(args.args) < 2:
            raise InputError("sum needs at least two representation files")
        reps = [_load_y(p) for p in args.args]
        rep = reps[0]
        for other in reps[1:]:
            rep = direct_sum(rep, other)
    else:
        raise InputError(f"unknown constructor {args.constructor!r}")
    _emit_rep(rep, args.out)
    return 0


def cmd_ext(args) -> int:
    scalars = _parse_scalars(args.mode)
    if args.side == "y":
        m, n = _load_y(args.file_m), _load_y(args.file_n)
    else:
        m, n = (_load(p) for p in (args.file_m, args.file_n))
        m, n = (r if r.heart is None else p2_restrict(r) for r in (m, n))
    report = homalg.ext_report(m, n, args.side, scalars)
    report.update(_meta())
    if args.format == "json":
        _print_json(report)
    else:
        print(f"side={report['side']} dims_M={report['dims_M']} dims_N={report['dims_N']}")
        print(f"term_dims={report['term_dims']}")
        print(f"ext_dims={report['ext_dims']} euler={report['euler']} cy3_ok={report['cy3_ok']}")
    return 0


def cmd_euler(args) -> int:
    m, n = _parse_dims(args.dims_m), _parse_dims(args.dims_n)
    value = homalg.euler_form_Y(m, n) if args.side == "y" else homalg.euler_form_P2(m, n)
    print(value)
    return 0


def cmd_orichar(args) -> int:
    from . import characters

    char = characters.ori_char(args.heart)
    if args.dims:
        dims = _parse_dims(args.dims)
        assignment = {args.heart + j: dims[j] for j in range(3)}
        values = char.evaluate(assignment)
        payload = {"heart": args.heart, "dims": list(dims),
                   "exponents": {characters.format_var(s, "D"): v for s, v in values.items()}}
    else:
        payload = {"heart": args.heart, "exponents": char.rendered()}
    payload.update(_meta())
    if args.format == "json":
        _print_json(payload)
    else:
        for sym, value in payload["exponents"].items():
            print(f"{sym}: {value}")
    return 0


def cmd_twist(args) -> int:
    from . import windows

    rep = _load_y(args.file)
    try:
        out = windows.twist_up(rep) if args.direction == "up" else windows.twist_down(rep)
    except MembershipError as exc:
        sys.stderr.write(f"twist refused: {exc}\n")
        sys.stderr.write(json.dumps(exc.report, sort_keys=True) + "\n")
        return 2
    _emit_rep(out, args.out)
    return 0


def cmd_window(args) -> int:
    from . import windows

    rep = _load_y(args.file)
    up, down = windows.window_membership(rep, "up"), windows.window_membership(rep, "down")
    wv = windows.certified_window(rep, up, down)
    if args.extend:
        wv = windows.extend_window(wv, *args.extend)
    payload = wv.to_dict()
    payload["recursion_violations"] = windows.recursion_violations(wv)
    payload["membership"] = {"up": up.to_dict(), "down": down.to_dict()}
    payload.update(_meta())
    if args.format == "json":
        _print_json(payload)
    else:
        print(f"base={payload['base']} values={payload['values']}")
        print(f"certified={payload['certified']} violations={payload['recursion_violations']}")
        for direction in ("up", "down"):
            mem = payload["membership"][direction]
            print(f"membership {direction}: ok={mem['ok']} ranks={mem['ranks']}")
    return 0


def cmd_verify(args) -> int:
    from . import characters

    report = characters.IDENTITIES[args.identity](*args.range)
    report.update(_meta())
    if args.format == "json":
        _print_json(report)
    else:
        print(f"{report['identity']}: {report['status']} on window {report['window']}")
        for item in report["diff"]:
            print(f"  {item['symbol']}: lhs {item['lhs_form']} != rhs {item['rhs_form']}")
        if report["status"] == "pass" and report.get("witness"):
            print(f"  witness: {json.dumps(report['witness'], sort_keys=True)}")
    return 0 if report["status"] == "pass" else 1


def cmd_corpus(args) -> int:
    from . import corpus

    config = corpus.RunConfig(scalars=_parse_scalars(args.mode), seed=args.seed,
                              window=tuple(args.range))
    report = corpus.run_corpus(config)
    report.update(_meta())
    if args.format == "json":
        _print_json(report)
    else:
        for cell in report["cells"]:
            if cell["status"] != "pass":
                print(f"FAIL {cell['name']}: {json.dumps(cell['detail'], sort_keys=True)}")
        npass = sum(1 for c in report["cells"] if c["status"] == "pass")
        print(f"corpus: {npass}/{len(report['cells'])} cells pass "
              f"(seed={report['config']['seed']}, scalars={report['config']['scalars']})")
    return 0 if report["passed"] else 1


# The names of ``characters.IDENTITIES``, in its order (a test pins the two).
VERIFY_IDENTITIES = ("theorem3", "theorem4", "square-root", "cocycle")


# Built once per process: every build leaves about 50 KB of reference cycles
# that only the cyclic garbage collector frees.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localp2",
        description="Exact homological algebra for the local projective plane quiver.",
    )
    parser.add_argument("--version", action="version", version=f"localp2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mk", help="build a representation and write it as JSON")
    p.add_argument("constructor", choices=("point", "pushforward", "simple", "sum"))
    p.add_argument("args", nargs="+",
                   help="point x0:x1:x2 | pushforward d | simple v | sum FILE FILE...")
    p.add_argument("--t", default="0", help="fiber coordinate for point (fraction)")
    p.add_argument("--heart", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_mk)

    p = sub.add_parser("ext", help="Ext dimensions, Euler number and duality check")
    p.add_argument("file_m")
    p.add_argument("file_n")
    p.add_argument("--side", choices=("y", "p2"), default="y")
    p.add_argument("--mode", nargs="+", default=None, metavar="MODE")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_ext)

    p = sub.add_parser("euler", help="closed-form Euler pairing of two dimension vectors")
    p.add_argument("dims_m")
    p.add_argument("dims_n")
    p.add_argument("--side", choices=("y", "p2"), default="y")
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("orichar", help="window character of a heart, optionally evaluated")
    p.add_argument("heart", type=int)
    p.add_argument("--dims", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_orichar)

    p = sub.add_parser("twist", help="re-present a module in the adjacent heart")
    p.add_argument("file")
    p.add_argument("direction", choices=("up", "down"))
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("window", help="window vector, certification and membership diagnostics")
    p.add_argument("file")
    p.add_argument("--extend", nargs=2, type=int, default=None, metavar=("LO", "HI"))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_window)

    p = sub.add_parser("verify", help="machine-check one of the symbolic identities")
    p.add_argument("identity", choices=VERIFY_IDENTITIES)
    p.add_argument("--range", nargs=2, type=int, default=(-8, 8))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", help="run the full regression matrix")
    p.add_argument("--mode", nargs="+", default=None, metavar="MODE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", nargs=2, type=int, default=(-8, 8))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 3
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LocalP2Error as exc:
        sys.stderr.write(f"failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
