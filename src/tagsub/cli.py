"""Command-line interface.

Verdict-returning subcommands encode their result in the exit code (0 true,
1 false, 2 error), so the tool can be used as a shell predicate.  Dispatch
uses 0 selected, 3 no applicable method, 4 ambiguous.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .core import DEFAULT_HIERARCHY, NominalHierarchy, TagsubError, load_hierarchy
from .derivation import format_derivation, synthesize
from .dispatch import Ambiguous, NoApplicableMethod, Selected, load_methods, resolve
from .frontend import parse_type
from .normalize import nf, nf_atomic
from .semantics import Mode, format_tag_set, interp, matches
from .subtyping import Strategy, format_trace, reductive_sub

if TYPE_CHECKING:
    import argparse


def _hierarchy(args) -> NominalHierarchy:
    if args.hierarchy is None:
        return DEFAULT_HIERARCHY
    return load_hierarchy(args.hierarchy)


def cmd_check(args) -> int:
    h = _hierarchy(args)
    t1 = parse_type(args.t1, h)
    t2 = parse_type(args.t2, h)
    verdict, trace = reductive_sub(h, t1, t2, Mode(args.mode), Strategy(args.strategy))
    # Every line is built before any is printed, so an error while reading
    # the trace leaves no verdict on stdout.
    lines = ["true" if verdict else "false"]
    if trace is not None and args.trace:
        lines.append(format_trace(trace))
    if trace is not None and args.derivation:
        lines.append(format_derivation(synthesize(h, trace, Mode(args.mode))))
    print("\n".join(lines))
    return 0 if verdict else 1


def cmd_nf(args) -> int:
    h = _hierarchy(args)
    t = parse_type(args.t, h)
    print(nf_atomic(h, t) if args.atomic else nf(h, t))
    return 0


def cmd_interp(args) -> int:
    h = _hierarchy(args)
    print(format_tag_set(interp(h, parse_type(args.t, h), Mode(args.mode))))
    return 0


def cmd_match(args) -> int:
    h = _hierarchy(args)
    ok = matches(h, parse_type(args.v, h), parse_type(args.t, h))
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_eq(args) -> int:
    h = _hierarchy(args)
    t1 = parse_type(args.t1, h)
    t2 = parse_type(args.t2, h)
    mode = Mode(args.mode)
    ok = reductive_sub(h, t1, t2, mode)[0] and reductive_sub(h, t2, t1, mode)[0]
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_dispatch(args) -> int:
    h = _hierarchy(args)
    table = load_methods(args.methods, h)
    parts = args.call.strip().split(None, 1)
    if len(parts) != 2:
        print("error: --call expects '<fn> <type-expr>'", file=sys.stderr)
        return 2
    fn, call_src = parts
    outcome = resolve(table, fn, parse_type(call_src, h))
    if isinstance(outcome, Selected):
        print(f"selected: {outcome.method.body}")
        return 0
    if isinstance(outcome, NoApplicableMethod):
        print("error: no-method")
        return 3
    assert isinstance(outcome, Ambiguous)
    print("error: ambiguous " + " ".join(m.body for m in outcome.candidates))
    return 4


def cmd_hierarchy(args) -> int:
    load_hierarchy(args.file)
    print("valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Imported here, so that importing the module loads neither argparse nor
    # the gettext machinery it pulls in.
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--hierarchy", metavar="FILE", default=None, help="hierarchy file (default: built-in)"
    )
    moded = argparse.ArgumentParser(add_help=False)
    moded.add_argument("--mode", choices=["semantic", "atomic"], default="semantic")

    parser = argparse.ArgumentParser(prog="tagsub", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common, moded], help="decide t1 <: t2")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.NORMALIZE_FIRST.value,
    )
    p.add_argument("--trace", action="store_true", help="print the reductive trace")
    p.add_argument(
        "--derivation", action="store_true", help="print a declarative derivation"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("nf", parents=[common], help="normalize a type")
    p.add_argument("t")
    p.add_argument("--atomic", action="store_true", help="keep abstract names atomic")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("interp", parents=[common, moded], help="print a type's tag set")
    p.add_argument("t")
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("match", parents=[common], help="does value type v match t")
    p.add_argument("v")
    p.add_argument("t")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("eq", parents=[common, moded], help="mutual subtyping")
    p.add_argument("t1")
    p.add_argument("t2")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("dispatch", parents=[common], help="resolve a call")
    p.add_argument("--methods", metavar="FILE", required=True)
    p.add_argument("--call", metavar="'<fn> <type-expr>'", required=True)
    p.set_defaults(func=cmd_dispatch)

    p = sub.add_parser("hierarchy", help="hierarchy utilities")
    hier_sub = p.add_subparsers(dest="hierarchy_command", required=True)
    v = hier_sub.add_parser("validate", help="validate a hierarchy file")
    v.add_argument("--file", required=True)
    v.set_defaults(func=cmd_hierarchy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TagsubError, OSError, RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
