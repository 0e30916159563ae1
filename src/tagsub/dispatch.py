"""Tuple-type multiple dispatch on top of the subtyping relation.

Method signatures and calls are both plain types; n-ary argument lists are
encoded as right-nested pairs.  A table is built by inserting methods one at
a time: inserting at a signature equivalent to an existing one of the same
function overwrites that method in place, so no two registered signatures of
a function are ever mutually subtyping.  Resolution relies on that: a call
selects its single minimal applicable method, or is ambiguous between several.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .core import NominalHierarchy, Pair, TagsubError, TypeExpr, validate_type
from .semantics import Mode
from .subtyping import reductive_sub


class UnknownFunction(TagsubError):
    pass


class MethodFileError(TagsubError):
    pass


@dataclass(frozen=True)
class MethodDef:
    function: str
    signature: TypeExpr
    body: str  # opaque label; bodies are never evaluated


@dataclass(frozen=True)
class MethodTable:
    hierarchy: NominalHierarchy
    mode: Mode
    methods: tuple[MethodDef, ...] = ()


@dataclass(frozen=True)
class Selected:
    method: MethodDef


@dataclass(frozen=True)
class NoApplicableMethod:
    pass


@dataclass(frozen=True)
class Ambiguous:
    candidates: tuple[MethodDef, ...]


DispatchOutcome = Selected | NoApplicableMethod | Ambiguous


def tuple_type(parts: Sequence[TypeExpr]) -> TypeExpr:
    """Encode an argument list as a right-nested pair chain."""
    if not parts:
        raise ValueError("empty signature")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Pair(p, out)
    return out


def _sub(tbl: MethodTable, a: TypeExpr, b: TypeExpr) -> bool:
    verdict, _ = reductive_sub(tbl.hierarchy, a, b, tbl.mode)
    return verdict


def add_method(tbl: MethodTable, m: MethodDef) -> MethodTable:
    """Insert m, replacing an equivalent-signature method of the same function."""
    validate_type(tbl.hierarchy, m.signature)
    for i, old in enumerate(tbl.methods):
        if (
            old.function == m.function
            and _sub(tbl, old.signature, m.signature)
            and _sub(tbl, m.signature, old.signature)
        ):
            methods = list(tbl.methods)
            methods[i] = m
            return replace(tbl, methods=tuple(methods))
    return replace(tbl, methods=tbl.methods + (m,))


def applicable(tbl: MethodTable, function: str, call: TypeExpr) -> list[MethodDef]:
    """Methods of the function whose signature is a supertype of the call."""
    methods = [m for m in tbl.methods if m.function == function]
    if not methods:
        raise UnknownFunction(f"no methods defined for {function!r}")
    return [m for m in methods if _sub(tbl, call, m.signature)]


def resolve(tbl: MethodTable, function: str, call: TypeExpr) -> DispatchOutcome:
    """The most specific applicable method, found in one pass.

    A candidate is minimal when no other candidate's signature lies strictly
    below its own.  Since no two signatures of a function are equivalent, a
    single minimal candidate is the minimum and is selected; several are
    reported as an ambiguity, in table order.
    """
    cands = applicable(tbl, function, call)
    minimal = tuple(m for m in cands if not any(_strictly_below(tbl, o, m) for o in cands))
    if len(minimal) == 1:
        return Selected(minimal[0])
    return Ambiguous(minimal) if minimal else NoApplicableMethod()


def _strictly_below(tbl: MethodTable, o: MethodDef, m: MethodDef) -> bool:
    a, b = o.signature, m.signature
    return o is not m and _sub(tbl, a, b) and not _sub(tbl, b, a)


# Method file format, one statement per line, '#' comments:
#   mode semantic|atomic
#   method <fn> <type-expr> => <body-label>
_MODE_RE = re.compile(r"^mode\s+(semantic|atomic)$")
_METHOD_RE = re.compile(r"^method\s+([A-Za-z_][A-Za-z0-9_]*)\s+(.+?)\s*=>\s*(\S+)$")


def parse_methods(text: str, h: NominalHierarchy) -> MethodTable:
    from .frontend import parse_type

    mode: Mode | None = None
    table: MethodTable | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _MODE_RE.match(line)
        if m:
            if mode is not None:
                raise MethodFileError(f"line {lineno}: duplicate mode declaration")
            mode = Mode(m.group(1))
            table = MethodTable(h, mode)
            continue
        m = _METHOD_RE.match(line)
        if m is None:
            raise MethodFileError(f"line {lineno}: cannot parse {line!r}")
        if table is None:
            raise MethodFileError(f"line {lineno}: method before mode declaration")
        fn, sig_src, body = m.groups()
        table = add_method(table, MethodDef(fn, parse_type(sig_src, h), body))
    if table is None:
        raise MethodFileError("missing mode declaration")
    return table


def load_methods(path: str | Path, h: NominalHierarchy) -> MethodTable:
    return parse_methods(Path(path).read_text(encoding="utf-8"), h)
