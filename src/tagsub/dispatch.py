"""Tuple-type multiple dispatch on top of the subtyping relation.

Method signatures and calls are both plain types; n-ary argument lists are
encoded as right-nested pairs.  A table is built by inserting methods one at
a time: inserting at a signature equivalent to an existing one of the same
function overwrites that method in place, so no two registered signatures of
a function are ever mutually subtyping.  Resolution relies on that: a call
selects its single minimal applicable method, or is ambiguous between several.

A table compiles each function on its first resolve into the cover-set node
that subtyping decides verdicts with (see :class:`tagsub.subtyping._Node`),
taken over all of the function's signatures at once: it answers "which
signatures hold this type" as one bit mask, so resolving makes no subtype
call.  :func:`add_method` checks each signature once, in full, when it is
inserted, and the table records which functions hold only checked
signatures; the signatures of a table built by hand are checked when it first
compiles the function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .core import NominalHierarchy, Pair, TagsubError, TypeExpr
from .semantics import Mode
from .subtyping import _check_normalizable, _Node

# Dispatch makes no subtype call; the name stays so that code which patches
# dispatch.reductive_sub to count dispatch's subtype calls still finds it.
from .subtyping import reductive_sub  # noqa: F401


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
    # Function name -> _Function, filled on first use.  A table never changes,
    # so nothing here is ever invalidated; replace() starts a fresh one.
    _compiled: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )
    # The functions whose signatures all pass _check_normalizable under this
    # hierarchy and mode.  Only add_method sets it; tables built by hand or by
    # replace() start with none and are checked in full.
    _checked: frozenset = field(
        default=frozenset(), init=False, compare=False, hash=False, repr=False
    )


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


class _Function:
    """One function's methods in a table, compiled on first use."""

    def __init__(self, tbl: MethodTable, function: str):
        self.h, self.mode = tbl.hierarchy, tbl.mode
        self.methods = tuple(m for m in tbl.methods if m.function == function)
        if not self.methods:
            raise UnknownFunction(f"no methods defined for {function!r}")
        self.checked = function in tbl._checked
        self._root: _Node | None = None
        self._up: list[int | None] = [None] * len(self.methods)
        self._strict: list[int | None] = [None] * len(self.methods)

    def root(self) -> _Node:
        if self._root is None:
            if not self.checked:  # not built by add_method: check in table order
                for m in self.methods:
                    _check_normalizable(self.h, m.signature, self.mode)
            parts = [(1 << i, m.signature) for i, m in enumerate(self.methods)]
            self._root = _Node(self.h, self.mode, parts)
        return self._root

    def up(self, i: int) -> int:
        """The bits of the signatures at or above signature i."""
        if self._up[i] is None:
            self._up[i] = self.root().mask(self.methods[i].signature)
        return self._up[i]

    def strict(self, j: int) -> int:
        """The bits of the signatures above signature j and not equivalent to it."""
        if self._strict[j] is None:
            self._strict[j] = sum(1 << i for i in _bits(self.up(j)) if not self.up(i) >> j & 1)
        return self._strict[j]

    def candidates(self, call: TypeExpr) -> int:
        """The bits of the signatures at or above the call."""
        _check_normalizable(self.h, call, self.mode)
        return self.root().mask(call)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _function(tbl: MethodTable, function: str) -> _Function:
    fn = tbl._compiled.get(function)
    if fn is None:
        fn = tbl._compiled[function] = _Function(tbl, function)
    return fn


def add_method(tbl: MethodTable, m: MethodDef) -> MethodTable:
    """Insert m, replacing an equivalent-signature method of the same function."""
    h, mode = tbl.hierarchy, tbl.mode
    _check_normalizable(h, m.signature, mode)
    above = _Node(h, mode, [(1, m.signature)])
    checked = m.function in tbl._checked
    for i, old in enumerate(tbl.methods):
        if old.function != m.function:
            continue
        if not checked:
            _check_normalizable(h, old.signature, mode)
        if not above.mask(old.signature):
            continue
        if _Node(h, mode, [(1, old.signature)]).mask(m.signature):
            methods = tbl.methods[:i] + (m,) + tbl.methods[i + 1 :]
            # The record stays: an unrecorded function's later ones are unchecked.
            return _with_methods(tbl, methods, tbl._checked)
    return _with_methods(tbl, tbl.methods + (m,), tbl._checked | {m.function})


def _with_methods(tbl: MethodTable, methods: tuple, checked: frozenset) -> MethodTable:
    out = replace(tbl, methods=methods)
    object.__setattr__(out, "_checked", checked)
    return out


def applicable(tbl: MethodTable, function: str, call: TypeExpr) -> list[MethodDef]:
    """Methods of the function whose signature is a supertype of the call."""
    fn = _function(tbl, function)
    return [fn.methods[i] for i in _bits(fn.candidates(call))]


def resolve(tbl: MethodTable, function: str, call: TypeExpr) -> DispatchOutcome:
    """The most specific applicable method, found by mask arithmetic.

    The minimal candidates are those in no candidate's strict mask.  Since no
    two signatures of a function are equivalent, a single minimal candidate is
    the minimum and is selected; several are reported as an ambiguity, in
    table order.
    """
    fn = _function(tbl, function)
    cands = fn.candidates(call)
    at = _bits(cands)
    if len(at) > 1:
        above = 0
        for j in at:
            above |= fn.strict(j)
        at = _bits(cands & ~above)
    minimal = tuple(fn.methods[i] for i in at)
    if len(minimal) == 1:
        return Selected(minimal[0])
    return Ambiguous(minimal) if minimal else NoApplicableMethod()


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
