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
call.

Insertion uses the same nodes.  :func:`add_method` and :func:`parse_methods`
both insert through one routine that takes a batch of new signatures: it
builds one node over them and runs each earlier signature of the function
through it, then one node over the earlier signatures that lie below a new
one, which the new ones run through in turn; equivalence is both bits set.
So an n-method file costs about n walks, not n²/2.  The routine checks each
new signature in full before it inserts it (:func:`parse_methods` also checks
each one as its line is read, so that errors come in line order), and the
table records which functions hold only checked signatures; the signatures
of a table built by hand are checked as insertion meets them, and when it
first compiles the function.
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
    # hierarchy and mode.  Only insertion sets it; tables built by hand or by
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
    return _insert(tbl, [m])


def _insert(tbl: MethodTable, new: Sequence[MethodDef]) -> MethodTable:
    """Insert the methods new in order, checking each signature first.

    The result is that of inserting them one at a time: each method takes the
    place of the first method of its function, in table order, whose signature
    is equivalent to its own, and is appended when there is none.
    """
    for m in new:
        _check_normalizable(tbl.hierarchy, m.signature, tbl.mode)
    base = len(tbl.methods)
    first = [0] * len(new)  # per new method: the position of its first equivalent
    for fn in dict.fromkeys(m.function for m in new):
        olds = [i for i, m in enumerate(tbl.methods) if m.function == fn]
        js = [j for j, m in enumerate(new) if m.function == fn]
        where = olds + [base + j for j in js]
        found = _firsts(
            tbl.hierarchy,
            tbl.mode,
            [tbl.methods[i].signature for i in olds],
            [new[j].signature for j in js],
            fn in tbl._checked,
        )
        for j, f in zip(js, found):
            first[j] = where[f]
    methods, slot = list(tbl.methods), {}
    for j, m in enumerate(new):
        if first[j] == base + j:
            slot[base + j] = len(methods)
            methods.append(m)
        else:
            methods[slot.get(first[j], first[j])] = m
    # A function whose earlier signatures were all met is checked in full; one
    # that only had methods replaced keeps its record, or its lack of one.
    appended = {m.function for j, m in enumerate(new) if first[j] >= base}
    return _with_methods(tbl, tuple(methods), tbl._checked | appended)


def _firsts(h, mode: Mode, olds: list, news: list, checked: bool) -> list[int]:
    """For each new signature, the index in olds + news of the first equivalent one.

    The new signatures become one cover-set node, and each old signature runs
    through it once, giving the new ones it lies below.  Those old signatures
    become a second node, which each new signature they lie below runs
    through once for the reverse direction.  If the old signatures are not
    known to be checked, each is checked just before it runs, and checking
    stops once every new signature has an equivalent: the reverse direction
    is then settled before each check, not once at the end.  New signatures
    without an old equivalent run through the first node to find each other.
    """
    node = _Node(h, mode, [(1 << j, t) for j, t in enumerate(news)])
    first: list[int | None] = [None] * len(news)
    hits: list[tuple[int, int]] = []  # (old index, bits of the open news above it)
    open_ = (1 << len(news)) - 1  # the new signatures without an old equivalent

    def settle() -> None:
        nonlocal open_
        back = _Node(h, mode, [(1 << n, olds[i]) for n, (i, _) in enumerate(hits)])
        below = [0] * len(news)  # per new signature: the hits below it
        for n, (_, bits) in enumerate(hits):
            for j in _bits(bits):
                below[j] |= 1 << n
        for j, col in enumerate(below):
            both = col and back.mask(news[j]) & col
            if both:
                first[j] = hits[(both & -both).bit_length() - 1][0]
                open_ &= ~(1 << j)
        hits.clear()

    for i, t in enumerate(olds):
        if not checked:
            if hits:
                settle()
                if not open_:
                    break
            _check_normalizable(h, t, mode)
        bits = node.mask(t) & open_
        if bits:
            hits.append((i, bits))
    if hits:
        settle()
    rest = _bits(open_)
    if len(rest) > 1:
        up = {j: node.mask(news[j]) & open_ for j in rest}
    else:
        up = {j: 1 << j for j in rest}
    for j in rest:
        # The lowest open signature above j that j is above in turn: j at the latest.
        first[j] = len(olds) + next(l for l in _bits(up[j]) if up[l] >> j & 1)
    return first


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
    defs: list[MethodDef] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _MODE_RE.match(line)
        if m:
            if mode is not None:
                raise MethodFileError(f"line {lineno}: duplicate mode declaration")
            mode = Mode(m.group(1))
            continue
        m = _METHOD_RE.match(line)
        if m is None:
            raise MethodFileError(f"line {lineno}: cannot parse {line!r}")
        if mode is None:
            raise MethodFileError(f"line {lineno}: method before mode declaration")
        fn, sig_src, body = m.groups()
        sig = parse_type(sig_src, h)
        # Checked as read too, so that errors come in line order.
        _check_normalizable(h, sig, mode)
        defs.append(MethodDef(fn, sig, body))
    if mode is None:
        raise MethodFileError("missing mode declaration")
    return _insert(MethodTable(h, mode), defs)


def load_methods(path: str | Path, h: NominalHierarchy) -> MethodTable:
    return parse_methods(Path(path).read_text(encoding="utf-8"), h)
