"""Tuple-type multiple dispatch on top of the subtyping relation.

Method signatures and calls are both plain types; n-ary argument lists are
encoded as right-nested pairs.  A table is built by inserting methods one at
a time: inserting at a signature equivalent to an existing one of the same
function overwrites that method in place, so no two registered signatures of
a function are ever mutually subtyping.  Resolution relies on that: a call
selects its single minimal applicable method, or is ambiguous between several.

A table compiles each function into one cover-set node over all of its
signatures (see :class:`tagsub.subtyping._Node`), the node that subtyping
decides verdicts with: it answers "which signatures hold this type" as one
bit mask, so resolving makes no subtype call.  Equivalent signatures have
equal up masks (the signatures at or above each).  A signature's up mask
without its equivalents, its strict mask, orders the candidates.  A
function's strict masks are worked out together, once: at build, or at its
first resolve with two candidates or more.  The compiled function also
keeps the outcome of each candidate mask it has resolved, so a call whose
candidates an earlier call had costs its walk and one dict lookup.  The
signatures bound the masks that calls can have, and a table never
changes, so nothing there is ever invalidated.

Insertion builds that same compiled function.  :func:`add_method` and
:func:`parse_methods` both insert through one routine that takes a batch of
new signatures: per function, one node over the earlier signatures and then
the new ones, through which each new signature runs once; an earlier
signature above it runs once too, and equivalence is both bits set.  So an
n-method file costs n walks, not n²/2, and when every new signature of a
function is appended the node and its masks become the new table's compiled
function, so the first resolve walks only the call.  Each new signature is
checked in full once, where it enters: :func:`add_method` checks its one
signature, and :func:`parse_methods` each line's signature as it reads the
line, so that errors come in line order; a signature parsed over the table's
hierarchy can fail only on a childless abstract name in semantic mode, so it
is walked only where the hierarchy declares one.  The record that a function's
signatures are all checked is its compiled function, marked checked by the
insertion that hands it over or by its first call, after whose walk a
hand-built function is checked in table order.  Without that record,
insertion checks the earlier signatures in table order, each just before it
is walked.  A call is checked by its walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .core import NominalHierarchy, Pair, TagsubError, TypeExpr, _read_file, _Value, validate_type
from .semantics import Mode
from .subtyping import _Node

# Dispatch makes no subtype call; the name stays so that code which patches
# dispatch.reductive_sub to count dispatch's subtype calls still finds it.
from .subtyping import reductive_sub  # noqa: F401


class UnknownFunction(TagsubError):
    pass


class MethodFileError(TagsubError):
    pass


class EmptySignature(TagsubError, ValueError):
    """An argument list with no arguments has no tuple type."""


@dataclass(init=False, repr=False, eq=False, slots=True)
class MethodDef(_Value):
    """One method: the function it belongs to and its signature type."""

    function: str
    signature: TypeExpr
    body: str  # opaque label; bodies are never evaluated


@dataclass(init=False, repr=False, eq=False, slots=True)
class MethodTable(_Value):
    """The methods of a hierarchy's functions under one mode."""

    hierarchy: NominalHierarchy
    mode: Mode
    methods: tuple[MethodDef, ...] = ()
    # Function name -> _Function, handed over by insertion or filled on first
    # use.  A table never changes, so nothing here is ever invalidated;
    # replace() starts a fresh one.
    _compiled: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __init__(self, hierarchy: NominalHierarchy, mode: Mode, methods: tuple = ()):
        _Value.__init__(self, hierarchy, mode, methods)
        object.__setattr__(self, "_compiled", {})


@dataclass(init=False, repr=False, eq=False, slots=True)
class Selected(_Value):
    """Dispatch chose this method."""

    method: MethodDef

    def __init__(self, method: MethodDef):
        _set_method(self, method)


@dataclass(init=False, repr=False, eq=False, slots=True)
class NoApplicableMethod(_Value):
    """No method of the function applies to the call."""

    def __init__(self):
        pass


@dataclass(init=False, repr=False, eq=False, slots=True)
class Ambiguous(_Value):
    """Several applicable methods, none more specific than the others."""

    candidates: tuple[MethodDef, ...]

    def __init__(self, candidates: tuple[MethodDef, ...]):
        _set_candidates(self, candidates)


_set_method, _set_candidates = Selected.method.__set__, Ambiguous.candidates.__set__


DispatchOutcome = Selected | NoApplicableMethod | Ambiguous


def tuple_type(parts: Sequence[TypeExpr]) -> TypeExpr:
    """Encode an argument list as a right-nested pair chain."""
    if not parts:
        raise EmptySignature("empty signature")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Pair(p, out)
    return out


class _Function:
    """One function's methods, with the cover-set node over their signatures."""

    def __init__(
        self, h: NominalHierarchy, mode: Mode, methods: Sequence[MethodDef], checked: bool
    ):
        # checked: every signature has passed the name check (the record).
        self.h, self.mode, self.methods, self.checked = h, mode, tuple(methods), checked
        self._root: _Node | None = None
        self._up: list[int | None] = [None] * len(self.methods)
        self._strict: list[int] | None = None
        self.outcomes: dict[int, DispatchOutcome] = {}  # candidate mask -> outcome

    def root(self) -> _Node:
        if self._root is None:
            parts = [(1 << i, m.signature) for i, m in enumerate(self.methods)]
            self._root = _Node(self.h, self.mode, parts)
        return self._root

    def up(self, i: int) -> int:
        """The bits of the signatures at or above signature i."""
        if self._up[i] is None:
            self._up[i] = self.root().mask(self.methods[i].signature)
        return self._up[i]

    def strict(self) -> list[int]:
        """Per signature, the bits of the signatures strictly above it: its up
        mask without its class, found by grouping the up masks by value."""
        if self._strict is None:
            ups = [self.up(i) for i in range(len(self.methods))]
            classes: dict[int, int] = {}  # up mask -> the signatures that have it
            for i, up in enumerate(ups):
                classes[up] = classes.get(up, 0) | 1 << i
            self._strict = [up & ~classes[up] for up in ups]
        return self._strict

    def minimal(self, cands: int) -> int:
        """The candidates that no candidate lies strictly below: in no candidate's strict mask."""
        strict, above, rest = self.strict(), 0, cands
        while rest:
            low = rest & -rest
            rest ^= low
            above |= strict[low.bit_length() - 1]
        return cands & ~above

    def outcome(self, cands: int) -> DispatchOutcome:
        """The outcome of a call whose candidates are cands.

        The minimal candidates come from their strict masks (minimal).  Since
        insertion keeps no two equivalent signatures of a function, a single
        minimal candidate is the minimum and is selected; several (equivalent
        signatures of a hand-built table among them) are an ambiguity, in
        table order.
        """
        if cands & (cands - 1):  # two candidates or more
            cands = self.minimal(cands)
            if cands & (cands - 1):
                return Ambiguous(tuple(self.methods[i] for i in _bits(cands)))
        if cands:
            return Selected(self.methods[cands.bit_length() - 1])
        return NoApplicableMethod()

    def candidates(self, call: TypeExpr) -> int:
        """The bits of the signatures at or above the call."""
        out = self.root().mask(call)
        if not self.checked:  # built by hand: check in table order
            for m in self.methods:
                validate_type(self.h, m.signature, self.mode is Mode.SEMANTIC)
            self.checked = True
        return out


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
        methods = [m for m in tbl.methods if m.function == function]
        if not methods:
            raise UnknownFunction(f"no methods defined for {function!r}")
        fn = tbl._compiled[function] = _Function(tbl.hierarchy, tbl.mode, methods, checked=False)
    return fn


def add_method(tbl: MethodTable, m: MethodDef) -> MethodTable:
    """Insert m, replacing an equivalent-signature method of the same function."""
    validate_type(tbl.hierarchy, m.signature, tbl.mode is Mode.SEMANTIC)
    return _insert(tbl, [m])


def _insert(tbl: MethodTable, new: Sequence[MethodDef]) -> MethodTable:
    """Insert the methods new, whose signatures are checked, in order.

    The result is that of inserting them one at a time: each method takes the
    place of the first method of its function, in table order, whose signature
    is equivalent to its own, and is appended when there is none.  Per
    function, one _Function over the earlier signatures and then the new ones
    finds the equivalents, and becomes the new table's compiled function when
    every new method is appended.
    """
    h, mode, nonempty = tbl.hierarchy, tbl.mode, tbl.mode is Mode.SEMANTIC
    base = len(tbl.methods)
    first = [0] * len(new)  # per new method: the position of its first equivalent
    names = dict.fromkeys(m.function for m in new)
    # The other functions keep their compiled functions, and so their records.
    compiled = {name: fn for name, fn in tbl._compiled.items() if name not in names}
    replaced = []  # functions that had a method replaced and hold only checked signatures
    for name in names:
        where = [i for i, m in enumerate(tbl.methods) if m.function == name]
        js = [j for j, m in enumerate(new) if m.function == name]
        k = len(where)
        mine = [tbl.methods[i] for i in where] + [new[j] for j in js]
        where += [base + j for j in js]
        # The node never looks up its targets' names, and each earlier
        # signature is checked here just before it can be walked.
        fn = _Function(h, mode, mine, checked=True)
        old = tbl._compiled.get(name)
        done = k if old is not None and old.checked else 0  # earlier signatures checked so far
        for p in range(k, len(where)):
            # The lowest i at or above p that p is at or above in turn: p at the latest.
            for i in _bits(fn.up(p) & ((2 << p) - 1)):
                while done < min(i + 1, k):  # in table order, up to i
                    validate_type(h, fn.methods[done].signature, nonempty)
                    done += 1
                if fn.up(i) >> p & 1:
                    first[js[p - k]] = where[i]
                    break
        if all(first[j] == base + j for j in js):
            if k == 0:  # the loop has read every up mask
                fn.strict()
            compiled[name] = fn
        elif done == k:
            replaced.append(name)
    methods, slot = list(tbl.methods), {}
    for j, m in enumerate(new):
        if first[j] == base + j:
            slot[base + j] = len(methods)
            methods.append(m)
        else:
            methods[slot.get(first[j], first[j])] = m
    for name in replaced:  # keeps the record; the node is built on first use
        compiled[name] = _Function(h, mode, [m for m in methods if m.function == name], True)
    out = MethodTable(h, mode, tuple(methods))
    out._compiled.update(compiled)
    return out


def applicable(tbl: MethodTable, function: str, call: TypeExpr) -> list[MethodDef]:
    """Methods of the function whose signature is a supertype of the call."""
    fn = _function(tbl, function)
    return [fn.methods[i] for i in _bits(fn.candidates(call))]


def resolve(tbl: MethodTable, function: str, call: TypeExpr) -> DispatchOutcome:
    """The most specific applicable method, found by mask arithmetic.

    The call's walk gives its candidates and raises for a bad call (and, on
    a hand-built table's first call, for a bad signature) before anything
    is looked up; the outcome of each candidate set is built once per
    compiled function (_Function.outcome) and then read from its table.
    """
    fn = _function(tbl, function)
    cands = fn.candidates(call)
    out = fn.outcomes.get(cands)
    if out is None:
        out = fn.outcomes[cands] = fn.outcome(cands)
    return out


# Method file format, one statement per line, '#' comments:
#   mode semantic|atomic
#   method <fn> <type-expr> => <body-label>
_MODE_RE = re.compile(r"^mode\s+(semantic|atomic)$")
_METHOD_RE = re.compile(r"^method\s+([A-Za-z_][A-Za-z0-9_]*)\s+(.+?)\s*=>\s*(\S+)$")


def parse_methods(text: str, h: NominalHierarchy) -> MethodTable:
    from .frontend import parse_type

    mode: Mode | None = None
    check = False
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
            # A parsed signature can fail its check only where h._childless
            # says so (core.NominalHierarchy).
            check = mode is Mode.SEMANTIC and bool(h._childless)
            continue
        m = _METHOD_RE.match(line)
        if m is None:
            raise MethodFileError(f"line {lineno}: cannot parse {line!r}")
        if mode is None:
            raise MethodFileError(f"line {lineno}: method before mode declaration")
        fn, sig_src, body = m.groups()
        sig = parse_type(sig_src, h)
        if check:
            validate_type(h, sig, True)
        defs.append(MethodDef(fn, sig, body))
    if mode is None:
        raise MethodFileError("missing mode declaration")
    return _insert(MethodTable(h, mode), defs)


def load_methods(path: str | Path, h: NominalHierarchy) -> MethodTable:
    return parse_methods(_read_file(path, MethodFileError), h)
