"""Type language and nominal hierarchy.

The type language has three constructors: declared nominal names, covariant
pairs, and untagged unions.  A hierarchy is a validated forest of name
declarations in which concrete names are leaves; declaration order is
significant because it fixes the canonical order used by normalization.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from pathlib import Path
from typing import Iterable


class TagsubError(Exception):
    """Base class for all errors raised by this library."""


class HierarchyError(TagsubError):
    pass


class DuplicateName(HierarchyError):
    pass


class MultipleParents(HierarchyError):
    pass


class UnknownParent(HierarchyError):
    pass


class ConcreteParent(HierarchyError):
    pass


class CycleDetected(HierarchyError):
    pass


class HierarchySyntaxError(HierarchyError):
    pass


class UnknownName(TagsubError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class EmptyAbstract(TagsubError):
    """An abstract name with no concrete descendants has no normal form."""


class _Value:
    """A frozen record with slots, built without generating code at import.

    Each subclass is a ``@dataclass(init=False, repr=False, eq=False,
    slots=True)``, so that ``fields``, ``replace`` and ``asdict`` work, and
    this base gives it the rest of ``frozen=True`` over ``__match_args__``.
    A class built or compared on a hot path spells out its own methods.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs:
            args += tuple(kwargs.pop(f) for f in names[len(args) :] if f in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the arguments {names}")
        for f, value in zip(names, args):
            object.__setattr__(self, f, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(init=False, repr=False, eq=False, slots=True)
class NominalName(_Value):
    """A declared name; ``abstract`` names cannot be instantiated."""

    text: str
    abstract: bool

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.text, self.abstract) == (other.text, other.abstract)

    def __hash__(self):
        return hash((self.text, self.abstract))

    def __str__(self) -> str:
        return self.text


def _render(t: TypeExpr) -> str:
    # '*' binds tighter than '|'; both left-associative, so a right child at
    # the same precedence level needs parentheses to round-trip.  One loop
    # over a stack of pending (type, parent precedence, is right child)
    # entries and literal pieces, so nesting depth is unbounded.
    out: list[str] = []
    todo: list = [(t, 0, False)]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        x, parent_prec, is_right = x
        if isinstance(x, Name):
            out.append(x.name.text)
            continue
        if not isinstance(x, (Pair, Union)):  # another leaf, such as a sentinel tag
            out.append(str(x))
            continue
        prec, op = (1, "*") if isinstance(x, Pair) else (0, "|")
        paren = prec < parent_prec or (prec == parent_prec and is_right)
        if paren:
            out.append("(")
            todo.append(")")
        todo += [(x.right, prec, True), op, (x.left, prec, False)]
    return "".join(out)


def _repr(t: TypeExpr) -> str:
    # The dataclass default repr, built by one loop over a stack of pending
    # types and literal pieces, so nesting depth is unbounded.
    out: list[str] = []
    todo: list = [t]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Name):
            out.append(f"{type(x).__qualname__}(name={x.name!r})")
        elif not isinstance(x, (Pair, Union)):
            out.append(repr(x))
        else:
            out.append(f"{type(x).__qualname__}(left=")
            todo += [")", x.right, ", right=", x.left]
    return "".join(out)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Name(_Value):
    """A declared name as a type."""

    name: NominalName

    def __init__(self, name: NominalName):
        _set_name(self, name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name,) == (other.name,)

    def __hash__(self):
        return hash((self.name,))

    __str__ = _render
    __repr__ = _repr


class _Tree(_Value):
    """The base of Pair and Union, for one slot that is no field.

    ``_parsed`` is the hierarchy whose own name leaves make up the whole
    tree.  ``parse_type`` sets it on every pair and union it builds; every
    other way of building one leaves it unset, which reads as no record.  It
    takes no part in ``==``, ``hash``, ``repr``, copies or pickles, and a
    name leaf has none, since a leaf that held its hierarchy would make a
    reference cycle.
    """

    __slots__ = ("_parsed",)


# Pair and Union each spell out their methods: with one body for both, whose
# attribute reads cannot be specialized to one class, == took 1.6-1.9 times as long.
@dataclass(init=False, repr=False, eq=False, slots=True)
class Pair(_Tree):
    """The covariant pair type ``left * right``."""

    left: "TypeExpr"
    right: "TypeExpr"

    def __init__(self, left: TypeExpr, right: TypeExpr):
        _set_pair_left(self, left)
        _set_pair_right(self, right)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))

    __str__ = _render
    __repr__ = _repr


@dataclass(init=False, repr=False, eq=False, slots=True)
class Union(_Tree):
    """The untagged union type ``left | right``."""

    left: "TypeExpr"
    right: "TypeExpr"

    def __init__(self, left: TypeExpr, right: TypeExpr):
        _set_union_left(self, left)
        _set_union_right(self, right)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))

    __str__ = _render
    __repr__ = _repr


_set_name = Name.name.__set__
_set_pair_left, _set_pair_right = Pair.left.__set__, Pair.right.__set__
_set_union_left, _set_union_right = Union.left.__set__, Union.right.__set__
_set_parsed = _Tree._parsed.__set__

TypeExpr = Name | Pair | Union


@dataclass(init=False, repr=False, eq=False, slots=True)
class Decl(_Value):
    """One hierarchy declaration: a named node with an optional parent."""

    name: str
    abstract: bool
    parent: str | None = None

    def __init__(self, name: str, abstract: bool, parent: str | None = None):
        _Value.__init__(self, name, abstract, parent)


# A name of the type grammar, and of the hierarchy file format.
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class NominalHierarchy:
    """Validated forest of nominal declarations.

    Use :func:`validate_hierarchy` (or the constructor, which validates) to
    build one.  Instances are immutable once constructed and safe to share.
    """

    def __init__(self, decls: Iterable[Decl]):
        decls = tuple(decls)
        seen: dict[str, Decl] = {}
        for d in decls:
            if not d.name:
                raise DuplicateName("empty name in declaration")
            if d.name in seen:
                prev = seen[d.name]
                if prev.parent != d.parent:
                    raise MultipleParents(
                        f"{d.name} declared with parents {prev.parent!r} and {d.parent!r}"
                    )
                raise DuplicateName(f"{d.name} declared more than once")
            seen[d.name] = d
        for d in decls:
            if d.parent is None:
                continue
            parent = seen.get(d.parent)
            if parent is None:
                raise UnknownParent(f"{d.name} extends undeclared name {d.parent}")
            if not parent.abstract:
                raise ConcreteParent(
                    f"{d.name} extends concrete name {d.parent}; concrete names are leaves"
                )
        # Each name's reflexive ancestor set, walked once per name.
        self._above: dict[str, set[str]] = {}
        for d in decls:
            trail = {d.name}
            cur = d.parent
            while cur is not None:
                if cur in trail:
                    raise CycleDetected(f"cycle through {cur}")
                trail.add(cur)
                cur = seen[cur].parent
            self._above[d.name] = trail

        self.decls = decls
        self._names = {d.name: NominalName(d.name, d.abstract) for d in decls}
        # The Name type of each name that the type grammar can spell, the leaf
        # that every parse against h shares.  A declaration may name anything,
        # but a token that holds another character must never parse as a name.
        self._name_types = {
            text: Name(n) for text, n in self._names.items() if _NAME_RE.fullmatch(text)
        }
        self._parent = {
            d.name: self._names[d.parent] if d.parent else None for d in decls
        }
        self.names = tuple(self._names[d.name] for d in decls)
        self.concrete_names = tuple(n for n in self.names if not n.abstract)
        # Descendant tables in declaration order (reflexive for the own kind).
        self._concrete_desc = {n.text: () for n in self.names}
        self._abstract_desc = {n.text: () for n in self.names}
        for m in self.names:
            table = self._abstract_desc if m.abstract else self._concrete_desc
            for a in self._above[m.text]:
                table[a] += (m,)
        # The abstract names without concrete descendants, where normalizing
        # in semantic mode raises EmptyAbstract.  A type whose every name is
        # h's own leaf, as parse_type builds, can fail validate_type only on
        # one of them, so a hierarchy without them needs no such check.
        self._childless = frozenset(
            n.text for n in self.names if n.abstract and not self._concrete_desc[n.text]
        )
        # Each name's descendant union, built on first use by
        # normalize.descendant_union and shared by every caller.
        self._unions: dict[str, Name | Union] = {}

    def lookup(self, name: str | NominalName) -> NominalName:
        text = name.text if isinstance(name, NominalName) else name
        found = self._names.get(text)
        if found is not name and (
            found is None or (isinstance(name, NominalName) and found != name)
        ):
            raise UnknownName(f"name {text!r} is not declared in this hierarchy")
        return found

    def parent(self, name: str | NominalName) -> NominalName | None:
        return self._parent[self.lookup(name).text]

    def __contains__(self, name: str | NominalName) -> bool:
        try:
            self.lookup(name)
        except UnknownName:
            return False
        return True


def validate_hierarchy(decls: Iterable[Decl]) -> NominalHierarchy:
    """Check a declaration list and return the resulting hierarchy.

    Raises DuplicateName, MultipleParents, UnknownParent, ConcreteParent or
    CycleDetected on invalid input.
    """
    return NominalHierarchy(decls)


def nominal_subtype(
    h: NominalHierarchy, n1: str | NominalName, n2: str | NominalName
) -> bool:
    """True iff n1 reaches n2 by zero or more parent edges (reflexive)."""
    above = h._above[h.lookup(n1).text]
    return h.lookup(n2).text in above


def concrete_descendants(
    h: NominalHierarchy, n: str | NominalName
) -> tuple[NominalName, ...]:
    """Concrete names at or below n, in hierarchy declaration order."""
    return h._concrete_desc[h.lookup(n).text]


def abstract_descendants(
    h: NominalHierarchy, n: str | NominalName
) -> tuple[NominalName, ...]:
    """Abstract names at or below n (including n itself when abstract)."""
    return h._abstract_desc[h.lookup(n).text]


def _leaves(t: TypeExpr, kind: type) -> list[TypeExpr]:
    """The subterms of t just below its top-level nodes of class kind, left to
    right: a union's arms for Union, a pair tree's components for Pair."""
    # Down the left children, each right child kept on a stack until
    # everything left of it is listed; one loop, so any shape and depth.
    out, todo, x = [], [], t
    while True:
        while isinstance(x, kind):
            todo.append(x.right)
            x = x.left
        out.append(x)
        if not todo:
            return out
        x = todo.pop()


def is_value_type(t: TypeExpr) -> bool:
    """True iff t is a concrete name or a pair of value types."""
    return all(isinstance(x, Name) and not x.name.abstract for x in _leaves(t, Pair))


def _parsed_by(h: NominalHierarchy, t) -> bool:
    """Whether t is a Pair or Union, of exactly those classes, that
    ``parse_type`` built over this very hierarchy object, so that it holds
    only h's own leaves.  A value without a record (built by a constructor,
    copied, unpickled, or made by __new__) reads as None through getattr's
    default, which costs an unparsed root about half of what catching the
    unset slot's AttributeError costs."""
    kind = type(t)
    return (kind is Pair or kind is Union) and getattr(t, "_parsed", None) is h


def validate_type(h: NominalHierarchy, t: TypeExpr, nonempty: bool = False) -> None:
    """Raise UnknownName for the leftmost name in t that h does not declare
    with the same text and kind; with nonempty, raise EmptyAbstract there
    instead if the name is abstract without concrete descendants.  That is
    what normalizing t raises in semantic mode, without building it.

    A tree that ``parse_type`` built over h (``_parsed_by``) needs no walk
    unless nonempty asks and h declares a childless abstract name."""
    if not (nonempty and h._childless) and _parsed_by(h, t):
        return
    leaves = h._name_types
    todo = [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Name):
            n = x.name
            # The hierarchy's own leaf needs no lookup.
            if x is not leaves.get(n.text):
                n = h.lookup(n)
            if nonempty and n.text in h._childless:
                raise EmptyAbstract(f"abstract name {n} has no concrete descendants")
        else:
            todo.append(x.right)
            todo.append(x.left)


# File format: one declaration per line, '#' comments, e.g.
#   abstract Num
#   concrete Int <: Real
_DECL_RE = re.compile(
    rf"^(abstract|concrete)\s+({_NAME_RE.pattern})(?:\s*<:\s*({_NAME_RE.pattern}))?$"
)


def parse_hierarchy(text: str) -> NominalHierarchy:
    decls = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DECL_RE.match(line)
        if m is None:
            raise HierarchySyntaxError(f"line {lineno}: cannot parse {line!r}")
        kind, name, parent = m.groups()
        decls.append(Decl(name, kind == "abstract", parent))
    return validate_hierarchy(decls)


def _read_file(path: str | Path, error: type[TagsubError]) -> str:
    """The UTF-8 text of a file, without the byte-order mark that some editors
    write first; undecodable bytes raise error, a TagsubError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text: {err}") from None


def load_hierarchy(path: str | Path) -> NominalHierarchy:
    return parse_hierarchy(_read_file(path, HierarchySyntaxError))


#: Small numeric tower used throughout the docs and as the CLI default.
DEFAULT_HIERARCHY = validate_hierarchy(
    [
        Decl("Num", abstract=True),
        Decl("Real", abstract=True, parent="Num"),
        Decl("Int", abstract=False, parent="Real"),
        Decl("Flt", abstract=False, parent="Real"),
        Decl("Cmplx", abstract=False, parent="Num"),
        Decl("Str", abstract=False),
    ]
)
