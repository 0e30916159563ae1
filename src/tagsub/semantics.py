"""Tag interpretation of types and the set-based subtyping oracles.

A type denotes a finite set of run-time tags.  Two interpretations exist:
the plain one, where an abstract name denotes its concrete descendants, and
the atomic one, which additionally seeds every abstract name with a sentinel
standing for a not-yet-declared future subtype.  Subtyping is set inclusion
of interpretations; the matching relation gives an equivalent, syntactic
account of tag membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    Name,
    NominalHierarchy,
    NominalName,
    Pair,
    TagsubError,
    TypeExpr,
    Union,
    _leaves,
    _Value,
    abstract_descendants,
    concrete_descendants,
    is_value_type,
    nominal_subtype,
    validate_type,
)


class NotAValueType(TagsubError):
    pass


class Mode(Enum):
    SEMANTIC = "semantic"
    ATOMIC = "atomic"


@dataclass(init=False, repr=False, eq=False, slots=True)
class Concrete(_Value):
    """The tag of a value of a concrete name."""

    name: NominalName

    def __init__(self, name: NominalName):
        _set_concrete_name(self, name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name,) == (other.name,)

    def __hash__(self):
        return hash((self.name,))

    def __str__(self) -> str:
        return _render_tag(self, False)


@dataclass(init=False, repr=False, eq=False, slots=True)
class PairTag(_Value):
    """The tag of a pair value: the tags of its two components."""

    left: "Tag"
    right: "Tag"

    def __init__(self, left: Tag, right: Tag):
        _set_pair_tag_left(self, left)
        _set_pair_tag_right(self, right)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))

    def __str__(self) -> str:
        return _render_tag(self, False)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Sentinel(_Value):
    """Placeholder tag for a future concrete subtype of an abstract name."""

    owner: NominalName

    def __init__(self, owner: NominalName):
        _set_sentinel_owner(self, owner)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.owner,) == (other.owner,)

    def __hash__(self):
        return hash((self.owner,))

    def __str__(self) -> str:
        return _render_tag(self, False)


# The set-based oracle builds and hashes tags in its inner loops, so each tag
# spells out the methods that _Value would give it generically, as Name does.
_set_concrete_name = Concrete.name.__set__
_set_pair_tag_left, _set_pair_tag_right = PairTag.left.__set__, PairTag.right.__set__
_set_sentinel_owner = Sentinel.owner.__set__

Tag = Concrete | PairTag | Sentinel


def _render_tag(t: Tag, is_right: bool) -> str:
    if isinstance(t, Concrete):
        return t.name.text
    if isinstance(t, Sentinel):
        return f"E({t.owner.text})"
    body = _render_tag(t.left, False) + "*" + _render_tag(t.right, True)
    return f"({body})" if is_right else body


def tag_key(t: Tag):
    """Total order on tags: concrete < pair < sentinel, then lexicographic."""
    if isinstance(t, Concrete):
        return (0, t.name.text)
    if isinstance(t, PairTag):
        return (1, tag_key(t.left), tag_key(t.right))
    return (2, t.owner.text)


def format_tag_set(tags: frozenset[Tag] | set[Tag]) -> str:
    return "{" + ", ".join(str(t) for t in sorted(tags, key=tag_key)) + "}"


def tag_to_type(t: Tag) -> TypeExpr:
    """The value type a (sentinel-free) tag corresponds to."""
    if isinstance(t, Concrete):
        return Name(t.name)
    if isinstance(t, PairTag):
        return Pair(tag_to_type(t.left), tag_to_type(t.right))
    raise NotAValueType(f"sentinel tag {t} has no syntactic counterpart")


def type_to_tag(v: TypeExpr) -> Tag:
    if isinstance(v, Name) and not v.name.abstract:
        return Concrete(v.name)
    if isinstance(v, Pair):
        return PairTag(type_to_tag(v.left), type_to_tag(v.right))
    raise NotAValueType(f"not a value type: {v}")


def interp(h: NominalHierarchy, t: TypeExpr, mode: Mode = Mode.SEMANTIC) -> frozenset[Tag]:
    """The set of tags inhabiting t under the given interpretation."""
    if isinstance(t, Name):
        n = h.lookup(t.name)
        if not n.abstract:
            return frozenset((Concrete(n),))
        tags: list[Tag] = [Concrete(c) for c in concrete_descendants(h, n)]
        if mode is Mode.ATOMIC:
            tags.extend(Sentinel(a) for a in abstract_descendants(h, n))
        return frozenset(tags)
    if isinstance(t, Pair):
        return frozenset(
            PairTag(l, r)
            for l in interp(h, t.left, mode)
            for r in interp(h, t.right, mode)
        )
    return frozenset().union(*[interp(h, a, mode) for a in _leaves(t, Union)])


def matches(h: NominalHierarchy, v: TypeExpr, t: TypeExpr) -> bool:
    """True iff the value type v matches t (tag membership, syntactically).

    Concrete names match themselves and their transitive abstract ancestors,
    pairs match componentwise, unions match through either arm.  Undeclared
    names raise ``UnknownName``, v's before t's, whichever arm they are in.
    """
    if not is_value_type(v):
        raise NotAValueType(f"not a value type: {v}")
    validate_type(h, v)
    validate_type(h, t)
    return _matches(h, v, t)


def _matches(h: NominalHierarchy, v: TypeExpr, t: TypeExpr) -> bool:
    if isinstance(t, Union):
        return any(_matches(h, v, a) for a in _leaves(t, Union))
    if isinstance(t, Name):
        return isinstance(v, Name) and nominal_subtype(h, v.name, t.name)
    return isinstance(v, Pair) and _matches(h, v.left, t.left) and _matches(h, v.right, t.right)


def semantic_sub(
    h: NominalHierarchy, t1: TypeExpr, t2: TypeExpr, mode: Mode = Mode.SEMANTIC
) -> bool:
    """Reference oracle: inclusion of tag interpretations."""
    return interp(h, t1, mode) <= interp(h, t2, mode)


def matching_sub(h: NominalHierarchy, t1: TypeExpr, t2: TypeExpr) -> bool:
    """Oracle via the matching relation; defined for the plain mode only.

    Quantifying over all value types reduces to the members of t1's
    interpretation, because matching t1 coincides with membership in it.
    Undeclared names raise ``UnknownName``, t1's before t2's.
    """
    tags = interp(h, t1, Mode.SEMANTIC)
    validate_type(h, t2)
    return all(_matches(h, tag_to_type(v), t2) for v in tags)
