"""Tag interpretation of types and the set-based subtyping oracles.

A type denotes a finite set of run-time tags.  A tag is a value type: the
tag of a value of a concrete name is that ``Name``, and the tag of a pair
value is the ``Pair`` of its components' tags, so ``Concrete`` and
``PairTag`` are other names for ``Name`` and ``Pair``.  Only ``Sentinel`` is
a tag of its own kind.  Two interpretations exist: the plain one, where an
abstract name denotes its concrete descendants, and the atomic one, which
additionally seeds every abstract name with a sentinel standing for a
not-yet-declared future subtype.  Subtyping is set inclusion of
interpretations; the matching relation gives an equivalent, syntactic
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


Concrete = Name
PairTag = Pair


# The set-based oracle builds and hashes tags in its inner loops, so the
# sentinel spells out the methods that _Value would give it generically.
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
        return f"E({self.owner.text})"


_set_sentinel_owner = Sentinel.owner.__set__

Tag = Name | Pair | Sentinel


def tag_key(t: Tag) -> tuple:
    """Total order on tags: concrete < pair < sentinel, then lexicographic.

    The key is flat, in pre-order: ``(0, text)`` for a name, ``1`` followed
    by both children's keys for a pair, ``(2, owner)`` for a sentinel.  No
    key is a prefix of another, so it sorts as the nested key would; it is
    built by one loop and compared without recursion, so depth is unbounded.
    """
    out, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Name):
            out += 0, x.name.text
        elif isinstance(x, Pair):
            out.append(1)
            todo += x.right, x.left
        else:
            out += 2, x.owner.text
    return tuple(out)


def format_tag_set(tags: frozenset[Tag] | set[Tag]) -> str:
    return "{" + ", ".join(str(t) for t in sorted(tags, key=tag_key)) + "}"


def tag_to_type(t: Tag) -> TypeExpr:
    """The value type a sentinel-free tag is: the tag itself."""
    for x in _leaves(t, Pair):
        if isinstance(x, Sentinel):
            raise NotAValueType(f"sentinel tag {x} has no syntactic counterpart")
    return t


def type_to_tag(v: TypeExpr) -> Tag:
    """The tag of the values of the value type v: v itself."""
    for x in _leaves(v, Pair):
        if not isinstance(x, Name) or x.name.abstract:
            raise NotAValueType(f"not a value type: {x}")
    return v


def interp(h: NominalHierarchy, t: TypeExpr, mode: Mode = Mode.SEMANTIC) -> frozenset[Tag]:
    """The set of tags inhabiting t under the given interpretation."""
    if isinstance(t, Name):
        n = h.lookup(t.name)
        if not n.abstract:
            return frozenset((Name(n),))
        tags: list[Tag] = [Name(c) for c in concrete_descendants(h, n)]
        if mode is Mode.ATOMIC:
            tags.extend(Sentinel(a) for a in abstract_descendants(h, n))
        return frozenset(tags)
    if isinstance(t, Pair):
        return frozenset(
            Pair(l, r)
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
    return all(_matches(h, v, t2) for v in tags)
