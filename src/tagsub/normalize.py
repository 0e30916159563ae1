"""Disjunctive normal form of types and its abstract-preserving variant.

``nf`` rewrites a type into a union of value types: abstract names become
unions of their concrete descendants and pairs distribute over unions.
``nf_atomic`` distributes pairs the same way but keeps abstract names fixed.
No flattening, reordering or deduplication happens beyond these clauses.
"""

from __future__ import annotations

from .core import (
    EmptyAbstract,
    Name,
    NominalHierarchy,
    NominalName,
    Pair,
    TypeExpr,
    Union,
    _leaves,
    abstract_descendants,
    concrete_descendants,
    is_value_type,
)
from .semantics import Mode


def descendant_union(h: NominalHierarchy, n: str | NominalName) -> TypeExpr:
    """Left-nested union of n's concrete descendants in declaration order.

    Built once per hierarchy and name: every caller shares the one object,
    so comparing two of them succeeds by identity."""
    n = h.lookup(n)
    out = h._unions.get(n.text)
    if out is None:
        cs = h._concrete_desc[n.text]
        if not cs:
            raise EmptyAbstract(f"abstract name {n} has no concrete descendants")
        out = Name(cs[0])
        for c in cs[1:]:
            out = Union(out, Name(c))
        h._unions[n.text] = out
    return out


def un_prs(t1: TypeExpr, t2: TypeExpr) -> TypeExpr:
    # Left-union clause takes precedence over the right-union clause.
    if isinstance(t1, Union):
        return Union(un_prs(t1.left, t2), un_prs(t1.right, t2))
    if isinstance(t2, Union):
        return Union(un_prs(t1, t2.left), un_prs(t1, t2.right))
    return Pair(t1, t2)


def nf_for_mode(h: NominalHierarchy, t: TypeExpr, mode: Mode) -> TypeExpr:
    """Distribute pairs over unions; in semantic mode also expand abstract names."""
    if isinstance(t, Name):
        if h.lookup(t.name).abstract and mode is Mode.SEMANTIC:
            return descendant_union(h, t.name)
        return t
    if isinstance(t, Pair):
        return un_prs(nf_for_mode(h, t.left, mode), nf_for_mode(h, t.right, mode))
    return Union(nf_for_mode(h, t.left, mode), nf_for_mode(h, t.right, mode))


def nf(h: NominalHierarchy, t: TypeExpr) -> TypeExpr:
    return nf_for_mode(h, t, Mode.SEMANTIC)


def in_nf(t: TypeExpr) -> bool:
    return all(is_value_type(a) for a in _leaves(t, Union))


def nf_atomic(h: NominalHierarchy, t: TypeExpr) -> TypeExpr:
    return nf_for_mode(h, t, Mode.ATOMIC)


def in_nf_atomic(t: TypeExpr) -> bool:
    # Every arm is a tree of pairs over names; a union inside a pair disqualifies.
    return all(isinstance(x, Name) for a in _leaves(t, Union) for x in _leaves(a, Pair))


def nf_weight(h: NominalHierarchy, t: TypeExpr) -> int:
    """Upper bound on the number of leaves of either normal form of t.

    Names weigh as many tags as they can expand to, unions add, pairs
    multiply; deep pair nests over wide names blow up exponentially, which is
    exactly what this estimate lets callers guard against.
    """
    if isinstance(t, Name):
        if not t.name.abstract:
            return 1
        return len(concrete_descendants(h, t.name)) + len(abstract_descendants(h, t.name))
    if isinstance(t, Pair):
        return nf_weight(h, t.left) * nf_weight(h, t.right)
    return sum(nf_weight(h, a) for a in _leaves(t, Union))
