"""Type enumeration and seeded random generation for tests and experiments.

Depth counts nesting: names have depth 1, so the default six-name hierarchy
has 78 types of depth at most 2.  Random hierarchies produced here always
give every abstract name at least one concrete descendant, keeping every
type normalizable.
"""

from __future__ import annotations

import random

from .core import (
    Decl,
    Name,
    NominalHierarchy,
    Pair,
    TypeExpr,
    Union,
    validate_hierarchy,
)
from .normalize import nf_weight


def atom_types(h: NominalHierarchy) -> list[TypeExpr]:
    return [Name(n) for n in h.names]


def _layers(base: list[TypeExpr], depth: int, ctors) -> list[TypeExpr]:
    # base, then depth - 1 times base followed by each of ctors over every
    # ordered pair of the layer before.
    out = base
    for _ in range(depth - 1):
        out = base + [ctor(a, b) for ctor in ctors for a in out for b in out]
    return out


def types_up_to(h: NominalHierarchy, depth: int) -> list[TypeExpr]:
    """All types of depth <= depth, duplicate-free, in a deterministic order."""
    return _layers(atom_types(h), depth, (Pair, Union))


def value_types_up_to(h: NominalHierarchy, depth: int) -> list[TypeExpr]:
    return _layers([Name(n) for n in h.concrete_names], depth, (Pair,))


def random_type(
    rng: random.Random,
    h: NominalHierarchy,
    max_depth: int = 4,
    max_nf_weight: int | None = None,
) -> TypeExpr:
    """A random well-formed type of depth <= max_depth.

    With ``max_nf_weight`` set, candidates whose normal form would exceed
    that many leaves are rejected and redrawn, keeping normalization-based
    work bounded without restricting depth.
    """
    while True:
        t = _random_type(rng, h, max_depth)
        if max_nf_weight is None or nf_weight(h, t) <= max_nf_weight:
            return t


def _random_type(rng: random.Random, h: NominalHierarchy, max_depth: int) -> TypeExpr:
    if max_depth <= 1 or rng.random() < 0.45:
        return Name(rng.choice(h.names))
    ctor = Pair if rng.random() < 0.5 else Union
    return ctor(
        _random_type(rng, h, max_depth - 1), _random_type(rng, h, max_depth - 1)
    )


def random_hierarchy(rng: random.Random, max_names: int = 12) -> NominalHierarchy:
    """A random forest in which no abstract name is childless."""
    count = rng.randint(1, max_names)
    kinds = [rng.random() < 0.4 for _ in range(count)]  # True = abstract
    parents: list[int | None] = []
    for i in range(count):
        abstract_above = [j for j in range(i) if kinds[j]]
        if abstract_above and rng.random() < 0.7:
            parents.append(rng.choice(abstract_above))
        else:
            parents.append(None)
    # Demote childless abstract names to concrete so every abstract name has
    # a concrete descendant.  Reverse order handles chains in one pass.
    children = {i: [j for j in range(count) if parents[j] == i] for i in range(count)}
    for i in reversed(range(count)):
        if kinds[i] and not children[i]:
            kinds[i] = False
    decls = [
        Decl(
            f"N{i}",
            abstract=kinds[i],
            parent=None if parents[i] is None else f"N{parents[i]}",
        )
        for i in range(count)
    ]
    return validate_hierarchy(decls)
