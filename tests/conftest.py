from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings

from tagsub.core import DEFAULT_HIERARCHY, Decl, Name, NominalHierarchy, Pair, Union, validate_hierarchy
from tagsub.frontend import parse_type

# Set-valued checks over wide interpretations can exceed the default 200ms
# deadline on a busy machine; wall-clock bounds are asserted explicitly where
# they are part of the contract.
settings.register_profile("tagsub", deadline=None)
settings.load_profile("tagsub")

TOWER = DEFAULT_HIERARCHY

#: The default hierarchy extended with a new concrete leaf under Real.
EXTENDED = validate_hierarchy(
    [*(Decl(n.text, n.abstract, p.text if (p := TOWER.parent(n)) else None) for n in TOWER.names),
     Decl("Int8", abstract=False, parent="Real")]
)


def T(src: str, h: NominalHierarchy = TOWER):
    return parse_type(src, h)


def nested(kind, items, right: bool):
    """items joined by kind (Pair or Union), nested to the right or to the left."""
    if right:
        out = items[-1]
        for x in reversed(items[:-1]):
            out = kind(x, out)
        return out
    out = items[0]
    for x in items[1:]:
        out = kind(out, x)
    return out


def type_exprs(h: NominalHierarchy = TOWER, max_leaves: int = 8):
    """Hypothesis strategy for well-formed types over h."""
    names = st.sampled_from([Name(n) for n in h.names])
    return st.recursive(
        names,
        lambda kids: st.builds(Pair, kids, kids) | st.builds(Union, kids, kids),
        max_leaves=max_leaves,
    )


def value_type_exprs(h: NominalHierarchy = TOWER, max_leaves: int = 6):
    names = st.sampled_from([Name(n) for n in h.concrete_names])
    return st.recursive(
        names, lambda kids: st.builds(Pair, kids, kids), max_leaves=max_leaves
    )
