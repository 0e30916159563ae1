"""Concrete syntax for types: a one-pass scanner, an iterative parser and a printer.

Grammar (ASCII; the unicode operators are accepted as input aliases):

    type    := union
    union   := prod ('|' prod)*
    prod    := primary ('*' primary)*
    primary := NAME | '(' type ')'

'|' and '*' are left-associative and '*' binds tighter, so A*B*C parses as
(A*B)*C and A|B*C as A|(B*C).  NAME is [A-Za-z][A-Za-z0-9_]*.  Printing uses
minimal parentheses and round-trips through the parser.

One regex scan turns the whole source into (kind, text, pos) tokens, so a bad
character anywhere wins over an earlier unknown name.  One loop then parses
them with the union and product so far and an explicit stack of open groups,
so parentheses nest to any depth without recursion.
"""

from __future__ import annotations

import re

from .core import Name, NominalHierarchy, Pair, TagsubError, TypeExpr, Union, UnknownName


class ParseError(TagsubError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Whitespace matches no group, so finditer skips it; \s is exactly str.isspace.
_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)|([*×|∪()])|(\S)")
_ALIAS = {"×": "*", "∪": "|"}


def _scan(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        name, op, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", m.start())
        tokens.append(("name", name, m.start()) if op is None else (_ALIAS.get(op, op), op, m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


def parse_type(src: str, h: NominalHierarchy) -> TypeExpr:
    """Parse a type expression, resolving every name against h."""
    tokens = iter(_scan(src))
    groups: list[tuple[TypeExpr | None, TypeExpr | None]] = []  # (union, prod) outside each open '('
    union = prod = None
    while True:
        # Expect a primary: open groups until a name completes an operand.
        kind, text, pos = next(tokens)
        if kind == "(":
            groups.append((union, prod))
            union = prod = None
            continue
        if kind != "name":
            raise ParseError(f"expected a name or '(', got {text!r}", pos)
        try:
            t: TypeExpr = Name(h.lookup(text))
        except UnknownName:
            raise UnknownName(f"unknown name {text!r} at position {pos}", pos) from None
        # Fold the operand in, then close groups until an operator asks for the next one.
        while True:
            prod = t if prod is None else Pair(prod, t)
            kind, text, pos = next(tokens)
            if kind == "*":
                break
            union = prod if union is None else Union(union, prod)
            prod = None
            if kind == "|":
                break
            if not groups:
                if kind != "end":
                    raise ParseError(f"unexpected {text!r}", pos)
                return union
            if kind != ")":
                raise ParseError("expected ')'", pos)
            t = union
            union, prod = groups.pop()


def print_type(t: TypeExpr) -> str:
    """Minimal-parenthesis rendering; inverse of parse_type."""
    return str(t)
