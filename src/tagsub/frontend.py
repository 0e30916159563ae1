"""Concrete syntax for types: an iterative parser over plain tokens and a printer.

Grammar (ASCII; the unicode operators are accepted as input aliases):

    type    := union
    union   := prod ('|' prod)*
    prod    := primary ('*' primary)*
    primary := NAME | '(' type ')'

'|' and '*' are left-associative and '*' binds tighter, so A*B*C parses as
(A*B)*C and A|B*C as A|(B*C).  NAME is [A-Za-z][A-Za-z0-9_]*.  Printing uses
minimal parentheses and round-trips through the parser.

One regex match first checks the whole source for a bad character, so a bad
character anywhere wins over an earlier unknown name.  One findall then splits
the source into plain token strings.  One loop parses that list with the union
and product so far and an explicit stack of open groups, so parentheses nest to
any depth without recursion.  Each name becomes its hierarchy's shared Name
leaf by one dict lookup.  Tokens carry no positions: an error rescans the
source for the position of the token it reports.
"""

from __future__ import annotations

import re
from itertools import islice

from .core import NominalHierarchy, Pair, TagsubError, TypeExpr, Union, UnknownName


class ParseError(TagsubError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Names, operators and whitespace (\s is exactly str.isspace).  A name takes
# every name character after it, so a match ends at the first bad character:
# one that no token starts with.  The two unicode operators sit outside the
# class: inside it they made the pattern three times as slow to compile, which
# every fresh process pays.
_CHECK_RE = re.compile(r"(?:[A-Za-z][A-Za-z0-9_]*|[*|()\s]|×|∪)*")
# Once checked, a word is a name and any other non-space is an operator; the
# empty match at the end of the source is the end token.
_TOKEN_RE = re.compile(r"\w+|\S|\Z")


def _position(src: str, i: int) -> int:
    """Where the i-th token of a checked source starts."""
    return next(islice(_TOKEN_RE.finditer(src), i, None)).start()


def parse_type(src: str, h: NominalHierarchy) -> TypeExpr:
    """Parse a type expression, resolving every name against h."""
    bad = _CHECK_RE.match(src).end()
    if bad < len(src):
        raise ParseError(f"unexpected character {src[bad]!r}", bad)
    tokens = _TOKEN_RE.findall(src)
    leaves = h._name_types
    groups: list[tuple[TypeExpr | None, TypeExpr | None]] = []  # (union, prod) outside each open '('
    union = prod = None
    i = 0
    while True:
        # Expect a primary: open groups until a name completes an operand.
        tok = tokens[i]
        i += 1
        if tok == "(":
            groups.append((union, prod))
            union = prod = None
            continue
        t = leaves.get(tok)
        if t is None:
            pos = _position(src, i - 1)
            if tok[:1].isalpha():
                raise UnknownName(f"unknown name {tok!r} at position {pos}", pos)
            raise ParseError(f"expected a name or '(', got {tok!r}", pos)
        # Fold the operand in, then close groups until an operator asks for the next one.
        while True:
            prod = t if prod is None else Pair(prod, t)
            tok = tokens[i]
            i += 1
            if tok == "*" or tok == "×":
                break
            union = prod if union is None else Union(union, prod)
            prod = None
            if tok == "|" or tok == "∪":
                break
            if not groups:
                if tok:
                    raise ParseError(f"unexpected {tok!r}", _position(src, i - 1))
                return union
            if tok != ")":
                raise ParseError("expected ')'", _position(src, i - 1))
            t = union
            union, prod = groups.pop()


def print_type(t: TypeExpr) -> str:
    """Minimal-parenthesis rendering; inverse of parse_type."""
    return str(t)
