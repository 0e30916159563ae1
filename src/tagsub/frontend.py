"""Concrete syntax for types: an iterative parser over plain tokens and a printer.

Grammar (ASCII; the unicode operators are accepted as input aliases):

    type    := union
    union   := prod ('|' prod)*
    prod    := primary ('*' primary)*
    primary := NAME | '(' type ')'

'|' and '*' are left-associative and '*' binds tighter, so A*B*C parses as
(A*B)*C and A|B*C as A|(B*C).  NAME is [A-Za-z][A-Za-z0-9_]*.  Printing uses
minimal parentheses and round-trips through the parser.

The source is split into plain token strings by str.split() once each
operator is padded with spaces, and the empty string ends the list.  One loop
parses that list with the union and product so far and an explicit stack of
open groups, so parentheses nest to any depth without recursion.  Each name
becomes its hierarchy's shared Name leaf by one dict lookup; the hierarchy
keeps leaves only for names of the grammar, so a token holding any other
character is never a name and a parse that succeeds has seen only names,
operators and whitespace.  Only an error runs the regex check of the whole
source, so a bad character anywhere still wins over an earlier unknown name
or a misplaced operator.  Tokens carry no positions: an error steps through
the source token by token to the one it reports.
"""

from __future__ import annotations

import re

from .core import (
    NominalHierarchy,
    Pair,
    TagsubError,
    TypeExpr,
    Union,
    UnknownName,
    _set_pair_left,
    _set_pair_right,
    _set_parsed,
    _set_union_left,
    _set_union_right,
)

_new = object.__new__  # a node of parse_type, before its slots are set


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


def _tokens(src: str) -> list[str]:
    """The tokens of src, then the end token ''."""
    out = (
        src.replace("(", " ( ")
        .replace(")", " ) ")
        .replace("*", " * ")
        .replace("|", " | ")
        .replace("×", " × ")
        .replace("∪", " ∪ ")
        .split()
    )
    out.append("")
    return out


def _error_position(src: str, tokens: list[str], i: int) -> int:
    """Raise at src's first bad character, if any; else return where
    tokens[i] starts: each token is the first occurrence of its text after
    the one before it, since only whitespace lies between them.
    """
    bad = _CHECK_RE.match(src).end()
    if bad < len(src):
        raise ParseError(f"unexpected character {src[bad]!r}", bad)
    if not tokens[i]:
        return len(src)
    pos = 0
    for tok in tokens[:i]:
        pos = src.find(tok, pos) + len(tok)
    return src.find(tokens[i], pos)


def parse_type(src: str, h: NominalHierarchy) -> TypeExpr:
    """Parse a type expression, resolving every name to h's own leaf.

    Every pair and union it builds records h (``core._parsed_by``), so that
    ``validate_type`` and the proof checkers need not walk it again.
    """
    tokens = _tokens(src)
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
            pos = _error_position(src, tokens, i - 1)
            if tok[:1].isalpha():
                raise UnknownName(f"unknown name {tok!r} at position {pos}", pos)
            raise ParseError(f"expected a name or '(', got {tok!r}", pos)
        # Fold the operand in, then close groups until an operator asks for the next one.
        while True:
            if prod is not None:
                # Made by __new__ and its three slot setters: the third
                # setter costs about what the constructor's call of
                # __init__ does, so a parse costs what it did.
                p = _new(Pair)
                _set_pair_left(p, prod)
                _set_pair_right(p, t)
                _set_parsed(p, h)
                t = p
            prod = t
            tok = tokens[i]
            i += 1
            if tok == "*" or tok == "×":
                break
            if union is not None:
                u = _new(Union)
                _set_union_left(u, union)
                _set_union_right(u, prod)
                _set_parsed(u, h)
                prod = u
            union, prod = prod, None
            if tok == "|" or tok == "∪":
                break
            if not groups:
                if tok:
                    raise ParseError(f"unexpected {tok!r}", _error_position(src, tokens, i - 1))
                return union
            if tok != ")":
                raise ParseError("expected ')'", _error_position(src, tokens, i - 1))
            t = union
            union, prod = groups.pop()


def print_type(t: TypeExpr) -> str:
    """Minimal-parenthesis rendering; inverse of parse_type."""
    return str(t)
