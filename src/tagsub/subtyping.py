"""Reductive subtyping: a terminating decision procedure with proof traces.

One recursive procedure applies syntax-directed rules bottom up, either to
the normal form of the left-hand side or, normalizing locally where it gets
stuck, to the left-hand side itself; the only backtracking point is the
choice between the two right-union rules.  Every positive answer comes with
a trace that :func:`check_reductive_trace` can validate independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    Name,
    NominalHierarchy,
    Pair,
    TypeExpr,
    Union,
    UnknownName,
    nominal_subtype,
)
from .normalize import EmptyAbstract, nf_for_mode
from .semantics import Mode

SR_BASE_REFL = "SR-BaseRefl"
SR_NOM = "SR-Nom"
SR_PAIR = "SR-Pair"
SR_UNION_L = "SR-UnionL"
SR_UNION_R1 = "SR-UnionR1"
SR_UNION_R2 = "SR-UnionR2"
SR_NF = "SR-NF"


class Strategy(Enum):
    NORMALIZE_FIRST = "normalize-first"
    SHORT_PATH_FIRST = "short-path-first"


@dataclass(frozen=True)
class ReductiveTrace:
    rule: str
    lhs: TypeExpr
    rhs: TypeExpr
    premises: tuple["ReductiveTrace", ...] = ()

    def size(self) -> int:
        """Number of rule applications in the trace."""
        return 1 + sum(p.size() for p in self.premises)


def reductive_sub(
    h: NominalHierarchy,
    t1: TypeExpr,
    t2: TypeExpr,
    mode: Mode = Mode.SEMANTIC,
    strategy: Strategy = Strategy.NORMALIZE_FIRST,
) -> tuple[bool, ReductiveTrace | None]:
    """Decide t1 <: t2, returning the verdict and a trace when it holds.

    One syntax-directed procedure serves both strategies.  NORMALIZE_FIRST
    applies the normalization rule once at the root and runs it on the normal
    form.  SHORT_PATH_FIRST runs it on t1 itself, normalizing locally where no
    direct rule applies at a left-hand side that is an abstract name or a pair
    containing a union; if that search fails it falls back to NORMALIZE_FIRST,
    so both strategies always agree on the verdict.  The fallback is needed:
    ``Real*Int <: Int*Int|Flt*Int`` is provable only through a root SR-NF.
    """
    if strategy is Strategy.SHORT_PATH_FIRST:
        trace = _decide(h, t1, t2, mode, local_nf=True)
        if trace is not None:
            return True, trace
    trace = _decide(h, nf_for_mode(h, t1, mode), t2, mode, local_nf=False)
    if trace is None:
        return False, None
    return True, ReductiveTrace(SR_NF, t1, t2, (trace,))


def _nominal_step(h, lhs: Name, rhs: Name, mode: Mode) -> ReductiveTrace | None:
    n1, n2 = lhs.name, rhs.name
    if n1 == n2 and not n1.abstract:
        return ReductiveTrace(SR_BASE_REFL, lhs, rhs)
    if n1.abstract and mode is not Mode.ATOMIC:
        return None
    if nominal_subtype(h, n1, n2):
        return ReductiveTrace(SR_NOM, lhs, rhs)
    return None


def _decide(
    h, lhs: TypeExpr, rhs: TypeExpr, mode: Mode, local_nf: bool
) -> ReductiveTrace | None:
    # Without local_nf, lhs is expected to be in (mode-appropriate) normal form.
    if isinstance(lhs, Union):
        p1 = _decide(h, lhs.left, rhs, mode, local_nf)
        p2 = p1 and _decide(h, lhs.right, rhs, mode, local_nf)
        return p2 and ReductiveTrace(SR_UNION_L, lhs, rhs, (p1, p2))
    direct: ReductiveTrace | None = None
    if isinstance(rhs, Name):
        if isinstance(lhs, Name):
            direct = _nominal_step(h, lhs, rhs, mode)
    elif isinstance(rhs, Pair):
        if isinstance(lhs, Pair):
            p1 = _decide(h, lhs.left, rhs.left, mode, local_nf)
            p2 = p1 and _decide(h, lhs.right, rhs.right, mode, local_nf)
            direct = p2 and ReductiveTrace(SR_PAIR, lhs, rhs, (p1, p2))
    else:
        p = _decide(h, lhs, rhs.left, mode, local_nf)
        if p is not None:
            direct = ReductiveTrace(SR_UNION_R1, lhs, rhs, (p,))
        else:
            p = _decide(h, lhs, rhs.right, mode, local_nf)
            direct = p and ReductiveTrace(SR_UNION_R2, lhs, rhs, (p,))
    if direct is None and local_nf and _stuck_head(lhs, mode):
        sub = _decide(h, nf_for_mode(h, lhs, mode), rhs, mode, local_nf=False)
        if sub is not None:
            return ReductiveTrace(SR_NF, lhs, rhs, (sub,))
    return direct


def _stuck_head(lhs: TypeExpr, mode: Mode) -> bool:
    # Heads the syntax-directed rules cannot take apart without normalizing.
    if isinstance(lhs, Pair) and (
        isinstance(lhs.left, Union) or isinstance(lhs.right, Union)
    ):
        return True
    return mode is Mode.SEMANTIC and isinstance(lhs, Name) and lhs.name.abstract


def check_reductive_trace(
    h: NominalHierarchy, trace: ReductiveTrace, mode: Mode = Mode.SEMANTIC
) -> bool:
    """Validate a trace against the rule schemas, independently of the solver.

    The normalization rule may occur at most once on any root-to-leaf path.
    Malformed trees yield False rather than raising.
    """
    return _check(h, trace, mode, nf_allowed=True)


def _check(h, tr: ReductiveTrace, mode: Mode, nf_allowed: bool) -> bool:
    lhs, rhs, prem = tr.lhs, tr.rhs, tr.premises
    if tr.rule == SR_BASE_REFL:
        return (
            not prem
            and isinstance(lhs, Name)
            and lhs == rhs
            and not lhs.name.abstract
            and lhs.name in h.names
        )
    if tr.rule == SR_NOM:
        if prem or not (isinstance(lhs, Name) and isinstance(rhs, Name)):
            return False
        n1, n2 = lhs.name, rhs.name
        if n1.abstract and mode is not Mode.ATOMIC:
            return False
        if n1 == n2 and not n1.abstract:
            return False
        try:
            return nominal_subtype(h, n1, n2)
        except UnknownName:
            return False
    if tr.rule == SR_PAIR:
        return (
            isinstance(lhs, Pair)
            and isinstance(rhs, Pair)
            and len(prem) == 2
            and prem[0].lhs == lhs.left
            and prem[0].rhs == rhs.left
            and prem[1].lhs == lhs.right
            and prem[1].rhs == rhs.right
            and _check(h, prem[0], mode, nf_allowed)
            and _check(h, prem[1], mode, nf_allowed)
        )
    if tr.rule == SR_UNION_L:
        return (
            isinstance(lhs, Union)
            and len(prem) == 2
            and prem[0].lhs == lhs.left
            and prem[0].rhs == rhs
            and prem[1].lhs == lhs.right
            and prem[1].rhs == rhs
            and _check(h, prem[0], mode, nf_allowed)
            and _check(h, prem[1], mode, nf_allowed)
        )
    if tr.rule == SR_UNION_R1:
        return (
            isinstance(rhs, Union)
            and len(prem) == 1
            and prem[0].lhs == lhs
            and prem[0].rhs == rhs.left
            and _check(h, prem[0], mode, nf_allowed)
        )
    if tr.rule == SR_UNION_R2:
        return (
            isinstance(rhs, Union)
            and len(prem) == 1
            and prem[0].lhs == lhs
            and prem[0].rhs == rhs.right
            and _check(h, prem[0], mode, nf_allowed)
        )
    if tr.rule == SR_NF:
        if not nf_allowed or len(prem) != 1:
            return False
        try:
            normed = nf_for_mode(h, lhs, mode)
        except (EmptyAbstract, UnknownName):
            return False
        return (
            prem[0].lhs == normed
            and prem[0].rhs == rhs
            and _check(h, prem[0], mode, nf_allowed=False)
        )
    return False


def format_trace(trace: ReductiveTrace) -> str:
    """Indented one-rule-per-line rendering: ``RULE: lhs <: rhs``."""
    return "\n".join(_trace_lines(trace, 0))


def _trace_lines(tr: ReductiveTrace, depth: int) -> list[str]:
    lines = [f"{'  ' * depth}{tr.rule}: {tr.lhs} <: {tr.rhs}"]
    for p in tr.premises:
        lines.extend(_trace_lines(p, depth + 1))
    return lines
