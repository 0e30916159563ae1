"""Declarative subtyping as explicit, independently checkable proof trees.

The declarative system has general reflexivity and transitivity, nominal
axioms, an axiom equating an abstract name with the union of its concrete
descendants, union introduction and elimination, and the two rules that
distribute pairs over unions.  :func:`synthesize` compiles a reductive trace
into a declarative derivation; :func:`derive_sub_nf` and
:func:`derive_nf_sub` construct the two halves of the proof that a type is
equivalent to its normal form.  Both come from one bottom-up builder, which
normalizes each subterm once and only orients the rules per direction.
"""

from __future__ import annotations

from .core import Name, NominalHierarchy, Pair, TagsubError, TypeExpr, Union
from .normalize import descendant_union, nf_for_mode
from .semantics import Mode
from .subtyping import (
    SR_BASE_REFL,
    SR_NF,
    SR_NOM,
    SR_PAIR,
    SR_UNION_L,
    SR_UNION_R1,
    SR_UNION_R2,
    ReductiveTrace,
    _accepted,
    _decide,
    _declared,
    _kernel,
    _pair,
    _ProofTree,
    _same,
    _set_lhs,
    _set_premises,
    _set_rhs,
    _set_rule,
    _union_l,
    format_trace,
)

SD_REFL = "SD-Refl"
SD_TRANS = "SD-Trans"
SD_NOM = "SD-Nom"
SD_ABS_UNION = "SD-AbsUnion"
SD_PAIR = "SD-Pair"
SD_UNION_L = "SD-UnionL"
SD_UNION_R1 = "SD-UnionR1"
SD_UNION_R2 = "SD-UnionR2"
SD_DISTR1 = "SD-Distr1"
SD_DISTR2 = "SD-Distr2"


class InvalidTrace(TagsubError):
    pass


class Derivation(_ProofTree):
    __slots__ = ("witness",)  # the intermediate type of SD-Trans
    __match_args__ = (*_ProofTree.__match_args__, "witness")

    def __init__(
        self,
        rule: str,
        lhs: TypeExpr,
        rhs: TypeExpr,
        premises: tuple["Derivation", ...] = (),
        witness: TypeExpr | None = None,
    ):
        _set_rule(self, rule)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_premises(self, premises)
        _set_witness(self, witness)


_set_witness = Derivation.witness.__set__


def _refl(t: TypeExpr) -> Derivation:
    return Derivation(SD_REFL, t, t)


def check_declarative(
    h: NominalHierarchy, d: Derivation, mode: Mode = Mode.SEMANTIC
) -> bool:
    """True iff the root judgement relates two types of h and every node
    instantiates its rule schema under the mode.

    The atomic mode rejects SD-AbsUnion nodes; everything else is shared.
    As in :func:`check_reductive_trace`, whose walk this is, every side that
    a rule reads is compared class by class and name by name (``_same``),
    never by a value's own ``==``.  An SD-Trans witness is not tested, and
    need not be: a value that is no type of h is then the same as itself
    only, so it acts as a fresh name that only SD-Refl and the structural
    rules can relate, and SD-Nom and SD-AbsUnion read only names that h
    declares (``_declared``).  Depth is unbounded, and malformed trees, a
    node or a type whose slots were never set among them, yield False
    rather than raising.
    """
    return _kernel(h, d, Derivation, mode, _step, True) is not None


def _step(h, d: Derivation, mode: Mode, flag: bool):
    # The declarative rule table, as _check is the reductive one.
    rule, lhs, rhs, w = d.rule, d.lhs, d.rhs, d.witness
    if type(rule) is not str:
        return None
    if rule == SD_TRANS:
        return (lhs, w, flag), (w, rhs, flag)
    if w is not None:
        return None
    if rule == SD_NOM:
        n = lhs.name if type(lhs) is Name else None
        m = rhs.name if type(rhs) is Name else None
        ok = _declared(h, n) and _declared(h, m) and m.text != n.text and m.text in h._above[n.text]
    elif rule == SD_UNION_R1 or rule == SD_UNION_R2:
        ok = type(rhs) is Union and _same(lhs, rhs.left if rule == SD_UNION_R1 else rhs.right)
    elif rule == SD_UNION_L:
        return _union_l(lhs, rhs, flag)
    elif rule == SD_REFL:
        ok = _same(lhs, rhs)
    elif rule == SD_PAIR:
        return _pair(lhs, rhs, flag)
    elif rule == SD_ABS_UNION:
        n = lhs.name if type(lhs) is Name else None
        ok = mode is not Mode.ATOMIC and _declared(h, n) and n.abstract
        ok = ok and bool(h._concrete_desc[n.text]) and _same(rhs, descendant_union(h, n))
    elif rule == SD_DISTR1 or rule == SD_DISTR2:
        u = _distribute(lhs, rule) if type(lhs) is Pair else None
        ok = u is not None and _same(rhs, u)
    else:
        return None
    return () if ok else None


def synthesize(
    h: NominalHierarchy, trace: ReductiveTrace, mode: Mode = Mode.SEMANTIC
) -> Derivation:
    """Compile a valid reductive trace into a declarative derivation.

    Most reductive rules have a direct counterpart; the right-union rules
    need one extra transitivity step through the chosen arm, and a
    normalization step becomes transitivity through the normal form, whose
    left half is supplied by :func:`derive_sub_nf`.
    """
    trace = _accepted(h, trace, mode)
    if trace is None:
        raise InvalidTrace("trace does not satisfy the reductive rule schemas")
    return _synth(h, trace, mode)


def _synth(h, tr: ReductiveTrace, mode: Mode) -> Derivation:
    if tr.rule == SR_BASE_REFL:
        return _refl(tr.lhs)
    if tr.rule == SR_NOM:
        if tr.lhs == tr.rhs:
            return _refl(tr.lhs)
        return Derivation(SD_NOM, tr.lhs, tr.rhs)
    if tr.rule in (SR_PAIR, SR_UNION_L):
        rule = SD_PAIR if tr.rule == SR_PAIR else SD_UNION_L
        premises = tuple(_synth(h, p, mode) for p in tr.premises)
        return Derivation(rule, tr.lhs, tr.rhs, premises)
    if tr.rule in (SR_UNION_R1, SR_UNION_R2):
        inj = SD_UNION_R1 if tr.rule == SR_UNION_R1 else SD_UNION_R2
        return _inj(_synth(h, tr.premises[0], mode), tr.rhs, inj)
    if tr.rule == SR_NF:
        left = derive_sub_nf(h, tr.lhs, mode)
        return _trans(left, _synth(h, tr.premises[0], mode))
    raise InvalidTrace(f"unknown rule {tr.rule!r}")


def _trans(d1: Derivation, d2: Derivation) -> Derivation:
    """SD-Trans from d1: a <: b and d2: b <: c, with witness b."""
    return Derivation(SD_TRANS, d1.lhs, d2.rhs, (d1, d2), witness=d1.rhs)


def _inj(d: Derivation, target: Union, rule: str) -> Derivation:
    """Lift d: a <: arm to a <: target, arm being the side of target that
    the injection rule (SD-UnionR1 or SD-UnionR2) names."""
    arm = target.left if rule == SD_UNION_R1 else target.right
    axiom = Derivation(rule, arm, target)
    if d.lhs == arm:
        return axiom
    return _trans(d, axiom)


def _armwise(target: Union, d1: Derivation, d2: Derivation) -> Derivation:
    """Derive a1|a2 <: target from d1: a1 <: target.left, d2: a2 <: target.right."""
    return Derivation(
        SD_UNION_L,
        Union(d1.lhs, d2.lhs),
        target,
        (_inj(d1, target, SD_UNION_R1), _inj(d2, target, SD_UNION_R2)),
    )


def derive_sub_nf(
    h: NominalHierarchy, t: TypeExpr, mode: Mode = Mode.SEMANTIC
) -> Derivation:
    """A checkable derivation of t <: NF(t) (mode-appropriate normal form)."""
    return _nf_proof(h, t, mode, down=False)[1]


def derive_nf_sub(
    h: NominalHierarchy, t: TypeExpr, mode: Mode = Mode.SEMANTIC
) -> Derivation:
    """A checkable derivation of NF(t) <: t (mode-appropriate normal form)."""
    return _nf_proof(h, t, mode, down=True)[1]


def _nf_proof(
    h: NominalHierarchy, t: TypeExpr, mode: Mode, down: bool
) -> tuple[TypeExpr, Derivation]:
    """NF(t) and a derivation of t <: NF(t), or of NF(t) <: t when down,
    built bottom up: a name is normalized once, and a union or a pair builds
    its normal form from its children's.  ``down`` only orients the rules."""
    if isinstance(t, Name):
        normed = nf_for_mode(h, t, mode)
        if normed == t:
            return t, _refl(t)
        # Abstract name in the plain mode; its normal form is the canonical
        # union of concrete descendants, which the search proves below t by
        # SR-UnionL over SR-Nom leaves.
        if down:
            return normed, _synth(h, _decide(h, normed, t, mode), mode)
        return normed, Derivation(SD_ABS_UNION, t, normed)
    ln, dl = _nf_proof(h, t.left, mode, down)
    rn, dr = _nf_proof(h, t.right, mode, down)
    spread = isinstance(t, Pair) and (isinstance(ln, Union) or isinstance(rn, Union))
    if dl.rule == dr.rule == SD_REFL and not spread:
        return t, _refl(t)
    if isinstance(t, Union):
        normed = Union(ln, rn)
        return normed, _armwise(t if down else normed, dl, dr)
    # Pair: componentwise between t and the pair of normal forms, and
    # distribution between that pair and NF(t).
    mid = Pair(ln, rn)
    lhs, rhs = (mid, t) if down else (t, mid)
    componentwise = Derivation(SD_PAIR, lhs, rhs, (dl, dr))
    if not spread:
        return mid, componentwise
    if down:
        collapsed = _unprs_below_pair(mid)
        return collapsed.lhs, _trans(collapsed, componentwise)
    distributed = _pair_below_unprs(mid)
    return distributed.rhs, _trans(componentwise, distributed)


def _distribute(p: Pair, rule: str) -> Union | None:
    """The union that one SD-Distr1 step distributes p into, over its left
    component, or one SD-Distr2 step, over its right; None if no union is there."""
    x, y = p.left, p.right
    u = x if rule == SD_DISTR1 else y
    if type(u) is not Union:
        return None
    a, b = u.left, u.right
    if rule == SD_DISTR1:
        return Union(Pair(a, y), Pair(b, y))
    return Union(Pair(x, a), Pair(x, b))


def _pair_below_unprs(p: Pair) -> Derivation:
    """Derivation of p <: u, u being the union that distributing p reaches,
    for p a pair of normalized types."""
    rule = SD_DISTR1 if type(p.left) is Union else SD_DISTR2
    u = _distribute(p, rule)
    if u is None:
        return _refl(p)
    da, db = _pair_below_unprs(u.left), _pair_below_unprs(u.right)
    rest = _armwise(Union(da.rhs, db.rhs), da, db)
    return _trans(Derivation(rule, p, u), rest)


def _unprs_below_pair(target: Pair) -> Derivation:
    """Derivation of u <: target, u being the union that distributing target
    reaches, for target a pair of normalized types."""
    rule = SD_DISTR1 if type(target.left) is Union else SD_DISTR2
    u = _distribute(target, rule)
    if u is None:
        return _refl(target)

    def arm(p: Pair, inj: str) -> Derivation:
        # u_p <: p <: target, widening the component that was split.
        if rule == SD_DISTR1:
            widen_parts = (Derivation(inj, p.left, target.left), _refl(p.right))
        else:
            widen_parts = (_refl(p.left), Derivation(inj, p.right, target.right))
        widen = Derivation(SD_PAIR, p, target, widen_parts)
        sub = _unprs_below_pair(p)
        if sub.rule == SD_REFL:
            return widen
        return _trans(sub, widen)

    da, db = arm(u.left, SD_UNION_R1), arm(u.right, SD_UNION_R2)
    return Derivation(SD_UNION_L, Union(da.lhs, db.lhs), target, (da, db))


def format_derivation(d: Derivation) -> str:
    """Trace-style rendering with ``witness:`` lines on SD-Trans nodes."""
    return format_trace(d)
