"""Declarative subtyping as explicit, independently checkable proof trees.

The declarative system has general reflexivity and transitivity, nominal
axioms, an axiom equating an abstract name with the union of its concrete
descendants, union introduction and elimination, and the two rules that
distribute pairs over unions.  :func:`synthesize` compiles a reductive trace
into a declarative derivation; :func:`derive_sub_nf` and
:func:`derive_nf_sub` construct the two halves of the proof that a type is
equivalent to its normal form.  Both come from one bottom-up builder, which
normalizes each subterm once, builds each node once and only if it returns
it, and only orients the rules per direction.
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
    # An SR-UnionR step whose left side is its arm itself becomes the bare
    # axiom, so the premise's derivation of arm <: arm is never built.
    rule, lhs = tr.rule, tr.lhs
    if rule == SR_BASE_REFL:
        return _refl(lhs)
    if rule == SR_NOM:
        rhs = tr.rhs
        return _refl(lhs) if lhs is rhs or _same(lhs, rhs) else Derivation(SD_NOM, lhs, rhs)
    if rule == SR_PAIR or rule == SR_UNION_L:
        p, q = tr.premises
        premises = (_synth(h, p, mode), _synth(h, q, mode))
        return Derivation(SD_PAIR if rule == SR_PAIR else SD_UNION_L, lhs, tr.rhs, premises)
    if rule == SR_UNION_R1 or rule == SR_UNION_R2:
        target = tr.rhs
        arm = target.left if rule == SR_UNION_R1 else target.right
        d = None if lhs is arm or _same(lhs, arm) else _synth(h, tr.premises[0], mode)
        return _inj(d, target, SD_UNION_R1 if rule == SR_UNION_R1 else SD_UNION_R2)
    if rule == SR_NF:
        return _trans(derive_sub_nf(h, lhs, mode), _synth(h, tr.premises[0], mode))
    raise InvalidTrace(f"unknown rule {rule!r}")


def _trans(d1: Derivation, d2: Derivation) -> Derivation:
    """SD-Trans from d1: a <: b and d2: b <: c, with witness b."""
    return Derivation(SD_TRANS, d1.lhs, d2.rhs, (d1, d2), d1.rhs)


def _inj(d: Derivation | None, target: Union, rule: str) -> Derivation:
    """Lift d: a <: arm to a <: target, arm being the side of target that
    the injection rule (SD-UnionR1 or SD-UnionR2) names; d is None when a
    is arm itself, which the bare axiom derives."""
    axiom = Derivation(rule, target.left if rule == SD_UNION_R1 else target.right, target)
    return axiom if d is None else _trans(d, axiom)


def _armwise(lhs: Union, target: Union, d1, d2) -> Derivation:
    """Derive lhs <: target from d1: lhs.left <: target.left and d2:
    lhs.right <: target.right, None standing for an arm that is its target's."""
    premises = (_inj(d1, target, SD_UNION_R1), _inj(d2, target, SD_UNION_R2))
    return Derivation(SD_UNION_L, lhs, target, premises)


def derive_sub_nf(
    h: NominalHierarchy, t: TypeExpr, mode: Mode = Mode.SEMANTIC
) -> Derivation:
    """A checkable derivation of t <: NF(t) (mode-appropriate normal form)."""
    return _nf_proof(h, t, mode, False)[1] or _refl(t)


def derive_nf_sub(
    h: NominalHierarchy, t: TypeExpr, mode: Mode = Mode.SEMANTIC
) -> Derivation:
    """A checkable derivation of NF(t) <: t (mode-appropriate normal form)."""
    return _nf_proof(h, t, mode, True)[1] or _refl(t)


def _nf_proof(
    h: NominalHierarchy, t: TypeExpr, mode: Mode, down: bool
) -> tuple[TypeExpr, Derivation | None]:
    """NF(t) and a derivation of t <: NF(t), or of NF(t) <: t when down, or
    None if NF(t) is t, built bottom up: a name is normalized once, and a
    union or a pair builds its normal form from its children's.  ``down``
    only orients the rules."""
    if isinstance(t, Name):
        normed = nf_for_mode(h, t, mode)
        if normed is t:  # nf_for_mode returns a name it keeps as the name itself
            return t, None
        # Abstract name in the plain mode; its normal form is the canonical
        # union of concrete descendants, which the search proves below t by
        # SR-UnionL over SR-Nom leaves.
        if down:
            return normed, _synth(h, _decide(h, normed, t, mode), mode)
        return normed, Derivation(SD_ABS_UNION, t, normed)
    ln, dl = _nf_proof(h, t.left, mode, down)
    rn, dr = _nf_proof(h, t.right, mode, down)
    if isinstance(t, Union):
        if dl is None and dr is None:
            return t, None
        normed = Union(ln, rn)
        return normed, _armwise(normed, t, dl, dr) if down else _armwise(t, normed, dl, dr)
    spread = isinstance(ln, Union) or isinstance(rn, Union)
    if dl is None and dr is None and not spread:
        return t, None
    # Pair: componentwise between t and the pair of normal forms, and
    # distribution between that pair and NF(t).
    mid = Pair(ln, rn)
    lhs, rhs = (mid, t) if down else (t, mid)
    componentwise = Derivation(SD_PAIR, lhs, rhs, (dl or _refl(ln), dr or _refl(rn)))
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


def _pair_below_unprs(p: Pair) -> Derivation | None:
    """Derivation of p <: u, u being the union that distributing p reaches,
    for p a pair of normalized types; None if p has no union to distribute."""
    rule = SD_DISTR1 if type(p.left) is Union else SD_DISTR2
    u = _distribute(p, rule)
    if u is None:
        return None
    da, db = _pair_below_unprs(u.left), _pair_below_unprs(u.right)
    target = Union(u.left if da is None else da.rhs, u.right if db is None else db.rhs)
    return _trans(Derivation(rule, p, u), _armwise(u, target, da, db))


def _unprs_below_pair(target: Pair) -> Derivation | None:
    """Derivation of u <: target, u being the union that distributing target
    reaches, for target a pair of normalized types; None if it has no union."""
    rule = SD_DISTR1 if type(target.left) is Union else SD_DISTR2
    u = _distribute(target, rule)
    if u is None:
        return None

    def arm(p: Pair, inj: str) -> Derivation:
        # u_p <: p <: target, widening the component that was split.
        if rule == SD_DISTR1:
            widen_parts = (Derivation(inj, p.left, target.left), _refl(p.right))
        else:
            widen_parts = (_refl(p.left), Derivation(inj, p.right, target.right))
        widen = Derivation(SD_PAIR, p, target, widen_parts)
        sub = _unprs_below_pair(p)
        return widen if sub is None else _trans(sub, widen)

    da, db = arm(u.left, SD_UNION_R1), arm(u.right, SD_UNION_R2)
    return Derivation(SD_UNION_L, Union(da.lhs, db.lhs), target, (da, db))


def format_derivation(d: Derivation) -> str:
    """Trace-style rendering with ``witness:`` lines on SD-Trans nodes."""
    return format_trace(d)
