"""Reductive subtyping: a terminating decision procedure with proof traces.

A query is answered in two steps: the verdict first, the trace on demand.
The verdict decides inclusion of tag sets on the cover sets of the left-hand
side against a tree of the right-hand side's components (see :class:`_Node`),
without normalizing either side, so its cost depends on the number of
distinct cover sets rather than on a normal form.
A true verdict comes with a trace that the reductive search builds only
when it is first read: one recursive procedure that applies syntax-directed
rules bottom up, either to the normal form of the left-hand side or,
normalizing locally where it gets stuck, to the left-hand side itself; the
only backtracking point is the choice between the two right-union rules.
Every trace can be validated independently by :func:`check_reductive_trace`.
"""

from __future__ import annotations

from enum import Enum

from .core import (
    Name,
    NominalHierarchy,
    NominalName,
    Pair,
    TypeExpr,
    Union,
    _leaves,
    _parsed_by,
    _Value,
    concrete_descendants,
    validate_type,
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


class _ProofTree(_Value):
    """A reductive trace or a declarative derivation: a rule, ``lhs <: rhs``
    and premises.  A frozen record whose fields are its slots."""

    __slots__ = ("rule", "lhs", "rhs", "premises")
    __match_args__ = __slots__  # the constructor's fields, as ``repr`` shows them
    witness = None  # only a derivation's SD-Trans nodes have one

    def __init__(self, rule: str, lhs: TypeExpr, rhs: TypeExpr, premises: tuple = ()):
        _set_rule(self, rule)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_premises(self, premises)

    def size(self) -> int:
        """Number of rule applications in the tree, counted by one loop."""
        n, todo = 0, [self]
        while todo:
            n += 1
            todo.extend(todo.pop().premises)
        return n


_set_rule, _set_lhs, _set_rhs, _set_premises = (
    _ProofTree.__dict__[f].__set__ for f in _ProofTree.__slots__
)


class ReductiveTrace(_ProofTree):
    # _accepts: the (hierarchy, mode) pairs under which check_reductive_trace
    # accepted this root; no part of the value.
    __slots__ = ("_accepts",)

    # Equal across the class: a trace built on demand equals the eager one.
    def __eq__(self, other):
        if not isinstance(other, ReductiveTrace):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = _ProofTree.__hash__


_set_accepts = ReductiveTrace._accepts.__set__


class _OnDemandTrace(ReductiveTrace):
    """A positive trace whose rule and premises are searched for on first read."""

    __slots__ = ("_query",)

    def __init__(self, h, lhs: TypeExpr, rhs: TypeExpr, mode: Mode, strategy: Strategy):
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_query(self, (h, mode, strategy))
        _set_accepts(self, ())  # read by _accepted before the search, not through __getattr__

    def __getattr__(self, name):
        # Reached only for an unset slot: rule and premises before the search.
        if name not in ("rule", "premises"):
            raise AttributeError(name)
        h, mode, strategy = self._query
        root = _search(h, self.lhs, self.rhs, mode, strategy)
        _set_rule(self, root.rule)
        _set_premises(self, root.premises)
        return getattr(root, name)

    def __reduce__(self):
        h, mode, strategy = self._query
        return _OnDemandTrace, (h, self.lhs, self.rhs, mode, strategy)


_set_query = _OnDemandTrace._query.__set__


def reductive_sub(
    h: NominalHierarchy,
    t1: TypeExpr,
    t2: TypeExpr,
    mode: Mode = Mode.SEMANTIC,
    strategy: Strategy = Strategy.NORMALIZE_FIRST,
) -> tuple[bool, ReductiveTrace | None]:
    """Decide t1 <: t2: the verdict first, the trace on demand.

    The verdict never builds t1's normal form, but its walk over t1 raises
    what normalizing t1 would raise (``UnknownName``; ``EmptyAbstract`` in
    semantic mode), then ``UnknownName`` for an undeclared name in t2.  A
    false verdict returns ``(False, None)`` without any search.  A true one
    returns a trace whose rule and premises are found on first access by the
    reductive search of the chosen strategy.  NORMALIZE_FIRST applies the
    normalization rule once at the root and searches the normal form.
    SHORT_PATH_FIRST searches t1 itself, normalizing locally where no direct
    rule applies at a left-hand side that is an abstract name or a pair
    containing a union; if that search fails it falls back to
    NORMALIZE_FIRST, which is needed: ``Real*Int <: Int*Int|Flt*Int`` is
    provable only through a root SR-NF.
    """
    held = _Node(h, mode, [(1, t2)]).mask(t1) & 1
    validate_type(h, t2)
    if not held:
        return False, None
    return True, _OnDemandTrace(h, t1, t2, mode, strategy)


def _search(h, t1: TypeExpr, t2: TypeExpr, mode: Mode, strategy: Strategy) -> ReductiveTrace:
    # The reductive search for a query whose verdict is known to be true.
    # One table of normal forms serves the whole search (see _via_nf).
    nfs: dict = {}
    if strategy is Strategy.SHORT_PATH_FIRST:
        trace = _decide(h, t1, t2, mode, nfs)
        if trace is not None:
            return trace
    trace = _via_nf(h, t1, t2, mode, nfs)
    assert trace is not None, f"no trace for the true verdict {t1} <: {t2}"
    return trace


class _Node:
    """The targets' components at one position of a tree of pair arms.

    Bit i of the root stands for target i.  ``covers(t)`` is the set of
    distinct target masks over the tags of t, a tag's mask being the targets
    that hold it, and ``mask(t)`` is their AND: the targets that hold all of t.
    A union joins its arms' sets; a name's tags are its concrete descendants
    in semantic mode when abstract, else the name itself (in atomic mode an
    abstract name's own sentinel is held by the fewest targets).  Each pair arm
    gets bits in the child nodes: a target with one pair arm lends it its own
    bits, a target with several gets a fresh bit per arm, mapped back to the
    target when a pair's left and right sets are combined.  Without fresh
    bits the AND distributes over a pair, so ``mask`` needs no sets there.
    Names are keyed by their text; no type is ever hashed, since that
    recurses.  A walk meets t's names left to right and raises what
    ``validate_type`` raises (``nonempty`` in semantic mode) for the first bad one.
    ``mask``'s AND stops once it is zero, since no later tag of t brings a
    target back, and ``covers`` stops at a pair whose left set is {0}, whose
    product is {0}; each hands what is left of t to ``validate_type``, so
    the error is the same.  Child nodes are built on first use, so a pair's
    right child only once its left component has left some target.
    """

    __slots__ = ("h", "mode", "full", "entries", "arms", "back", "left", "right", "names")

    def __init__(self, h, mode: Mode, parts: list[tuple[int, TypeExpr]]):
        self.h = h
        self.mode = mode
        self.back = ()  # (fresh bits, target bits) of each target with several pair arms
        self.left = self.right = None  # child nodes, built by _child on first use
        self.names = {}  # name text -> mask, memoized
        if len(parts) == 1:
            # One name or one pair, as every level of a one-target verdict
            # files, is set in place: no loop, and no fresh bits to hand out.
            bits, t = parts[0]
            if isinstance(t, Name):
                self.full, self.entries, self.arms = bits, {t.name.text: bits}, []
                return
            if isinstance(t, Pair):
                self.full, self.entries, self.arms = bits, {}, [(bits, t)]
                return
        full, entries, arms, several = 0, {}, [], []
        for bits, t in parts:
            full |= bits
            # A name or a pair is its own only arm, filed without _leaves for
            # dispatch's many-part nodes: without this, table builds take ×1.16.
            if isinstance(t, Name):
                entries[t.name.text] = entries.get(t.name.text, 0) | bits
            elif isinstance(t, Pair):
                arms.append((bits, t))
            else:
                pairs = []
                for a in _leaves(t, Union):
                    if isinstance(a, Name):
                        entries[a.name.text] = entries.get(a.name.text, 0) | bits
                    else:
                        pairs.append(a)
                if len(pairs) == 1:
                    arms.append((bits, pairs[0]))
                elif pairs:
                    several.append((bits, pairs))
        self.full = full
        self.entries = entries
        self.arms = arms
        if several:
            self.back, fresh = [], 1 << full.bit_length()
            for bits, pairs in several:
                mine = 0
                for p in pairs:
                    arms.append((fresh, p))
                    mine |= fresh
                    fresh <<= 1
                self.back.append((mine, bits))

    def _child(self, right: bool) -> _Node:
        parts = []
        for bits, p in self.arms:
            parts.append((bits, p.right if right else p.left))
        node = _Node(self.h, self.mode, parts)
        if right:
            self.right = node
        else:
            self.left = node
        return node

    def _lift(self, z: int) -> int:
        # The targets holding a pair tag whose arms' child bits are z.
        out = z & self.full
        for mine, bits in self.back:
            if z & mine:
                out |= bits
        return out

    def mask(self, t: TypeExpr) -> int:
        # One frame walks down the right spine of a pair chain, as argument
        # lists are nested, and ANDs each left component's mask into out:
        # a child's bits are its parent's targets wherever the parent has no
        # fresh bits.  A name is read in place; other left components and
        # union arms recurse, left first, so names are met left to right.
        # Once out is zero, the rest of the spine or the remaining arms are
        # only validated.
        node, out = self, -1
        while isinstance(t, Pair):
            if not node.arms:
                validate_type(node.h, t, node.mode is Mode.SEMANTIC)
                return 0
            if node.back:
                for m in node.covers(t):
                    out &= m
                return out & node.full
            left = node.left or node._child(False)
            x, t = t.left, t.right
            out &= left._name(x.name) if isinstance(x, Name) else left.mask(x)
            if not out:
                validate_type(node.h, t, node.mode is Mode.SEMANTIC)
                return 0
            node = node.right or node._child(True)
        if isinstance(t, Union):
            for x in _leaves(t, Union):
                if not out:
                    validate_type(node.h, x, node.mode is Mode.SEMANTIC)
                elif isinstance(x, Name):
                    out &= node._name(x.name)
                else:
                    out &= node.mask(x)
            return out & node.full
        return out & node._name(t.name)

    def covers(self, t: TypeExpr) -> set[int]:
        if isinstance(t, Union):
            out: set[int] = set()
            for x in _leaves(t, Union):
                out |= self.covers(x)
            return out
        if isinstance(t, Name):
            n = t.name
            if self.mode is Mode.SEMANTIC and n.abstract and self._name(n) != self.full:
                return {self._name(c) for c in concrete_descendants(self.h, n)}
            return {self._name(n)}
        if not self.arms:
            validate_type(self.h, t, self.mode is Mode.SEMANTIC)
            return {0}
        ls = (self.left or self._child(False)).covers(t.left)
        if ls == {0}:  # no target holds a left tag: the product is {0}
            validate_type(self.h, t.right, self.mode is Mode.SEMANTIC)
            return ls
        rs = (self.right or self._child(True)).covers(t.right)
        return {self._lift(l & r) for l in ls for r in rs}

    def _name(self, n: NominalName) -> int:
        h, text = self.h, n.text
        if h._names.get(text) is not n:
            h.lookup(n)  # raises for a name not declared with this kind
        out = self.names.get(text)
        if out is None:
            semantic = self.mode is Mode.SEMANTIC
            if semantic and text in h._childless:
                raise EmptyAbstract(f"abstract name {n} has no concrete descendants")
            out, above = 0, h._above[text]
            for e, bits in self.entries.items():
                if e in above:
                    out |= bits
            if semantic and n.abstract and out != self.full:
                out = self.full
                for c in concrete_descendants(h, n):
                    out &= self._name(c)
                    if not out:
                        break
            self.names[text] = out
        return out


def _name_rule(h, lhs, rhs, mode: Mode) -> str | None:
    # The name-leaf rule that concludes lhs <: rhs, if any, for names that h
    # declares with their kind (the verdict has checked the search's sides,
    # and the checker's are parts of a root that passed _is_type or of their
    # normal forms): SR-BaseRefl for a concrete name below itself, else
    # SR-Nom along h's ancestor sets from a left name that is concrete
    # unless the mode is atomic.  Identity is tried before ==, a Python
    # call, since names parsed over h are h's own.
    if not (isinstance(lhs, Name) and isinstance(rhs, Name)):
        return None
    n1, n2 = lhs.name, rhs.name
    if (n1 is n2 or n1 == n2) and not n1.abstract:
        return SR_BASE_REFL
    if n1.abstract and mode is not Mode.ATOMIC:
        return None
    return SR_NOM if n2.text in h._above[n1.text] else None


def _same(g, w) -> bool:
    # Whether g is w or a copy of it, compared class by class and name by
    # name, so that no value's own ==, which may equal everything, is asked.
    if g is w:
        return True
    kind = type(g)
    if (kind is Pair or kind is Union) and type(w) is kind:
        return _same(g.left, w.left) and _same(g.right, w.right)
    if kind is not Name or type(w) is not Name:
        return False
    m, n = g.name, w.name
    texts = type(m) is type(n) is NominalName and type(m.text) is type(n.text) is str
    return m is n or (texts and m.text == n.text and m.abstract is n.abstract)


def _decide(
    h, lhs: TypeExpr, rhs: TypeExpr, mode: Mode, nfs: dict | None = None
) -> ReductiveTrace | None:
    # Normalizes only at a stuck head, which a normal form never has.
    if nfs is None:
        nfs = {}
    if isinstance(lhs, Union):
        p1 = _decide(h, lhs.left, rhs, mode, nfs)
        p2 = p1 and _decide(h, lhs.right, rhs, mode, nfs)
        return p2 and ReductiveTrace(SR_UNION_L, lhs, rhs, (p1, p2))
    direct: ReductiveTrace | None = None
    if isinstance(rhs, Name):
        rule = _name_rule(h, lhs, rhs, mode)
        direct = rule and ReductiveTrace(rule, lhs, rhs)
    elif isinstance(rhs, Pair):
        if isinstance(lhs, Pair):
            p1 = _decide(h, lhs.left, rhs.left, mode, nfs)
            p2 = p1 and _decide(h, lhs.right, rhs.right, mode, nfs)
            direct = p2 and ReductiveTrace(SR_PAIR, lhs, rhs, (p1, p2))
    else:
        p = _decide(h, lhs, rhs.left, mode, nfs)
        if p is not None:
            direct = ReductiveTrace(SR_UNION_R1, lhs, rhs, (p,))
        else:
            p = _decide(h, lhs, rhs.right, mode, nfs)
            direct = p and ReductiveTrace(SR_UNION_R2, lhs, rhs, (p,))
    if direct is None and _stuck_head(lhs, mode):
        return _via_nf(h, lhs, rhs, mode, nfs)
    return direct


def _via_nf(h, lhs: TypeExpr, rhs: TypeExpr, mode: Mode, nfs: dict) -> ReductiveTrace | None:
    # SR-NF: search the normal form of lhs, where no head is stuck.  nfs maps
    # id(t) to (t, NF(t)) for each subterm t normalized so far in this search;
    # holding t keeps its id from being reused.
    hit = nfs.get(id(lhs))
    if hit is None:
        hit = nfs[id(lhs)] = (lhs, nf_for_mode(h, lhs, mode))
    sub = _decide(h, hit[1], rhs, mode, nfs)
    return sub and ReductiveTrace(SR_NF, lhs, rhs, (sub,))


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

    The root judgement must relate two types of h, and every premise's sides
    must be the very sides its node's rule gives it or copies of them (see
    ``_same``), so every side that a rule reads is a type of h and the rules
    need not test names again.  The normalization rule may occur at most
    once on any root-to-leaf path.  The walk keeps its own stack, so depth
    is unbounded, and malformed trees, a node or a type whose slots were
    never set among them, yield False rather than raising.  An accept is
    recorded on the root for this hierarchy object and mode, so checking
    the same trace again under both returns True without a walk.  The root
    of a subclass of ``ReductiveTrace`` is checked as a copy made from one
    read of each of its fields.
    """
    return _accepted(h, trace, mode) is not None


def _accepted(h, trace, mode: Mode) -> ReductiveTrace | None:
    # The root that check_reductive_trace accepts, or None; see _root.
    own = type(trace) is ReductiveTrace or type(trace) is _OnDemandTrace
    accepts = getattr(trace, "_accepts", ()) if own else ()
    if (h, mode) in accepts:
        return trace
    root = _kernel(h, trace, ReductiveTrace, mode, _check, True)
    if root is not None:
        _set_accepts(root, (*accepts, (h, mode)))
    return root


def _kernel(h, root, cls, mode: Mode, step, flag):
    # The one walk of both proof checkers: the root that it accepts, or
    # None.  The root's sides must be types of h.  step gives the (lhs, rhs,
    # flag) judgements that a node's rule requires of its premises, or None;
    # the premises must be a tuple of as many nodes of exactly cls, whose
    # fields then read alike each time, concluding those judgements with the
    # very sides or copies (_same).  They are checked next, left first, the
    # others kept on an explicit stack.  Every slot is read under one try: a
    # value whose slot was never set (__new__ alone) is no type and no proof.
    try:
        root = _root(root, cls)
        if root is None or not (_is_type(h, root.lhs) and _is_type(h, root.rhs)):
            return None
        node, todo = root, []
        while True:
            want, prem = step(h, node, mode, flag), node.premises
            if want is None or type(prem) is not tuple:
                return None
            if want:
                n = len(want)
                if len(prem) != n:
                    return None
                while n:  # right to left, so that the left premise comes next
                    n -= 1
                    p = prem[n]
                    lhs, rhs, flag = want[n]
                    ok = type(p) is cls and (p.lhs is lhs or _same(p.lhs, lhs))
                    if not (ok and (p.rhs is rhs or _same(p.rhs, rhs))):
                        return None
                    if n:
                        todo.append((p, flag))
                node = p
            elif prem:
                return None
            elif todo:
                node, flag = todo.pop()
            else:
                return root
    except AttributeError:
        return None


def _root(node, cls):
    # The root that a checker reads: a node of the library's own classes,
    # whose slots read alike each time and keep its accept record, or else a
    # copy made from one read of each field of a subclass's, which may not.
    if type(node) is cls or (type(node) is _OnDemandTrace and cls is ReductiveTrace):
        return node
    return cls(*[getattr(node, f) for f in cls.__match_args__]) if isinstance(node, cls) else None


def _check(h, tr: ReductiveTrace, mode: Mode, nf_allowed: bool):
    # The reductive rule table, one row per rule, as _kernel's step; nf_allowed
    # is whether SR-NF may occur at tr.
    rule, lhs, rhs = tr.rule, tr.lhs, tr.rhs
    if type(rule) is not str:
        return None
    if rule == SR_BASE_REFL or rule == SR_NOM:
        return () if _name_rule(h, lhs, rhs, mode) == rule else None
    if rule == SR_PAIR:
        return _pair(lhs, rhs, nf_allowed)
    if rule == SR_UNION_L:
        return _union_l(lhs, rhs, nf_allowed)
    if (rule == SR_UNION_R1 or rule == SR_UNION_R2) and type(rhs) is Union:
        return ((lhs, rhs.left if rule == SR_UNION_R1 else rhs.right, nf_allowed),)
    if rule == SR_NF and nf_allowed:
        try:
            return ((nf_for_mode(h, lhs, mode), rhs, False),)
        except EmptyAbstract:
            return None
    return None


def _pair(lhs, rhs, flag):
    # The row of SR-Pair and SD-Pair: pairs related componentwise.
    if type(lhs) is Pair and type(rhs) is Pair:
        return (lhs.left, rhs.left, flag), (lhs.right, rhs.right, flag)
    return None


def _union_l(lhs, rhs, flag):
    # The row of SR-UnionL and SD-UnionL: each arm of a left union related to rhs.
    if type(lhs) is Union:
        return (lhs.left, rhs, flag), (lhs.right, rhs, flag)
    return None


def _is_type(h, t) -> bool:
    # A tree of pairs and unions, of exactly those classes, over names that
    # h declares with their kind: at once for such a tree that parse_type
    # built over h (core._parsed_by), else by a walk.
    if _parsed_by(h, t):
        return True
    todo = [t]
    while todo:
        x = todo.pop()
        kind = type(x)
        if kind is Pair or kind is Union:
            todo += x.left, x.right
        elif kind is not Name or not _declared(h, x.name):
            return False
    return True


def _declared(h, n) -> bool:
    # Whether n is a name that h declares with its kind: a NominalName of
    # exactly that class whose text is a str, so that no value's own == or
    # hash is asked.  The one name test of both checkers.
    if type(n) is not NominalName or type(n.text) is not str:
        return False
    declared = h._names.get(n.text)
    return declared is not None and declared.abstract is n.abstract


def format_trace(trace: ReductiveTrace) -> str:
    """Indented one-rule-per-line rendering: ``RULE: lhs <: rhs``, and a
    ``witness:`` line under a node that has one.  One loop, so depth is
    unbounded; it renders derivations too."""
    lines, todo = [], [(trace, "")]
    while todo:
        x, indent = todo.pop()
        lines.append(f"{indent}{x.rule}: {x.lhs} <: {x.rhs}")
        if x.witness is not None:
            lines.append(f"{indent}  witness: {x.witness}")
        todo.extend((p, indent + "  ") for p in reversed(x.premises))
    return "\n".join(lines)
