"""The verdict pass of ``reductive_sub`` and its on-demand traces.

The verdict is decided without normalizing the left side as a whole, and the
reductive search runs only when a trace is read.  These tests pin that the
verdict agrees with the set-based oracle and with the normal-form search,
that it stays polynomial in pair arity, and that the search is deferred.
"""

import copy
import pickle
import random
import time
from unittest import mock

import pytest

from conftest import TOWER, T
from tagsub import core, subtyping
from tagsub.core import (
    Decl,
    Name,
    NominalName,
    Pair,
    TagsubError,
    Union,
    nominal_subtype,
    validate_hierarchy,
    validate_type,
)
from tagsub.derivation import (
    SD_ABS_UNION,
    SD_DISTR1,
    SD_DISTR2,
    SD_NOM,
    SD_PAIR,
    SD_REFL,
    SD_TRANS,
    SD_UNION_L,
    SD_UNION_R1,
    SD_UNION_R2,
    Derivation,
    check_declarative,
    synthesize,
)
from tagsub.frontend import parse_type
from tagsub.gen import random_hierarchy, random_type, types_up_to
from tagsub.normalize import nf_for_mode, nf_weight
from tagsub.semantics import Mode, semantic_sub
from tagsub.subtyping import (
    SR_BASE_REFL,
    SR_NF,
    SR_NOM,
    SR_PAIR,
    SR_UNION_L,
    SR_UNION_R1,
    SR_UNION_R2,
    ReductiveTrace,
    Strategy,
    check_reductive_trace,
    format_trace,
    reductive_sub,
)

BOTH = [Strategy.NORMALIZE_FIRST, Strategy.SHORT_PATH_FIRST]


def chain(parts, right_nested: bool):
    """The pair chain of parts, nested to the right or to the left."""
    if right_nested:
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Pair(p, out)
        return out
    out = parts[0]
    for p in parts[1:]:
        out = Pair(out, p)
    return out


def union_of(arms):
    out = arms[0]
    for a in arms[1:]:
        out = Union(out, a)
    return out


class TestVerdictDifferential:
    """Replaces the strategy comparison of criterion 8, which now compares
    one verdict procedure with itself."""

    def _component(self, rng, h, mine):
        r = rng.random()
        if r < 0.5:
            return mine
        if r < 0.75:
            return Name(rng.choice(h.names))
        return random_type(rng, h, 2, max_nf_weight=4)

    def _query(self, rng, h, q):
        if q % 3 == 0:
            return random_type(rng, h, 4, 128), random_type(rng, h, 4, 128), False
        # A chain against a union of 2-6 chains of the same shape whose
        # components often repeat the left side's, so both verdicts occur.
        right_nested = q % 3 == 1
        k = rng.randint(2, 4)
        parts = [random_type(rng, h, 2, max_nf_weight=4) for _ in range(k)]
        arms = [
            chain([self._component(rng, h, p) for p in parts], right_nested)
            for _ in range(rng.randint(2, 6))
        ]
        return chain(parts, right_nested), union_of(arms), True

    def test_verdicts_match_the_oracle_and_the_search(self):
        rng = random.Random(303)
        union_rhs = {True: 0, False: 0}
        total = 0
        for _ in range(40):
            h = random_hierarchy(rng, 8)
            for q in range(150):
                t1, t2, pair_union = self._query(rng, h, q)
                if max(nf_weight(h, t1), nf_weight(h, t2)) > 1024:
                    continue
                mode = Mode.SEMANTIC if q % 2 == 0 else Mode.ATOMIC
                verdict, _ = reductive_sub(h, t1, t2, mode)
                assert verdict == semantic_sub(h, t1, t2, mode), f"{t1} <: {t2} [{mode}]"
                found = subtyping._decide(h, nf_for_mode(h, t1, mode), t2, mode)
                assert (found is not None) == verdict, f"{t1} <: {t2} [{mode}]"
                total += 1
                if pair_union:
                    union_rhs[verdict] += 1
        assert sum(union_rhs.values()) * 3 >= total
        assert min(union_rhs.values()) * 10 >= sum(union_rhs.values())

    def test_wide_chains_match_the_oracle(self):
        # Two chains against a union of three pair chains: the right side has
        # several pair arms, each made of chains, at every depth.  A right
        # component is often a name at or below the left one, so the arms
        # split the tags of the left side's abstract names between them.
        rng = random.Random(404)
        seen = {True: 0, False: 0}

        def near(mine):
            r = rng.random()
            if r < 0.4:
                return mine
            if r < 0.8:
                return Name(rng.choice([n for n in h.names if nominal_subtype(h, n, mine.name)]))
            return Name(rng.choice(h.names))

        for _ in range(30):
            h = random_hierarchy(rng, 8)
            for q in range(40):
                k = rng.randint(1, 4)
                right_nested = q % 2 == 0
                parts = [[Name(rng.choice(h.names)) for _ in range(k)] for _ in range(2)]
                t1 = Pair(chain(parts[0], right_nested), chain(parts[1], right_nested))
                arms = []
                for _ in range(3):
                    left, right = ([near(p) for p in side] for side in parts)
                    arms.append(Pair(chain(left, right_nested), chain(right, right_nested)))
                t2 = union_of(arms)
                if max(nf_weight(h, t1), nf_weight(h, t2)) > 4096:
                    continue
                for mode in Mode:
                    verdict, _ = reductive_sub(h, t1, t2, mode)
                    assert verdict == semantic_sub(h, t1, t2, mode), f"{t1} <: {t2} [{mode}]"
                    seen[verdict] += 1
        assert min(seen.values()) * 10 >= sum(seen.values()), seen


def _best_of_3(query):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        verdict = query()
        best = min(best, time.perf_counter() - start)
    return verdict, best


class TestArity:
    """``Num^k`` queries no longer grow with the left side's normal form."""

    @pytest.mark.parametrize("right_nested", [True, False], ids=["right", "left"])
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("strategy", BOTH)
    def test_num_k_under_10ms_at_16(self, right_nested, mode, strategy):
        k = 16
        num, real = T("Num"), T("Real")
        num_k = chain([num] * k, right_nested)
        below_real = chain([num] * (k - 1) + [real], right_nested)
        for t2, expected in ((num_k, True), (below_real, False)):
            verdict, best = _best_of_3(
                lambda: reductive_sub(TOWER, num_k, t2, mode, strategy)[0]
            )
            assert verdict is expected
            assert best < 0.010, f"k={k} {expected}: {best * 1000:.2f}ms"

    @pytest.mark.parametrize("mode", list(Mode))
    def test_wide_chain_under_20ms_at_24(self, mode):
        # (Num^k)*(Num^k) <: (Num^k)*(Real^k)|(Real^k)*(Num^k)|(Cmplx^k)*(Num^k)
        k = 24
        num, real, cmplx = (chain([T(n)] * k, True) for n in ("Num", "Real", "Cmplx"))
        t2 = union_of([Pair(num, real), Pair(real, num), Pair(cmplx, num)])
        verdict, best = _best_of_3(lambda: reductive_sub(TOWER, Pair(num, num), t2, mode)[0])
        assert verdict is False
        assert best < 0.020, f"k={k}: {best * 1000:.2f}ms"

    @pytest.mark.parametrize("right_nested", [True, False], ids=["right", "left"])
    def test_num_k_verdicts_at_24(self, right_nested):
        k = 24
        num, real = T("Num"), T("Real")
        num_k = chain([num] * k, right_nested)
        below_real = chain([num] * (k - 1) + [real], right_nested)
        for mode in Mode:
            for strategy in BOTH:
                assert reductive_sub(TOWER, num_k, num_k, mode, strategy)[0] is True
                assert reductive_sub(TOWER, num_k, below_real, mode, strategy)[0] is False


@pytest.fixture
def nf_calls(monkeypatch):
    """The arguments of every call to ``subtyping.nf_for_mode``."""
    calls = []
    real = subtyping.nf_for_mode

    def counted(h, t, mode):
        calls.append(t)
        return real(h, t, mode)

    monkeypatch.setattr(subtyping, "nf_for_mode", counted)
    return calls


class TestOnDemandTrace:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("strategy", BOTH)
    @pytest.mark.parametrize(
        "t1,t2",
        [
            ("(Int|Flt)*Num", "Int*Num|Str"),
            ("Num", "Str"),
            ("Real*Int", "Int*Int|Str"),
            ("Num*(Num*Num)", "Num*(Num*Real)"),
        ],
    )
    def test_false_verdicts_never_normalize(self, nf_calls, mode, strategy, t1, t2):
        assert reductive_sub(TOWER, T(t1), T(t2), mode, strategy) == (False, None)
        assert nf_calls == []

    def test_true_verdict_normalizes_once_when_the_trace_is_read(self, nf_calls):
        verdict, trace = reductive_sub(TOWER, T("Str*(Int|Flt)"), T("Str*Real"))
        assert verdict and nf_calls == []
        assert trace.rule == SR_NF
        assert nf_calls == [T("Str*(Int|Flt)")]
        assert trace.size() == 8
        assert nf_calls == [T("Str*(Int|Flt)")]
        assert check_reductive_trace(TOWER, trace)

    def test_decomposition_never_normalizes(self, nf_calls):
        verdict, _ = reductive_sub(TOWER, T("(Int|Flt)*Num"), T("Int*Num|Flt*Num"))
        assert verdict
        assert nf_calls == []

    @pytest.mark.parametrize("strategy", BOTH)
    @pytest.mark.parametrize(
        "t1,t2,mode",
        [
            ("Str*(Int|Flt)", "Str*Real", Mode.SEMANTIC),
            ("Real*Int", "Int*Int|Flt*Int", Mode.SEMANTIC),
            ("Int*Real", "Int*(Int|Flt)", Mode.SEMANTIC),
            ("Int", "Int", Mode.SEMANTIC),
            ("Str*(Int|Flt)", "Str*Real", Mode.ATOMIC),
            ("Real*Int", "Num*Real", Mode.ATOMIC),
            ("(Int|Real)*Str", "Real*Str|Int*Int", Mode.ATOMIC),
        ],
    )
    def test_on_demand_trace_equals_the_eager_one(self, strategy, t1, t2, mode):
        a, b = T(t1), T(t2)
        verdict, lazy = reductive_sub(TOWER, a, b, mode, strategy)
        assert verdict
        eager = subtyping._search(TOWER, a, b, mode, strategy)
        assert type(eager) is ReductiveTrace
        assert isinstance(lazy, ReductiveTrace)
        assert hash(lazy) == hash(eager)
        assert lazy == eager and eager == lazy
        assert format_trace(lazy) == format_trace(eager)
        assert {lazy, eager} == {eager}

    def test_a_trace_is_unequal_to_other_values(self):
        _, lazy = reductive_sub(TOWER, T("Int"), T("Int"), strategy=Strategy.SHORT_PATH_FIRST)
        eager = ReductiveTrace(SR_BASE_REFL, T("Int"), T("Int"))
        assert lazy == eager
        for trace in (lazy, eager):
            assert trace != "SR-BaseRefl: Int <: Int" and not trace == SR_BASE_REFL

    def test_reading_twice_builds_once(self, monkeypatch):
        built = []
        real = subtyping._search

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(subtyping, "_search", counted)
        _, trace = reductive_sub(TOWER, T("Real"), T("Int|Flt"))
        assert built == []
        first = format_trace(trace)
        assert format_trace(trace) == first
        assert trace.size() == 6 and len(built) == 1

    @pytest.mark.parametrize(
        "t1,t2,mode,normalized",
        [
            (
                "(Int|Flt)*Num",
                "Str|Cmplx|Num*Real|(Int|Flt)*Num",
                Mode.SEMANTIC,
                {"(Int|Flt)*Num": 1, "Num": 1},
            ),
            (
                "(Int|Flt)*Num",
                "Str|Cmplx|Num*Real|(Int|Flt)*Num",
                Mode.ATOMIC,
                {"(Int|Flt)*Num": 1},
            ),
            ("Real*Int", "Int*Int|Flt*Int", Mode.SEMANTIC, {"Real": 1, "Real*Int": 1}),
        ],
    )
    def test_short_path_normalizes_each_subterm_once(self, nf_calls, t1, t2, mode, normalized):
        # Failed right-union arms and the root fallback reuse the normal form
        # of a subterm that this search has already normalized.
        verdict, trace = reductive_sub(TOWER, T(t1), T(t2), mode, Strategy.SHORT_PATH_FIRST)
        assert verdict
        eager = subtyping._search(TOWER, T(t1), T(t2), mode, Strategy.SHORT_PATH_FIRST)
        nf_calls.clear()
        assert trace.size() == eager.size()
        counts: dict = {}
        for t in nf_calls:
            counts[str(t)] = counts.get(str(t), 0) + 1
        assert counts == normalized
        assert trace == eager and check_reductive_trace(TOWER, trace, mode)


class TestSeveralPairArms:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_wide_union_component(self, mode):
        # The union is walked in a loop, not one Python frame per arm.
        wide = T("Real*(" + "|".join(["Int"] * 3000) + ")")
        assert reductive_sub(TOWER, wide, T("Real*Int|Int*Real"), mode)[0] is True


def _outcome(f):
    # What f returns, or the class and message of the library error it raises.
    try:
        return f()
    except TagsubError as err:
        return type(err), str(err)


class TestOnePartNode:
    """A node over one name or one pair, as each level of a one-target verdict
    files, is built by a short path; the same target filed twice takes the
    general one, and bit 0 must read alike in both."""

    def test_one_part_agrees_with_the_general_path(self):
        rng = random.Random(606)
        ghost = Name(NominalName("Ghost", False))
        seen = {True: 0, False: 0, "error": 0, "short": 0}
        for i in range(40):
            h = random_hierarchy(rng, 8)
            if i % 4 == 0:  # a childless abstract name, an error in semantic mode
                h = validate_hierarchy([*h.decls, Decl("Void", True)])
            for q in range(40):
                if q % 2:
                    t = random_type(rng, h, 4, 128)
                else:
                    k = rng.randint(2, 4)
                    t = chain([random_type(rng, h, 2, max_nf_weight=4) for _ in range(k)], q % 4 == 0)
                x = t if q % 5 == 0 else random_type(rng, h, 4, 128)
                if q % 13 == 0:
                    x = Pair(x, ghost)
                seen["short"] += isinstance(t, (Name, Pair))
                for mode in Mode:
                    one = _outcome(lambda: subtyping._Node(h, mode, [(1, t)]).mask(x) & 1)
                    two = _outcome(lambda: subtyping._Node(h, mode, [(1, t), (2, t)]).mask(x) & 1)
                    assert one == two, f"{x} against {t} [{mode}]"
                    seen[bool(one) if type(one) is int else "error"] += 1
        assert min(seen.values()) >= 50, seen


def _leaf_count(t) -> int:
    return 1 if isinstance(t, Name) else _leaf_count(t.left) + _leaf_count(t.right)


def _with_leaves(t, new: dict):
    """t with its i-th name, left to right, replaced by new[i]."""
    def walk(x, i):
        if isinstance(x, Name):
            return new.get(i, x), i + 1
        left, i = walk(x.left, i)
        right, i = walk(x.right, i)
        return type(x)(left, right), i

    return walk(t, 0)[0]


class TestErrorsAfterTheZero:
    """A false verdict stops walking t1 where its AND reaches zero and checks
    the rest of t1 with validate_type, so a query raises what
    ``validate_type(h, t1, semantic)`` and then ``validate_type(h, t2)``
    raise, wherever the first bad name lies: behind the zero in a pair's
    right component or in a later union arm, or in t2."""

    def test_the_error_of_the_first_bad_name(self):
        rng = random.Random(3101)
        ghost = Name(NominalName("Ghost", False))
        seen = {"in t1": 0, "in t2": 0, "UnknownName": 0, "EmptyAbstract": 0, False: 0}
        for i in range(40):
            base = random_hierarchy(rng, 8)
            decls = [*base.decls, Decl("Left", False), Decl("Right", False)]
            h = validate_hierarchy([*decls, Decl("Void", True)] if i % 2 else decls)
            left, right = Name(h.lookup("Left")), Name(h.lookup("Right"))
            bads = [ghost, *[Name(h.lookup("Void"))] * 2] if i % 2 else [ghost]
            for q in range(30):
                # Left lies in no type over base, so the AND is zero at its
                # leaf at the latest; t2 holds Right where t1 holds Left.
                t1 = random_type(rng, base, 4, 128)
                n = _leaf_count(t1)
                at = rng.randrange(n)
                t2 = random_type(rng, base, 3, 32)
                if rng.random() < 0.5:
                    t2 = _with_leaves(t1, {at: right})
                new = {at: left}
                if q % 3 and at + 1 < n:
                    new[rng.randrange(at + 1, n)] = rng.choice(bads)
                    seen["in t1"] += 1
                elif q % 3:
                    t2 = _with_leaves(t2, {rng.randrange(_leaf_count(t2)): rng.choice(bads)})
                    seen["in t2"] += 1
                t1 = _with_leaves(t1, new)
                for mode in Mode:
                    want = _outcome(lambda: validate_type(h, t1, mode is Mode.SEMANTIC))
                    if want is None:
                        want = _outcome(lambda: validate_type(h, t2)) or False
                    got = _outcome(lambda: reductive_sub(h, t1, t2, mode)[0])
                    assert got == want, f"{t1} <: {t2} [{mode}]"
                    seen[want if want is False else want[0].__name__] += 1
        assert min(seen.values()) >= 80, seen


class TestLazyRightChild:
    def test_a_zero_left_component_builds_no_right_child(self, monkeypatch):
        built, init = [], subtyping._Node.__init__

        def building(node, h, mode, parts):
            built.append([t for _, t in parts])
            init(node, h, mode, parts)

        monkeypatch.setattr(subtyping._Node, "__init__", building)
        t2 = T("Str*Num")
        for mode in Mode:
            built.clear()
            assert reductive_sub(TOWER, T("Int*Num"), t2, mode) == (False, None)
            assert built == [[t2], [t2.left]]
            built.clear()
            assert reductive_sub(TOWER, T("Str*Int"), t2, mode)[0] is True
            assert built == [[t2], [t2.left], [t2.right]]


class TestOneWalk:
    def test_only_the_right_side_is_checked_apart(self, monkeypatch):
        # The verdict's walk checks the left side's names as it meets them.
        calls = []
        check = subtyping.validate_type
        monkeypatch.setattr(
            subtyping, "validate_type", lambda h, t, *args: calls.append(t) or check(h, t, *args)
        )
        assert reductive_sub(TOWER, T("Int*Flt"), T("Real*Real"))[0] is True
        assert calls == [T("Real*Real")]


class TestCoversZeroLeft:
    """``_Node.covers`` over a pair whose left set is {0} returns {0} after
    ``validate_type`` of the right component, which it never walks."""

    def test_a_zero_left_set_builds_no_right_child(self, monkeypatch):
        built, init = [], subtyping._Node.__init__

        def building(node, h, mode, parts):
            built.append([t for _, t in parts])
            init(node, h, mode, parts)

        monkeypatch.setattr(subtyping._Node, "__init__", building)
        t2 = T("Int*Num|Flt*Num")  # one target with two pair arms: fresh bits
        for mode in Mode:
            built.clear()
            assert reductive_sub(TOWER, T("Str*Num"), t2, mode) == (False, None)
            assert built == [[t2], [t2.left.left, t2.right.left]]
            built.clear()
            assert reductive_sub(TOWER, T("Int*Num"), t2, mode)[0] is True
            assert built == [[t2], [t2.left.left, t2.right.left], [t2.left.right, t2.right.right]]

    def test_the_error_of_the_first_bad_name(self):
        # Targets with several pair arms take covers; Left lies in no type
        # over base, so a left component that holds only Left has the set
        # {0}, and a bad name may lie behind it, later in t1, or in t2.
        rng = random.Random(3201)
        ghost = Name(NominalName("Ghost", False))
        seen = {"in t1": 0, "in t2": 0, "UnknownName": 0, "EmptyAbstract": 0, True: 0, False: 0}
        for i in range(40):
            base = random_hierarchy(rng, 8)
            decls = [*base.decls, Decl("Left", False)]
            h = validate_hierarchy([*decls, Decl("Void", True)] if i % 2 else decls)
            left = Name(h.lookup("Left"))
            bads = [ghost, *[Name(h.lookup("Void"))] * 2] if i % 2 else [ghost]
            for q in range(30):
                arms = [
                    Pair(random_type(rng, base, 2), random_type(rng, base, 2))
                    for _ in range(rng.randint(2, 3))
                ]
                if q % 4 == 0:
                    arms.insert(rng.randrange(len(arms) + 1), random_type(rng, base, 1))
                t2 = union_of(arms)
                # t1: some of t2's pair arms, or random pairs, with Left at
                # one or two leaves unless the query is one that may hold.
                pairs = [a for a in arms if isinstance(a, Pair)]
                if q % 2:
                    t1 = union_of(rng.sample(pairs, rng.randint(1, len(pairs))))
                else:
                    t1 = Pair(random_type(rng, base, 3), random_type(rng, base, 3))
                n = _leaf_count(t1)
                case = q % 5
                new = {} if case == 4 else {at: left for at in rng.sample(range(n), min(n, rng.randint(1, 2)))}
                if case in (1, 2):
                    new[rng.randrange(n)] = rng.choice(bads)
                    seen["in t1"] += 1
                elif case == 3:
                    t2 = _with_leaves(t2, {rng.randrange(_leaf_count(t2)): rng.choice(bads)})
                    seen["in t2"] += 1
                t1 = _with_leaves(t1, new)
                for mode in Mode:
                    want = _outcome(lambda: validate_type(h, t1, mode is Mode.SEMANTIC))
                    if want is None:
                        want = _outcome(lambda: validate_type(h, t2))
                    if want is None:
                        want = semantic_sub(h, t1, t2, mode)
                    got = _outcome(lambda: reductive_sub(h, t1, t2, mode)[0])
                    assert got == want, f"{t1} <: {t2} [{mode}]"
                    seen[want if type(want) is bool else want[0].__name__] += 1
        assert min(seen.values()) >= 60, seen


class _SubPair(Pair):
    """A subclass of Pair: no type of the checkers, walked by validate_type."""


def _fresh(t):
    """A structural copy of t, each node made again by its class's
    constructor, so that no node of it has a record."""
    if isinstance(t, Name):
        return t
    return type(t)(_fresh(t.left), _fresh(t.right))


class TestParsedRecord:
    """A pair or union that parse_type builds records its hierarchy, and
    ``validate_type`` and the checkers' root test trust the record only when
    it is this hierarchy object's and the root is of exactly class Pair or
    Union.  Every other value is walked, so it answers as a structural copy
    that has no record."""

    def _variants(self, h, t, others):
        # The values that each stand for t: parsed over h, by hand, over
        # another hierarchy object, copied, pickled, of a subclass, and
        # made by __new__ with no record.
        out = [t]
        for o in (h, *others):
            try:
                out.append(parse_type(str(t), o))
            except TagsubError:  # a name that o does not declare
                pass
        parsed = out[1]
        out.append(_fresh(parsed))
        out += [copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))]
        if isinstance(parsed, (Pair, Union)):
            sub = _SubPair(parsed.left, parsed.right)
            core._set_parsed(sub, h)  # a record that no parse could give it
            bare = type(parsed).__new__(type(parsed))
            object.__setattr__(bare, "left", parsed.left)
            object.__setattr__(bare, "right", parsed.right)
            out += [sub, bare]
        return out

    def test_the_record_answers_as_the_walk(self):
        rng = random.Random(3202)
        seen = {"None": 0, "UnknownName": 0, "EmptyAbstract": 0, "checked": 0, "accepted": 0}
        for i in range(24):
            base = random_hierarchy(rng, 6)
            decls = [*base.decls, Decl("Void", True)] if i % 2 else list(base.decls)
            h = validate_hierarchy(decls)
            # The same declarations in another object, and one with a name more.
            others = [validate_hierarchy(decls), validate_hierarchy([*decls, Decl("Ghost", False)])]
            names = [Name(n) for n in others[1].names]
            names += [Name(others[1].lookup("Void"))] * 4 if i % 2 else []
            for _ in range(12):
                t0 = t = random_type(rng, base, 4, 64)
                if rng.random() < 0.5:  # a name of h or of the larger hierarchy only
                    t = _with_leaves(t, {rng.randrange(_leaf_count(t)): rng.choice(names)})
                proofs = self._proofs(h, t0)
                for x in self._variants(h, t, others):
                    for nonempty in (False, True):
                        got = _outcome(lambda: validate_type(h, x, nonempty))
                        want = _outcome(lambda: validate_type(h, _fresh(x), nonempty))
                        assert got == want, f"{x!r} [{nonempty}]"
                        seen["None" if got is None else got[0].__name__] += 1
                    seen["checked"] += 1
                    seen["accepted"] += self._checkers_agree(h, proofs, x)
        assert min(seen.values()) >= 100, seen

    def _proofs(self, h, t):
        # The trace and the derivation of t <: t in each mode, with their checkers.
        out = []
        for mode in Mode:
            tr = reductive_sub(h, t, t, mode)[1]
            out += [(tr, check_reductive_trace, mode), (synthesize(h, tr, mode), check_declarative, mode)]
        return out

    def _checkers_agree(self, h, proofs, x) -> int:
        # The proofs' roots with x in the place of one side, each checked
        # as the same root with a structural copy of x there.
        accepted = 0
        for root, check, mode in proofs:
            for side in ("lhs", "rhs"):
                def as_root(v):
                    lhs, rhs = (v, root.rhs) if side == "lhs" else (root.lhs, v)
                    if isinstance(root, Derivation):
                        return Derivation(root.rule, lhs, rhs, root.premises, root.witness)
                    return ReductiveTrace(root.rule, lhs, rhs, root.premises)

                got = _outcome(lambda: check(h, as_root(x), mode))
                want = _outcome(lambda: check(h, as_root(_fresh(x)), mode))
                assert got == want, f"{check.__name__} {side} {x!r} [{mode}]"
                accepted += got is True
        return accepted

    def test_a_subclass_record_is_not_trusted_at_a_root(self):
        # SR-NF at the root reads its left side only through nf, so a root
        # whose left side is a subclass value passes every test but the
        # root's own, which must walk it and reject it.
        for mode in Mode:
            t = T("Real*Int")
            tr = reductive_sub(TOWER, t, t, mode)[1]
            assert tr.rule == SR_NF
            sub = _SubPair(t.left, t.right)
            core._set_parsed(sub, TOWER)
            root = ReductiveTrace(tr.rule, sub, tr.rhs, tr.premises)
            assert check_reductive_trace(TOWER, root, mode) is False
            assert check_reductive_trace(TOWER, ReductiveTrace(tr.rule, t, tr.rhs, tr.premises), mode)

    def test_parsed_types_are_not_walked(self, monkeypatch):
        # validate_type's walk reads h._name_types at each name, and the
        # checkers' root walk calls subtyping._declared; a query over parsed
        # types does neither, and the same query over copies does both.
        walked, declared = [], []

        class Counting(dict):
            def get(self, key, default=None):
                walked.append(key)
                return dict.get(self, key, default)

        check = subtyping._declared
        monkeypatch.setattr(TOWER, "_name_types", Counting(TOWER._name_types))
        monkeypatch.setattr(
            subtyping, "_declared", lambda h, n: declared.append(n) or check(h, n)
        )
        queries = [("Int*Flt", "Real*Real"), ("Str*(Int|Flt)", "Int*Num"), ("Str|Int*Flt", "Real|Str")]
        for mode in Mode:
            for a, b in queries:
                t1, t2 = parse_type(a, TOWER), parse_type(b, TOWER)
                for copied in (False, True):
                    if copied:
                        t1, t2 = _fresh(t1), _fresh(t2)
                    walked.clear()
                    declared.clear()
                    ok, tr = reductive_sub(TOWER, t1, t2, mode)
                    if ok:
                        assert check_reductive_trace(TOWER, tr, mode)
                        assert check_declarative(TOWER, synthesize(TOWER, tr, mode), mode)
                    assert bool(walked) is copied, (a, b, mode)
                    assert bool(declared) is (copied and ok), (a, b, mode)


SR_RULES = (SR_BASE_REFL, SR_NOM, SR_PAIR, SR_UNION_L, SR_UNION_R1, SR_UNION_R2, SR_NF)
SD_RULES = (
    SD_REFL,
    SD_TRANS,
    SD_NOM,
    SD_ABS_UNION,
    SD_PAIR,
    SD_UNION_L,
    SD_UNION_R1,
    SD_UNION_R2,
    SD_DISTR1,
    SD_DISTR2,
)


def _nodes(tree):
    """Each node of tree with its path of premise positions from the root."""
    out, todo = [], [(tree, ())]
    while todo:
        x, path = todo.pop()
        out.append((x, path))
        todo.extend((p, (*path, i)) for i, p in enumerate(x.premises))
    return out


def _remade(node, rule, lhs, rhs, premises):
    if isinstance(node, Derivation):
        return Derivation(rule, lhs, rhs, premises, node.witness)
    return ReductiveTrace(rule, lhs, rhs, premises)


def _put(tree, path, new):
    """tree with its node at path replaced by new."""
    if not path:
        return new
    premises = list(tree.premises)
    premises[path[0]] = _put(premises[path[0]], path[1:], new)
    return _remade(tree, tree.rule, tree.lhs, tree.rhs, tuple(premises))


GHOST = Name(NominalName("Ghost", False))  # declared in no hierarchy here


def _one_name_replaced(rng, t):
    """t with one of its names, picked by rng, replaced by GHOST or by the
    same text with the other kind."""
    leaves, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Name):
            leaves.append(x)
        else:
            todo += x.right, x.left
    k = rng.randrange(len(leaves))
    n = leaves[k].name
    new = GHOST if rng.random() < 0.5 else Name(NominalName(n.text, not n.abstract))

    def rebuilt(x):
        nonlocal k
        if isinstance(x, Name):
            k -= 1
            return new if k == -1 else x
        return type(x)(rebuilt(x.left), rebuilt(x.right))

    return rebuilt(t)


class TestMutatedProofs:
    """Valid traces and derivations of TestVerdictDifferential's queries,
    each with one node changed: its rule, one side, or one premise.  A
    checker that accepts a tree accepts each of its subtrees, so wherever
    the changed judgement is false by the semantic oracle, which knows
    nothing of the rule schemas, the checker must reject the tree."""

    def _change(self, rng, h, tree, rules):
        # The changed node, and tree with that node in its place.
        nodes = _nodes(tree)
        node, path = rng.choice(nodes)
        rule, lhs, rhs, premises = node.rule, node.lhs, node.rhs, list(node.premises)
        kind = rng.randrange(3)
        if kind == 0:
            rule = rng.choice([r for r in rules if r != rule])
        elif kind == 1:
            other = rng.choice(
                [
                    Name(rng.choice(h.names)),
                    random_type(rng, h, 2, max_nf_weight=4),
                    rng.choice(nodes)[0].rhs,
                    lhs if rng.random() < 0.5 else rhs,  # the two sides swapped
                ]
            )
            if other is lhs or other is rhs:
                lhs, rhs = rhs, lhs
            elif rng.random() < 0.5:
                lhs = other
            else:
                rhs = other
        else:
            donor = rng.choice(nodes)[0]
            if premises and rng.random() < 0.5:
                premises[rng.randrange(len(premises))] = donor
            elif premises and rng.random() < 0.5:
                del premises[rng.randrange(len(premises))]
            else:
                premises.insert(rng.randrange(len(premises) + 1), donor)
        new = _remade(node, rule, lhs, rhs, tuple(premises))
        return new, _put(tree, path, new)

    def test_false_judgements_are_rejected_by_both_checkers(self):
        rng = random.Random(2718)
        query = TestVerdictDifferential()._query
        rejected = {check_reductive_trace: 0, check_declarative: 0}
        for _ in range(12):
            h = random_hierarchy(rng, 8)
            for q in range(60):
                t1, t2, _ = query(rng, h, q)
                if max(nf_weight(h, t1), nf_weight(h, t2)) > 64:
                    continue
                mode = Mode.SEMANTIC if q % 2 == 0 else Mode.ATOMIC
                verdict, trace = reductive_sub(h, t1, t2, mode, rng.choice(BOTH))
                if not verdict:
                    continue
                d = synthesize(h, trace, mode)
                for tree, check, rules in (
                    (trace, check_reductive_trace, SR_RULES),
                    (d, check_declarative, SD_RULES),
                ):
                    for _ in range(6):
                        node, changed = self._change(rng, h, tree, rules)
                        if not semantic_sub(h, node.lhs, node.rhs, mode):
                            assert not check(h, changed, mode), format_trace(changed)
                            rejected[check] += 1
        assert min(rejected.values()) >= 300, rejected

    def test_names_outside_h_are_rejected_by_both_checkers(self):
        # One name in one side of one node, the root in half the trees, made
        # one that h does not declare with that kind.  A parent compares that
        # side with a subterm of its own sides, and the root's sides must be
        # types of h, so the checker rejects every such tree.
        rng = random.Random(1414)
        query = TestVerdictDifferential()._query
        roots = {check_reductive_trace: 0, check_declarative: 0}
        for _ in range(8):
            h = random_hierarchy(rng, 8)
            for q in range(40):
                t1, t2, _ = query(rng, h, q)
                if max(nf_weight(h, t1), nf_weight(h, t2)) > 64:
                    continue
                mode = Mode.SEMANTIC if q % 2 == 0 else Mode.ATOMIC
                verdict, trace = reductive_sub(h, t1, t2, mode, rng.choice(BOTH))
                if not verdict:
                    continue
                for tree, check in (
                    (trace, check_reductive_trace),
                    (synthesize(h, trace, mode), check_declarative),
                ):
                    nodes = _nodes(tree)
                    for _ in range(4):
                        node, path = nodes[0] if rng.random() < 0.5 else rng.choice(nodes)
                        lhs, rhs = node.lhs, node.rhs
                        if rng.random() < 0.5:
                            lhs = _one_name_replaced(rng, lhs)
                        else:
                            rhs = _one_name_replaced(rng, rhs)
                        new = _remade(node, node.rule, lhs, rhs, node.premises)
                        changed = _put(tree, path, new)
                        assert not check(h, changed, mode), format_trace(changed)
                        roots[check] += not path
        assert min(roots.values()) >= 100, roots


class TestWitnessEqualToAll:
    """False judgements t1 <: t2 over types of depth 2, each routed through
    an SD-Trans whose witness w compares equal to every value: by SD-Refl
    into w and out of it, or, where t2 is a union, by SD-UnionR1 into w|w
    and out of it by SD-UnionL over SD-UnionR1 or SD-UnionR2 nodes w <: t2.
    A rule that compared those sides with their own == would accept each."""

    def test_rejected_in_both_modes(self):
        rng = random.Random(3141)
        types = types_up_to(TOWER, 2)
        rejected = {mode: 0 for mode in Mode}
        for mode in Mode:
            while rejected[mode] < 150:
                t1, t2 = rng.choice(types), rng.choice(types)
                if semantic_sub(TOWER, t1, t2, mode):
                    continue
                w = rng.choice([mock.ANY, Name(NominalName(mock.ANY, False))])
                if isinstance(t2, Union) and rng.random() < 0.5:
                    w, arm = Union(w, w), rng.choice([SD_UNION_R1, SD_UNION_R2])
                    into = Derivation(SD_UNION_R1, t1, w)
                    out = Derivation(SD_UNION_L, w, t2, (Derivation(arm, w.left, t2),) * 2)
                else:
                    into, out = Derivation(SD_REFL, t1, w), Derivation(SD_REFL, w, t2)
                d = Derivation(SD_TRANS, t1, t2, (into, out), w)
                assert check_declarative(TOWER, d, mode) is False, format_trace(d)
                rejected[mode] += 1
