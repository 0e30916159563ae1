import random

import pytest
from hypothesis import given, settings

from conftest import TOWER, T, type_exprs
from tagsub.core import Decl, Name, NominalName, Pair, Union, UnknownName, validate_hierarchy
from tagsub.derivation import SD_REFL, Derivation
from tagsub.gen import random_hierarchy, random_type, types_up_to, value_types_up_to
from tagsub.normalize import EmptyAbstract, nf
from tagsub.semantics import Mode, matches, matching_sub, semantic_sub
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


def sub(t1, t2, mode=Mode.SEMANTIC, strategy=Strategy.NORMALIZE_FIRST):
    return reductive_sub(TOWER, T(t1), T(t2), mode, strategy)


class TestVerdicts:
    @pytest.mark.parametrize("strategy", BOTH)
    @pytest.mark.parametrize(
        "t1,t2,expected",
        [
            ("Str*(Int|Flt)", "Str*Real", True),
            ("Str*Real", "(Str*Int)|(Str*Str)|(Str*Flt)", True),
            ("Num", "Real|Cmplx", True),
            ("Real", "Int|Flt", True),
            ("Int|Flt", "Real", True),
            ("Real", "Int", False),
            ("Str*(Int|Flt)", "(Str*Int)|(Str*Flt)", True),
            ("Num*Num", "Str|(Num*Num)", True),
            ("Int", "Str", False),
        ],
    )
    def test_semantic_examples(self, t1, t2, expected, strategy):
        verdict, trace = sub(t1, t2, strategy=strategy)
        assert verdict is expected
        assert (trace is not None) is expected
        if trace is not None:
            assert check_reductive_trace(TOWER, trace)

    @pytest.mark.parametrize("strategy", BOTH)
    def test_atomic_examples(self, strategy):
        assert sub("Real", "Int|Flt", Mode.ATOMIC, strategy)[0] is False
        assert sub("Int|Flt", "Real", Mode.ATOMIC, strategy)[0] is True
        assert sub("Real", "Real", Mode.ATOMIC, strategy)[0] is True
        assert sub("Real", "Num", Mode.ATOMIC, strategy)[0] is True
        verdict, trace = sub("Real*Int", "Num*Real", Mode.ATOMIC, strategy)
        assert verdict
        assert check_reductive_trace(TOWER, trace, Mode.ATOMIC)

    def test_empty_abstract_propagates_in_semantic_mode(self):
        h = validate_hierarchy([Decl("Void", True), Decl("Int", False)])
        void, i = Name(h.lookup("Void")), Name(h.lookup("Int"))
        for strategy in BOTH:
            with pytest.raises(EmptyAbstract):
                reductive_sub(h, void, i, Mode.SEMANTIC, strategy)
        # Atomic mode keeps the name atomic, so the query is decidable.
        assert reductive_sub(h, void, void, Mode.ATOMIC)[0] is True
        assert reductive_sub(h, void, i, Mode.ATOMIC)[0] is False


VOID = validate_hierarchy([Decl("Void", True), Decl("Int", False), Decl("Str", False)])


def V(src: str):
    return T(src, VOID)


class TestErrorParity:
    """A query raises what normalizing its left side raises, in both strategies."""

    @pytest.mark.parametrize("strategy", BOTH)
    def test_empty_abstract_behind_a_false_arm(self, strategy):
        # Str alone already fails against Int; the error must still surface.
        with pytest.raises(EmptyAbstract) as raised:
            reductive_sub(VOID, V("Str|Void"), V("Int"), Mode.SEMANTIC, strategy)
        with pytest.raises(EmptyAbstract) as normalized:
            nf(VOID, V("Str|Void"))
        assert str(raised.value) == str(normalized.value)

    @pytest.mark.parametrize("strategy", BOTH)
    def test_empty_abstract_inside_a_pair(self, strategy):
        with pytest.raises(EmptyAbstract):
            reductive_sub(VOID, V("Int*Void"), V("Int*Int|Str"), Mode.SEMANTIC, strategy)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("strategy", BOTH)
    def test_foreign_name_on_the_left(self, mode, strategy):
        foreign = Pair(V("Int"), Name(TOWER.lookup("Real")))
        with pytest.raises(UnknownName):
            reductive_sub(VOID, foreign, V("Int"), mode, strategy)
        with pytest.raises(UnknownName):
            reductive_sub(VOID, Union(V("Str"), foreign), V("Int*Int"), mode, strategy)

    def test_first_bad_name_decides_the_error(self):
        # Left to right, as normalization meets them: Void before Real.
        bad = Pair(V("Void"), Name(TOWER.lookup("Real")))
        for strategy in BOTH:
            with pytest.raises(EmptyAbstract):
                reductive_sub(VOID, bad, V("Int"), Mode.SEMANTIC, strategy)
            with pytest.raises(UnknownName):
                reductive_sub(VOID, bad, V("Int"), Mode.ATOMIC, strategy)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("strategy", BOTH)
    def test_undeclared_name_after_a_false_arm(self, mode, strategy):
        ghost = Name(NominalName("Ghost", False))
        with pytest.raises(UnknownName, match="Ghost"):
            reductive_sub(VOID, Union(V("Str"), ghost), V("Int"), mode, strategy)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("strategy", BOTH)
    @pytest.mark.parametrize("t2", ["Int*Int|Int*Str", "Int*Int|Str"])
    def test_leftmost_bad_name_inside_a_pair_below_no_pair_arm(self, mode, strategy, t2):
        # The right side's components hold no pair, so the left pairs below
        # the root meet no pair arm; Foo comes before Bar.
        t1 = Pair(Pair(FOO, V("Int")), Pair(V("Int"), BAR))
        with pytest.raises(UnknownName, match="Foo"):
            reductive_sub(VOID, t1, V(t2), mode, strategy)

    @pytest.mark.parametrize("strategy", BOTH)
    @pytest.mark.parametrize(
        "t1,t2,expected",
        [
            ("Void", "Void", True),
            ("Void", "Int", False),
            ("Str|Void", "Int", False),
            ("Void", "Str|Void", True),
            ("Void*Int", "Void*Int|Str", True),
            ("Void*Int", "Int*Int|Void*Str", False),
            ("Int|Void", "Void|Int", True),
        ],
    )
    def test_atomic_void_verdicts(self, strategy, t1, t2, expected):
        verdict, trace = reductive_sub(VOID, V(t1), V(t2), Mode.ATOMIC, strategy)
        assert verdict is expected
        if verdict:
            assert check_reductive_trace(VOID, trace, Mode.ATOMIC)


#: Names declared only in other hierarchies than TOWER.
FOO = Name(validate_hierarchy([Decl("Foo", False)]).lookup("Foo"))
BAR = Name(validate_hierarchy([Decl("Bar", False)]).lookup("Bar"))


class TestUndeclaredNamesOnTheRight:
    """All three characterizations reject a right side the hierarchy does not declare."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("strategy", BOTH)
    def test_reductive(self, mode, strategy):
        with pytest.raises(UnknownName, match="Foo"):
            reductive_sub(TOWER, T("Int"), Union(T("Int"), FOO), mode, strategy)
        with pytest.raises(UnknownName, match="Foo"):
            reductive_sub(TOWER, T("Str"), Union(T("Int"), FOO), mode, strategy)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_semantic(self, mode):
        with pytest.raises(UnknownName, match="Foo"):
            semantic_sub(TOWER, T("Int"), Union(T("Int"), FOO), mode)

    def test_matching(self):
        with pytest.raises(UnknownName, match="Foo"):
            matching_sub(TOWER, T("Int"), Union(T("Int"), FOO))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_left_side_error_comes_first(self, mode):
        rhs = Union(T("Int"), FOO)
        for strategy in BOTH:
            with pytest.raises(UnknownName, match="Bar"):
                reductive_sub(TOWER, BAR, rhs, mode, strategy)
        with pytest.raises(UnknownName, match="Bar"):
            semantic_sub(TOWER, BAR, rhs, mode)
        if mode is Mode.SEMANTIC:
            with pytest.raises(UnknownName, match="Bar"):
                matching_sub(TOWER, BAR, rhs)
            with pytest.raises(EmptyAbstract):
                reductive_sub(VOID, V("Void"), Union(V("Int"), FOO), mode)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("strategy", BOTH)
    def test_wide_union_on_the_right(self, mode, strategy):
        wide = T("|".join(["Str", "Flt", "Int"] * 1000))
        assert reductive_sub(TOWER, T("Int"), wide, mode, strategy)[0] is True

    @pytest.mark.parametrize("mode", list(Mode))
    def test_wide_union_on_the_left(self, mode):
        # The verdict loops over the left side's arms; the trace is not read.
        wide = T("|".join(["Int", "Flt"] * 1500))
        assert reductive_sub(TOWER, wide, T("Real"), mode)[0] is True


class TestGoldenTraces:
    def test_normalize_first_has_eight_applications(self):
        verdict, trace = sub("Str*(Int|Flt)", "Str*Real")
        assert verdict and trace.size() == 8
        assert trace.rule == SR_NF

    def test_short_path_has_five_applications(self):
        verdict, trace = sub(
            "Str*(Int|Flt)", "Str*Real", strategy=Strategy.SHORT_PATH_FIRST
        )
        assert verdict and trace.size() == 5
        assert trace.rule == SR_PAIR
        rules = _rules(trace)
        assert rules.count(SR_NOM) == 2
        assert rules.count(SR_BASE_REFL) == 1
        assert rules.count(SR_UNION_L) == 1

    def test_trace_serialization(self):
        _, trace = sub("Real", "Int|Flt")
        assert format_trace(trace) == (
            "SR-NF: Real <: Int|Flt\n"
            "  SR-UnionL: Int|Flt <: Int|Flt\n"
            "    SR-UnionR1: Int <: Int|Flt\n"
            "      SR-BaseRefl: Int <: Int\n"
            "    SR-UnionR2: Flt <: Int|Flt\n"
            "      SR-BaseRefl: Flt <: Flt"
        )

    def test_short_path_root_fallback(self):
        # No direct derivation exists; only the root normalization proves it.
        verdict, trace = sub(
            "Real*Int", "Int*Int|Flt*Int", strategy=Strategy.SHORT_PATH_FIRST
        )
        assert verdict and trace.size() == 10
        assert format_trace(trace) == (
            "SR-NF: Real*Int <: Int*Int|Flt*Int\n"
            "  SR-UnionL: Int*Int|Flt*Int <: Int*Int|Flt*Int\n"
            "    SR-UnionR1: Int*Int <: Int*Int|Flt*Int\n"
            "      SR-Pair: Int*Int <: Int*Int\n"
            "        SR-BaseRefl: Int <: Int\n"
            "        SR-BaseRefl: Int <: Int\n"
            "    SR-UnionR2: Flt*Int <: Int*Int|Flt*Int\n"
            "      SR-Pair: Flt*Int <: Flt*Int\n"
            "        SR-BaseRefl: Flt <: Flt\n"
            "        SR-BaseRefl: Int <: Int"
        )

    def test_short_path_inner_normalization(self):
        verdict, trace = sub(
            "Int*Real", "Int*(Int|Flt)", strategy=Strategy.SHORT_PATH_FIRST
        )
        assert verdict and trace.size() == 8
        assert format_trace(trace) == (
            "SR-Pair: Int*Real <: Int*(Int|Flt)\n"
            "  SR-BaseRefl: Int <: Int\n"
            "  SR-NF: Real <: Int|Flt\n"
            "    SR-UnionL: Int|Flt <: Int|Flt\n"
            "      SR-UnionR1: Int <: Int|Flt\n"
            "        SR-BaseRefl: Int <: Int\n"
            "      SR-UnionR2: Flt <: Int|Flt\n"
            "        SR-BaseRefl: Flt <: Flt"
        )


def _rules(trace):
    out = [trace.rule]
    for p in trace.premises:
        out.extend(_rules(p))
    return out


class TestTraceChecker:
    def test_rejects_base_refl_on_distinct_names(self):
        bad = ReductiveTrace(SR_BASE_REFL, T("Int"), T("Flt"))
        assert not check_reductive_trace(TOWER, bad)

    def test_rejects_nom_outside_the_relation(self):
        assert not check_reductive_trace(TOWER, ReductiveTrace(SR_NOM, T("Str"), T("Num")))
        assert not check_reductive_trace(TOWER, ReductiveTrace(SR_NOM, T("Int"), T("Int")))

    def test_rejects_abstract_left_nom_in_semantic_mode(self):
        tr = ReductiveTrace(SR_NOM, T("Real"), T("Num"))
        assert not check_reductive_trace(TOWER, tr, Mode.SEMANTIC)
        assert check_reductive_trace(TOWER, tr, Mode.ATOMIC)

    def test_rejects_wrong_nf_premise(self):
        bad = ReductiveTrace(
            SR_NF, T("Real"), T("Real"), (ReductiveTrace(SR_BASE_REFL, T("Real"), T("Real")),)
        )
        assert not check_reductive_trace(TOWER, bad)

    def test_rejects_nested_nf(self):
        inner = ReductiveTrace(
            SR_NF, T("Int"), T("Int"), (ReductiveTrace(SR_BASE_REFL, T("Int"), T("Int")),)
        )
        nested = ReductiveTrace(SR_NF, T("Int"), T("Int"), (inner,))
        assert check_reductive_trace(TOWER, inner)
        assert not check_reductive_trace(TOWER, nested)

    def test_rejects_mismatched_premises(self):
        bad = ReductiveTrace(
            SR_PAIR,
            T("Int*Int"),
            T("Real*Real"),
            (
                ReductiveTrace(SR_NOM, T("Int"), T("Real")),
                ReductiveTrace(SR_NOM, T("Flt"), T("Real")),
            ),
        )
        assert not check_reductive_trace(TOWER, bad)

    def test_rejects_nf_of_a_childless_abstract_name(self):
        # Void has no normal form in the semantic mode, and is its own in the
        # atomic mode, where SR-Nom concludes Void <: Void.
        h = validate_hierarchy([Decl("Void", True), Decl("Int", False)])
        void = Name(h.lookup("Void"))
        trace = ReductiveTrace(SR_NF, void, void, (ReductiveTrace(SR_NOM, void, void),))
        assert not check_reductive_trace(h, trace, Mode.SEMANTIC)
        assert check_reductive_trace(h, trace, Mode.ATOMIC)

    def test_rejects_nf_of_a_childless_abstract_name_as_an_axiom(self):
        # Read as the empty type, a childless Void would be below every
        # type; SR-NF over it is still no axiom, in either mode.
        h = validate_hierarchy([Decl("Void", True), Decl("Int", False)])
        trace = ReductiveTrace(SR_NF, Name(h.lookup("Void")), Name(h.lookup("Int")))
        for mode in Mode:
            assert not check_reductive_trace(h, trace, mode)

    def test_accepts_short_path_traces_with_inner_nf(self):
        verdict, trace = sub(
            "Int*Real", "Int*(Int|Flt)", strategy=Strategy.SHORT_PATH_FIRST
        )
        assert verdict
        assert SR_NF in _rules(trace) and trace.rule != SR_NF
        assert check_reductive_trace(TOWER, trace)


def R(rule, lhs, rhs, *premises):
    """A trace node; a side given as text is parsed over TOWER."""
    lhs, rhs = (T(x) if isinstance(x, str) else x for x in (lhs, rhs))
    return ReductiveTrace(rule, lhs, rhs, premises)


#: Declared names of TOWER with the other kind: an abstract Int, a concrete Real.
ABSTRACT_INT = Name(NominalName("Int", True))
CONCRETE_REAL = Name(NominalName("Real", False))
ALL_MODES = tuple(Mode)
D_INT = Derivation(SD_REFL, T("Int"), T("Int"))
INT_INT = R(SR_BASE_REFL, "Int", "Int")
INT_REAL, FLT_REAL = R(SR_NOM, "Int", "Real"), R(SR_NOM, "Flt", "Real")
INT_NUM, FLT_NUM = R(SR_NOM, "Int", "Num"), R(SR_NOM, "Flt", "Num")
REAL_NUM = R(SR_UNION_L, "Int|Flt", "Num", INT_NUM, FLT_NUM)  # below SR-NF from Real


def pair(*premises):
    """SR-Pair concluding Int*Flt <: Real*Real, which INT_REAL, FLT_REAL prove."""
    return R(SR_PAIR, "Int*Flt", "Real*Real", *premises)


#: Per rule, nodes that break its schema in one way each: (id, node, the
#: modes that reject it).  A node rejected in one mode only is accepted in
#: the other, which pins the mode as the reason.
MALFORMED_TRACE_TABLE = [
    ("SR-BaseRefl with a premise", R(SR_BASE_REFL, "Int", "Int", INT_INT), ALL_MODES),
    ("SR-BaseRefl on an abstract name", R(SR_BASE_REFL, "Real", "Real"), ALL_MODES),
    ("SR-BaseRefl on an abstract Int", R(SR_BASE_REFL, ABSTRACT_INT, ABSTRACT_INT), ALL_MODES),
    ("SR-BaseRefl on another hierarchy's name", R(SR_BASE_REFL, FOO, FOO), ALL_MODES),
    ("SR-Nom upward", R(SR_NOM, "Real", "Int"), ALL_MODES),
    ("SR-Nom from an abstract Int", R(SR_NOM, ABSTRACT_INT, "Real"), ALL_MODES),
    ("SR-Nom to a concrete Real", R(SR_NOM, "Int", CONCRETE_REAL), ALL_MODES),
    ("SR-Nom to another hierarchy's name", R(SR_NOM, "Int", FOO), ALL_MODES),
    ("SR-Nom on another hierarchy's name", R(SR_NOM, FOO, FOO), ALL_MODES),
    ("SR-Nom from an abstract name", R(SR_NOM, "Real", "Num"), (Mode.SEMANTIC,)),
    ("SR-Pair with one premise", pair(INT_REAL), ALL_MODES),
    ("SR-Pair with three premises", pair(INT_REAL, FLT_REAL, FLT_REAL), ALL_MODES),
    ("SR-Pair over derivations", R(SR_PAIR, "Int*Int", "Int*Int", D_INT, D_INT), ALL_MODES),
    ("SR-Pair with swapped premises", pair(FLT_REAL, INT_REAL), ALL_MODES),
    ("SR-Pair, first premise off the left", pair(FLT_REAL, FLT_REAL), ALL_MODES),
    ("SR-Pair, first premise off the right", pair(INT_NUM, FLT_REAL), ALL_MODES),
    ("SR-Pair, second premise off the left", pair(INT_REAL, INT_REAL), ALL_MODES),
    ("SR-Pair, second premise off the right", pair(INT_REAL, FLT_NUM), ALL_MODES),
    ("SR-Pair over a bad second premise", pair(INT_REAL, R(SR_BASE_REFL, "Flt", "Real")), ALL_MODES),
    ("SR-Pair from a union", R(SR_PAIR, "Int|Flt", "Real*Real", INT_REAL, FLT_REAL), ALL_MODES),
    ("SR-Pair to a name", R(SR_PAIR, "Int*Flt", "Real", INT_REAL, FLT_REAL), ALL_MODES),
    ("SR-UnionL with one premise", R(SR_UNION_L, "Int|Flt", "Real", INT_REAL), ALL_MODES),
    ("SR-UnionL over derivations", R(SR_UNION_L, "Int|Int", "Int", D_INT, D_INT), ALL_MODES),
    (
        "SR-UnionL with swapped premises",
        R(SR_UNION_L, "Int|Flt", "Real", FLT_REAL, INT_REAL),
        ALL_MODES,
    ),
    ("SR-UnionL from a pair", R(SR_UNION_L, "Int*Flt", "Real", INT_REAL, FLT_REAL), ALL_MODES),
    ("SR-UnionR1 without a premise", R(SR_UNION_R1, "Int", "Int|Flt"), ALL_MODES),
    (
        "SR-UnionR2 with two premises",
        R(SR_UNION_R2, "Flt", "Int|Flt", FLT_REAL, FLT_REAL),
        ALL_MODES,
    ),
    ("SR-UnionR1 over a derivation", R(SR_UNION_R1, "Int", "Int|Flt", D_INT), ALL_MODES),
    ("SR-UnionR1 naming the right arm", R(SR_UNION_R1, "Flt", "Str|Real", FLT_REAL), ALL_MODES),
    ("SR-UnionR2 naming the left arm", R(SR_UNION_R2, "Int", "Real|Str", INT_REAL), ALL_MODES),
    ("SR-UnionR1 off the left", R(SR_UNION_R1, "Flt", "Real|Str", INT_REAL), ALL_MODES),
    ("SR-UnionR1 to a pair", R(SR_UNION_R1, "Int", "Real*Str", INT_REAL), ALL_MODES),
    ("SR-NF without a premise", R(SR_NF, "Real", "Num"), ALL_MODES),
    ("SR-NF with two premises", R(SR_NF, "Real", "Num", REAL_NUM, REAL_NUM), ALL_MODES),
    ("SR-NF over a derivation", R(SR_NF, "Int", "Int", D_INT), ALL_MODES),
    ("SR-NF off the right", R(SR_NF, "Real", "Real|Str", REAL_NUM), ALL_MODES),
    ("SR-NF from an abstract Int", R(SR_NF, ABSTRACT_INT, "Num", REAL_NUM), ALL_MODES),
    ("SR-NF to the semantic normal form", R(SR_NF, "Real", "Num", REAL_NUM), (Mode.ATOMIC,)),
    (
        "SR-NF inside SR-NF",
        R(SR_NF, "Real", "Num", R(SR_NF, "Int|Flt", "Num", REAL_NUM)),
        ALL_MODES,
    ),
]


class TestMalformedTraces:
    """Nodes that break their rule's schema: rejected in both modes."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "trace",
        [
            ReductiveTrace("SR-Bogus", T("Int"), T("Str")),
            ReductiveTrace(
                SR_NOM, T("Int"), T("Real"), (ReductiveTrace(SR_BASE_REFL, T("Int"), T("Int")),)
            ),
        ],
        ids=["unknown rule", "SR-Nom with a premise"],
    )
    def test_rejected(self, trace, mode):
        assert not check_reductive_trace(TOWER, trace, mode)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "trace, rejecting",
        [row[1:] for row in MALFORMED_TRACE_TABLE],
        ids=[row[0] for row in MALFORMED_TRACE_TABLE],
    )
    def test_table(self, trace, rejecting, mode):
        assert check_reductive_trace(TOWER, trace, mode) is (mode not in rejecting)


class TestAgainstOracle:
    def test_exhaustive_depth_2_both_modes(self):
        ts = types_up_to(TOWER, 2)
        for mode in Mode:
            for t1 in ts:
                for t2 in ts:
                    expected = semantic_sub(TOWER, t1, t2, mode)
                    assert reductive_sub(TOWER, t1, t2, mode)[0] == expected, (
                        f"{t1} <: {t2} [{mode}]"
                    )

    @settings(max_examples=300)
    @given(type_exprs(max_leaves=6), type_exprs(max_leaves=6))
    def test_random_pairs_against_oracle(self, t1, t2):
        for mode in Mode:
            expected = semantic_sub(TOWER, t1, t2, mode)
            for strategy in BOTH:
                assert reductive_sub(TOWER, t1, t2, mode, strategy)[0] == expected

    def test_value_subtyping_coincides_with_matching(self):
        ts = types_up_to(TOWER, 2)
        for v in value_types_up_to(TOWER, 2):
            for t in ts:
                assert reductive_sub(TOWER, v, t)[0] == matches(TOWER, v, t)

    def test_random_hierarchies_against_oracle(self):
        # The sentinel closure for arbitrary hierarchies is our own
        # generalization, so it gets its own differential check.
        rng = random.Random(11)
        for _ in range(20):
            h = random_hierarchy(rng, 10)
            for _ in range(200):
                t1 = random_type(rng, h, 3)
                t2 = random_type(rng, h, 3)
                for mode in Mode:
                    assert (
                        reductive_sub(h, t1, t2, mode)[0]
                        == semantic_sub(h, t1, t2, mode)
                    ), f"{t1} <: {t2} [{mode}]"

    @pytest.mark.parametrize(
        "decls",
        [
            # abstract chain over a single leaf, plus a second root
            [Decl("A", True), Decl("B", True, "A"), Decl("C", False, "B"), Decl("D", False)],
            # two abstract siblings under one abstract root
            [
                Decl("R", True),
                Decl("A", True, "R"),
                Decl("B", True, "R"),
                Decl("C", False, "A"),
                Decl("D", False, "B"),
            ],
        ],
        ids=["abstract-chain", "abstract-siblings"],
    )
    def test_exhaustive_small_worlds(self, decls):
        h = validate_hierarchy(decls)
        ts = types_up_to(h, 2)
        for t1 in ts:
            for t2 in ts:
                for mode in Mode:
                    expected = semantic_sub(h, t1, t2, mode)
                    got, trace = reductive_sub(h, t1, t2, mode)
                    assert got == expected, f"{t1} <: {t2} [{mode}]"
                    if got:
                        assert check_reductive_trace(h, trace, mode)


class TestRelationalProperties:
    @given(type_exprs())
    def test_reflexive(self, t):
        for mode in Mode:
            for strategy in BOTH:
                verdict, trace = reductive_sub(TOWER, t, t, mode, strategy)
                assert verdict
                assert check_reductive_trace(TOWER, trace, mode)

    def test_transitive_sampled(self):
        rng = random.Random(7)
        triples = 0
        while triples < 200:
            a = random_type(rng, TOWER, 3)
            b = random_type(rng, TOWER, 3)
            c = random_type(rng, TOWER, 3)
            if reductive_sub(TOWER, a, b)[0] and reductive_sub(TOWER, b, c)[0]:
                triples += 1
                assert reductive_sub(TOWER, a, c)[0]

    @given(type_exprs(max_leaves=4), type_exprs(max_leaves=4), type_exprs(max_leaves=4))
    def test_distributivity_both_directions(self, t11, t12, t2):
        left = Pair(Union(t11, t12), t2)
        right = Union(Pair(t11, t2), Pair(t12, t2))
        assert reductive_sub(TOWER, left, right)[0]
        assert reductive_sub(TOWER, right, left)[0]
        left = Pair(t2, Union(t11, t12))
        right = Union(Pair(t2, t11), Pair(t2, t12))
        assert reductive_sub(TOWER, left, right)[0]
        assert reductive_sub(TOWER, right, left)[0]

    @settings(max_examples=300)
    @given(type_exprs(max_leaves=6), type_exprs(max_leaves=6))
    def test_strategies_agree(self, t1, t2):
        for mode in Mode:
            assert (
                reductive_sub(TOWER, t1, t2, mode, Strategy.NORMALIZE_FIRST)[0]
                == reductive_sub(TOWER, t1, t2, mode, Strategy.SHORT_PATH_FIRST)[0]
            )


def right_nested(parts):
    """The pair chain parts[0]*(parts[1]*(…)), nested to the right."""
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Pair(p, out)
    return out


class TestDeepPairChains:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_right_nested_chain_of_1500_pairs(self, mode):
        # The verdict's walk takes a right spine in one frame.
        int_, real = T("Int"), T("Real")
        t = right_nested([int_] * 1501)
        assert reductive_sub(TOWER, t, t, mode)[0] is True
        assert reductive_sub(TOWER, t, right_nested([int_] * 1500 + [real]), mode)[0] is True
        assert reductive_sub(TOWER, t, right_nested([int_] * 1500 + [T("Str")]), mode)[0] is False
        with pytest.raises(UnknownName, match="Foo"):
            reductive_sub(TOWER, right_nested([int_] * 1500 + [FOO]), t, mode)
