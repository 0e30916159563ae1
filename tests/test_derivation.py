import copy
import dataclasses
import itertools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings

from conftest import TOWER, T, type_exprs
from tagsub import derivation, subtyping
from tagsub.core import (
    Decl,
    Name,
    NominalName,
    Pair,
    Union,
    UnknownName,
    parse_hierarchy,
    validate_hierarchy,
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
    InvalidTrace,
    check_declarative,
    derive_nf_sub,
    derive_sub_nf,
    format_derivation,
    synthesize,
)
from tagsub.gen import random_hierarchy, random_type, types_up_to
from tagsub.normalize import EmptyAbstract, nf, nf_atomic, nf_for_mode
from tagsub.semantics import Mode, semantic_sub
from tagsub.subtyping import (
    SR_BASE_REFL,
    SR_NF,
    SR_NOM,
    SR_PAIR,
    SR_UNION_L,
    SR_UNION_R1,
    ReductiveTrace,
    Strategy,
    check_reductive_trace,
    format_trace,
    reductive_sub,
)


def _rules(d):
    out = [d.rule]
    for p in d.premises:
        out.extend(_rules(p))
    return out


class TestChecker:
    def test_union_of_pairs_below_pair_of_union(self):
        # (Str*Int)|(Str*Flt) <: Str*(Int|Flt) via union-left over two pair rules.
        rhs = T("Str*(Int|Flt)")
        left_arm = Derivation(
            SD_PAIR,
            T("Str*Int"),
            rhs,
            (
                Derivation(SD_REFL, T("Str"), T("Str")),
                Derivation(SD_UNION_R1, T("Int"), T("Int|Flt")),
            ),
        )
        right_arm = Derivation(
            SD_PAIR,
            T("Str*Flt"),
            rhs,
            (
                Derivation(SD_REFL, T("Str"), T("Str")),
                Derivation("SD-UnionR2", T("Flt"), T("Int|Flt")),
            ),
        )
        d = Derivation(SD_UNION_L, T("(Str*Int)|(Str*Flt)"), rhs, (left_arm, right_arm))
        assert check_declarative(TOWER, d)
        assert semantic_sub(TOWER, d.lhs, d.rhs)

    def test_single_refl_node(self):
        assert check_declarative(TOWER, Derivation(SD_REFL, T("Num"), T("Num")))

    def test_rejects_distribution_claim_without_distr_rule(self):
        # The converse direction cannot be claimed by a union-right axiom:
        # the left-hand side is not syntactically an arm of the union.
        bad = Derivation(SD_UNION_R1, T("Str*(Int|Flt)"), T("(Str*Int)|(Str*Flt)"))
        assert not check_declarative(TOWER, bad)
        # Nor does a pair rule apply: the right-hand side is not a pair.
        bad2 = Derivation(
            SD_PAIR,
            T("Str*(Int|Flt)"),
            T("(Str*Int)|(Str*Flt)"),
            (
                Derivation(SD_REFL, T("Str"), T("Str")),
                Derivation(SD_REFL, T("Int|Flt"), T("Int|Flt")),
            ),
        )
        assert not check_declarative(TOWER, bad2)

    def test_accepts_distr2_axiom(self):
        d = Derivation(SD_DISTR2, T("Str*(Int|Flt)"), T("(Str*Int)|(Str*Flt)"))
        assert check_declarative(TOWER, d)
        assert semantic_sub(TOWER, d.lhs, d.rhs)

    def test_abs_union_requires_canonical_shape(self):
        assert check_declarative(
            TOWER, Derivation(SD_ABS_UNION, T("Real"), T("Int|Flt"))
        )
        assert check_declarative(
            TOWER, Derivation(SD_ABS_UNION, T("Num"), T("(Int|Flt)|Cmplx"))
        )
        assert not check_declarative(
            TOWER, Derivation(SD_ABS_UNION, T("Real"), T("Flt|Int"))
        )
        assert not check_declarative(
            TOWER, Derivation(SD_ABS_UNION, T("Num"), T("Int|(Flt|Cmplx)"))
        )

    def test_atomic_mode_rejects_abs_union(self):
        d = Derivation(SD_ABS_UNION, T("Real"), T("Int|Flt"))
        assert check_declarative(TOWER, d, Mode.SEMANTIC)
        assert not check_declarative(TOWER, d, Mode.ATOMIC)

    def test_nom_is_strict(self):
        assert check_declarative(TOWER, Derivation(SD_NOM, T("Real"), T("Num")))
        assert not check_declarative(TOWER, Derivation(SD_NOM, T("Int"), T("Int")))
        assert not check_declarative(TOWER, Derivation(SD_NOM, T("Num"), T("Real")))

    def test_trans_needs_matching_witness(self):
        good = Derivation(
            SD_TRANS,
            T("Int"),
            T("Str|Real"),
            (
                Derivation(SD_NOM, T("Int"), T("Real")),
                Derivation("SD-UnionR2", T("Real"), T("Str|Real")),
            ),
            witness=T("Real"),
        )
        assert check_declarative(TOWER, good)
        bad = Derivation(
            SD_TRANS, T("Int"), T("Str|Real"), good.premises, witness=T("Num")
        )
        assert not check_declarative(TOWER, bad)

    def test_witness_only_on_trans(self):
        d = Derivation(SD_REFL, T("Int"), T("Int"), witness=T("Int"))
        assert not check_declarative(TOWER, d)

    def test_distribution_over_a_pair_of_unions(self):
        # Both components are unions: each axiom splits only its own side.
        t = T("(Int|Flt)*(Str|Cmplx)")
        over_left = T("Int*(Str|Cmplx)|Flt*(Str|Cmplx)")
        over_right = T("(Int|Flt)*Str|(Int|Flt)*Cmplx")
        assert check_declarative(TOWER, Derivation(SD_DISTR1, t, over_left))
        assert not check_declarative(TOWER, Derivation(SD_DISTR1, t, over_right))
        assert check_declarative(TOWER, Derivation(SD_DISTR2, t, over_right))
        assert not check_declarative(TOWER, Derivation(SD_DISTR2, t, over_left))

    def test_no_distribution_over_a_pair_component(self):
        # Taking a pair component apart as if it were a union is false.
        d1 = Derivation(SD_DISTR1, T("(Int*Flt)*Str"), T("Int*Str|Flt*Str"))
        d2 = Derivation(SD_DISTR2, T("Str*(Int*Flt)"), T("Str*Int|Str*Flt"))
        for mode in Mode:
            assert check_declarative(TOWER, d1, mode) is False
            assert check_declarative(TOWER, d2, mode) is False

    def test_no_pair_rule_to_a_union(self):
        # Int*Int <: Int|Int is false, though the union's arms are the pair's
        # components.
        lhs, rhs = T("Int*Int"), T("Int|Int")
        trace = ReductiveTrace(SR_PAIR, lhs, rhs, (REFL_INT, REFL_INT))
        d = Derivation(SD_PAIR, lhs, rhs, (Derivation(SD_REFL, INT, INT),) * 2)
        for mode in Mode:
            assert check_reductive_trace(TOWER, trace, mode) is False
            assert check_declarative(TOWER, d, mode) is False


def D(rule, lhs, rhs, *premises, witness=None):
    """A derivation node; a side or witness given as text is parsed over TOWER."""
    lhs, rhs, witness = (T(x) if isinstance(x, str) else x for x in (lhs, rhs, witness))
    return Derivation(rule, lhs, rhs, premises, witness)


#: Declared names of TOWER with the other kind, and an abstract name and its
#: one child declared only in another hierarchy.
ABSTRACT_INT = Name(NominalName("Int", True))
CONCRETE_REAL = Name(NominalName("Real", False))
SHAPE, CIRCLE = (
    Name(n) for n in validate_hierarchy([Decl("Shape", True), Decl("Circle", False, "Shape")]).names
)
ALL_MODES = tuple(Mode)
D_INT, D_REAL = D(SD_REFL, "Int", "Int"), D(SD_REFL, "Real", "Real")
INT_REAL, FLT_REAL = D(SD_NOM, "Int", "Real"), D(SD_NOM, "Flt", "Real")
INT_FLT, FLT_INT = (INT_REAL, FLT_REAL), (FLT_REAL, INT_REAL)  # in and out of order
INT_NUM, FLT_NUM = D(SD_NOM, "Int", "Num"), D(SD_NOM, "Flt", "Num")
REAL_NUM = D(SD_NOM, "Real", "Num")
BAD = D(SD_REFL, "Flt", "Real")  # a well-typed premise that no rule concludes
TRACE_INT = ReductiveTrace(SR_BASE_REFL, T("Int"), T("Int"))
#: The two distributions of a pair with one union component.
OVER_LEFT, OVER_RIGHT = ("(Int|Flt)*Str", "Int*Str|Flt*Str"), ("Str*(Int|Flt)", "Str*Int|Str*Flt")


def trans(lhs, witness, rhs, *premises):
    """An SD-Trans node from lhs through witness to rhs."""
    return D(SD_TRANS, lhs, rhs, *premises, witness=witness)


#: Per rule, nodes that break its schema in one way each: (id, node, the
#: modes that reject it).  A node rejected in one mode only is accepted in
#: the other, which pins the mode as the reason.
MALFORMED_DERIVATION_TABLE = [
    ("SD-Refl with a premise", D(SD_REFL, "Int", "Int", D_INT), ALL_MODES),
    ("SD-Refl between distinct names", D(SD_REFL, "Int", "Flt"), ALL_MODES),
    ("SD-Refl with a witness", D(SD_REFL, "Int", "Int", witness="Int"), ALL_MODES),
    ("SD-Nom with a premise", D(SD_NOM, "Int", "Real", D_INT), ALL_MODES),
    ("SD-Nom on one name", D(SD_NOM, "Int", "Int"), ALL_MODES),
    ("SD-Nom on one abstract name", D(SD_NOM, "Real", "Real"), ALL_MODES),
    ("SD-Nom upward", D(SD_NOM, "Real", "Int"), ALL_MODES),
    ("SD-Nom from an abstract Int", D(SD_NOM, ABSTRACT_INT, "Real"), ALL_MODES),
    ("SD-Nom to a concrete Real", D(SD_NOM, "Int", CONCRETE_REAL), ALL_MODES),
    ("SD-Nom to another hierarchy's name", D(SD_NOM, CIRCLE, SHAPE), ALL_MODES),
    ("SD-AbsUnion with a premise", D(SD_ABS_UNION, "Real", "Int|Flt", D_REAL), ALL_MODES),
    ("SD-AbsUnion upward", D(SD_ABS_UNION, "Int|Flt", "Real"), ALL_MODES),
    ("SD-AbsUnion to a partial union", D(SD_ABS_UNION, "Real", "Int"), ALL_MODES),
    ("SD-AbsUnion to a reordered union", D(SD_ABS_UNION, "Real", "Flt|Int"), ALL_MODES),
    ("SD-AbsUnion on a concrete Real", D(SD_ABS_UNION, CONCRETE_REAL, "Int|Flt"), ALL_MODES),
    ("SD-AbsUnion on an abstract Int", D(SD_ABS_UNION, ABSTRACT_INT, "Int"), ALL_MODES),
    ("SD-AbsUnion on another hierarchy's name", D(SD_ABS_UNION, SHAPE, CIRCLE), ALL_MODES),
    ("SD-AbsUnion in the atomic mode", D(SD_ABS_UNION, "Real", "Int|Flt"), (Mode.ATOMIC,)),
    ("SD-Pair with one premise", D(SD_PAIR, "Int*Flt", "Real*Real", INT_REAL), ALL_MODES),
    ("SD-Pair over traces", D(SD_PAIR, "Int*Int", "Int*Int", TRACE_INT, TRACE_INT), ALL_MODES),
    ("SD-Pair with swapped premises", D(SD_PAIR, "Int*Flt", "Real*Real", *FLT_INT), ALL_MODES),
    ("SD-Pair over a bad second premise", D(SD_PAIR, "Int*Flt", "Real*Real", INT_REAL, BAD), ALL_MODES),
    ("SD-Pair to a name", D(SD_PAIR, "Int*Flt", "Real", INT_REAL, FLT_REAL), ALL_MODES),
    ("SD-UnionL with three premises", D(SD_UNION_L, "Int|Flt", "Real", *INT_FLT, D_INT), ALL_MODES),
    ("SD-UnionL over traces", D(SD_UNION_L, "Int|Int", "Int", TRACE_INT, TRACE_INT), ALL_MODES),
    ("SD-UnionL with swapped premises", D(SD_UNION_L, "Int|Flt", "Real", *FLT_INT), ALL_MODES),
    ("SD-UnionL from a pair", D(SD_UNION_L, "Int*Flt", "Real", INT_REAL, FLT_REAL), ALL_MODES),
    ("SD-UnionR1 naming the right arm", D(SD_UNION_R1, "Flt", "Int|Flt"), ALL_MODES),
    ("SD-UnionR2 naming the left arm", D(SD_UNION_R2, "Int", "Int|Flt"), ALL_MODES),
    ("SD-UnionR1 upward", D(SD_UNION_R1, "Int|Flt", "Int"), ALL_MODES),
    ("SD-UnionR1 to a pair", D(SD_UNION_R1, "Int", "Int*Flt"), ALL_MODES),
    ("SD-Trans without a witness", D(SD_TRANS, "Int", "Real", INT_REAL, D_REAL), ALL_MODES),
    ("SD-Trans with one premise", trans("Int", "Real", "Real", INT_REAL), ALL_MODES),
    ("SD-Trans over traces", trans("Int", "Int", "Int", TRACE_INT, TRACE_INT), ALL_MODES),
    ("SD-Trans with swapped premises", trans("Int", "Real", "Num", REAL_NUM, INT_REAL), ALL_MODES),
    ("SD-Trans, premise 1 off the witness", trans("Int", "Real", "Num", INT_NUM, REAL_NUM), ALL_MODES),
    ("SD-Trans, premise 2 off the witness", trans("Int", "Real", "Num", INT_REAL, FLT_NUM), ALL_MODES),
    ("SD-Trans over a bad second premise", trans("Flt", "Flt", "Real", D(SD_REFL, "Flt", "Flt"), BAD), ALL_MODES),
    ("SD-Trans from another left side", trans("Flt", "Real", "Num", INT_REAL, REAL_NUM), ALL_MODES),
    ("SD-Trans to another right side", trans("Int", "Real", "Real", INT_REAL, REAL_NUM), ALL_MODES),
    ("SD-Distr1 with a premise", D(SD_DISTR1, *OVER_LEFT, D_INT), ALL_MODES),
    ("SD-Distr1 upward", D(SD_DISTR1, *reversed(OVER_LEFT)), ALL_MODES),
    ("SD-Distr1 from a union", D(SD_DISTR1, "Int|Flt|Str", "Int*Str|Flt*Str"), ALL_MODES),
    ("SD-Distr2 over the left component", D(SD_DISTR2, *OVER_LEFT), ALL_MODES),
    ("SD-Distr2 with a premise", D(SD_DISTR2, *OVER_RIGHT, D_INT), ALL_MODES),
    ("SD-Distr1 over the right component", D(SD_DISTR1, *OVER_RIGHT), ALL_MODES),
    ("SD-Distr1 to a pair", D(SD_DISTR1, "(Int|Flt)*Str", "Int*Str"), ALL_MODES),
    ("SD-Distr2 to a pair", D(SD_DISTR2, "Str*(Int|Flt)", "Str*Int"), ALL_MODES),
    ("SD-Distr1 to a union with a name arm", D(SD_DISTR1, "(Int|Flt)*Str", "Int*Str|Flt"), ALL_MODES),
    ("SD-Distr2 to a union with a name arm", D(SD_DISTR2, "Str*(Int|Flt)", "Str|Str*Flt"), ALL_MODES),
]


class TestMalformedDerivations:
    """Nodes that break their rule's schema: rejected in both modes."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "d",
        [
            Derivation("SD-Bogus", T("Int"), T("Str")),
            Derivation(SD_ABS_UNION, T("Int"), T("Int")),
            Derivation(
                SD_UNION_R1, T("Int"), T("Int|Str"), (Derivation(SD_REFL, T("Int"), T("Int")),)
            ),
            Derivation(
                SD_UNION_R2, T("Str"), T("Int|Str"), (Derivation(SD_REFL, T("Str"), T("Str")),)
            ),
            Derivation(SD_NOM, Name(NominalName("Ghost", False)), T("Real")),
        ],
        ids=[
            "unknown rule",
            "SD-AbsUnion on a concrete name",
            "SD-UnionR1 with a premise",
            "SD-UnionR2 with a premise",
            "SD-Nom from an undeclared name",
        ],
    )
    def test_rejected(self, d, mode):
        assert not check_declarative(TOWER, d, mode)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "d, rejecting",
        [row[1:] for row in MALFORMED_DERIVATION_TABLE],
        ids=[row[0] for row in MALFORMED_DERIVATION_TABLE],
    )
    def test_table(self, d, rejecting, mode):
        assert check_declarative(TOWER, d, mode) is (mode not in rejecting)


class TestSynthesize:
    def test_shortest_golden_trace(self):
        _, trace = reductive_sub(
            TOWER, T("Str*(Int|Flt)"), T("Str*Real"), strategy=Strategy.SHORT_PATH_FIRST
        )
        d = synthesize(TOWER, trace)
        assert check_declarative(TOWER, d)
        assert d.lhs == T("Str*(Int|Flt)") and d.rhs == T("Str*Real")
        rules = _rules(d)
        assert SD_PAIR in rules and SD_UNION_L in rules and SD_NOM in rules

    def test_normalization_golden_trace(self):
        _, trace = reductive_sub(TOWER, T("Str*(Int|Flt)"), T("Str*Real"))
        d = synthesize(TOWER, trace)
        assert check_declarative(TOWER, d)

    def test_nf_root_becomes_trans_with_nf_witness(self):
        _, trace = reductive_sub(TOWER, T("Num"), T("Real|Cmplx"))
        d = synthesize(TOWER, trace)
        assert d.rule == SD_TRANS
        assert d.witness == T("(Int|Flt)|Cmplx")
        assert check_declarative(TOWER, d)

    def test_base_refl_becomes_refl(self):
        trace = ReductiveTrace(SR_BASE_REFL, T("Str"), T("Str"))
        d = synthesize(TOWER, trace)
        assert d == Derivation(SD_REFL, T("Str"), T("Str"))

    def test_invalid_trace_rejected(self):
        with pytest.raises(InvalidTrace):
            synthesize(TOWER, ReductiveTrace(SR_BASE_REFL, T("Int"), T("Flt")))

    def test_atomic_traces_synthesize(self):
        verdict, trace = reductive_sub(TOWER, T("Real*Int"), T("Num*Real"), Mode.ATOMIC)
        assert verdict
        d = synthesize(TOWER, trace, Mode.ATOMIC)
        assert check_declarative(TOWER, d, Mode.ATOMIC)

    def test_atomic_reflexive_abstract_nominal_step_becomes_refl(self):
        # The nominal rule covers Real <: Real atomically; its declarative
        # counterpart must be reflexivity, not a strict nominal axiom.
        verdict, trace = reductive_sub(TOWER, T("Real"), T("Real"), Mode.ATOMIC)
        assert verdict
        d = synthesize(TOWER, trace, Mode.ATOMIC)
        assert check_declarative(TOWER, d, Mode.ATOMIC)
        assert SD_NOM not in _rules(d)

    @settings(max_examples=200)
    @given(type_exprs(max_leaves=5), type_exprs(max_leaves=5))
    def test_round_trip_on_random_pairs(self, t1, t2):
        for mode in Mode:
            for strategy in [Strategy.NORMALIZE_FIRST, Strategy.SHORT_PATH_FIRST]:
                verdict, trace = reductive_sub(TOWER, t1, t2, mode, strategy)
                if verdict:
                    d = synthesize(TOWER, trace, mode)
                    assert check_declarative(TOWER, d, mode)
                    assert d.lhs == t1 and d.rhs == t2

    @settings(max_examples=200)
    @given(type_exprs(max_leaves=5), type_exprs(max_leaves=5))
    def test_accepted_derivations_are_semantically_sound(self, t1, t2):
        verdict, trace = reductive_sub(TOWER, t1, t2)
        if verdict:
            d = synthesize(TOWER, trace)
            assert check_declarative(TOWER, d)
            assert semantic_sub(TOWER, t1, t2)


class TestNfEquivalenceDerivations:
    def test_abstract_name_up(self):
        d = derive_sub_nf(TOWER, T("Real"))
        assert d == Derivation(SD_ABS_UNION, T("Real"), T("Int|Flt"))

    def test_concrete_name_up(self):
        assert derive_sub_nf(TOWER, T("Int")) == Derivation(SD_REFL, T("Int"), T("Int"))

    def test_pair_up_goes_through_distr2(self):
        d = derive_sub_nf(TOWER, T("Str*(Int|Flt)"))
        assert check_declarative(TOWER, d)
        assert d.rhs == T("(Str*Int)|(Str*Flt)")
        assert SD_DISTR2 in _rules(d) and SD_TRANS in _rules(d)

    def test_abstract_name_down(self):
        d = derive_nf_sub(TOWER, T("Real"))
        assert check_declarative(TOWER, d)
        assert d.rule == SD_UNION_L
        assert _rules(d) == [SD_UNION_L, SD_NOM, SD_NOM]
        assert d.lhs == T("Int|Flt") and d.rhs == T("Real")

    def test_num_down(self):
        d = derive_nf_sub(TOWER, T("Num"))
        assert check_declarative(TOWER, d)
        assert d.lhs == T("(Int|Flt)|Cmplx") and d.rhs == T("Num")
        assert set(_rules(d)) == {SD_UNION_L, SD_NOM}

    def test_concrete_name_down(self):
        assert derive_nf_sub(TOWER, T("Int")) == Derivation(SD_REFL, T("Int"), T("Int"))

    def test_golden_up_distributes_on_both_sides(self):
        d = derive_sub_nf(TOWER, T("(Int|Flt)*(Int|Str)"))
        assert check_declarative(TOWER, d)
        assert format_derivation(d) == (
            "SD-Trans: (Int|Flt)*(Int|Str) <: Int*Int|Int*Str|(Flt*Int|Flt*Str)\n"
            "  witness: (Int|Flt)*(Int|Str)\n"
            "  SD-Pair: (Int|Flt)*(Int|Str) <: (Int|Flt)*(Int|Str)\n"
            "    SD-Refl: Int|Flt <: Int|Flt\n"
            "    SD-Refl: Int|Str <: Int|Str\n"
            "  SD-Trans: (Int|Flt)*(Int|Str) <: Int*Int|Int*Str|(Flt*Int|Flt*Str)\n"
            "    witness: Int*(Int|Str)|Flt*(Int|Str)\n"
            "    SD-Distr1: (Int|Flt)*(Int|Str) <: Int*(Int|Str)|Flt*(Int|Str)\n"
            "    SD-UnionL: Int*(Int|Str)|Flt*(Int|Str) <: Int*Int|Int*Str|(Flt*Int|Flt*Str)\n"
            "      SD-Trans: Int*(Int|Str) <: Int*Int|Int*Str|(Flt*Int|Flt*Str)\n"
            "        witness: Int*Int|Int*Str\n"
            "        SD-Trans: Int*(Int|Str) <: Int*Int|Int*Str\n"
            "          witness: Int*Int|Int*Str\n"
            "          SD-Distr2: Int*(Int|Str) <: Int*Int|Int*Str\n"
            "          SD-UnionL: Int*Int|Int*Str <: Int*Int|Int*Str\n"
            "            SD-UnionR1: Int*Int <: Int*Int|Int*Str\n"
            "            SD-UnionR2: Int*Str <: Int*Int|Int*Str\n"
            "        SD-UnionR1: Int*Int|Int*Str <: Int*Int|Int*Str|(Flt*Int|Flt*Str)\n"
            "      SD-Trans: Flt*(Int|Str) <: Int*Int|Int*Str|(Flt*Int|Flt*Str)\n"
            "        witness: Flt*Int|Flt*Str\n"
            "        SD-Trans: Flt*(Int|Str) <: Flt*Int|Flt*Str\n"
            "          witness: Flt*Int|Flt*Str\n"
            "          SD-Distr2: Flt*(Int|Str) <: Flt*Int|Flt*Str\n"
            "          SD-UnionL: Flt*Int|Flt*Str <: Flt*Int|Flt*Str\n"
            "            SD-UnionR1: Flt*Int <: Flt*Int|Flt*Str\n"
            "            SD-UnionR2: Flt*Str <: Flt*Int|Flt*Str\n"
            "        SD-UnionR2: Flt*Int|Flt*Str <: Int*Int|Int*Str|(Flt*Int|Flt*Str)"
        )

    def test_golden_down_distributes_on_both_sides(self):
        d = derive_nf_sub(TOWER, T("(Int|Flt)*(Int|Str)"))
        assert check_declarative(TOWER, d)
        assert format_derivation(d) == (
            "SD-Trans: Int*Int|Int*Str|(Flt*Int|Flt*Str) <: (Int|Flt)*(Int|Str)\n"
            "  witness: (Int|Flt)*(Int|Str)\n"
            "  SD-UnionL: Int*Int|Int*Str|(Flt*Int|Flt*Str) <: (Int|Flt)*(Int|Str)\n"
            "    SD-Trans: Int*Int|Int*Str <: (Int|Flt)*(Int|Str)\n"
            "      witness: Int*(Int|Str)\n"
            "      SD-UnionL: Int*Int|Int*Str <: Int*(Int|Str)\n"
            "        SD-Pair: Int*Int <: Int*(Int|Str)\n"
            "          SD-Refl: Int <: Int\n"
            "          SD-UnionR1: Int <: Int|Str\n"
            "        SD-Pair: Int*Str <: Int*(Int|Str)\n"
            "          SD-Refl: Int <: Int\n"
            "          SD-UnionR2: Str <: Int|Str\n"
            "      SD-Pair: Int*(Int|Str) <: (Int|Flt)*(Int|Str)\n"
            "        SD-UnionR1: Int <: Int|Flt\n"
            "        SD-Refl: Int|Str <: Int|Str\n"
            "    SD-Trans: Flt*Int|Flt*Str <: (Int|Flt)*(Int|Str)\n"
            "      witness: Flt*(Int|Str)\n"
            "      SD-UnionL: Flt*Int|Flt*Str <: Flt*(Int|Str)\n"
            "        SD-Pair: Flt*Int <: Flt*(Int|Str)\n"
            "          SD-Refl: Flt <: Flt\n"
            "          SD-UnionR1: Int <: Int|Str\n"
            "        SD-Pair: Flt*Str <: Flt*(Int|Str)\n"
            "          SD-Refl: Flt <: Flt\n"
            "          SD-UnionR2: Str <: Int|Str\n"
            "      SD-Pair: Flt*(Int|Str) <: (Int|Flt)*(Int|Str)\n"
            "        SD-UnionR2: Flt <: Int|Flt\n"
            "        SD-Refl: Int|Str <: Int|Str\n"
            "  SD-Pair: (Int|Flt)*(Int|Str) <: (Int|Flt)*(Int|Str)\n"
            "    SD-Refl: Int|Flt <: Int|Flt\n"
            "    SD-Refl: Int|Str <: Int|Str"
        )

    @given(type_exprs())
    def test_both_directions_check_in_both_modes(self, t):
        for mode in Mode:
            up = derive_sub_nf(TOWER, t, mode)
            down = derive_nf_sub(TOWER, t, mode)
            normed = nf(TOWER, t) if mode is Mode.SEMANTIC else nf_atomic(TOWER, t)
            assert up.lhs == t and up.rhs == normed
            assert down.lhs == normed and down.rhs == t
            assert check_declarative(TOWER, up, mode)
            assert check_declarative(TOWER, down, mode)

    def test_both_directions_on_random_hierarchies(self):
        rng = random.Random(14)
        for _ in range(60):
            h = random_hierarchy(rng)
            for _ in range(10):
                t = random_type(rng, h, 4, max_nf_weight=256)
                for mode in Mode:
                    normed = nf_for_mode(h, t, mode)
                    up = derive_sub_nf(h, t, mode)
                    down = derive_nf_sub(h, t, mode)
                    assert up.lhs == t and up.rhs == normed
                    assert down.lhs == normed and down.rhs == t
                    assert check_declarative(h, up, mode)
                    assert check_declarative(h, down, mode)


class TestNormalizesEachNameOnce:
    """The NF derivations are built bottom up, normalizing each name once."""

    def count(self, monkeypatch, build):
        calls = []

        def counted(h, t, mode):
            calls.append(t)
            return nf_for_mode(h, t, mode)

        monkeypatch.setattr(derivation, "nf_for_mode", counted)
        build()
        return len(calls)

    def test_pair_chain(self, monkeypatch):
        t = T("*".join(["Num"] * 8))
        for derive in (derive_sub_nf, derive_nf_sub):
            assert self.count(monkeypatch, lambda: derive(TOWER, t)) == 8

    def test_synthesized_nf_step(self, monkeypatch):
        t = T("Real*(Int|Flt)*Num")
        verdict, trace = reductive_sub(TOWER, t, t)
        assert verdict and trace.rule == SR_NF
        assert self.count(monkeypatch, lambda: synthesize(TOWER, trace)) == 4


def _seeded_queries():
    """(h, t1, t2) over 30 seeded random hierarchies: each random pair, and
    t1 against itself and against t1|t2, so that many verdicts are true."""
    rng = random.Random(14)
    for _ in range(30):
        h = random_hierarchy(rng)
        for _ in range(6):
            t1, t2 = (random_type(rng, h, 3, max_nf_weight=64) for _ in range(2))
            yield from ((h, t1, t2), (h, t1, t1), (h, t1, Union(t1, t2)))


@pytest.fixture
def built(monkeypatch):
    """One entry per Derivation node constructed while the test runs."""
    calls = []
    real = Derivation.__init__

    def counted(self, *args, **kwargs):
        calls.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Derivation, "__init__", counted)
    return calls


class TestBuildsOnlyWhatItReturns:
    """The builder constructs no node that the tree it returns leaves out."""

    def keeps(self, built, make):
        built.clear()
        d = make()
        return len(built) <= d.size()

    def test_nf_derivations_up_to_depth_three(self, built):
        for t in types_up_to(TOWER, 3):
            for mode in Mode:
                assert self.keeps(built, lambda: derive_sub_nf(TOWER, t, mode)), t
                assert self.keeps(built, lambda: derive_nf_sub(TOWER, t, mode)), t

    def test_synthesized_reflexive_queries_up_to_depth_two(self, built):
        for t in types_up_to(TOWER, 2):
            for mode in Mode:
                for strategy in Strategy:
                    _, trace = reductive_sub(TOWER, t, t, mode, strategy)
                    assert self.keeps(built, lambda: synthesize(TOWER, trace, mode)), t

    def test_seeded_queries(self, built):
        for h, t1, t2 in _seeded_queries():
            for mode in Mode:
                assert self.keeps(built, lambda: derive_sub_nf(h, t1, mode))
                assert self.keeps(built, lambda: derive_nf_sub(h, t1, mode))
                for strategy in Strategy:
                    verdict, trace = reductive_sub(h, t1, t2, mode, strategy)
                    if verdict:
                        assert self.keeps(built, lambda: synthesize(h, trace, mode))

    def test_an_injection_from_its_arm_builds_no_premise(self, built):
        t = T("Int|Flt")
        _, trace = reductive_sub(TOWER, t, t, strategy=Strategy.SHORT_PATH_FIRST)
        d = synthesize(TOWER, trace)
        assert [p.rule for p in d.premises] == [SD_UNION_R1, SD_UNION_R2]
        assert len(built) == d.size() == 3


def _fresh(t):
    """A structurally equal copy of t that shares no node with t or with any
    other copy, its names included."""
    if type(t) is Name:
        return Name(NominalName(t.name.text, t.name.abstract))
    return type(t)(_fresh(t.left), _fresh(t.right))


def _rebuilt(tr):
    """The trace tr, eagerly, with every side a fresh copy."""
    premises = tuple(_rebuilt(p) for p in tr.premises)
    return ReductiveTrace(tr.rule, _fresh(tr.lhs), _fresh(tr.rhs), premises)


class TestSidesComparedByStructure:
    """The builder tests sides by identity first and then by structure, so a
    trace over copies that share no object yields the same derivation."""

    def test_traces_over_fresh_copies(self):
        types = types_up_to(TOWER, 2)
        rng = random.Random(5)
        queries = [(t, t) for t in types] + [tuple(rng.sample(types, 2)) for _ in range(300)]
        seen = 0
        for t1, t2 in queries:
            for mode in Mode:
                for strategy in Strategy:
                    verdict, trace = reductive_sub(TOWER, t1, t2, mode, strategy)
                    if not verdict:
                        continue
                    copied = _rebuilt(trace)
                    d = synthesize(TOWER, copied, mode)
                    assert format_derivation(d) == format_derivation(synthesize(TOWER, trace, mode))
                    assert check_declarative(TOWER, d, mode)
                    seen += 1
        assert seen > 400

    def test_nf_derivations_of_fresh_copies(self):
        for t in types_up_to(TOWER, 2):
            copied = _fresh(t)
            for mode in Mode:
                for derive in (derive_sub_nf, derive_nf_sub):
                    d = derive(TOWER, copied, mode)
                    assert format_derivation(d) == format_derivation(derive(TOWER, t, mode))
                    assert check_declarative(TOWER, d, mode)


VOID = validate_hierarchy(
    [Decl("Top", True), Decl("Int", False, "Top"), Decl("Void", True, "Top")]
)
GHOST = Name(NominalName("Ghost", False))


class TestNfEquivalenceErrors:
    """Both derivations raise the error of the leftmost bad name, as nf does."""

    def raises(self, t, mode, error, name):
        for derive in (derive_sub_nf, derive_nf_sub):
            with pytest.raises(error, match=name):
                derive(VOID, t, mode)

    def test_empty_abstract_in_a_pair(self):
        t = T("Int*Void", VOID)
        self.raises(t, Mode.SEMANTIC, EmptyAbstract, "Void")
        for derive in (derive_sub_nf, derive_nf_sub):
            assert derive(VOID, t, Mode.ATOMIC) == Derivation(SD_REFL, t, t)

    def test_unknown_name_first(self):
        t = Union(GHOST, T("Void", VOID))
        for mode in Mode:
            self.raises(t, mode, UnknownName, "Ghost")

    def test_empty_abstract_first(self):
        for t in (
            Union(T("Void", VOID), GHOST),
            Pair(T("Int|Void", VOID), GHOST),
        ):
            self.raises(t, Mode.SEMANTIC, EmptyAbstract, "Void")
            self.raises(t, Mode.ATOMIC, UnknownName, "Ghost")


class TestSerialization:
    def test_witness_lines(self):
        _, trace = reductive_sub(TOWER, T("Real"), T("Int|Flt"))
        text = format_derivation(synthesize(TOWER, trace))
        lines = text.splitlines()
        assert lines[0] == "SD-Trans: Real <: Int|Flt"
        assert lines[1] == "  witness: Int|Flt"
        assert any(line.strip().startswith("SD-AbsUnion") for line in lines)


class TestDeepProofTrees:
    """Size and printing loop over a tree, so a 3,000-deep one is answered.

    Every union node judges Int|Int <: Int: size and printing only walk the
    premises, and unions nested 3,000 deep would cost seconds to print."""

    DEPTH = 3000

    def deep(self, node, union_rule, bottom, leaf):
        # One union rule per level: the left premise is the level below, the
        # right one the leaf.
        tree = bottom
        for _ in range(self.DEPTH):
            tree = node(union_rule, T("Int|Int"), T("Int"), (tree, leaf))
        return tree

    def expected(self, rule, bottom_lines, leaf_line):
        n = self.DEPTH
        lines = ["  " * d + f"{rule}: Int|Int <: Int" for d in range(n)]
        lines += ["  " * n + line for line in bottom_lines]
        return lines + ["  " * d + leaf_line for d in range(n, 0, -1)]

    def test_trace(self):
        base = ReductiveTrace(SR_BASE_REFL, T("Int"), T("Int"))
        trace = self.deep(ReductiveTrace, SR_UNION_L, base, base)
        assert trace.size() == 2 * self.DEPTH + 1
        line = "SR-BaseRefl: Int <: Int"
        assert format_trace(trace).split("\n") == self.expected(SR_UNION_L, [line], line)

    def test_derivation(self):
        # The deepest node is an SD-Trans; its witness line sits right under it.
        refl = Derivation(SD_REFL, T("Int"), T("Int"))
        bottom = Derivation(SD_TRANS, T("Int"), T("Int"), (refl, refl), witness=T("Int"))
        d = self.deep(Derivation, SD_UNION_L, bottom, refl)
        assert d.size() == 2 * self.DEPTH + 3
        line = "SD-Refl: Int <: Int"
        trans = ["SD-Trans: Int <: Int", "  witness: Int", "  " + line, "  " + line]
        assert format_derivation(d).split("\n") == self.expected(SD_UNION_L, trans, line)


class TestProofNodes:
    """Traces, on-demand traces and derivations are frozen value objects."""

    def nodes(self):
        # Each call builds fresh nodes: an eager trace, an on-demand one and
        # a derivation with a witness.
        eager = ReductiveTrace(
            SR_UNION_L,
            T("Int|Flt"),
            T("Real"),
            (
                ReductiveTrace("SR-Nom", T("Int"), T("Real")),
                ReductiveTrace("SR-Nom", T("Flt"), T("Real")),
            ),
        )
        lazy = reductive_sub(TOWER, T("Str*(Int|Flt)"), T("Str*Real"))[1]
        d = Derivation(
            SD_TRANS,
            T("Int"),
            T("Str|Real"),
            (
                Derivation(SD_NOM, T("Int"), T("Real")),
                Derivation("SD-UnionR2", T("Real"), T("Str|Real")),
            ),
            witness=T("Real"),
        )
        return eager, lazy, d

    def test_assignment_raises(self):
        for node in self.nodes():
            for field in ("rule", "lhs", "rhs", "premises"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, field, getattr(node, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.nodes()[2].witness = None

    def test_equal_nodes_built_apart(self):
        for a, b in zip(self.nodes(), self.nodes()):
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert repr(a) == repr(b)
            assert {a, b} == {a}

    def test_field_values_and_repr(self):
        eager, lazy, d = self.nodes()
        assert d.witness == T("Real") and d.premises[0].witness is None
        assert d == Derivation(SD_TRANS, T("Int"), T("Str|Real"), d.premises, T("Real"))
        assert d != Derivation(SD_TRANS, T("Int"), T("Str|Real"), d.premises)
        assert repr(d.premises[0]) == (
            f"Derivation(rule='SD-Nom', lhs={T('Int')!r}, rhs={T('Real')!r}, "
            "premises=(), witness=None)"
        )
        assert repr(eager.premises[0]) == (
            f"ReductiveTrace(rule='SR-Nom', lhs={T('Int')!r}, rhs={T('Real')!r}, premises=())"
        )
        assert repr(lazy).startswith("_OnDemandTrace(rule='SR-NF', lhs=")
        assert repr(lazy).endswith(f"premises={lazy.premises!r})")
        assert eager.witness is None and lazy.witness is None

    def test_copy_and_pickle(self):
        for node in self.nodes():
            for twin in (
                copy.copy(node),
                copy.deepcopy(node),
                pickle.loads(pickle.dumps(node)),
            ):
                assert type(twin) is type(node)
                assert twin == node and repr(twin) == repr(node)


TOWER_TEXT = """
abstract Num
abstract Real <: Num
concrete Int <: Real
concrete Flt <: Real
concrete Cmplx <: Num
concrete Str
"""


@pytest.fixture
def check_calls(monkeypatch):
    """The number of trace nodes that ``subtyping._check`` has visited."""
    calls = []
    real = subtyping._check

    def counted(h, tr, mode, nf_allowed):
        calls.append(tr)
        return real(h, tr, mode, nf_allowed)

    monkeypatch.setattr(subtyping, "_check", counted)
    return calls


class TestTraceCheckedOnce:
    """An accepted trace is not walked again under the same hierarchy and mode."""

    def test_synthesize_reuses_the_check(self, check_calls):
        for mode in Mode:
            _, trace = reductive_sub(TOWER, T("Num*Num"), T("Num*Num"), mode)
            assert check_reductive_trace(TOWER, trace, mode)
            assert len(check_calls) == trace.size()
            check_calls.clear()
            d = synthesize(TOWER, trace, mode)
            assert check_calls == []
            assert check_declarative(TOWER, d, mode)
            assert check_reductive_trace(TOWER, trace, mode) and check_calls == []

    def test_the_other_mode_is_checked_in_full(self, check_calls):
        # Real is abstract: SR-Nom on it is an atomic-mode rule only.
        tr = ReductiveTrace(SR_NOM, T("Real"), T("Num"))
        assert check_reductive_trace(TOWER, tr, Mode.ATOMIC)
        assert synthesize(TOWER, tr, Mode.ATOMIC) == Derivation(SD_NOM, T("Real"), T("Num"))
        assert len(check_calls) == 1
        assert not check_reductive_trace(TOWER, tr, Mode.SEMANTIC)
        with pytest.raises(InvalidTrace):
            synthesize(TOWER, tr, Mode.SEMANTIC)
        assert len(check_calls) == 3

    def test_an_identical_hierarchy_is_checked_in_full(self, check_calls):
        again = parse_hierarchy(TOWER_TEXT)
        assert again is not TOWER and again.decls == TOWER.decls
        _, trace = reductive_sub(TOWER, T("(Int|Flt)*Num"), T("Real*Num"))
        n = trace.size()
        assert check_reductive_trace(TOWER, trace) and len(check_calls) == n
        assert check_reductive_trace(TOWER, trace) and len(check_calls) == n
        assert check_reductive_trace(again, trace) and len(check_calls) == 2 * n
        synthesize(TOWER, trace)
        synthesize(again, trace)
        assert len(check_calls) == 2 * n

    def test_a_rejected_trace_is_checked_again(self, check_calls):
        bad = ReductiveTrace(
            SR_PAIR,
            T("Int*Int"),
            T("Real*Real"),
            (
                ReductiveTrace(SR_NOM, T("Int"), T("Real")),
                ReductiveTrace(SR_BASE_REFL, T("Int"), T("Real")),
            ),
        )
        # Each check walks the root and both premises, and rejects the second.
        for expected in (3, 6):
            assert not check_reductive_trace(TOWER, bad)
            assert len(check_calls) == expected
        with pytest.raises(InvalidTrace):
            synthesize(TOWER, bad)
        assert len(check_calls) == 9

    def test_the_record_is_no_part_of_the_value(self):
        _, checked = reductive_sub(TOWER, T("Num*Num"), T("Num*Num"))
        _, fresh = reductive_sub(TOWER, T("Num*Num"), T("Num*Num"))
        before = repr(checked)
        assert check_reductive_trace(TOWER, checked)
        assert checked == fresh and hash(checked) == hash(fresh)
        assert repr(checked) == before == repr(fresh)


INT, FLT = T("Int"), T("Flt")
REFL_INT = ReductiveTrace(SR_BASE_REFL, INT, INT)
#: Declared in no hierarchy here.
GHOST, ABSTRACT_GHOST = Name(NominalName("Ghost", False)), Name(NominalName("Ghost", True))


def _through_witness(rule, x, rhs, int_below):
    """Int <: rhs by SD-Trans through the witness Int|x, then SD-UnionL over
    int_below: Int <: rhs and a rule node x <: rhs, which reads x from the
    witness and not from the root."""
    witness = Union(INT, x)
    arms = Derivation(SD_UNION_L, witness, rhs, (int_below, Derivation(rule, x, rhs)))
    return Derivation(SD_TRANS, INT, rhs, (Derivation(SD_UNION_R1, INT, witness), arms), witness)


INT_INT_FLT = Derivation(SD_UNION_R1, INT, T("Int|Flt"))


class _EqualsAll:
    """Mixed into a class of the type grammar: an instance equals every
    value, as ``unittest.mock.ANY`` does, and takes precedence over the
    base class's ``==``."""

    def __eq__(self, other):
        return True

    __hash__ = object.__hash__


class _AnyName(_EqualsAll, Name):
    pass


class _AnyPair(_EqualsAll, Pair):
    pass


class _AnyNominalName(_EqualsAll, NominalName):
    pass


class _AnyStr(_EqualsAll, str):
    __hash__ = str.__hash__  # so that h finds it under the text it spells


#: Values that compare equal to every type and are no type of TOWER: a name
#: around mock.ANY, Int in a subclass of Name, a name of a subclass of
#: NominalName, and a name whose text is of a subclass of str.
NAMES_EQUAL_TO_ALL = [
    Name(NominalName(mock.ANY, False)),
    _AnyName(INT.name),
    Name(_AnyNominalName("Int", False)),
    Name(NominalName(_AnyStr("Int"), False)),
]
STR_FLT = T("Str|Flt")
#: Names whose text is a list, which has no hash.
LIST_X, ABSTRACT_LIST_X = Name(NominalName(["x"], False)), Name(NominalName(["x"], True))


class _Incomparable:
    """A value whose == raises, as an array's does."""

    def __eq__(self, other):
        raise TypeError("no truth value")

    __hash__ = object.__hash__


class _ShiftingPair(Pair):
    """A subclass of Pair whose components read Int, Int, Str, Str and over
    again: Int*Int to the first rule that takes it apart, Str*Str to the next."""

    __slots__ = ("_reads",)

    def __init__(self):
        super().__init__(INT, INT)
        object.__setattr__(self, "_reads", itertools.cycle([INT, INT, T("Str"), T("Str")]))

    left = right = property(lambda self: next(self._reads))


class _ShiftingName(Name):
    """A subclass of Name whose name reads Int, Str and over again."""

    __slots__ = ("_reads",)

    def __init__(self):
        super().__init__(INT.name)
        object.__setattr__(self, "_reads", itertools.cycle([INT.name, T("Str").name]))

    name = property(lambda self: next(self._reads))


def _via(witness, first, second):
    """SD-Trans from first's left side through witness to second's right side."""
    return Derivation(SD_TRANS, first.lhs, second.rhs, (first, second), witness)


def _rule_via(rule, lhs, witness, rhs):
    """lhs <: rhs by SD-Trans through witness: lhs <: witness by rule, then
    witness <: rhs by SD-Refl."""
    return _via(witness, Derivation(rule, lhs, witness), Derivation(SD_REFL, witness, rhs))


def _pairwise_via(witness, lhs, rhs):
    """The pairs lhs <: rhs by SD-Trans through the pair witness, into it
    and out of it by SD-Pair over SD-Refl nodes of the components."""
    refl = [Derivation(SD_REFL, c, c) for c in (lhs.left, lhs.right, rhs.left, rhs.right)]
    into = Derivation(SD_PAIR, lhs, witness, tuple(refl[:2]))
    return _via(witness, into, Derivation(SD_PAIR, witness, rhs, tuple(refl[2:])))


class _Premises(tuple):
    """A subclass of tuple, which could answer each read differently."""


class _Trace(ReductiveTrace):
    """A subclass of ReductiveTrace, whose fields could be properties."""


class _Derivation(Derivation):
    """A subclass of Derivation, whose fields could be properties."""


class TestMalformedTrees:
    """Malformed trees are rejected by the checkers, and synthesize raises
    InvalidTrace for them, instead of any other error escaping."""

    @pytest.mark.parametrize(
        "trace",
        [
            ReductiveTrace(SR_PAIR, T("Int*Int"), T("Int*Int"), ("Int", "Int")),
            ReductiveTrace(SR_PAIR, T("Int*Int"), T("Int*Int"), (REFL_INT, None)),
            ReductiveTrace(SR_UNION_R1, INT, T("Int|Flt"), ("Int",)),
            ReductiveTrace(SR_NF, "Int", INT, (REFL_INT,)),
            ReductiveTrace(SR_NF, Pair(INT, "Int"), T("Int*Int"), (REFL_INT,)),
            ReductiveTrace(SR_BASE_REFL, INT, INT, None),
            ReductiveTrace(SR_UNION_L, T("Int|Int"), INT, [REFL_INT, REFL_INT]),
            ReductiveTrace(SR_PAIR, T("Int*Int"), T("Int*Int"), (Derivation(SD_REFL, INT, INT),) * 2),
            # A Name around a plain string rather than a NominalName.
            ReductiveTrace(SR_BASE_REFL, Name("Int"), Name("Int")),
            ReductiveTrace(SR_NOM, Name("Int"), Name("Int")),
            # A root judgement about a side that is no type of TOWER.
            ReductiveTrace(SR_UNION_R1, INT, Union(INT, GHOST), (REFL_INT,)),
            ReductiveTrace(SR_UNION_R1, INT, Union(INT, "junk"), (REFL_INT,)),
            ReductiveTrace(SR_UNION_R1, INT, Union(INT, CONCRETE_REAL), (REFL_INT,)),
            ReductiveTrace(SR_BASE_REFL, GHOST, GHOST),
            ReductiveTrace(SR_UNION_R1, mock.ANY, T("Int|Flt"), (REFL_INT,)),
            ReductiveTrace(SR_BASE_REFL, Name(NominalName(mock.ANY, False)), INT),
            ReductiveTrace(SR_BASE_REFL, Name(NominalName(["Int"], False)), INT),
            # Int <: Str|Flt, false, through a premise side equal to every type.
            *(
                ReductiveTrace(SR_UNION_R1, INT, STR_FLT, (ReductiveTrace(SR_BASE_REFL, x, x),))
                for x in NAMES_EQUAL_TO_ALL
            ),
            ReductiveTrace(
                SR_UNION_R1,
                T("Str*Int"),
                T("Int*Int|Flt"),
                (ReductiveTrace(SR_PAIR, _AnyPair(INT, INT), _AnyPair(INT, INT), (REFL_INT,) * 2),),
            ),
            ReductiveTrace(
                SR_UNION_R1,
                T("Str*Int"),
                T("Int*Int|Flt"),
                (ReductiveTrace(SR_PAIR, Pair(mock.ANY, mock.ANY), T("Int*Int"), (REFL_INT,) * 2),),
            ),
            # Int <: Int|Flt holds, but a premise's side is no type: the kernel
            # must not normalize it or read a name from it.
            ReductiveTrace(
                SR_UNION_R1, INT, T("Int|Flt"), (ReductiveTrace(SR_NF, mock.ANY, INT, (REFL_INT,)),)
            ),
            ReductiveTrace(
                SR_UNION_R1,
                INT,
                T("Int|Flt"),
                (ReductiveTrace(SR_BASE_REFL, Name(mock.ANY), Name(mock.ANY)),),
            ),
            # Int <: Str, false, under a rule that equals every rule.
            ReductiveTrace(mock.ANY, INT, T("Str")),
            ReductiveTrace(SR_UNION_L, T("Int|Int"), INT, _Premises((REFL_INT, REFL_INT))),
            ReductiveTrace(SR_UNION_R1, INT, T("Int|Flt"), (REFL_INT, REFL_INT)),
            ReductiveTrace(SR_UNION_R1, INT, T("Int|Flt"), (_Trace(SR_BASE_REFL, INT, INT),)),
            # A premise that is valid on its own sides, but they differ from
            # the ones its node gives it by a constructor, a right component
            # or a kind.
            ReductiveTrace(
                SR_UNION_R1,
                T("Int|Int"),
                T("Int|Int|Flt"),
                (ReductiveTrace(SR_PAIR, T("Int*Int"), T("Int*Int"), (REFL_INT,) * 2),),
            ),
            ReductiveTrace(
                SR_UNION_R1,
                T("Int*Int"),
                T("Int*Int|Flt"),
                (
                    ReductiveTrace(
                        SR_PAIR,
                        T("Int*Flt"),
                        T("Int*Flt"),
                        (REFL_INT, ReductiveTrace(SR_BASE_REFL, FLT, FLT)),
                    ),
                ),
            ),
            ReductiveTrace(
                SR_UNION_R1, INT, T("Int|Flt"), (ReductiveTrace(SR_NOM, ABSTRACT_INT, ABSTRACT_INT),)
            ),
            # A root judgement between a name that is no type of TOWER and
            # itself, such as Int in a subclass of Name.
            *(ReductiveTrace(SR_BASE_REFL, x, x) for x in NAMES_EQUAL_TO_ALL),
            # Int <: Real under a rule label of a subclass of str that equals
            # every string, which SR-BaseRefl would read as Int <: Int.
            ReductiveTrace(_AnyStr(SR_NOM), INT, T("Real")),
        ],
    )
    def test_trace(self, trace):
        for mode in Mode:
            assert check_reductive_trace(TOWER, trace, mode) is False
            with pytest.raises(InvalidTrace):
                synthesize(TOWER, trace, mode)

    @pytest.mark.parametrize("root", ["Int", None, Derivation(SD_REFL, INT, INT)])
    def test_trace_root(self, root):
        assert check_reductive_trace(TOWER, root) is False
        with pytest.raises(InvalidTrace):
            synthesize(TOWER, root)

    @pytest.mark.parametrize(
        "d",
        [
            Derivation(SD_PAIR, T("Int*Int"), T("Int*Int"), ("Int", "Int")),
            Derivation(SD_TRANS, INT, INT, (1, 2), witness=INT),
            Derivation(SD_TRANS, INT, INT, (Derivation(SD_REFL, INT, INT), None), witness=INT),
            Derivation(SD_REFL, INT, INT, None),
            Derivation(SD_UNION_L, T("Int|Int"), INT, [Derivation(SD_REFL, INT, INT)] * 2),
            "Int",
            REFL_INT,
            Derivation(SD_ABS_UNION, Name("Real"), T("Int|Flt")),
            Derivation(SD_NOM, Name("Int"), T("Real")),
            # A root judgement about a side that is no type of TOWER.
            Derivation(SD_UNION_R1, INT, Union(INT, GHOST)),
            Derivation(SD_UNION_R1, INT, Union(INT, "junk")),
            Derivation(SD_UNION_R1, INT, Union(INT, CONCRETE_REAL)),
            Derivation(SD_REFL, "x", "x"),
            Derivation(SD_REFL, GHOST, GHOST),
            Derivation(
                SD_DISTR1, Pair(Union(INT, GHOST), INT), Union(T("Int*Int"), Pair(GHOST, INT))
            ),
            Derivation(SD_REFL, mock.ANY, INT),  # equal to every type
            Derivation(SD_REFL, *[Name(NominalName(["Int"], False))] * 2),
            # Int*Str <: Int*Flt and Int <: Str, false, through premise sides
            # equal to every type.
            *(
                Derivation(
                    SD_PAIR,
                    T("Int*Str"),
                    T("Int*Flt"),
                    (Derivation(SD_REFL, INT, INT), Derivation(SD_REFL, x, x)),
                )
                for x in NAMES_EQUAL_TO_ALL
            ),
            Derivation(SD_TRANS, INT, T("Str"), (Derivation(SD_REFL, mock.ANY, mock.ANY),) * 2, INT),
            Derivation(SD_UNION_L, T("Int|Int"), INT, _Premises((Derivation(SD_REFL, INT, INT),) * 2)),
            Derivation(SD_UNION_L, T("Int|Int"), INT, (_Derivation(SD_REFL, INT, INT),) * 2),
            # Int <: Str and Int*Int <: Str*Str, false, from a root side equal
            # to every type.
            *(Derivation(SD_REFL, x, T("Str")) for x in NAMES_EQUAL_TO_ALL),
            Derivation(SD_REFL, _AnyPair(INT, INT), T("Str*Str")),
            # Int*Str <: Int*Flt, false, through premise sides that are Str
            # and Flt in a subclass of Name.
            Derivation(
                SD_PAIR,
                T("Int*Str"),
                T("Int*Flt"),
                (
                    Derivation(SD_REFL, INT, INT),
                    Derivation(SD_REFL, _AnyName(T("Str").name), _AnyName(FLT.name)),
                ),
            ),
            # A name that SD-Nom or SD-AbsUnion reads from an SD-Trans witness.
            _through_witness(SD_NOM, Name("Int"), T("Real"), INT_REAL),
            _through_witness(SD_NOM, GHOST, T("Real"), INT_REAL),
            _through_witness(SD_NOM, ABSTRACT_INT, T("Real"), INT_REAL),
            _through_witness(SD_ABS_UNION, ABSTRACT_GHOST, T("Int|Flt"), INT_INT_FLT),
            # A witness that is no type of TOWER is the same as itself only.
            # Int <: Str, Int*Int <: Str*Str and Int <: Str|Flt, false,
            # through a witness equal to every type.
            *(_rule_via(SD_REFL, INT, w, T("Str")) for w in (mock.ANY, *NAMES_EQUAL_TO_ALL)),
            _rule_via(SD_REFL, T("Int*Int"), _AnyPair(INT, INT), T("Str*Str")),
            _via(
                Union(mock.ANY, mock.ANY),
                Derivation(SD_UNION_R1, INT, Union(mock.ANY, mock.ANY)),
                Derivation(
                    SD_UNION_L,
                    Union(mock.ANY, mock.ANY),
                    STR_FLT,
                    (Derivation(SD_UNION_R1, mock.ANY, STR_FLT),) * 2,
                ),
            ),
            # Int*Int <: Str*Str, false, through a pair of another class whose
            # components differ from one read to the next.
            _pairwise_via(_ShiftingPair(), T("Int*Int"), T("Str*Str")),
            # Names with a text that has no hash, read from a witness on
            # either side of SD-Nom and by SD-AbsUnion.
            _through_witness(SD_NOM, LIST_X, T("Real"), INT_REAL),
            _through_witness(SD_ABS_UNION, ABSTRACT_LIST_X, T("Int|Flt"), INT_INT_FLT),
            _via(LIST_X, Derivation(SD_NOM, INT, LIST_X), Derivation(SD_NOM, LIST_X, T("Real"))),
            # A witness whose == raises, compared by each rule that reads a side.
            _rule_via(SD_REFL, INT, _Incomparable(), T("Str")),
            _rule_via(SD_ABS_UNION, T("Real"), _Incomparable(), T("Str")),
            _rule_via(SD_DISTR1, T("(Int|Flt)*Str"), _Incomparable(), T("Str")),
            _rule_via(SD_UNION_R1, INT, Union(_Incomparable(), _Incomparable()), T("Str")),
            # A root judgement between a side that is no type of TOWER and
            # itself, such as Int in a subclass of Name.
            *(Derivation(SD_REFL, x, x) for x in (*NAMES_EQUAL_TO_ALL, _AnyPair(INT, INT))),
            # Int <: Str, false, through a premise side of a subclass of Name
            # whose name reads Int first, as the parent compares it, and Str
            # next, as its own rule does.
            _via(
                INT,
                Derivation(SD_REFL, INT, INT),
                Derivation(SD_REFL, _ShiftingName(), T("Str")),
            ),
            # Int <: Real under a rule label of a subclass of str that equals
            # every string, on a node that SD-Trans would conclude.
            Derivation(
                _AnyStr(SD_NOM),
                INT,
                T("Real"),
                (Derivation(SD_NOM, INT, T("Real")), Derivation(SD_REFL, T("Real"), T("Real"))),
                T("Real"),
            ),
        ],
    )
    def test_derivation(self, d):
        for mode in Mode:
            assert check_declarative(TOWER, d, mode) is False

    def test_abs_union_on_a_childless_abstract_name(self):
        void = T("Void", VOID)
        for mode in Mode:
            assert check_declarative(VOID, Derivation(SD_ABS_UNION, void, void), mode) is False

    def test_well_formed_neighbours_still_pass(self):
        # The same shapes with proper premises are accepted.
        assert check_reductive_trace(TOWER, ReductiveTrace(SR_BASE_REFL, INT, INT, ()))
        union = ReductiveTrace(SR_UNION_L, T("Int|Int"), INT, (REFL_INT, REFL_INT))
        assert check_reductive_trace(TOWER, union)
        refl = Derivation(SD_REFL, INT, INT)
        assert check_declarative(TOWER, Derivation(SD_UNION_L, T("Int|Int"), INT, (refl, refl)))
        assert check_declarative(TOWER, Derivation(SD_TRANS, INT, INT, (refl, refl), witness=INT))

    def test_the_same_judgements_over_types_of_the_hierarchy_pass(self):
        # The ill-formed judgements above with each bad name made a declared one.
        trace = ReductiveTrace(SR_UNION_R1, INT, T("Int|Flt"), (REFL_INT,))
        distr = Derivation(SD_DISTR1, T("(Int|Flt)*Int"), T("Int*Int|Flt*Int"))
        flt = _through_witness(SD_NOM, FLT, T("Real"), INT_REAL)
        for mode in Mode:
            assert check_reductive_trace(TOWER, trace, mode)
            for d in (INT_INT_FLT, distr, flt):
                assert check_declarative(TOWER, d, mode)
        real = _through_witness(SD_ABS_UNION, T("Real"), T("Int|Flt"), INT_INT_FLT)
        assert check_declarative(TOWER, real, Mode.SEMANTIC)


class _ShiftingRoot:
    """Mixed into a proof node class: its left side reads the first of
    sides on the first read and the last on every read after it, so a
    checker that reads it twice sees two judgements."""

    def __init__(self, rule, sides, rhs, *rest):
        super().__init__(rule, sides[0], rhs, *rest)
        object.__setattr__(self, "_sides", sides)
        object.__setattr__(self, "_reads", 0)

    @property
    def lhs(self):
        object.__setattr__(self, "_reads", self._reads + 1)
        return self._sides[0] if self._reads == 1 else self._sides[-1]


class _ShiftingTrace(_ShiftingRoot, ReductiveTrace):
    __slots__ = ("_sides", "_reads")


class _ShiftingDerivation(_ShiftingRoot, Derivation):
    __slots__ = ("_sides", "_reads")


class _SelfAcceptedTrace(ReductiveTrace):
    """A subclass of ReductiveTrace whose accept record claims that it was
    accepted under TOWER in semantic mode."""

    _accepts = property(lambda self: ((TOWER, Mode.SEMANTIC),))


def _unset(cls):
    """An instance of cls whose slots were never set."""
    return cls.__new__(cls)


class TestRootReadOnce:
    """Each checker decides one reading of the root's fields, and a
    subclass of a proof node cannot answer for its own acceptance."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_root_whose_left_side_changes_between_reads(self, mode):
        # First read Int <: Str, false; read again Str <: Str.
        str_ = T("Str")
        trace = _ShiftingTrace(SR_BASE_REFL, (INT, str_), str_)
        assert check_reductive_trace(TOWER, trace, mode) is False
        with pytest.raises(InvalidTrace):
            synthesize(TOWER, _ShiftingTrace(SR_BASE_REFL, (INT, str_), str_), mode)
        d = _ShiftingDerivation(SD_REFL, (INT, str_), str_)
        assert check_declarative(TOWER, d, mode) is False

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_root_that_reads_true_once_is_accepted(self, mode):
        # Read once, Str <: Str holds; the shift that follows is not read.
        str_ = T("Str")
        assert check_reductive_trace(TOWER, _ShiftingTrace(SR_BASE_REFL, (str_, INT), str_), mode)
        assert check_declarative(TOWER, _ShiftingDerivation(SD_REFL, (str_, INT), str_), mode)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_synthesize_derives_the_judgement_it_checked(self, mode):
        # Int <: Real by SR-Nom on the one read; Str <: Real, false, on every
        # read after it.
        trace = _ShiftingTrace(SR_NOM, (INT, INT, INT, T("Str")), T("Real"))
        d = synthesize(TOWER, trace, mode)
        assert (d.rule, d.lhs, d.rhs) == (SD_NOM, INT, T("Real"))
        assert check_declarative(TOWER, d, mode)

    def test_a_subclass_cannot_claim_an_accept(self):
        # Int <: Str is false; the subclass's property claims an accept.
        trace = _SelfAcceptedTrace(SR_BASE_REFL, INT, T("Str"))
        for mode in Mode:
            assert check_reductive_trace(TOWER, trace, mode) is False
            with pytest.raises(InvalidTrace):
                synthesize(TOWER, trace, mode)

    def test_a_subclass_keeps_no_accept_record(self):
        trace = _Trace(SR_BASE_REFL, INT, INT)
        assert check_reductive_trace(TOWER, trace)
        with pytest.raises(AttributeError):
            trace._accepts


def _refl_via(witness, side):
    """side <: side by SD-Trans through witness, by SD-Refl on both sides."""
    return _via(witness, Derivation(SD_REFL, side, witness), Derivation(SD_REFL, witness, side))


_PAIR, _UNION = _unset(Pair), _unset(Union)
_NAMES = [_unset(Name), Name(_unset(NominalName))]
_INT_INT, _D_INT = T("Int*Int"), Derivation(SD_REFL, INT, INT)
#: Int*Int <: Int*Int, Int|Int <: Int|Int and Int <: Int through an unset
#: witness, which each rule that compares or takes apart a side reads.
UNSET_WITNESSES = [
    _refl_via(_PAIR, _INT_INT),
    _refl_via(_UNION, T("Int|Int")),
    *(_refl_via(x, INT) for x in _NAMES),
    _via(
        _PAIR,
        Derivation(SD_PAIR, _INT_INT, _PAIR, (_D_INT, _D_INT)),
        Derivation(SD_PAIR, _PAIR, _INT_INT, (_D_INT, _D_INT)),
    ),
    _via(_UNION, Derivation(SD_UNION_R1, INT, _UNION), Derivation(SD_REFL, _UNION, INT)),
    *(_via(x, Derivation(SD_NOM, INT, x), Derivation(SD_REFL, x, INT)) for x in _NAMES),
    # An unset arm of a witness, read by a rule of the left-union node out of it.
    _through_witness(SD_DISTR1, _PAIR, T("Real"), INT_REAL),
    _through_witness(SD_DISTR2, _PAIR, T("Real"), INT_REAL),
    _through_witness(SD_UNION_L, _UNION, T("Real"), INT_REAL),
    *(_through_witness(SD_NOM, x, T("Real"), INT_REAL) for x in _NAMES),
    *(_through_witness(SD_ABS_UNION, x, T("Int|Flt"), INT_INT_FLT) for x in _NAMES),
]


class TestUnsetSlots:
    """A type whose slots were never set, made by __new__ alone, is rejected
    by the checkers rather than raising."""

    @pytest.mark.parametrize("cls", [Pair, Union, Name])
    def test_a_root_side(self, cls):
        x = _unset(cls)
        for mode in Mode:
            assert check_reductive_trace(TOWER, ReductiveTrace(SR_BASE_REFL, x, x), mode) is False
            assert check_declarative(TOWER, Derivation(SD_REFL, x, x), mode) is False
            assert check_declarative(TOWER, Derivation(SD_REFL, INT, x), mode) is False

    def test_a_name_around_an_unset_nominal_name(self):
        x = Name(_unset(NominalName))
        for mode in Mode:
            assert check_reductive_trace(TOWER, ReductiveTrace(SR_BASE_REFL, x, x), mode) is False
            assert check_declarative(TOWER, Derivation(SD_REFL, x, x), mode) is False

    @pytest.mark.parametrize("d", UNSET_WITNESSES)
    def test_a_witness(self, d):
        for mode in Mode:
            assert check_declarative(TOWER, d, mode) is False

    @pytest.mark.parametrize("cls", [ReductiveTrace, _Trace])
    def test_a_trace_root(self, cls):
        for mode in Mode:
            assert check_reductive_trace(TOWER, _unset(cls), mode) is False
            with pytest.raises(InvalidTrace):
                synthesize(TOWER, _unset(cls), mode)

    @pytest.mark.parametrize("cls", [Derivation, _Derivation])
    def test_a_derivation_root(self, cls):
        for mode in Mode:
            assert check_declarative(TOWER, _unset(cls), mode) is False

    def test_a_premise(self):
        # Int <: Int|Flt holds, by SR-UnionR1 over Int <: Int.
        trace = ReductiveTrace(SR_UNION_R1, INT, T("Int|Flt"), (_unset(ReductiveTrace),))
        d = Derivation(SD_TRANS, INT, INT, (_D_INT, _unset(Derivation)), INT)
        for mode in Mode:
            assert check_reductive_trace(TOWER, trace, mode) is False
            with pytest.raises(InvalidTrace):
                synthesize(TOWER, trace, mode)
            assert check_declarative(TOWER, d, mode) is False


class TestDeepProofs:
    """Both checkers keep their own stack, so a valid 3,000-deep tree is
    accepted and a wrong rule at its deepest leaf is found."""

    DEPTH = 3000

    def deep(self, node, rule, leaf, bottom):
        # ((Int|Int)|Int)|... <: Int: one union rule per level, the level
        # below on the left and the leaf Int <: Int on the right.
        tree, lhs = bottom, INT
        for _ in range(self.DEPTH):
            lhs = Union(lhs, INT)
            tree = node(rule, lhs, INT, (tree, leaf))
        return tree

    @pytest.mark.parametrize("mode", list(Mode))
    def test_trace(self, mode):
        good = self.deep(ReductiveTrace, SR_UNION_L, REFL_INT, REFL_INT)
        assert good.size() == 2 * self.DEPTH + 1
        assert check_reductive_trace(TOWER, good, mode)
        wrong = ReductiveTrace(SR_NOM, INT, INT)  # Int <: Int is SR-BaseRefl's
        bad = self.deep(ReductiveTrace, SR_UNION_L, REFL_INT, wrong)
        assert not check_reductive_trace(TOWER, bad, mode)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_derivation(self, mode):
        good = self.deep(Derivation, SD_UNION_L, _D_INT, _D_INT)
        assert check_declarative(TOWER, good, mode)
        wrong = Derivation(SD_NOM, INT, INT)  # SD-Nom relates distinct names
        assert not check_declarative(TOWER, self.deep(Derivation, SD_UNION_L, _D_INT, wrong), mode)
