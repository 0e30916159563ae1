import random

import pytest
from hypothesis import given

from conftest import EXTENDED, TOWER, T, nested, type_exprs, value_type_exprs
from tagsub.core import (
    Decl,
    Name,
    NominalName,
    Pair,
    UnknownName,
    Union,
    is_value_type,
    validate_hierarchy,
    validate_type,
)
from tagsub.gen import types_up_to, value_types_up_to
from tagsub.normalize import nf_weight
from tagsub.semantics import (
    Concrete,
    Mode,
    NotAValueType,
    PairTag,
    Sentinel,
    format_tag_set,
    interp,
    matches,
    matching_sub,
    semantic_sub,
    tag_key,
    tag_to_type,
    type_to_tag,
)

GHOST = Name(NominalName("Ghost", False))  # declared in no hierarchy here


def tags(*texts):
    """Shorthand: build a tag set from type syntax over the built-in hierarchy."""
    return frozenset(type_to_tag(T(t)) for t in texts)


class TestInterp:
    def test_concrete_name(self):
        assert interp(TOWER, T("Int")) == tags("Int")

    def test_abstract_names(self):
        assert interp(TOWER, T("Real")) == tags("Int", "Flt")
        assert interp(TOWER, T("Num")) == tags("Int", "Flt", "Cmplx")

    def test_pair_distributes(self):
        assert interp(TOWER, T("Str*(Int|Flt)")) == tags("Str*Int", "Str*Flt")

    def test_union(self):
        assert interp(TOWER, T("Int|Str")) == tags("Int", "Str")

    def test_atomic_real(self):
        real = TOWER.lookup("Real")
        assert interp(TOWER, T("Real"), Mode.ATOMIC) == tags("Int", "Flt") | {
            Sentinel(real)
        }

    def test_atomic_num(self):
        num, real = TOWER.lookup("Num"), TOWER.lookup("Real")
        assert interp(TOWER, T("Num"), Mode.ATOMIC) == tags("Int", "Flt", "Cmplx") | {
            Sentinel(real),
            Sentinel(num),
        }

    def test_atomic_pairs_carry_sentinels(self):
        got = interp(TOWER, T("Real*Int"), Mode.ATOMIC)
        assert PairTag(Sentinel(TOWER.lookup("Real")), Concrete(TOWER.lookup("Int"))) in got
        assert len(got) == 3

    def test_sentinel_free_input_gives_sentinel_free_interp(self):
        for src in ["Int", "Str*Int", "Int|Flt", "(Int|Str)*(Flt|Cmplx)"]:
            assert not any(
                isinstance(t, Sentinel) or _has_sentinel(t)
                for t in interp(TOWER, T(src), Mode.ATOMIC)
            )

    def test_empty_abstract_has_empty_interpretation(self):
        h = validate_hierarchy([Decl("Void", True), Decl("Int", False)])
        assert interp(h, Name(h.lookup("Void"))) == frozenset()

    def test_printing_is_canonically_ordered(self):
        assert format_tag_set(interp(TOWER, T("Num"))) == "{Cmplx, Flt, Int}"
        assert (
            format_tag_set(interp(TOWER, T("Num"), Mode.ATOMIC))
            == "{Cmplx, Flt, Int, E(Num), E(Real)}"
        )
        assert format_tag_set(interp(TOWER, T("Str*(Int|Flt)"))) == "{Str*Flt, Str*Int}"
        assert format_tag_set(frozenset()) == "{}"


def _has_sentinel(tag):
    if isinstance(tag, Sentinel):
        return True
    if isinstance(tag, PairTag):
        return _has_sentinel(tag.left) or _has_sentinel(tag.right)
    return False


class TestMatches:
    @pytest.mark.parametrize(
        "v,t,expected",
        [
            ("Int", "Real", True),
            ("Str*Int", "Str*(Int|Flt)", True),
            ("Int", "Int", True),
            ("Flt", "Int", False),
            ("Cmplx", "Real", False),
            ("Int*Int", "Num*Num", True),
            ("Str", "Int|Str", True),
            ("Str*Flt", "Str*Int|Str*Str", False),
        ],
    )
    def test_examples(self, v, t, expected):
        assert matches(TOWER, T(v), T(t)) is expected

    def test_rejects_non_value_types(self):
        with pytest.raises(NotAValueType):
            matches(TOWER, T("Real"), T("Num"))
        with pytest.raises(NotAValueType):
            matches(TOWER, T("Int|Int"), T("Num"))

    @pytest.mark.parametrize(
        "t",
        [
            Union(T("Int"), GHOST),
            Union(GHOST, T("Int")),
            Union(T("Int"), Name(NominalName("Real", False))),
        ],
        ids=["undeclared right arm", "undeclared left arm", "Real of the other kind"],
    )
    def test_a_name_h_does_not_declare_raises_in_either_arm(self, t):
        # semantic_sub and matching_sub raise on the same right side.
        with pytest.raises(UnknownName):
            matches(TOWER, T("Int"), t)
        with pytest.raises(UnknownName):
            semantic_sub(TOWER, T("Int"), t)

    def test_the_value_names_are_checked_first(self):
        t = Union(T("Int*Int"), Name(NominalName("Real", False)))
        with pytest.raises(UnknownName, match="Ghost"):
            matches(TOWER, Pair(T("Int"), GHOST), t)

    def test_matching_coincides_with_membership(self):
        vs = value_types_up_to(TOWER, 3)
        ts = types_up_to(TOWER, 2)
        for t in ts:
            members = interp(TOWER, t)
            for v in vs:
                assert matches(TOWER, v, t) == (type_to_tag(v) in members)

    @given(value_type_exprs(), type_exprs())
    def test_matching_coincides_with_membership_random(self, v, t):
        assert matches(TOWER, v, t) == (type_to_tag(v) in interp(TOWER, t))


class TestTagConversions:
    def test_a_sentinel_has_no_type(self):
        with pytest.raises(NotAValueType, match="sentinel"):
            tag_to_type(Sentinel(TOWER.lookup("Real")))

    def test_an_abstract_name_has_no_tag(self):
        with pytest.raises(NotAValueType):
            type_to_tag(T("Real"))

    def test_type_to_tag_names_the_first_leaf_that_is_no_concrete_name(self):
        with pytest.raises(NotAValueType, match=r"^not a value type: Real$"):
            type_to_tag(T("Int*(Real*Int)"))

    def test_tag_to_type_names_the_first_sentinel(self):
        num, real = TOWER.lookup("Num"), TOWER.lookup("Real")
        tag = PairTag(Concrete(TOWER.lookup("Int")), PairTag(Sentinel(num), Sentinel(real)))
        with pytest.raises(NotAValueType, match=r"^sentinel tag E\(Num\) has no syntactic counterpart$"):
            tag_to_type(tag)


class TestTagsAreValueTypes:
    """A tag is the value type of the values that carry it; only a sentinel
    is a tag of its own kind."""

    def test_the_tag_classes_are_the_type_classes(self):
        assert Concrete is Name and PairTag is Pair

    def test_a_value_type_is_its_own_tag(self):
        for v in value_types_up_to(TOWER, 3):
            assert type_to_tag(v) is v and tag_to_type(v) is v

    def test_every_member_of_interp_is_a_value_type_or_holds_a_sentinel(self):
        for h in (TOWER, EXTENDED):
            for t in types_up_to(h, 2):
                for mode in Mode:
                    for tag in interp(h, t, mode):
                        if _has_sentinel(tag):
                            assert mode is Mode.ATOMIC
                        else:
                            assert is_value_type(tag) and validate_type(h, tag) is None

    def test_a_sentinel_in_a_pair_tag_prints_itself(self):
        int_ = Concrete(TOWER.lookup("Int"))
        tag = PairTag(int_, PairTag(Sentinel(TOWER.lookup("Num")), int_))
        assert str(tag) == "Int*(E(Num)*Int)"

    def test_a_pair_tag_reprs_as_a_pair(self):
        tag = Pair(T("Int"), Pair(Sentinel(TOWER.lookup("Num")), T("Int")))
        assert repr(tag) == (
            "Pair(left=Name(name=NominalName(text='Int', abstract=False)), "
            "right=Pair(left=Sentinel(owner=NominalName(text='Num', abstract=True)), "
            "right=Name(name=NominalName(text='Int', abstract=False))))"
        )

    def test_a_1500_deep_pair_tag_is_answered(self):
        deep = nested(Pair, [T("Int")] * 1501, right=True)
        assert str(deep) == "Int*(" * 1499 + "Int*Int" + ")" * 1499
        assert type_to_tag(deep) is deep and tag_to_type(deep) is deep
        last = nested(Pair, [T("Int")] * 1500 + [Sentinel(TOWER.lookup("Num"))], right=True)
        assert str(last).endswith("Int*E(Num)" + ")" * 1499)
        with pytest.raises(NotAValueType, match="sentinel tag E"):
            tag_to_type(last)
        with pytest.raises(NotAValueType, match="not a value type: E"):
            type_to_tag(last)

    def test_1500_deep_pair_tags_are_sorted(self):
        # The two keys agree up to the last leaf: a nested key would recurse
        # once per level to compare them.
        ints = nested(Pair, [T("Int")] * 1501, right=True)
        flt = nested(Pair, [T("Int")] * 1500 + [T("Flt")], right=True)
        assert format_tag_set([ints, flt]) == "{" + str(flt) + ", " + str(ints) + "}"

    def test_the_flat_key_sorts_as_the_nested_key(self):
        def nested_key(t):
            if isinstance(t, Name):
                return (0, t.name.text)
            if isinstance(t, Pair):
                return (1, nested_key(t.left), nested_key(t.right))
            return (2, t.owner.text)

        rng = random.Random(81)
        owners = [n for n in TOWER.names if n.abstract]

        def tag(depth):
            if depth == 0 or rng.random() < 0.35:
                if rng.random() < 0.3:
                    return Sentinel(rng.choice(owners))
                return Name(rng.choice(TOWER.concrete_names))
            return Pair(tag(depth - 1), tag(depth - 1))

        for _ in range(300):
            batch = [tag(rng.randint(0, 4)) for _ in range(8)]
            got = sorted(batch, key=tag_key)
            assert [id(t) for t in got] == [id(t) for t in sorted(batch, key=nested_key)]


class TestOracles:
    def test_real_equals_int_or_flt_semantically(self):
        assert semantic_sub(TOWER, T("Real"), T("Int|Flt"))
        assert semantic_sub(TOWER, T("Int|Flt"), T("Real"))

    def test_real_below_union_fails_atomically(self):
        assert not semantic_sub(TOWER, T("Real"), T("Int|Flt"), Mode.ATOMIC)
        assert semantic_sub(TOWER, T("Int|Flt"), T("Real"), Mode.ATOMIC)

    @given(type_exprs())
    def test_reflexive(self, t):
        assert semantic_sub(TOWER, t, t)
        assert semantic_sub(TOWER, t, t, Mode.ATOMIC)

    def test_matching_sub_examples(self):
        assert matching_sub(TOWER, T("Num"), T("Real|Cmplx"))
        assert not matching_sub(TOWER, T("Real"), T("Int"))
        assert matching_sub(TOWER, T("Int"), T("Int"))

    @given(type_exprs(max_leaves=5), type_exprs(max_leaves=5))
    def test_matching_sub_agrees_with_inclusion(self, t1, t2):
        assert matching_sub(TOWER, t1, t2) == semantic_sub(TOWER, t1, t2)

    def test_empty_abstract_is_bottom_like(self):
        h = validate_hierarchy(
            [Decl("Void", True), Decl("Int", False), Decl("Str", False)]
        )
        void = Name(h.lookup("Void"))
        for other in types_up_to(h, 2):
            assert semantic_sub(h, void, other)

    def test_semantic_interp_monotone_under_extension(self):
        for t in types_up_to(TOWER, 2):
            base = interp(TOWER, t)
            wider = interp(EXTENDED, t)
            assert base <= wider


class TestWideUnions:
    """The oracles walk a union's arms flat, so no width overflows them."""

    @pytest.mark.parametrize("name", ["Int", "Real"])
    @pytest.mark.parametrize("right", [False, True])
    def test_a_3000_arm_union_is_answered(self, name, right):
        arm = T(name)
        wide = nested(Union, [arm] * 3000, right)
        for mode in Mode:
            assert interp(TOWER, wide, mode) == interp(TOWER, arm, mode)
            assert semantic_sub(TOWER, wide, arm, mode)
            assert semantic_sub(TOWER, arm, wide, mode)
        assert matching_sub(TOWER, wide, arm) and matching_sub(TOWER, arm, wide)
        assert nf_weight(TOWER, wide) == 3000 * nf_weight(TOWER, arm)
