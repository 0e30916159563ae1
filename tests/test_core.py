import random
from dataclasses import fields, make_dataclass

import pytest

from conftest import EXTENDED, TOWER, T, nested
from tagsub.core import (
    ConcreteParent,
    CycleDetected,
    Decl,
    DuplicateName,
    HierarchySyntaxError,
    MultipleParents,
    Name,
    Pair,
    Union,
    UnknownName,
    UnknownParent,
    concrete_descendants,
    is_value_type,
    nominal_subtype,
    parse_hierarchy,
    validate_hierarchy,
    validate_type,
)
from tagsub.gen import random_hierarchy, random_type


def names(seq):
    return [n.text for n in seq]


class TestValidation:
    def test_builtin_hierarchy_shape(self):
        h = TOWER
        assert names(h.names) == ["Num", "Real", "Int", "Flt", "Cmplx", "Str"]
        assert h.parent("Real").text == "Num"
        assert h.parent("Int").text == "Real"
        assert h.parent("Flt").text == "Real"
        assert h.parent("Cmplx").text == "Num"
        assert h.parent("Num") is None
        assert h.parent("Str") is None
        assert [n.text for n in h.names if n.abstract] == ["Num", "Real"]

    def test_two_cycle(self):
        with pytest.raises(CycleDetected):
            validate_hierarchy([Decl("A", True, "B"), Decl("B", True, "A")])

    def test_self_cycle(self):
        with pytest.raises(CycleDetected):
            validate_hierarchy([Decl("A", True, "A")])

    def test_concrete_parent(self):
        with pytest.raises(ConcreteParent):
            validate_hierarchy([Decl("Flt", False), Decl("Int", False, "Flt")])

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            validate_hierarchy([Decl("A", True), Decl("A", True)])

    def test_multiple_parents(self):
        with pytest.raises(MultipleParents):
            validate_hierarchy(
                [Decl("P", True), Decl("Q", True), Decl("A", False, "P"), Decl("A", False, "Q")]
            )

    def test_unknown_parent(self):
        with pytest.raises(UnknownParent):
            validate_hierarchy([Decl("A", False, "Ghost")])

    def test_forward_reference_is_fine(self):
        h = validate_hierarchy([Decl("A", False, "B"), Decl("B", True)])
        assert nominal_subtype(h, "A", "B")

    def test_empty_abstract_is_permitted(self):
        h = validate_hierarchy([Decl("Void", True), Decl("Int", False)])
        assert concrete_descendants(h, "Void") == ()


class TestNominalSubtype:
    @pytest.mark.parametrize(
        "n1,n2,expected",
        [
            ("Int", "Num", True),
            ("Int", "Int", True),
            ("Str", "Num", False),
            ("Int", "Real", True),
            ("Real", "Num", True),
            ("Num", "Real", False),
            ("Cmplx", "Real", False),
        ],
    )
    def test_examples(self, n1, n2, expected):
        assert nominal_subtype(TOWER, n1, n2) is expected

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            nominal_subtype(TOWER, "Int", "Ghost")

    def test_reflexive_transitive_antisymmetric(self):
        ns = TOWER.names
        for a in ns:
            assert nominal_subtype(TOWER, a, a)
        for a in ns:
            for b in ns:
                for c in ns:
                    if nominal_subtype(TOWER, a, b) and nominal_subtype(TOWER, b, c):
                        assert nominal_subtype(TOWER, a, c)
        for a in ns:
            for b in ns:
                if a != b:
                    assert not (
                        nominal_subtype(TOWER, a, b) and nominal_subtype(TOWER, b, a)
                    )


class TestConcreteDescendants:
    def test_builtin_descendant_sets(self):
        assert names(concrete_descendants(TOWER, "Num")) == ["Int", "Flt", "Cmplx"]
        assert names(concrete_descendants(TOWER, "Real")) == ["Int", "Flt"]
        assert names(concrete_descendants(TOWER, "Str")) == ["Str"]

    def test_extension_appends_in_declaration_order(self):
        assert names(concrete_descendants(EXTENDED, "Real")) == ["Int", "Flt", "Int8"]

    def test_concrete_names_are_their_own_descendants(self):
        for c in TOWER.concrete_names:
            assert concrete_descendants(TOWER, c) == (c,)
            assert is_value_type(Name(c))


class TestIsValueType:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("Flt", True),
            ("Int*Int", True),
            ("Str*(Int*Int)", True),
            ("Int|Int", False),
            ("Real", False),
            ("Num*Int", False),
            ("(Int|Flt)*Str", False),
        ],
    )
    def test_examples(self, src, expected):
        assert is_value_type(T(src)) is expected

    @pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
    def test_deep_inputs_do_not_overflow(self, right):
        ints = [T("Int")] * 1501
        assert is_value_type(nested(Pair, ints, right))
        assert not is_value_type(nested(Pair, ints + [T("Num")], right))
        assert not is_value_type(nested(Union, ints * 2, right))


class TestValidateType:
    def test_leftmost_undeclared_name_is_reported(self):
        other = validate_hierarchy([Decl("Foo", False), Decl("Bar", False)])
        foo, bar = Name(other.lookup("Foo")), Name(other.lookup("Bar"))
        with pytest.raises(UnknownName, match="Foo"):
            validate_type(TOWER, Pair(Union(T("Int"), foo), bar))
        with pytest.raises(UnknownName, match="Bar"):
            validate_type(TOWER, Pair(Union(T("Int"), bar), foo))

    def test_wide_union(self):
        assert validate_type(TOWER, T("|".join(["Int", "Str"] * 1500))) is None


# Plain dataclasses with the same names and fields, so their default repr is
# the reference that the types' own iterative repr must reproduce.
MIRROR = {
    cls: make_dataclass(cls.__name__, [f.name for f in fields(cls)], frozen=True)
    for cls in (Name, Pair, Union)
}


def mirror(t):
    if isinstance(t, Name):
        return MIRROR[Name](t.name)
    return MIRROR[type(t)](mirror(t.left), mirror(t.right))


class TestRepr:
    def test_matches_the_dataclass_default(self):
        rng = random.Random(2121)
        for _ in range(300):
            h = random_hierarchy(rng, 6)
            t = random_type(rng, h, rng.randint(1, 6))
            assert repr(t) == repr(mirror(t))

    def test_known_text(self):
        assert repr(T("Int*Str")) == (
            "Pair(left=Name(name=NominalName(text='Int', abstract=False)), "
            "right=Name(name=NominalName(text='Str', abstract=False)))"
        )

    def test_deep_pair_chain(self):
        t = T("Int*(" * 1499 + "Int*Int" + ")" * 1499)
        text = repr(t)
        assert text.startswith("Pair(left=Name(") and text.endswith(")" * 1502)
        assert text.count("Pair(left=") == 1500

    def test_wide_union(self):
        text = repr(T("|".join(["Int"] * 3000)))
        assert text.startswith("Union(left=" * 2999 + "Name(")
        assert text.count("Name(name=") == 3000


class TestHierarchyFile:
    def test_round_trip_of_default(self):
        text = """
        # the built-in numeric tower
        abstract Num
        abstract Real <: Num
        concrete Int <: Real
        concrete Flt <: Real
        concrete Cmplx <: Num
        concrete Str
        """
        h = parse_hierarchy(text)
        assert names(h.names) == names(TOWER.names)
        assert names(concrete_descendants(h, "Num")) == ["Int", "Flt", "Cmplx"]

    def test_bad_line(self):
        with pytest.raises(HierarchySyntaxError):
            parse_hierarchy("abstract 9Lives")

    def test_validation_errors_surface(self):
        with pytest.raises(CycleDetected):
            parse_hierarchy("abstract A <: B\nabstract B <: A")
