import copy
import importlib
import os
import pickle
import pkgutil
import random
from dataclasses import FrozenInstanceError, asdict, field, fields, make_dataclass, replace

import pytest

from conftest import EXTENDED, TOWER, T, nested
import tagsub
from tagsub.core import (
    ConcreteParent,
    CycleDetected,
    Decl,
    DuplicateName,
    EmptyAbstract,
    HierarchySyntaxError,
    MultipleParents,
    Name,
    NominalName,
    Pair,
    Union,
    UnknownName,
    UnknownParent,
    _leaves,
    concrete_descendants,
    is_value_type,
    load_hierarchy,
    nominal_subtype,
    parse_hierarchy,
    validate_hierarchy,
    validate_type,
)
from tagsub.dispatch import (
    Ambiguous,
    MethodDef,
    MethodTable,
    NoApplicableMethod,
    Selected,
)
from tagsub.gen import random_hierarchy, random_type
from tagsub.semantics import Concrete, Mode, PairTag, Sentinel


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

    def test_empty_name(self):
        with pytest.raises(DuplicateName, match="empty name"):
            validate_hierarchy([Decl("", False)])

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


class TestLeaves:
    @pytest.mark.parametrize("kind", [Union, Pair])
    def test_any_shape_is_listed_left_to_right(self, kind):
        # Random trees of both kinds, and 3,000-deep spines nested either way.
        rng = random.Random(3)
        leaf = [T(n) for n in ("Int", "Flt", "Str", "Num")]

        def tree(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(leaf)
            return rng.choice([Union, Pair])(tree(depth - 1), tree(depth - 1))

        def reference(t):
            if not isinstance(t, kind):
                return [t]
            return reference(t.left) + reference(t.right)

        for _ in range(500):
            t = tree(rng.randint(0, 6))
            assert [id(x) for x in _leaves(t, kind)] == [id(x) for x in reference(t)]
        items = [rng.choice(leaf) for _ in range(3000)]
        for right in (False, True):
            got = _leaves(nested(kind, items, right), kind)
            assert [id(x) for x in got] == [id(x) for x in items]


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

    def test_a_childless_abstract_name_fails_only_when_nonempty(self):
        h = validate_hierarchy([Decl("Void", True), Decl("Top", True), Decl("A", False, "Top")])
        assert h._childless == {"Void"}
        void, top, a = (Name(h.lookup(n)) for n in ("Void", "Top", "A"))
        assert validate_type(h, Pair(top, Union(a, void))) is None
        with pytest.raises(EmptyAbstract, match="Void"):
            validate_type(h, Pair(top, Union(a, void)), True)
        assert validate_type(h, Pair(top, a), True) is None
        assert TOWER._childless == frozenset()


# The package's immutable records, with their field names in order.
VALUE_FIELDS = {
    NominalName: ["text", "abstract"],
    Name: ["name"],
    Pair: ["left", "right"],
    Union: ["left", "right"],
    Decl: ["name", "abstract", "parent"],
    Sentinel: ["owner"],
    MethodDef: ["function", "signature", "body"],
    MethodTable: ["hierarchy", "mode", "methods", "_compiled"],
    Selected: ["method"],
    NoApplicableMethod: [],
    Ambiguous: ["candidates"],
}


def _twin_field(f):
    return field(
        default=f.default,
        default_factory=f.default_factory,
        init=f.init,
        repr=f.repr,
        hash=f.hash,
        compare=f.compare,
    )


# Plain frozen dataclasses with the same names and fields, so their generated
# repr, ==, hash and frozenness are the reference that the records' own must
# reproduce.
MIRROR = {
    cls: make_dataclass(
        cls.__name__, [(f.name, f.type, _twin_field(f)) for f in fields(cls)], frozen=True
    )
    for cls in VALUE_FIELDS
}


def mirror(t):
    if isinstance(t, Name):
        return MIRROR[Name](t.name)
    return MIRROR[type(t)](mirror(t.left), mirror(t.right))


def twin(x):
    """x with every record in it, and in its tuples, replaced by its MIRROR twin."""
    if isinstance(x, tuple):
        return tuple(twin(y) for y in x)
    if type(x) not in MIRROR:
        return x
    return MIRROR[type(x)](**{f.name: twin(getattr(x, f.name)) for f in fields(x) if f.init})


def value_samples():
    """Instances of each record class; the first two are equal but built apart."""
    num, int_ = TOWER.lookup("Num"), TOWER.lookup("Int")
    m1, m2 = MethodDef("f", T("Int*Real"), "a"), MethodDef("f", T("Num*Num"), "b")
    return {
        NominalName: [NominalName("Int", False), int_, NominalName("Int", True)],
        # A tag is a value type: Concrete is Name and PairTag is Pair.
        Name: [
            T("Int"),
            Name(NominalName("Int", False)),
            T("Num"),
            Concrete(int_),
            Concrete(NominalName("Int", False)),
            Concrete(TOWER.lookup("Flt")),
        ],
        Pair: [
            T("Int*Str"),
            T("Int*Str"),
            T("Str*Int"),
            T("Int*(Str|Real)"),
            PairTag(Concrete(int_), Sentinel(num)),
            PairTag(Concrete(int_), Sentinel(num)),
            PairTag(Sentinel(num), Concrete(int_)),
        ],
        Union: [T("Int|Str"), T("Int|Str"), T("Str|Int"), T("Int|Str*Real")],
        Decl: [Decl("Int", False, "Real"), Decl("Int", abstract=False, parent="Real"), Decl("Num", True)],
        Sentinel: [Sentinel(num), Sentinel(NominalName("Num", True)), Sentinel(TOWER.lookup("Real"))],
        MethodDef: [m1, MethodDef("f", T("Int*Real"), "a"), m2, MethodDef("g", T("Int*Real"), "a")],
        MethodTable: [
            MethodTable(TOWER, Mode.SEMANTIC, (m1, m2)),
            MethodTable(TOWER, Mode.SEMANTIC, (MethodDef("f", T("Int*Real"), "a"), m2)),
            MethodTable(TOWER, Mode.ATOMIC),
            MethodTable(EXTENDED, Mode.SEMANTIC, (m1, m2)),
        ],
        Selected: [Selected(m1), Selected(MethodDef("f", T("Int*Real"), "a")), Selected(m2)],
        NoApplicableMethod: [NoApplicableMethod(), NoApplicableMethod()],
        Ambiguous: [Ambiguous((m1, m2)), Ambiguous((m1, m2)), Ambiguous((m2, m1))],
    }


class TestValueRecords:
    """Every record behaves as the frozen dataclass with its fields would."""

    def test_every_record_is_sampled(self):
        samples = value_samples()
        assert set(samples) == set(VALUE_FIELDS)
        for cls, xs in samples.items():
            assert all(type(x) is cls for x in xs)
            assert xs[0] == xs[1] and xs[0] is not xs[1]

    def test_too_few_arguments(self):
        with pytest.raises(TypeError):
            MethodDef("f", T("Int"))

    def test_field_names(self):
        for cls, expected in VALUE_FIELDS.items():
            assert [f.name for f in fields(cls)] == expected

    def test_repr_matches_the_dataclass(self):
        for xs in value_samples().values():
            for x in xs:
                assert repr(x) == repr(twin(x))

    def test_eq_and_hash_match_the_dataclass(self):
        for xs in value_samples().values():
            for a in xs:
                assert hash(a) == hash(twin(a))
                assert a != twin(a) and not a == twin(a)
                for b in xs:
                    assert (a == b) == (twin(a) == twin(b))
                    assert (a != b) == (twin(a) != twin(b))

    def test_copy_and_pickle_round_trip(self):
        for xs in value_samples().values():
            for x in xs:
                for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                    assert type(y) is type(x)
                    if isinstance(x, MethodTable):  # a hierarchy compares by identity
                        assert y.hierarchy.decls == x.hierarchy.decls
                        assert (y.mode, y.methods) == (x.mode, x.methods)
                    else:
                        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)

    def test_assignment_and_deletion_raise(self):
        for xs in value_samples().values():
            x = xs[0]
            for f in fields(x):
                with pytest.raises(FrozenInstanceError):
                    setattr(x, f.name, getattr(x, f.name))
                with pytest.raises(FrozenInstanceError):
                    delattr(x, f.name)
            with pytest.raises(FrozenInstanceError):
                x.other = None
            assert x == xs[1]

    def test_defaults_replace_and_asdict(self):
        assert Decl("Num", True) == Decl("Num", True, None)
        assert [f.default for f in fields(Decl)][2] is None
        assert replace(Decl("Int", False, "Real"), parent=None) == Decl("Int", False)
        m = MethodDef("f", T("Int"), "a")
        assert replace(m, body="b") == MethodDef("f", T("Int"), "b")
        assert asdict(m) == {"function": "f", "signature": asdict(T("Int")), "body": "a"}
        tbl = MethodTable(TOWER, Mode.SEMANTIC, (m,))
        assert MethodTable(TOWER, Mode.SEMANTIC).methods == ()
        tbl._compiled["f"] = None
        out = replace(tbl, mode=Mode.ATOMIC)
        assert out == MethodTable(TOWER, Mode.ATOMIC, (m,))
        assert out._compiled == {} and tbl._compiled == {"f": None}


PACKAGE_DIR = os.path.dirname(os.path.abspath(tagsub.__file__))
VALUE_METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def package_classes():
    for info in pkgutil.iter_modules(tagsub.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        module = importlib.import_module(f"tagsub.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


class TestNoGeneratedMethods:
    def test_every_method_is_compiled_from_the_package_sources(self):
        # Methods generated at import time, as a frozen dataclass's are, are
        # compiled from a string: their code names no file of the package.
        generated = [
            f"{cls.__module__}.{cls.__qualname__}.{name}"
            for cls in package_classes()
            for name in VALUE_METHODS
            if (code := getattr(cls.__dict__.get(name), "__code__", None)) is not None
            and os.path.dirname(os.path.abspath(code.co_filename)) != PACKAGE_DIR
        ]
        assert generated == []

    def test_the_records_are_found(self):
        assert set(VALUE_FIELDS) <= set(package_classes())


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

    def test_file_with_a_byte_order_mark(self, tmp_path):
        # As Windows Notepad saves UTF-8: the mark is no part of the first line.
        f = tmp_path / "h.txt"
        f.write_text("abstract Num\nconcrete Int <: Num\n", encoding="utf-8-sig")
        assert names(load_hierarchy(f).names) == ["Num", "Int"]

    def test_validation_errors_surface(self):
        with pytest.raises(CycleDetected):
            parse_hierarchy("abstract A <: B\nabstract B <: A")
