import itertools
import random
from dataclasses import replace

import pytest

from conftest import EXTENDED, TOWER, T
from tagsub import dispatch
from tagsub.core import (
    Decl,
    Name,
    NominalHierarchy,
    NominalName,
    Pair,
    TagsubError,
    UnknownName,
    Union,
    validate_hierarchy,
)
from tagsub.dispatch import (
    Ambiguous,
    MethodDef,
    MethodFileError,
    MethodTable,
    NoApplicableMethod,
    Selected,
    UnknownFunction,
    _Function,
    _function,
    add_method,
    applicable,
    load_methods,
    parse_methods,
    resolve,
    tuple_type,
)
from tagsub.gen import random_hierarchy, random_type
from tagsub.frontend import parse_type
from tagsub.normalize import EmptyAbstract, descendant_union, nf_for_mode
from tagsub.semantics import Mode, semantic_sub
from tagsub.subtyping import _Node, reductive_sub


def mk(fn, sig, body, h=TOWER):
    return MethodDef(fn, T(sig, h), body)


def table(mode: Mode, defs, h: NominalHierarchy = TOWER) -> MethodTable:
    tbl = MethodTable(h, mode)
    for d in defs:
        tbl = add_method(tbl, d)
    return tbl


PLUS3 = [
    mk("plus", "Int*Int", "mII"),
    mk("plus", "Flt*Flt", "mFF"),
    mk("plus", "(Int|Flt)*(Int|Flt)", "mUU"),
]
MRR = mk("plus", "Real*Real", "mRR")


def bodies(methods):
    return [m.body for m in methods]


class TestAddMethod:
    def test_semantic_equivalent_signature_replaces_in_place(self):
        tbl = add_method(table(Mode.SEMANTIC, PLUS3), MRR)
        assert bodies(tbl.methods) == ["mII", "mFF", "mRR"]
        assert tbl.methods[2].signature == T("Real*Real")

    def test_atomic_inequivalent_signature_appends(self):
        tbl = add_method(table(Mode.ATOMIC, PLUS3), MRR)
        assert bodies(tbl.methods) == ["mII", "mFF", "mUU", "mRR"]

    def test_identical_signature_replaces(self):
        tbl = add_method(table(Mode.SEMANTIC, PLUS3), mk("plus", "Int*Int", "mII2"))
        assert bodies(tbl.methods) == ["mII2", "mFF", "mUU"]

    def test_replacement_is_per_function(self):
        tbl = table(Mode.SEMANTIC, PLUS3)
        tbl = add_method(tbl, mk("times", "Int*Int", "tII"))
        assert bodies(tbl.methods) == ["mII", "mFF", "mUU", "tII"]

    def test_unknown_name_in_signature_rejected(self):
        from tagsub.core import Name, NominalName, UnknownName

        ghost = MethodDef("f", Name(NominalName("Ghost", False)), "x")
        with pytest.raises(UnknownName):
            add_method(MethodTable(TOWER, Mode.SEMANTIC), ghost)

    def test_no_mutually_subtyping_signatures_after_inserts(self):
        from tagsub.subtyping import reductive_sub

        for mode in Mode:
            tbl = add_method(table(mode, PLUS3), MRR)
            ms = [m for m in tbl.methods if m.function == "plus"]
            for a in ms:
                for b in ms:
                    if a is not b:
                        assert not (
                            reductive_sub(TOWER, a.signature, b.signature, mode)[0]
                            and reductive_sub(TOWER, b.signature, a.signature, mode)[0]
                        )

    def test_wide_union_signature(self):
        # The signature's names are checked without one Python frame per arm.
        wide = T("|".join(["Int", "Flt", "Str"] * 1000))
        tbl = add_method(MethodTable(TOWER, Mode.SEMANTIC), MethodDef("f", wide, "w"))
        assert bodies(tbl.methods) == ["w"]
        out = resolve(tbl, "f", T("Int"))
        assert isinstance(out, Selected) and out.method.body == "w"


class TestApplicable:
    def test_int_int_call(self):
        assert bodies(applicable(table(Mode.SEMANTIC, PLUS3), "plus", T("Int*Int"))) == [
            "mII",
            "mUU",
        ]

    def test_mixed_call(self):
        assert bodies(applicable(table(Mode.SEMANTIC, PLUS3), "plus", T("Flt*Int"))) == [
            "mUU"
        ]

    def test_no_match(self):
        assert applicable(table(Mode.SEMANTIC, PLUS3), "plus", T("Str*Str")) == []

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            applicable(table(Mode.SEMANTIC, PLUS3), "minus", T("Int*Int"))


class TestResolve:
    def test_most_specific_wins(self):
        out = resolve(table(Mode.SEMANTIC, PLUS3), "plus", T("Int*Int"))
        assert isinstance(out, Selected) and out.method.body == "mII"

    def test_no_applicable(self):
        assert resolve(table(Mode.SEMANTIC, PLUS3), "plus", T("Str*Str")) == (
            NoApplicableMethod()
        )

    def test_ambiguous(self):
        tbl = table(
            Mode.SEMANTIC, [mk("f", "Int*Real", "mIR"), mk("f", "Real*Int", "mRI")]
        )
        out = resolve(tbl, "f", T("Int*Int"))
        assert isinstance(out, Ambiguous)
        assert sorted(bodies(out.candidates)) == ["mIR", "mRI"]

    def test_abstract_call_types_are_allowed(self):
        out = resolve(table(Mode.SEMANTIC, PLUS3), "plus", T("Real*Real"))
        assert isinstance(out, Selected) and out.method.body == "mUU"


    @pytest.mark.parametrize("mode", list(Mode))
    def test_three_way_ambiguity_in_one_pass(self, mode, monkeypatch):
        tbl = table(
            mode,
            [
                mk("f", "Int*Real", "mIR"),
                mk("f", "Real*Int", "mRI"),
                mk("f", "(Int|Str)*(Int|Str)", "mUU"),
            ],
        )
        calls = []
        decide = dispatch.reductive_sub
        monkeypatch.setattr(
            dispatch, "reductive_sub", lambda *args: calls.append(args) or decide(*args)
        )
        out = resolve(tbl, "f", T("Int*Int"))
        assert isinstance(out, Ambiguous)
        assert out.candidates == tbl.methods
        assert bodies(out.candidates) == ["mIR", "mRI", "mUU"]
        # Three applicability checks, then one check per ordered pair of
        # candidates: none lies below another, so no check runs backwards.
        assert len(calls) <= 9

    @pytest.mark.parametrize(
        "mode, size, call, minimal",
        [
            # add_method would merge Real and Int|Flt in semantic mode; a table
            # built by hand keeps both, and neither is below the other.
            (Mode.SEMANTIC, 2, "Int", ["mR", "mU"]),
            # In atomic mode Int|Flt lies strictly below Real.
            (Mode.ATOMIC, 2, "Int", ["mU"]),
            # Int lies strictly below both of the equivalent pair.
            (Mode.SEMANTIC, 3, "Int", ["mI"]),
            (Mode.SEMANTIC, 3, "Flt", ["mR", "mU"]),
            (Mode.SEMANTIC, 3, "Real", ["mR", "mU"]),
            (Mode.ATOMIC, 3, "Int", ["mI"]),
            (Mode.ATOMIC, 3, "Flt", ["mU"]),
            (Mode.ATOMIC, 3, "Real", ["mR"]),
        ],
    )
    def test_hand_built_equivalent_signatures(self, mode, size, call, minimal):
        methods = (mk("f", "Real", "mR"), mk("f", "Int|Flt", "mU"), mk("f", "Int", "mI"))
        methods = methods[:size]
        out = resolve(MethodTable(TOWER, mode, methods=methods), "f", T(call))
        expected = tuple(m for m in methods if m.body in minimal)
        assert out == (Selected(expected[0]) if len(expected) == 1 else Ambiguous(expected))


def resolve_by_definition(tbl: MethodTable, function: str, call) -> object:
    """Resolution as defined, ordered by the set-based oracle.

    The most specific applicable method lies below every other applicable
    one; without one, the candidates that nothing lies strictly below are
    ambiguous.
    """

    def below(a, b):
        return semantic_sub(tbl.hierarchy, a.signature, b.signature, tbl.mode)

    cands = [
        m
        for m in tbl.methods
        if m.function == function
        and semantic_sub(tbl.hierarchy, call, m.signature, tbl.mode)
    ]
    if not cands:
        return NoApplicableMethod()
    most = [m for m in cands if all(below(m, o) for o in cands)]
    assert len(most) <= 1, "add_method kept two equivalent signatures"
    if most:
        return Selected(most[0])
    return Ambiguous(
        tuple(m for m in cands if not any(below(o, m) and not below(m, o) for o in cands))
    )


def random_signature(rng, h, width):
    """Mostly a pair of small unions of names, so that signatures overlap."""
    if rng.random() < 0.2:
        return random_type(rng, h, 3, 64)
    parts = []
    for _ in range(2):
        names = rng.sample(h.names, min(len(h.names), rng.randint(1, width)))
        part = T(names[0].text, h)
        for n in names[1:]:
            part = Union(part, T(n.text, h))
        parts.append(part)
    return tuple_type(parts)


def names_void(t) -> bool:
    """Whether the name Void occurs in t."""
    todo = [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Name):
            if x.name.text == "Void":
                return True
        else:
            todo += [x.left, x.right]
    return False


class TestResolveByDefinition:
    @pytest.mark.parametrize(
        "mode, void",
        [pytest.param(mode, False, id=str(mode)) for mode in Mode]
        + [pytest.param(mode, True, id=f"{mode}-void") for mode in Mode],
    )
    def test_random_tables(self, mode, void):
        # With void, each hierarchy also declares a childless abstract name.
        # In semantic mode a signature or a call that names it raises
        # EmptyAbstract, and a rejected insertion leaves the table as it was.
        rng = random.Random(4242)
        kinds, rejected = set(), 0
        for _ in range(60):
            h = random_hierarchy(rng, 8)
            if void:
                h = validate_hierarchy(h.decls + (Decl("Void", True),))
            empty = void and mode is Mode.SEMANTIC
            tbl = MethodTable(h, mode)
            for i in range(8):
                sig = random_signature(rng, h, 3)
                m = MethodDef(rng.choice("fg"), sig, f"m{i}")
                if empty and names_void(sig):
                    before = tbl.methods
                    with pytest.raises(EmptyAbstract, match="Void"):
                        add_method(tbl, m)
                    assert tbl.methods == before
                    rejected += 1
                    continue
                tbl = add_method(tbl, m)
            functions = sorted({m.function for m in tbl.methods})
            for _ in range(30 if functions else 0):
                fn, call = rng.choice(functions), random_signature(rng, h, 1)
                if empty and names_void(call):
                    with pytest.raises(EmptyAbstract, match="Void"):
                        resolve(tbl, fn, call)
                    rejected += 1
                    continue
                expected = resolve_by_definition(tbl, fn, call)
                assert resolve(tbl, fn, call) == expected, (fn, str(call))
                kinds.add(type(expected))
        assert kinds == {Selected, Ambiguous, NoApplicableMethod}
        assert (rejected > 0) == (void and mode is Mode.SEMANTIC)


def pairwise_resolve(tbl: MethodTable, function: str, call) -> object:
    """Resolution by comparing every pair of candidates with the set-based oracle.

    A candidate is kept when no other candidate lies strictly below it, so two
    equivalent candidates are both kept.
    """

    def below(a, b):
        return semantic_sub(tbl.hierarchy, a, b, tbl.mode)

    cands = [
        m for m in tbl.methods if m.function == function and below(call, m.signature)
    ]
    minimal = tuple(
        m
        for m in cands
        if not any(
            below(o.signature, m.signature) and not below(m.signature, o.signature)
            for o in cands
        )
    )
    if len(minimal) == 1:
        return Selected(minimal[0])
    return Ambiguous(minimal) if minimal else NoApplicableMethod()


def equivalent(rng, h, mode, t):
    """A type equivalent to t in mode: union arms swapped now and then and, in
    semantic mode, abstract names now and then spelled as their concrete
    descendants (Real as Int|Flt)."""
    if isinstance(t, Name):
        if mode is Mode.SEMANTIC and t.name.abstract and rng.random() < 0.7:
            return descendant_union(h, t.name)
        return t
    left, right = equivalent(rng, h, mode, t.left), equivalent(rng, h, mode, t.right)
    if isinstance(t, Union) and rng.random() < 0.5:
        left, right = right, left
    return Pair(left, right) if isinstance(t, Pair) else Union(left, right)


class TestHandBuiltTables:
    """Tables built by hand may hold equivalent signatures of one function."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_agree_with_the_pairwise_definition(self, mode):
        rng = random.Random(9191)
        kinds, tied = set(), 0
        for round_ in range(50):
            h = TOWER if round_ % 2 == 0 else random_hierarchy(rng, 8)
            methods = []
            for i in range(10):
                if methods and rng.random() < 0.3:
                    m = rng.choice(methods)
                    fn, sig = m.function, equivalent(rng, h, mode, m.signature)
                else:
                    fn, sig = rng.choice("fg"), random_signature(rng, h, 3)
                methods.append(MethodDef(fn, sig, f"m{i}"))
            tbl = MethodTable(h, mode, methods=tuple(methods))
            calls = [(rng.choice("fg"), random_signature(rng, h, 1)) for _ in range(15)]
            calls += [(m.function, m.signature) for m in methods[:5]]
            for fn, call in calls:
                if not any(m.function == fn for m in methods):
                    continue
                expected = pairwise_resolve(tbl, fn, call)
                assert resolve(tbl, fn, call) == expected, (fn, str(call))
                kinds.add(type(expected))
                if isinstance(expected, Ambiguous):
                    sigs = [m.signature for m in expected.candidates]
                    tied += any(
                        semantic_sub(h, a, b, mode) for a, b in itertools.permutations(sigs, 2)
                    )
        assert kinds == {Selected, Ambiguous, NoApplicableMethod}
        assert tied >= 10  # ambiguities that hold equivalent signatures


def chain_of_components(rng, names, arity):
    """A right-nested chain whose components are names or small unions of names."""
    parts = []
    for _ in range(arity):
        picked = rng.sample(names, min(len(names), rng.choice((1, 1, 2))))
        part = Name(picked[0])
        for n in picked[1:]:
            part = Union(part, Name(n))
        parts.append(part)
    return tuple_type(parts)


def dispatch_type(rng, h):
    """An arity-3 or arity-4 chain, a union of several chains, or a bare name."""
    names = list(h.names)
    roll = rng.random()
    if roll < 0.1:
        return Name(rng.choice(names))
    arity = rng.choice((3, 4))
    if roll < 0.3:
        out = chain_of_components(rng, names, arity)
        for _ in range(rng.randint(1, 2)):
            out = Union(out, chain_of_components(rng, names, arity))
        return out
    return chain_of_components(rng, names, arity)


def counted(monkeypatch):
    """Count the calls made through dispatch.reductive_sub."""
    calls = []
    decide = dispatch.reductive_sub
    monkeypatch.setattr(
        dispatch, "reductive_sub", lambda *args: calls.append(args) or decide(*args)
    )
    return calls


class TestCompiledResolve:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_reused_tables_agree_with_the_definition(self, mode):
        # One table answers many calls, in shuffled orders and with repeats,
        # so answers computed early are reused by later calls.
        rng = random.Random(6060)
        kinds = set()
        for round_ in range(24):
            h = TOWER if round_ % 3 == 0 else random_hierarchy(rng, 7)
            tbl = MethodTable(h, mode)
            for i in range(14):
                sig = dispatch_type(rng, h)
                tbl = add_method(tbl, MethodDef(rng.choice("fg"), sig, f"m{i}"))
            functions = sorted({m.function for m in tbl.methods})
            calls = [(rng.choice(functions), dispatch_type(rng, h)) for _ in range(12)]
            calls += [(fn, m.signature) for fn in functions for m in tbl.methods[:3]]
            cases = [(fn, c, resolve_by_definition(tbl, fn, c)) for fn, c in calls]
            for _ in range(2):
                rng.shuffle(cases)
                for fn, call, expected in cases:
                    assert resolve(tbl, fn, call) == expected, (fn, str(call))
                    kinds.add(type(expected))
        assert kinds == {Selected, Ambiguous, NoApplicableMethod}

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_new_call_makes_no_subtype_call(self, mode, monkeypatch):
        tbl = add_method(table(mode, PLUS3), MRR)
        resolve(tbl, "plus", T("Int*Int"))
        calls = counted(monkeypatch)
        out = resolve(tbl, "plus", T("Flt*Int"))
        assert isinstance(out, Selected)
        assert out.method.body == ("mRR" if mode is Mode.SEMANTIC else "mUU")
        assert calls == []

    @pytest.mark.parametrize("mode", list(Mode))
    def test_wide_union_call(self, mode):
        wide = T("|".join(["Int", "Flt"] * 1500))
        tbl = table(mode, [mk("f", "Real", "mR"), mk("f", "Num", "mN"), mk("f", "Int", "mI")])
        out = resolve(tbl, "f", wide)
        assert isinstance(out, Selected) and out.method.body == "mR"

    @pytest.mark.parametrize("mode", list(Mode))
    def test_wide_union_inside_a_pair_call(self, mode):
        call = T("Real*(" + "|".join(["Int"] * 3000) + ")")
        tbl = table(
            mode,
            [mk("f", "Real*Int", "mRI"), mk("f", "Num*Num", "mNN"), mk("f", "Int*Int", "mII")],
        )
        out = resolve(tbl, "f", call)
        assert isinstance(out, Selected) and out.method.body == "mRI"

    @pytest.mark.parametrize("mode", list(Mode))
    def test_wide_union_against_several_pair_arms(self, mode):
        call = T("Real*(" + "|".join(["Int"] * 3000) + ")")
        tbl = table(mode, [mk("f", "Real*Int|Int*Real", "mS")])
        out = resolve(tbl, "f", call)
        assert isinstance(out, Selected) and out.method.body == "mS"


VOID = validate_hierarchy([Decl("Void", True), Decl("Int", False), Decl("Str", False)])
GHOST = Name(NominalName("Ghost", False))
PHANTOM = Name(NominalName("Phantom", False))


def vmk(fn, sig, body):
    return mk(fn, sig, body, VOID)


class TestErrorParity:
    """Errors and their order, as the uncompiled resolver raised them."""

    def test_undeclared_call_name_comes_before_signature_errors(self):
        methods = (mk("f", "Int", "mI"), MethodDef("f", Union(T("Int"), GHOST), "mG"))
        tbl = MethodTable(TOWER, Mode.SEMANTIC, methods=methods)
        with pytest.raises(UnknownName, match="Phantom"):
            resolve(tbl, "f", PHANTOM)
        with pytest.raises(UnknownFunction):
            resolve(tbl, "g", PHANTOM)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_undeclared_signature_name(self, mode):
        # The bad signature is not applicable and comes last; it still raises,
        # on every resolve.
        methods = (mk("f", "Int", "mI"), MethodDef("f", Union(T("Str"), GHOST), "mG"))
        tbl = MethodTable(TOWER, mode, methods=methods)
        for _ in range(2):
            with pytest.raises(UnknownName, match="Ghost"):
                resolve(tbl, "f", T("Int"))
        other = MethodTable(TOWER, mode, methods=methods + (mk("g", "Int", "gI"),))
        assert resolve(other, "g", T("Int")) == Selected(other.methods[2])

    def test_empty_abstract_call(self):
        tbl = table(Mode.SEMANTIC, [vmk("f", "Int", "mI"), vmk("f", "Str", "mS")], VOID)
        with pytest.raises(EmptyAbstract):
            resolve(tbl, "f", T("Void", VOID))
        with pytest.raises(EmptyAbstract):
            resolve(tbl, "f", T("Int*Void|Str", VOID))
        tbl = table(Mode.ATOMIC, [vmk("f", "Int", "mI"), vmk("f", "Void", "mV")], VOID)
        assert resolve(tbl, "f", T("Void", VOID)) == Selected(tbl.methods[1])

    def test_empty_abstract_among_candidates(self):
        # Int*Str is not below Void|Int*Int, so both would be kept; the Void
        # signature is checked when it is inserted, hit or no hit.
        defs = [vmk("f", "Int*Str|Int*Int", "mA"), vmk("f", "Void|Int*Int", "mV")]
        first = table(Mode.SEMANTIC, defs[:1], VOID)
        with pytest.raises(EmptyAbstract, match="Void"):
            add_method(first, defs[1])
        # A table built by hand holds both and raises on every resolve.
        tbl = MethodTable(VOID, Mode.SEMANTIC, methods=tuple(defs))
        for call in ["Int*Int", "Int*Str", "Str", "Int*Int"]:
            with pytest.raises(EmptyAbstract, match="Void"):
                resolve(tbl, "f", T(call, VOID))
        atomic = table(Mode.ATOMIC, defs, VOID)
        assert bodies(atomic.methods) == ["mA", "mV"]
        assert resolve(atomic, "f", T("Int*Str", VOID)) == Selected(atomic.methods[0])
        assert resolve(atomic, "f", T("Str", VOID)) == NoApplicableMethod()

    def test_candidates_are_checked_in_table_order(self):
        # Only a hand-built table can hold two unchecked signatures, so only
        # it shows which bad candidate is named: the first in table order.
        h = validate_hierarchy(
            [
                Decl("Top", True),
                Decl("Int", False, "Top"),
                Decl("Str", False),
                Decl("VoidA", True),
                Decl("VoidB", True),
            ]
        )
        methods = (
            mk("f", "VoidA|Int*Int", "mA", h),
            mk("f", "VoidB|Int*Int|Int*Str", "mB", h),
        )
        tbl = MethodTable(h, Mode.SEMANTIC, methods=methods)
        with pytest.raises(EmptyAbstract, match="VoidA"):
            resolve(tbl, "f", T("Int*Int", h))
        # A good first candidate whose up mask holds the VoidB signature
        # but not the VoidA one: VoidA is still named first.
        good = mk("f", "Int*Int|Int*Str", "mG", h)
        tbl = MethodTable(h, Mode.SEMANTIC, methods=(good,) + methods)
        with pytest.raises(EmptyAbstract, match="VoidA"):
            resolve(tbl, "f", T("Int*Int", h))
        atomic = MethodTable(h, Mode.ATOMIC, methods=methods)
        assert resolve(atomic, "f", T("Int*Int", h)) == Ambiguous(methods)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_name_of_the_other_kind_after_a_good_call(self, mode):
        # The good call leaves Int's mask in the node, keyed by its text.
        tbl = table(mode, PLUS3 + [mk("plus", "Int", "mI")])
        assert resolve(tbl, "plus", T("Int")) == Selected(tbl.methods[3])
        with pytest.raises(UnknownName, match="Int"):
            resolve(tbl, "plus", Name(NominalName("Int", True)))

    def test_tables_compare_equal_after_resolving(self):
        for mode in Mode:
            a, b = table(mode, PLUS3), table(mode, PLUS3)
            resolve(a, "plus", T("Int*Int"))
            assert a == b and b == a
            resolve(b, "plus", T("Flt*Int"))
            assert a == b and hash(a) == hash(b)
            assert add_method(a, MRR) == add_method(b, MRR)
            assert a != table(mode, PLUS3[:2])


class TestAddMethodErrors:
    """add_method checks the new signature in full, then the old signatures of
    the function as it meets them, unless it built the table itself."""

    def test_empty_abstract_in_an_old_signature(self):
        tbl = MethodTable(VOID, Mode.SEMANTIC, methods=(vmk("f", "Void*Int", "mV"),))
        with pytest.raises(EmptyAbstract):
            add_method(tbl, vmk("f", "Int*Int", "mI"))
        # Other functions' signatures are not checked.
        assert bodies(add_method(tbl, vmk("g", "Int*Int", "gI")).methods) == ["mV", "gI"]
        atomic = table(Mode.ATOMIC, [vmk("f", "Void*Int", "mV")], VOID)
        assert bodies(add_method(atomic, vmk("f", "Int*Int", "mI")).methods) == ["mV", "mI"]

    def test_empty_abstract_in_the_new_signature_hit_or_not(self):
        # Int*Str is not below Void*Int (no hit) and is below Void|Int*Str.
        tbl = table(Mode.SEMANTIC, [vmk("f", "Int*Str", "mI")], VOID)
        atomic = table(Mode.ATOMIC, [vmk("f", "Int*Str", "mI")], VOID)
        for sig in ["Void*Int", "Void|Int*Str"]:
            with pytest.raises(EmptyAbstract, match="Void"):
                add_method(tbl, vmk("f", sig, "mV"))
            assert bodies(add_method(atomic, vmk("f", sig, "mV")).methods) == ["mI", "mV"]

    def test_a_rejected_signature_leaves_the_table_usable(self):
        # The table from before the rejected insertion accepts later methods.
        tbl = table(Mode.SEMANTIC, [vmk("f", "Int*Str", "mI")], VOID)
        with pytest.raises(EmptyAbstract, match="Void"):
            add_method(tbl, vmk("f", "Void*Int", "mV"))
        out = add_method(tbl, vmk("f", "Str*Str", "mS"))
        assert bodies(out.methods) == ["mI", "mS"]
        assert resolve(out, "f", T("Str*Str", VOID)) == Selected(out.methods[1])

    def test_new_signature_is_validated_first(self):
        tbl = MethodTable(VOID, Mode.SEMANTIC, methods=(vmk("f", "Void*Int", "mV"),))
        with pytest.raises(UnknownName, match="Ghost"):
            add_method(tbl, MethodDef("f", GHOST, "mG"))

    def test_undeclared_name_in_an_old_signature(self):
        tbl = MethodTable(TOWER, Mode.SEMANTIC, methods=(MethodDef("f", GHOST, "mG"),))
        with pytest.raises(UnknownName, match="Ghost"):
            add_method(tbl, mk("f", "Int", "mI"))
        assert bodies(add_method(tbl, mk("g", "Int", "gI")).methods) == ["mG", "gI"]


def void_signature(rng):
    """A pair of small unions of Int and Str; now and then one also holds Void."""
    parts = []
    for _ in range(2):
        names = rng.sample(["Int", "Str"], rng.randint(1, 2))
        if rng.random() < 0.1:
            names.append("Void")
        parts.append(T("|".join(names), VOID))
    return tuple_type(parts)


def outcome(run):
    """The bodies of the table run returns, a dispatch outcome, or the error."""
    try:
        out = run()
    except TagsubError as e:
        return f"{type(e).__name__}: {e}"
    return bodies(out.methods) if isinstance(out, MethodTable) else out


class TestCheckedRecord:
    """add_method records which functions hold only checked signatures."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_each_signature_is_checked_once(self, mode, monkeypatch):
        calls = []
        check = dispatch.validate_type
        monkeypatch.setattr(
            dispatch, "validate_type", lambda *args: calls.append(args) or check(*args)
        )
        tbl = MethodTable(TOWER, mode)
        for i, parts in enumerate(itertools.product([T("Int"), T("Real"), T("Num")], repeat=4)):
            tbl = add_method(tbl, MethodDef("f", tuple_type(parts), f"m{i}"))
        assert len(tbl.methods) == 81
        assert len(calls) == 81
        calls.clear()
        assert len(parse_methods(arity_file(mode, 4), TOWER).methods) == 81
        # A parsed signature can fail its check only on a childless abstract
        # name in semantic mode, so only a hierarchy declaring one has it walked.
        assert calls == []
        with_void = validate_hierarchy([*TOWER.decls, Decl("Void", True)])
        assert len(parse_methods(arity_file(mode, 4), with_void).methods) == 81
        assert len(calls) == (81 if mode is Mode.SEMANTIC else 0)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_the_record_changes_no_answer(self, mode):
        # A table rebuilt by hand from the same methods has no record, so it
        # checks every signature again.
        rng = random.Random(8080)
        kinds = set()
        for _ in range(60):
            tbl = MethodTable(VOID, mode)
            for i in range(10):
                m = MethodDef(rng.choice("fg"), void_signature(rng), f"m{i}")
                fresh = MethodTable(VOID, mode, methods=tbl.methods)
                got = outcome(lambda: add_method(tbl, m))
                assert outcome(lambda: add_method(fresh, m)) == got
                if isinstance(got, str):
                    kinds.add(got.split(":")[0])
                    continue
                kinds.add("append" if len(got) > len(tbl.methods) else "replace")
                tbl = add_method(tbl, m)
                fresh = MethodTable(VOID, mode, methods=tbl.methods)
                assert tbl == fresh and hash(tbl) == hash(fresh)
                fn, call = rng.choice("fg"), void_signature(rng)
                assert outcome(lambda: resolve(tbl, fn, call)) == outcome(
                    lambda: resolve(fresh, fn, call)
                )
        expected = {"append", "replace"} | ({"EmptyAbstract"} if mode is Mode.SEMANTIC else set())
        assert expected <= kinds

    def test_replace_starts_without_a_record(self):
        # The atomic tables' records count Void*Int and Str*Int as checked.
        # Void*Int fails the semantic check and no_str does not declare Str,
        # so a record carried over by replace() would hide both errors.
        atomic = table(Mode.ATOMIC, [vmk("f", "Void*Int", "mV"), vmk("f", "Int*Int", "mI")], VOID)
        assert bodies(add_method(atomic, vmk("f", "Str", "mS")).methods) == ["mV", "mI", "mS"]
        semantic = replace(atomic, mode=Mode.SEMANTIC)
        with pytest.raises(EmptyAbstract):
            add_method(semantic, vmk("f", "Str", "mS"))
        tbl = table(Mode.ATOMIC, [vmk("f", "Str*Int", "mS"), vmk("f", "Int*Int", "mI")], VOID)
        no_str = validate_hierarchy([Decl("Void", True), Decl("Int", False)])
        moved = replace(tbl, hierarchy=no_str)
        with pytest.raises(UnknownName, match="Str"):
            add_method(moved, MethodDef("f", Name(no_str.lookup("Int")), "mI"))
        with pytest.raises(UnknownName, match="Str"):
            resolve(moved, "f", T("Int*Int", VOID))

    @staticmethod
    def checked_types(monkeypatch):
        calls = []
        check = dispatch.validate_type
        monkeypatch.setattr(
            dispatch, "validate_type", lambda h, t, *args: calls.append(t) or check(h, t, *args)
        )
        return calls

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_resolve_records_a_hand_built_function(self, mode, monkeypatch):
        # The first resolve checks the three signatures and keeps the compiled
        # function as the record, so add_method checks only the new signature;
        # an insertion into another function keeps the record too.
        tbl = MethodTable(TOWER, mode, methods=tuple(PLUS3))
        assert resolve(tbl, "plus", T("Int*Int")) == Selected(tbl.methods[0])
        calls = self.checked_types(monkeypatch)
        out = add_method(tbl, mk("plus", "Str*Str", "mSS"))
        assert bodies(out.methods) == ["mII", "mFF", "mUU", "mSS"]
        assert calls == [T("Str*Str")]
        calls.clear()
        out = add_method(add_method(out, mk("g", "Int", "gI")), mk("plus", "Str*Int", "mSI"))
        assert bodies(out.methods) == ["mII", "mFF", "mUU", "mSS", "gI", "mSI"]
        assert calls == [T("Int"), T("Str*Int")]

    def test_a_replacement_keeps_the_record(self, monkeypatch):
        # Real*Real replaces the (Int|Flt)*(Int|Flt) method in semantic mode.
        tbl = add_method(table(Mode.SEMANTIC, PLUS3), MRR)
        assert bodies(tbl.methods) == ["mII", "mFF", "mRR"]
        calls = self.checked_types(monkeypatch)
        out = add_method(tbl, mk("plus", "Str", "mS"))
        assert bodies(out.methods) == ["mII", "mFF", "mRR", "mS"]
        assert resolve(tbl, "plus", T("Flt*Int")) == Selected(MRR)
        assert calls == [T("Str")]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_call_is_checked_by_its_walk_alone(self, mode, monkeypatch):
        tbl = parse_methods(arity_file(mode, 2), TOWER)
        assert resolve(tbl, "f", T("Int*Int")) == Selected(tbl.methods[0])
        calls = self.checked_types(monkeypatch)
        assert resolve(tbl, "f", T("Flt*Int")) == Selected(tbl.methods[3])
        assert calls == []


class TestNameIdentity:
    """A name is declared only with both its declared text and its kind."""

    FAKES = [
        Name(NominalName("Int", True)),
        Name(NominalName("Real", False)),
        Name(NominalName("Void", False)),
    ]

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("fake", FAKES, ids=["Int", "Real", "Void"])
    def test_a_name_of_the_other_kind_is_undeclared(self, mode, fake):
        # Over VOID, a concrete Void is undeclared before it is empty.
        h = VOID if fake.name.text == "Void" else TOWER
        good = T("Int", h)
        for t1, t2 in [(fake, good), (good, fake), (Pair(good, fake), Pair(good, good))]:
            with pytest.raises(UnknownName, match=fake.name.text):
                reductive_sub(h, t1, t2, mode)
        tbl = table(mode, [mk("f", "Int", "mI", h), mk("f", "Int*Int", "mP", h)], h)
        with pytest.raises(UnknownName, match=fake.name.text):
            resolve(tbl, "f", fake)
        with pytest.raises(UnknownName, match=fake.name.text):
            resolve(tbl, "f", Union(good, fake))
        for sig in [fake, Pair(good, fake)]:
            with pytest.raises(UnknownName, match=fake.name.text):
                add_method(tbl, MethodDef("f", sig, "mF"))


def reference_insert(h, mode, state, m):
    """add_method by its definition: two reductive_sub calls per earlier
    signature of the function.  state is (methods, checked functions)."""
    methods, checked = state
    nf_for_mode(h, m.signature, mode)  # raises what checking the signature raises
    for i, old in enumerate(methods):
        if old.function != m.function:
            continue
        if m.function not in checked:
            nf_for_mode(h, old.signature, mode)
        if (
            reductive_sub(h, old.signature, m.signature, mode)[0]
            and reductive_sub(h, m.signature, old.signature, mode)[0]
        ):
            return methods[:i] + (m,) + methods[i + 1 :], checked
    return methods + (m,), checked | {m.function}


def method_defs(rng, h, count, pool=()):
    """Methods of two functions: fresh pairs, repeats of earlier signatures or
    of pool's, and signatures equivalent to them in semantic mode (Real as
    Int|Flt, union arms swapped); now and then one names the childless Void
    or the undeclared Ghost."""
    names = [n for n in h.names if n.text != "Void"]
    sigs, out = [(m.function, m.signature) for m in pool], []
    for i in range(count):
        if sigs and rng.random() < 0.4:
            fn, sig = rng.choice(sigs)
            if rng.random() < 0.2:
                fn = "g" if fn == "f" else "f"
            if rng.random() < 0.6:
                sig = equivalent(rng, h, Mode.SEMANTIC, sig)
        else:
            fn, sig = rng.choice("fg"), chain_of_components(rng, names, 2)
        sigs.append((fn, sig))
        roll = rng.random()
        if roll < 0.04 and "Void" in h:
            sig = Union(sig, Name(h.lookup("Void")))
        elif roll < 0.06:
            sig = Pair(sig, GHOST)
        out.append(MethodDef(fn, sig, f"m{i}"))
    return out


def state_or_error(run):
    """A table's methods, the reference's (methods, checked functions), or the
    error's class and message."""
    try:
        out = run()
    except TagsubError as e:
        return f"{type(e).__name__}: {e}"
    return out.methods if isinstance(out, MethodTable) else out


def methods_or_error(state):
    return state if isinstance(state, str) else state[0]


class TestInsertionByDefinition:
    """Tables built in one pass equal those built by the definition, one
    method at a time."""

    @pytest.mark.parametrize("h", [VOID, TOWER], ids=["void", "tower"])
    def test_parse_methods(self, h):
        rng = random.Random(5150)
        kinds = set()
        for _ in range(40):
            defs, sizes = method_defs(rng, h, 12), {}
            for mode in Mode:
                lines = [f"mode {mode.value}"]
                lines += [f"method {d.function} {d.signature} => {d.body}" for d in defs]
                got = state_or_error(lambda: parse_methods("\n".join(lines), h))

                def by_definition():
                    state = ((), frozenset())
                    for d in defs:
                        sig = parse_type(str(d.signature), h)
                        state = reference_insert(h, mode, state, replace(d, signature=sig))
                    return state

                assert got == methods_or_error(state_or_error(by_definition))
                if isinstance(got, str):
                    kinds.add(got.split(":")[0])
                else:
                    sizes[mode] = len(got)
                    kinds.add("replaced" if len(got) < len(defs) else "appended")
            if len(sizes) == 2 and sizes[Mode.SEMANTIC] < sizes[Mode.ATOMIC]:
                kinds.add("fewer in semantic mode")
        # Only TOWER has abstract names with children, only VOID a childless one.
        expected = {"UnknownName", "replaced"}
        expected |= {"EmptyAbstract"} if h is VOID else {"fewer in semantic mode"}
        assert expected <= kinds

    @pytest.mark.parametrize("h", [VOID, TOWER], ids=["void", "tower"])
    def test_add_method(self, h):
        # Half the sequences start from a table built by hand.  In one kind its
        # second method names Ghost: an insertion raises UnknownName unless
        # the new signature is equivalent to the first method's.  In the other
        # its first two methods are equivalent in semantic mode, and once an
        # append records the function as checked, an insertion equivalent to
        # both replaces the first.
        rng = random.Random(6160)
        kinds = set()
        names = [n for n in h.names if n.text != "Void"]
        for s in range(60):
            fn, sig = rng.choice("fg"), chain_of_components(rng, names, 2)
            start = ()
            if s % 4 == 1:
                ghost = Union(chain_of_components(rng, names, 2), GHOST)
                start = (MethodDef(fn, sig, "h0"), MethodDef(fn, ghost, "h1"))
            elif s % 4 == 3:
                twin = equivalent(rng, h, Mode.SEMANTIC, sig)
                start = (MethodDef(fn, sig, "h0"), MethodDef(fn, twin, "h1"))
            defs = method_defs(rng, h, 10, start[:1])
            for mode in Mode:
                tbl = MethodTable(h, mode, methods=start)
                state = (start, frozenset())
                for d in defs:
                    got = state_or_error(lambda: add_method(tbl, d))
                    expected = state_or_error(lambda: reference_insert(h, mode, state, d))
                    assert got == methods_or_error(expected), (mode, d.function, str(d.signature))
                    if isinstance(got, str):
                        kinds.add(got.split(":")[0])
                        continue
                    kinds.add("append" if len(got) > len(tbl.methods) else "replace")
                    if s % 4 == 1 and "h1" in bodies(got) and not expected[1]:
                        kinds.add("stopped before Ghost")
                    if s % 4 == 3 and state[1] and got[0] is d:
                        kinds.add("replaced the first of two")
                    tbl, state = add_method(tbl, d), expected
        expected = {"UnknownName", "append", "replace"}
        expected |= {"stopped before Ghost", "replaced the first of two"}
        assert expected | ({"EmptyAbstract"} if h is VOID else set()) <= kinds


def arity_file(mode, arity):
    """A method file of f over every signature in {Int, Real, Num}^arity."""
    parts = itertools.product(["Int", "Real", "Num"], repeat=arity)
    lines = [f"mode {mode.value}"]
    lines += [f"method f {'*'.join(p)} => m{i}" for i, p in enumerate(parts)]
    return "\n".join(lines)


def count_walks(monkeypatch):
    """Count top-level cover-set walks, not the recursive calls within one,
    and the nodes built."""
    counts, depth = {"walks": 0, "nodes": 0}, [0]
    mask, init = _Node.mask, _Node.__init__

    def counting(node, t):
        counts["walks"] += depth[0] == 0
        depth[0] += 1
        try:
            return mask(node, t)
        finally:
            depth[0] -= 1

    def building(node, *args):
        counts["nodes"] += 1
        init(node, *args)

    monkeypatch.setattr(_Node, "mask", counting)
    monkeypatch.setattr(_Node, "__init__", building)
    return counts


class TestBuildGrowth:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("arity", [3, 4])
    def test_a_build_walks_each_signature_a_bounded_number_of_times(
        self, mode, arity, monkeypatch
    ):
        counts = count_walks(monkeypatch)
        tbl = parse_methods(arity_file(mode, arity), TOWER)
        assert len(tbl.methods) == 3**arity
        assert counts["walks"] <= 2 * len(tbl.methods)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_the_first_resolve_uses_the_build(self, mode, monkeypatch):
        # The table's compiled function is the one the build walked every
        # signature through: the call is the only walk, and no node is built.
        tbl = parse_methods(arity_file(mode, 4), TOWER)
        counts = count_walks(monkeypatch)
        assert resolve(tbl, "f", T("Int*Int*Int*Int")) == Selected(tbl.methods[0])
        assert counts == {"walks": 1, "nodes": 0}

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_resolve_reads_each_candidates_up_mask_at_most_once(self, mode, monkeypatch):
        # Every signature lies at or above Int^4, so all 81 are candidates.
        tbl = parse_methods(arity_file(mode, 4), TOWER)
        call = T("Int*Int*Int*Int")
        cands = [tbl.methods.index(m) for m in applicable(tbl, "f", call)]
        reads, up = [], _Function.up
        monkeypatch.setattr(_Function, "up", lambda fn, i: reads.append(i) or up(fn, i))
        assert resolve(tbl, "f", call) == Selected(tbl.methods[0])
        assert len(reads) == len(set(reads)) and set(reads) <= set(cands)


class TestStrictMasks:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_repeated_resolve_reads_no_up_mask(self, mode, monkeypatch):
        # The first resolve leaves each candidate's strict mask behind.
        tbl = parse_methods(arity_file(mode, 4), TOWER)
        call = T("Int*Int*Int*Int")
        assert resolve(tbl, "f", call) == Selected(tbl.methods[0])
        reads, up = [], _Function.up
        monkeypatch.setattr(_Function, "up", lambda fn, i: reads.append(i) or up(fn, i))
        assert resolve(tbl, "f", call) == Selected(tbl.methods[0])
        assert reads == []

    @pytest.mark.parametrize("mode", list(Mode))
    def test_strict_masks_leave_out_the_equivalents(self, mode):
        # Hand-built: m0 and m2 are equivalent, m1 lies strictly above both.
        tbl = MethodTable(
            TOWER, mode, (mk("f", "Int|Flt", "m0"), mk("f", "Num", "m1"), mk("f", "Flt|Int", "m2"))
        )
        assert resolve(tbl, "f", T("Int")) == Ambiguous((tbl.methods[0], tbl.methods[2]))
        assert resolve(tbl, "f", T("Cmplx")) == Selected(tbl.methods[1])
        assert _function(tbl, "f")._strict == [0b010, 0b000, 0b010]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_warm_resolves_agree_with_cold_ones(self, mode):
        # Later calls share some of their candidates with earlier ones, so
        # they meet a memo that holds the strict masks of only some of them.
        text = arity_file(mode, 3)
        warm = parse_methods(text, TOWER)
        parts = ["Int", "Flt", "Cmplx", "Str", "Real", "Num", "Int|Flt", "Real|Str"]
        rng = random.Random(7)
        for _ in range(60):
            call = T("*".join(f"({rng.choice(parts)})" for _ in range(3)))
            assert resolve(warm, "f", call) == resolve(parse_methods(text, TOWER), "f", call)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_the_first_resolve_reads_no_up_mask(self, mode, monkeypatch):
        # The build has read every up mask and left the strict masks behind.
        tbl = parse_methods(arity_file(mode, 4), TOWER)
        reads, up = [], _Function.up
        monkeypatch.setattr(_Function, "up", lambda fn, i: reads.append(i) or up(fn, i))
        assert resolve(tbl, "f", T("Int*Int*Int*Int")) == Selected(tbl.methods[0])
        assert reads == []


def count_minimal(monkeypatch):
    """The candidate masks that _Function.minimal is called with, in order."""
    seen, minimal = [], _Function.minimal
    monkeypatch.setattr(_Function, "minimal", lambda fn, c: seen.append(c) or minimal(fn, c))
    return seen


class TestOutcomeCache:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_candidate_set_is_resolved_once(self, mode, monkeypatch):
        # Str, Int and Str|Int each lie below all three signatures, and the
        # first is the minimum.
        tbl = table(mode, [mk("f", "Num|Str", "mN"), mk("f", "Str|Real", "mR"), mk("f", "Str|Int", "mI")])
        seen = count_minimal(monkeypatch)
        for call in ["Str", "Str", "Int", "Str|Int"]:
            assert resolve(tbl, "f", T(call)) == Selected(tbl.methods[2])
        assert seen == [0b111]
        assert resolve(tbl, "f", T("Flt")) == Selected(tbl.methods[1])
        assert resolve(tbl, "f", T("Cmplx")) == Selected(tbl.methods[0])
        assert seen == [0b111, 0b011]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_every_outcome_kind_is_kept(self, mode, monkeypatch):
        tbl = table(mode, [mk("f", "Int*Real", "mIR"), mk("f", "Real*Int", "mRI")])
        seen = count_minimal(monkeypatch)
        calls = ["Int*Int", "Int*Flt", "Str*Int", "Flt*Int"]
        first = [resolve(tbl, "f", T(c)) for c in calls]
        assert [type(o) for o in first] == [Ambiguous, Selected, NoApplicableMethod, Selected]
        assert [resolve(tbl, "f", T(c)) for c in calls] == first
        assert seen == [0b11] and len(_function(tbl, "f").outcomes) == 4

    @pytest.mark.parametrize(
        "mode, void",
        [pytest.param(mode, False, id=str(mode)) for mode in Mode]
        + [pytest.param(mode, True, id=f"{mode}-void") for mode in Mode],
    )
    def test_warm_tables_agree_with_fresh_ones(self, mode, void):
        # TestResolveByDefinition's tables and calls, drawn from the same
        # stream; each table then meets every call twice, in shuffled order.
        rng, order = random.Random(4242), random.Random(5)
        for _ in range(60):
            h = random_hierarchy(rng, 8)
            if void:
                h = validate_hierarchy(h.decls + (Decl("Void", True),))
            empty = void and mode is Mode.SEMANTIC
            tbl = MethodTable(h, mode)
            for i in range(8):
                sig = random_signature(rng, h, 3)
                m = MethodDef(rng.choice("fg"), sig, f"m{i}")
                if not (empty and names_void(sig)):
                    tbl = add_method(tbl, m)
            functions = sorted({m.function for m in tbl.methods})
            calls = [
                (rng.choice(functions), random_signature(rng, h, 1))
                for _ in range(30 if functions else 0)
            ]
            stream = calls * 2
            order.shuffle(stream)
            for fn, call in stream:
                warm = outcome(lambda: resolve(tbl, fn, call))
                fresh = MethodTable(h, mode, tbl.methods)
                assert warm == outcome(lambda: resolve(fresh, fn, call)), (fn, str(call))
                if empty and names_void(call):
                    assert warm.startswith("EmptyAbstract")
                else:
                    assert warm == resolve_by_definition(tbl, fn, call), (fn, str(call))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_bad_call_raises_on_a_warm_table(self, mode):
        # Each bad call has the shape of the good one before it.
        tbl = table(mode, [vmk("f", "Int*Int", "mII"), vmk("f", "Int*(Int|Str)", "mIU")], VOID)
        good, int_ = T("Int*Int", VOID), T("Int", VOID)
        for _ in range(2):
            assert resolve(tbl, "f", good) == Selected(tbl.methods[0])
            with pytest.raises(UnknownName, match="Ghost"):
                resolve(tbl, "f", Pair(int_, GHOST))
            with pytest.raises(UnknownName, match="Ghost"):
                resolve(tbl, "f", Pair(GHOST, int_))
            void = T("Int*Void", VOID)
            if mode is Mode.SEMANTIC:
                with pytest.raises(EmptyAbstract, match="Void"):
                    resolve(tbl, "f", void)
            else:
                assert resolve(tbl, "f", void) == NoApplicableMethod()

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_hand_built_table_checks_its_signatures_on_a_repeated_call(self, mode):
        # The outcome of the good call's candidates is never stored, since
        # the first call raises for the unchecked signature after its walk.
        methods = (mk("f", "Int", "mI"), MethodDef("f", Union(T("Str"), GHOST), "mG"))
        tbl = MethodTable(TOWER, mode, methods=methods)
        for _ in range(2):
            with pytest.raises(UnknownName, match="Ghost"):
                resolve(tbl, "f", T("Int"))
        assert _function(tbl, "f").outcomes == {}


class TestDeepCalls:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_right_nested_argument_list_of_1500_pairs(self, mode):
        # Argument lists nest to the right; the walk takes that spine in one frame.
        args = tuple_type([T("Int")] * 1501)
        tbl = add_method(MethodTable(TOWER, mode), MethodDef("f", args, "m"))
        tbl = add_method(tbl, MethodDef("f", tuple_type([T("Real")] * 1501), "mR"))
        for call in (args, tuple_type([T("Int")] * 1501)):
            out = resolve(tbl, "f", call)
            assert type(out) is Selected and out.method is tbl.methods[0]
        assert resolve(tbl, "f", tuple_type([T("Int")] * 1500 + [T("Str")])) == NoApplicableMethod()


class TestStabilityScenario:
    """The four-method program, before and after the Int8 extension."""

    def test_semantic_flow(self):
        tbl = add_method(table(Mode.SEMANTIC, PLUS3), MRR)
        out = resolve(tbl, "plus", T("Flt*Int"))
        assert isinstance(out, Selected) and out.method.body == "mRR"

        rebuilt = table(Mode.SEMANTIC, [*PLUS3, MRR], EXTENDED)
        assert bodies(rebuilt.methods) == ["mII", "mFF", "mUU", "mRR"]
        out = resolve(rebuilt, "plus", T("Flt*Int"))
        assert isinstance(out, Selected) and out.method.body == "mUU"

    def test_atomic_flow_is_stable(self):
        tbl = add_method(table(Mode.ATOMIC, PLUS3), MRR)
        assert bodies(tbl.methods) == ["mII", "mFF", "mUU", "mRR"]
        before = resolve(tbl, "plus", T("Flt*Int"))
        rebuilt = table(Mode.ATOMIC, [*PLUS3, MRR], EXTENDED)
        after = resolve(rebuilt, "plus", T("Flt*Int"))
        assert isinstance(before, Selected) and before.method.body == "mUU"
        assert isinstance(after, Selected) and after.method.body == "mUU"


class TestTupleType:
    def test_right_nested_encoding(self):
        assert tuple_type([T("Int"), T("Flt"), T("Str")]) == T("Int*(Flt*Str)")
        assert tuple_type([T("Int")]) == T("Int")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tuple_type([])

    def test_empty_is_a_library_error(self):
        with pytest.raises(TagsubError, match="empty signature"):
            tuple_type([])


METHODS_TEXT = """
# addition
mode semantic
method plus Int*Int => mII
method plus Flt*Flt => mFF
method plus (Int|Flt)*(Int|Flt) => mUU
"""


class TestMethodFile:
    def test_parse(self):
        tbl = parse_methods(METHODS_TEXT, TOWER)
        assert tbl.mode is Mode.SEMANTIC
        assert bodies(tbl.methods) == ["mII", "mFF", "mUU"]
        assert tbl.methods[2].signature == T("(Int|Flt)*(Int|Flt)")

    def test_replacement_applies_during_parse(self):
        text = METHODS_TEXT + "method plus Real*Real => mRR\n"
        assert bodies(parse_methods(text, TOWER).methods) == ["mII", "mFF", "mRR"]

    def test_file_with_a_byte_order_mark(self, tmp_path):
        f = tmp_path / "methods.txt"
        f.write_text(METHODS_TEXT.lstrip(), encoding="utf-8-sig")
        tbl = load_methods(f, TOWER)
        assert tbl.mode is Mode.SEMANTIC
        assert bodies(tbl.methods) == ["mII", "mFF", "mUU"]

    def test_mode_line_required(self):
        with pytest.raises(MethodFileError):
            parse_methods("method plus Int*Int => mII", TOWER)

    def test_bad_line(self):
        with pytest.raises(MethodFileError):
            parse_methods("mode semantic\nmethod plus Int*Int -> mII", TOWER)

    def test_no_mode_line_and_no_methods(self):
        with pytest.raises(MethodFileError, match="missing mode declaration"):
            parse_methods("# nothing here\n\n", TOWER)

    @pytest.mark.parametrize(
        "bad,error",
        [
            ("method f Int -> mI", MethodFileError),
            ("method f Int|Ghost => mG", UnknownName),
            ("mode semantic", MethodFileError),
        ],
        ids=["malformed", "undeclared", "duplicate-mode"],
    )
    def test_errors_come_in_line_order(self, bad, error):
        # Each signature is checked once, at insertion; a read error still
        # comes after an earlier line's EmptyAbstract and before a later one's.
        void, good = "method f Void*Int => mV", "method f Int*Int => mI"
        with pytest.raises(EmptyAbstract, match="Void"):
            parse_methods("\n".join(["mode semantic", good, void, bad, good]), VOID)
        with pytest.raises(error):
            parse_methods("\n".join(["mode semantic", good, bad, void, good]), VOID)
        with pytest.raises(error):
            parse_methods("\n".join(["mode atomic", good, void, bad]), VOID)

    def test_atomic_mode_parses(self):
        tbl = parse_methods("mode atomic\nmethod f Int => x", TOWER)
        assert tbl.mode is Mode.ATOMIC
