import pytest
from hypothesis import given

from conftest import TOWER, T, nested, type_exprs
from tagsub.core import Decl, Name, Pair, Union, validate_hierarchy
from tagsub.gen import types_up_to
from tagsub.normalize import EmptyAbstract, in_nf, in_nf_atomic, nf, nf_atomic, un_prs
from tagsub.semantics import Mode, interp


class TestNf:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("Str*(Int|Flt)", "(Str*Int)|(Str*Flt)"),
            ("Num", "(Int|Flt)|Cmplx"),
            ("Int", "Int"),
            ("Real", "Int|Flt"),
            ("Real*Real", "((Int*Int)|(Int*Flt))|((Flt*Int)|(Flt*Flt))"),
            ("Int|Num", "Int|((Int|Flt)|Cmplx)"),
        ],
    )
    def test_golden(self, src, expected):
        assert nf(TOWER, T(src)) == T(expected)

    def test_no_dedup_or_flattening(self):
        assert nf(TOWER, T("Int|Int")) == T("Int|Int")
        assert nf(TOWER, T("(Int|Int)|Int")) == T("(Int|Int)|Int")

    def test_empty_abstract_raises(self):
        h = validate_hierarchy([Decl("Void", True), Decl("Int", False)])
        with pytest.raises(EmptyAbstract):
            nf(h, Name(h.lookup("Void")))

    def test_single_descendant_abstract_normalizes_to_the_leaf(self):
        h = validate_hierarchy([Decl("A", True), Decl("C", False, "A")])
        assert nf(h, Name(h.lookup("A"))) == Name(h.lookup("C"))


class TestUnPrs:
    def test_left_union_clause(self):
        assert un_prs(T("Int|Flt"), T("Str")) == T("(Int*Str)|(Flt*Str)")

    def test_right_union_clause(self):
        assert un_prs(T("Str"), T("Int|Flt")) == T("(Str*Int)|(Str*Flt)")

    def test_no_unions(self):
        assert un_prs(T("Int"), T("Str")) == T("Int*Str")

    def test_left_clause_takes_precedence(self):
        # Both components are unions; the left one must be split first.
        got = un_prs(T("Int|Flt"), T("Str|Cmplx"))
        assert got == T("((Int*Str)|(Int*Cmplx))|((Flt*Str)|(Flt*Cmplx))")


class TestInNf:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("(Str*Int)|(Str*Flt)", True),
            ("Str*(Int|Flt)", False),
            ("Flt", True),
            ("Real", False),
            ("Int|(Flt|Str)", True),
            ("(Int|Real)|Str", False),
        ],
    )
    def test_examples(self, src, expected):
        assert in_nf(T(src)) is expected


class TestNfAtomic:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("Real", "Real"),
            ("Str*(Int|Flt)", "(Str*Int)|(Str*Flt)"),
            ("Real*(Int|Str)", "(Real*Int)|(Real*Str)"),
            ("Num", "Num"),
            ("Real|Int", "Real|Int"),
        ],
    )
    def test_golden(self, src, expected):
        assert nf_atomic(TOWER, T(src)) == T(expected)


class TestInNfAtomic:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("Real", True),
            ("(Real*Int)|Str", True),
            ("Str*(Int|Flt)", False),
            ("Real*(Num*Str)", True),
            ("(Int|Flt)|Real", True),
        ],
    )
    def test_examples(self, src, expected):
        assert in_nf_atomic(T(src)) is expected


class TestDeepInputs:
    @pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
    def test_normal_form_checks_do_not_overflow(self, right):
        ints = [T("Int")] * 1501
        chain = nested(Pair, ints, right)
        assert in_nf(chain) and in_nf_atomic(chain)
        chain = nested(Pair, ints + [T("Num")], right)
        assert not in_nf(chain) and in_nf_atomic(chain)
        wide = nested(Union, ints * 2, right)
        assert in_nf(wide) and in_nf_atomic(wide)
        wide = nested(Union, ints * 2 + [T("Int*(Int|Flt)")], right)
        assert not in_nf(wide) and not in_nf_atomic(wide)


class TestLemmas:
    @given(type_exprs())
    def test_nf_lands_in_nf(self, t):
        assert in_nf(nf(TOWER, t))

    @given(type_exprs())
    def test_nf_idempotent(self, t):
        n = nf(TOWER, t)
        assert nf(TOWER, n) == n

    @given(type_exprs())
    def test_nf_fixes_normal_forms(self, t):
        if in_nf(t):
            assert nf(TOWER, t) == t

    @given(type_exprs())
    def test_nf_preserves_interpretation(self, t):
        assert interp(TOWER, nf(TOWER, t)) == interp(TOWER, t)

    @given(type_exprs())
    def test_nf_atomic_lands_in_atomic_nf_and_preserves_interp(self, t):
        n = nf_atomic(TOWER, t)
        assert in_nf_atomic(n)
        assert nf_atomic(TOWER, n) == n
        assert interp(TOWER, n, Mode.ATOMIC) == interp(TOWER, t, Mode.ATOMIC)

    def test_exhaustive_depth_2(self):
        for t in types_up_to(TOWER, 2):
            n = nf(TOWER, t)
            assert in_nf(n)
            assert nf(TOWER, n) == n
            assert interp(TOWER, n) == interp(TOWER, t)
