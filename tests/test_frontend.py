import pytest
from hypothesis import given

from conftest import TOWER, T, type_exprs
from tagsub.core import Name, Pair, Union, UnknownName
from tagsub.frontend import ParseError, parse_type, print_type


def N(text):
    return Name(TOWER.lookup(text))


class TestParse:
    def test_pair_of_union(self):
        assert parse_type("Str*(Int|Flt)", TOWER) == Pair(
            N("Str"), Union(N("Int"), N("Flt"))
        )

    def test_union(self):
        assert parse_type("Int|Flt", TOWER) == Union(N("Int"), N("Flt"))

    def test_left_associativity(self):
        assert parse_type("Int*Flt*Str", TOWER) == Pair(Pair(N("Int"), N("Flt")), N("Str"))
        assert parse_type("Int|Flt|Str", TOWER) == Union(
            Union(N("Int"), N("Flt")), N("Str")
        )

    def test_star_binds_tighter(self):
        assert parse_type("Int|Flt*Str", TOWER) == Union(N("Int"), Pair(N("Flt"), N("Str")))

    def test_whitespace_and_unicode_aliases(self):
        assert parse_type(" Str × ( Int ∪ Flt ) ", TOWER) == T("Str*(Int|Flt)")

    def test_unknown_name(self):
        with pytest.raises(UnknownName) as info:
            parse_type("Str*Foo", TOWER)
        assert info.value.position == 4

    @pytest.mark.parametrize("src", ["", "Int|", "(Int", "Int)", "*Int", "Int Flt", "3"])
    def test_syntax_errors(self, src):
        with pytest.raises(ParseError):
            parse_type(src, TOWER)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_type("Int||Flt", TOWER)
        assert info.value.position == 4

    @pytest.mark.parametrize(
        "src,error,message,position",
        [
            # A character no token starts with; every character is scanned
            # before any name is resolved, so it wins over an unknown name.
            ("3", ParseError, "unexpected character '3' (at position 0)", 0),
            ("_", ParseError, "unexpected character '_' (at position 0)", 0),
            ("Int&Flt", ParseError, "unexpected character '&' (at position 3)", 3),
            ("Int\u200bFlt", ParseError, "unexpected character '\\u200b' (at position 3)", 3),
            ("Foo 3", ParseError, "unexpected character '3' (at position 4)", 4),
            # A missing operand: at the start, after an operator, at the end.
            ("", ParseError, "expected a name or '(', got '' (at position 0)", 0),
            ("*Int", ParseError, "expected a name or '(', got '*' (at position 0)", 0),
            ("()", ParseError, "expected a name or '(', got ')' (at position 1)", 1),
            ("Int||Flt", ParseError, "expected a name or '(', got '|' (at position 4)", 4),
            ("Int*)", ParseError, "expected a name or '(', got ')' (at position 4)", 4),
            ("Int∪×Flt", ParseError, "expected a name or '(', got '×' (at position 4)", 4),
            ("Int|", ParseError, "expected a name or '(', got '' (at position 4)", 4),
            ("(", ParseError, "expected a name or '(', got '' (at position 1)", 1),
            ("(Int×", ParseError, "expected a name or '(', got '' (at position 5)", 5),
            # An open group that does not close where it must.
            ("(Int", ParseError, "expected ')' (at position 4)", 4),
            ("(Int|Flt", ParseError, "expected ')' (at position 8)", 8),
            ("((Int)", ParseError, "expected ')' (at position 6)", 6),
            ("(Int Flt)", ParseError, "expected ')' (at position 5)", 5),
            ("(Int Foo", ParseError, "expected ')' (at position 5)", 5),
            # A token left over after a complete type outside any group.
            ("Int)", ParseError, "unexpected ')' (at position 3)", 3),
            ("Int Flt", ParseError, "unexpected 'Flt' (at position 4)", 4),
            ("Int\u2003\u2003Flt", ParseError, "unexpected 'Flt' (at position 5)", 5),
            ("(Int)(Flt)", ParseError, "unexpected '(' (at position 5)", 5),
            ("Int|Flt Str", ParseError, "unexpected 'Str' (at position 8)", 8),
            # A name is resolved when it is parsed, before later syntax errors.
            ("Str*Foo", UnknownName, "unknown name 'Foo' at position 4", 4),
            ("Foo|(", UnknownName, "unknown name 'Foo' at position 0", 0),
            ("Int|Foo)", UnknownName, "unknown name 'Foo' at position 4", 4),
            ("(Str*Bar", UnknownName, "unknown name 'Bar' at position 5", 5),
        ],
    )
    def test_exact_errors(self, src, error, message, position):
        with pytest.raises(error) as info:
            parse_type(src, TOWER)
        assert type(info.value) is error
        assert str(info.value) == message
        assert info.value.position == position

    def test_unicode_spaces(self):
        assert parse_type("Str\u2003*\xa0(Int|Flt)\u2003", TOWER) == T("Str*(Int|Flt)")

    @pytest.mark.parametrize("inner,expected", [("Int", "Int"), ("Str*(Int|Flt)", "Str*(Int|Flt)")])
    def test_deep_parentheses(self, inner, expected):
        depth = 5000
        assert parse_type("(" * depth + inner + ")" * depth, TOWER) == T(expected)


class TestPrint:
    @pytest.mark.parametrize(
        "built,expected",
        [
            ("Str*(Int|Flt)", "Str*(Int|Flt)"),
            ("Str*Int|Str*Flt", "Str*Int|Str*Flt"),
            ("Int", "Int"),
            ("(Int*Flt)*Str", "Int*Flt*Str"),
            ("Int*(Flt*Str)", "Int*(Flt*Str)"),
            ("(Int|Flt)|Str", "Int|Flt|Str"),
            ("Int|(Flt|Str)", "Int|(Flt|Str)"),
            ("(Int|Flt)*Str", "(Int|Flt)*Str"),
        ],
    )
    def test_minimal_parentheses(self, built, expected):
        assert print_type(T(built)) == expected

    @pytest.mark.parametrize(
        "ctor,count,left,expected",
        [
            (Union, 2999, True, "|".join(["Int"] * 3000)),
            (Pair, 1500, True, "*".join(["Int"] * 1501)),
            (Pair, 1500, False, "Int*(" * 1499 + "Int*Int" + ")" * 1499),
        ],
        ids=["wide-union", "left-nested-pairs", "right-nested-pairs"],
    )
    def test_deep_types(self, ctor, count, left, expected):
        # Strings are compared: == on types this deep still recurses.
        t = N("Int")
        for _ in range(count):
            t = ctor(t, N("Int")) if left else ctor(N("Int"), t)
        assert print_type(t) == expected
        assert str(t) == expected

    @given(type_exprs(max_leaves=16))
    def test_round_trip(self, t):
        assert parse_type(print_type(t), TOWER) == t
