import copy
import pickle
import random
import re

import pytest
from hypothesis import given

from conftest import TOWER, T, type_exprs
from tagsub import frontend
from tagsub.core import Decl, Name, Pair, Union, UnknownName, validate_hierarchy
from tagsub.frontend import ParseError, parse_type, print_type
from tagsub.gen import random_hierarchy


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
            # before any name is resolved, so it wins over an unknown name
            # and over every other error exit.
            ("3", ParseError, "unexpected character '3' (at position 0)", 0),
            ("_", ParseError, "unexpected character '_' (at position 0)", 0),
            ("Int&Flt", ParseError, "unexpected character '&' (at position 3)", 3),
            ("Int\u200bFlt", ParseError, "unexpected character '\\u200b' (at position 3)", 3),
            ("Foo 3", ParseError, "unexpected character '3' (at position 4)", 4),
            ("Int) 3", ParseError, "unexpected character '3' (at position 5)", 5),
            ("(Int Flt 3", ParseError, "unexpected character '3' (at position 9)", 9),
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


# The positioned parser that parse_type replaced, kept as the reference for
# TestAgainstReference: one scan into (kind, text, pos) tokens, which raises
# at the first bad character, then the same folding loop with a fresh Name
# per looked-up name.
_REF_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)|([*×|∪()])|(\S)")
_REF_ALIAS = {"×": "*", "∪": "|"}


def _ref_scan(src):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(src):
        name, op, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", m.start())
        tokens.append(("name", name, m.start()) if op is None else (_REF_ALIAS.get(op, op), op, m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


def reference_parse(src, h):
    tokens = iter(_ref_scan(src))
    groups = []
    union = prod = None
    while True:
        kind, text, pos = next(tokens)
        if kind == "(":
            groups.append((union, prod))
            union = prod = None
            continue
        if kind != "name":
            raise ParseError(f"expected a name or '(', got {text!r}", pos)
        try:
            t = Name(h.lookup(text))
        except UnknownName:
            raise UnknownName(f"unknown name {text!r} at position {pos}", pos) from None
        while True:
            prod = t if prod is None else Pair(prod, t)
            kind, text, pos = next(tokens)
            if kind == "*":
                break
            union = prod if union is None else Union(union, prod)
            prod = None
            if kind == "|":
                break
            if not groups:
                if kind != "end":
                    raise ParseError(f"unexpected {text!r}", pos)
                return union
            if kind != ")":
                raise ParseError("expected ')'", pos)
            t = union
            union, prod = groups.pop()


def _outcome(parse, src, h):
    try:
        return "ok", parse(src, h)
    except (ParseError, UnknownName) as err:
        return type(err), str(err), err.position


# ASCII and unicode whitespace (str.isspace), and characters that are bad
# anywhere, bad at the start of a token, or part of a name or an operator.
_SPACES = ["", "", "", " ", "  ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u3000"]
_NOISE = "aZ09_*|×∪()" * 3 + " \t\u2003" + "&-é\u200b"


def _random_source(rng, names, depth):
    """Random source text over names (and now and then another name), up to
    depth operators deep, with random spacing, ASCII or unicode operators and
    redundant parentheses."""
    if depth <= 1 or rng.random() < 0.3:
        src = rng.choice(names) if rng.random() < 0.97 else rng.choice(["Foo", "Int3", "N_", "Str", "N0"])
    else:
        op = rng.choice("**||×∪")
        left = _random_source(rng, names, depth - 1)
        right = _random_source(rng, names, depth - 1)
        src = left + rng.choice(_SPACES) + op + rng.choice(_SPACES) + right
    if rng.random() < 0.3:
        src = "(" + rng.choice(_SPACES) + src + rng.choice(_SPACES) + ")"
    return rng.choice(_SPACES) + src + rng.choice(_SPACES)


def _mutants(rng, src, count):
    """src and count each of its one-character deletions, insertions and substitutions."""
    out = [src]
    for _ in range(count):
        i = rng.randrange(len(src) + 1)
        out.append(src[:i] + rng.choice(_NOISE) + src[i:])
        if src:
            i = rng.randrange(len(src))
            out.append(src[:i] + src[i + 1 :])
            out.append(src[:i] + rng.choice(_NOISE) + src[i + 1 :])
    return out


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_types_and_errors(self, seed):
        rng = random.Random(seed)
        other = random_hierarchy(rng)
        parsed = errors = deep = 0
        for _ in range(80):
            names = [n.text for n in rng.choice([TOWER, other]).names]
            for src in _mutants(rng, _random_source(rng, names, rng.randint(1, 6)), 3):
                for h in (TOWER, other):
                    want = _outcome(reference_parse, src, h)
                    assert _outcome(parse_type, src, h) == want, src
                    if want[0] == "ok":
                        parsed += 1
                    else:
                        errors += 1
                        deep += want[2] > 40
        # The fuzz parses types and reaches errors, also far into long inputs.
        assert parsed > 100 and errors > 500 and deep > 50

    @pytest.mark.parametrize(
        "src",
        [" ", "\u2003", "Int×", "∪Int", "Int\u2003∪", "Int3", "Int_x", "3Int", "Int3&", "Int (Flt"],
    )
    def test_edge_cases(self, src):
        assert _outcome(parse_type, src, TOWER) == _outcome(reference_parse, src, TOWER)

    # A declaration may name anything, but only names of the grammar parse:
    # any other declared name is a bad character wherever it appears.
    ODD = validate_hierarchy(
        [*TOWER.decls, Decl("a-b", False), Decl("Ωmega", False), Decl("1x", False), Decl("_x", False)]
    )

    @pytest.mark.parametrize(
        "src",
        [
            "a-b", "Ωmega", "1x", "_x", "Int*a-b", "a-b*Int", "(Int|Ωmega)", "Int×1x", "_x∪Int",
            "Int Ωmega", "Ghost|a-b", "Int*(a-b", "Int)a-b", "a - b", "Int|", "x1|_x",
        ],
    )
    def test_odd_declared_names(self, src):
        for h in (self.ODD, TOWER):
            assert _outcome(parse_type, src, h) == _outcome(reference_parse, src, h)

    @pytest.mark.parametrize("seed", range(3))
    def test_odd_declared_names_fuzzed(self, seed):
        rng = random.Random(seed)
        names = [n.text for n in self.ODD.names]
        for _ in range(60):
            for src in _mutants(rng, _random_source(rng, names, rng.randint(1, 5)), 2):
                assert _outcome(parse_type, src, self.ODD) == _outcome(reference_parse, src, self.ODD), src

    @pytest.mark.parametrize(
        "src",
        [
            "\x1c", "\u2003", "\u3000", "Int\x1c*\u2003Flt\u3000", "\u3000(Int\x1c|\u2003Flt)\x1c",
            "Int\u3000Flt", "Int\x1c&", "\u2003Ghost\u3000", "Int\u2003|\x1c", "(\u3000Int",
        ],
    )
    def test_unicode_whitespace(self, src):
        assert _outcome(parse_type, src, TOWER) == _outcome(reference_parse, src, TOWER)

    @pytest.mark.parametrize(
        "src",
        [
            "Int×Flt", "Int∪Flt×Str", "(Int∪Flt)×Str", "Int×(Flt∪Str)", "Int×", "×Int", "Int∪∪Flt",
            "Ghost×Int", "Int×Ghost", "Int∪Ghost&", "Int×∪Flt", "Int×)",
        ],
    )
    def test_unicode_operators_touching_names(self, src):
        assert _outcome(parse_type, src, TOWER) == _outcome(reference_parse, src, TOWER)


class TestCheckOnlyOnError:
    class Refuse:
        def match(self, src):
            raise AssertionError(f"checked {src!r}")

    def test_a_successful_parse_runs_no_check(self, monkeypatch):
        monkeypatch.setattr(frontend, "_CHECK_RE", self.Refuse())
        for src in ["Int", " Str × ( Int ∪ Flt ) ", "((Int|Flt)*Num)\u3000", TestSharedLeaves.SRC]:
            parse_type(src, TOWER)
        with pytest.raises(AssertionError):
            parse_type("Int*Ghost", TOWER)


def _name_leaves(t):
    out, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Name):
            out.append(x)
        else:
            todo += [x.right, x.left]
    return out


class TestSharedLeaves:
    SRC = "Int*(Flt|Int)|Num*Str"

    def test_parsed_names_are_the_hierarchys_leaves(self):
        for leaf in _name_leaves(parse_type(self.SRC, TOWER)):
            assert leaf is TOWER._name_types[leaf.name.text]
            assert leaf.name is TOWER.lookup(leaf.name.text)

    def test_equal_hierarchies_give_equal_types(self):
        h1, h2 = validate_hierarchy(TOWER.decls), validate_hierarchy(TOWER.decls)
        t1, t2 = parse_type(self.SRC, h1), parse_type(self.SRC, h2)
        assert h1._name_types["Int"] is not h2._name_types["Int"]
        assert t1 == t2 and hash(t1) == hash(t2)
        assert t1 == parse_type(self.SRC, TOWER) == reference_parse(self.SRC, h1)
        assert hash(t1) == hash(reference_parse(self.SRC, h1))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))])
    def test_copied_hierarchy_parses(self, clone):
        h = clone(TOWER)
        t = parse_type(self.SRC, h)
        assert t == parse_type(self.SRC, TOWER)
        for leaf in _name_leaves(t):
            assert leaf is h._name_types[leaf.name.text]
            assert leaf.name is h.lookup(leaf.name.text)
