import codecs
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tagsub
from tagsub.cli import main
from tagsub.core import DEFAULT_HIERARCHY, Pair
from tagsub.gen import random_type

HIERARCHY = """
abstract Num
abstract Real <: Num
concrete Int <: Real
concrete Flt <: Real
concrete Cmplx <: Num
concrete Str
"""

METHODS = """
mode semantic
method plus Int*Int => mII
method plus Flt*Flt => mFF
method plus (Int|Flt)*(Int|Flt) => mUU
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_true_verdict(self, capsys):
        code, out, _ = run(capsys, "check", "Real", "Int|Flt")
        assert code == 0 and out == "true\n"

    def test_atomic_verdict(self, capsys):
        code, out, _ = run(capsys, "check", "Real", "Int|Flt", "--mode", "atomic")
        assert code == 1 and out == "false\n"

    def test_trace_output(self, capsys):
        code, out, _ = run(
            capsys, "check", "Str*(Int|Flt)", "Str*Real",
            "--strategy", "short-path-first", "--trace",
        )
        assert code == 0
        assert out.splitlines()[0] == "true"
        assert out.splitlines()[1] == "SR-Pair: Str*(Int|Flt) <: Str*Real"
        assert len(out.splitlines()) == 6

    def test_derivation_output(self, capsys):
        code, out, _ = run(capsys, "check", "Num", "Real|Cmplx", "--derivation")
        assert code == 0
        assert "SD-Trans: Num <: Real|Cmplx" in out
        assert "witness: Int|Flt|Cmplx" in out

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "Int|", "Flt")
        assert code == 2 and "error" in err

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "Foo", "Flt")
        assert code == 2 and "Foo" in err

    @pytest.mark.parametrize("command", ["check", "eq"])
    def test_recursion_limit_is_an_error_not_a_verdict(self, capsys, command):
        deep = "*".join(["Int"] * 1500)
        code, out, err = run(capsys, command, deep, deep)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["check", "eq"])
    def test_wide_union_is_answered(self, capsys, command):
        wide = "|".join(["Int"] * 3000)
        code, out, err = run(capsys, command, wide, "Int")
        assert code == 0 and out == "true\n" and err == ""

    @pytest.mark.parametrize("flag", ["--trace", "--derivation"])
    def test_no_verdict_before_a_failed_trace(self, capsys, flag):
        # The verdict answers, but reading its trace overflows: the run is an
        # error with nothing on stdout.
        wide = "|".join(["Int"] * 3000)
        code, out, err = run(capsys, "check", wide, "Int", flag)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_deeply_parenthesized_type(self, capsys):
        code, out, err = run(capsys, "check", "(" * 400 + "Int" + ")" * 400, "Int")
        assert code == 0 and out == "true\n" and err == ""


class TestOtherCommands:
    def test_nf(self, capsys):
        code, out, _ = run(capsys, "nf", "Num")
        assert code == 0 and out == "Int|Flt|Cmplx\n"

    def test_nf_atomic(self, capsys):
        code, out, _ = run(capsys, "nf", "Real*(Int|Str)", "--atomic")
        assert code == 0 and out == "Real*Int|Real*Str\n"

    def test_interp(self, capsys):
        code, out, _ = run(capsys, "interp", "Num")
        assert code == 0 and out == "{Cmplx, Flt, Int}\n"

    def test_interp_atomic(self, capsys):
        code, out, _ = run(capsys, "interp", "Num", "--mode", "atomic")
        assert code == 0 and out == "{Cmplx, Flt, Int, E(Num), E(Real)}\n"

    def test_match(self, capsys):
        assert run(capsys, "match", "Str*Int", "Str*(Int|Flt)")[:2] == (0, "true\n")
        assert run(capsys, "match", "Flt", "Int")[:2] == (1, "false\n")

    def test_match_non_value_type_is_an_error(self, capsys):
        code, _, err = run(capsys, "match", "Real", "Num")
        assert code == 2 and "value type" in err

    @pytest.mark.parametrize("name, tags", [("Int", "{Int}"), ("Real", "{Flt, Int}")])
    @pytest.mark.parametrize("right", [False, True])
    def test_wide_union_is_answered(self, capsys, name, tags, right):
        if right:
            wide = "|(".join([name] * 3000) + ")" * 2999
        else:
            wide = "|".join([name] * 3000)
        assert run(capsys, "interp", wide) == (0, tags + "\n", "")
        assert run(capsys, "match", "Int", wide) == (0, "true\n", "")

    def test_eq(self, capsys):
        assert run(capsys, "eq", "Real", "Int|Flt")[:2] == (0, "true\n")
        assert run(capsys, "eq", "Real", "Int|Flt", "--mode", "atomic")[:2] == (
            1,
            "false\n",
        )


class TestHierarchyCommand:
    def test_validate_ok(self, capsys, tmp_path):
        f = tmp_path / "h.txt"
        f.write_text(HIERARCHY, encoding="utf-8")
        code, out, _ = run(capsys, "hierarchy", "validate", "--file", str(f))
        assert code == 0 and out == "valid\n"

    def test_validate_bad(self, capsys, tmp_path):
        f = tmp_path / "h.txt"
        f.write_text("abstract A <: B\nabstract B <: A", encoding="utf-8")
        code, _, err = run(capsys, "hierarchy", "validate", "--file", str(f))
        assert code == 2 and "error" in err

    def test_custom_hierarchy_flag(self, capsys, tmp_path):
        f = tmp_path / "h.txt"
        f.write_text(HIERARCHY + "concrete Int8 <: Real\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "Real", "Int|Flt", "--hierarchy", str(f))
        assert code == 1 and out == "false\n"

    def test_file_with_a_byte_order_mark(self, capsys, tmp_path):
        f = tmp_path / "h.txt"
        f.write_text(HIERARCHY.lstrip(), encoding="utf-8-sig")
        code, out, _ = run(capsys, "hierarchy", "validate", "--file", str(f))
        assert code == 0 and out == "valid\n"

    def test_missing_hierarchy_file_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "Int", "Int", "--hierarchy", "/nonexistent")
        assert code == 2 and "error" in err

    def test_undecodable_hierarchy_file_exits_2(self, capsys, tmp_path):
        # Not a traceback and exit 1, which would read as "false".
        f = tmp_path / "h.txt"
        f.write_bytes(HIERARCHY.encode() + b"concrete \xff\n")
        code, out, err = run(capsys, "check", "--hierarchy", str(f), "Int", "Int")
        assert code == 2 and out == "" and err.startswith("error: ") and "UTF-8" in err


class TestDispatchCommand:
    @pytest.fixture
    def methods_file(self, tmp_path):
        f = tmp_path / "methods.txt"
        f.write_text(METHODS, encoding="utf-8")
        return str(f)

    def test_selected(self, capsys, methods_file):
        code, out, _ = run(
            capsys, "dispatch", "--methods", methods_file, "--call", "plus Int*Int"
        )
        assert code == 0 and out == "selected: mII\n"

    def test_no_method(self, capsys, methods_file):
        code, out, _ = run(
            capsys, "dispatch", "--methods", methods_file, "--call", "plus Str*Str"
        )
        assert code == 3 and out == "error: no-method\n"

    def test_ambiguous(self, capsys, tmp_path):
        f = tmp_path / "methods.txt"
        f.write_text(
            "mode semantic\nmethod f Int*Real => mIR\nmethod f Real*Int => mRI\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "dispatch", "--methods", str(f), "--call", "f Int*Int"
        )
        assert code == 4
        assert out.startswith("error: ambiguous")
        assert "mIR" in out and "mRI" in out

    def test_methods_file_with_a_byte_order_mark(self, capsys, tmp_path):
        f = tmp_path / "methods.txt"
        f.write_text(METHODS.lstrip(), encoding="utf-8-sig")
        code, out, _ = run(capsys, "dispatch", "--methods", str(f), "--call", "plus Int*Int")
        assert code == 0 and out == "selected: mII\n"

    def test_call_without_a_type_exits_2(self, capsys, methods_file):
        code, out, err = run(capsys, "dispatch", "--methods", methods_file, "--call", "plus")
        assert code == 2 and out == "" and err.startswith("error: --call expects")

    def test_unknown_function(self, capsys, methods_file):
        code, _, err = run(
            capsys, "dispatch", "--methods", methods_file, "--call", "minus Int*Int"
        )
        assert code == 2 and "minus" in err

    def test_childless_abstract_signature_exits_2(self, capsys, tmp_path):
        # The bad signature is rejected when it is inserted, so the exit code
        # does not depend on where its line stands among the function's lines.
        h = tmp_path / "h.txt"
        h.write_text("abstract Void\nconcrete Int\nconcrete Str\n", encoding="utf-8")
        f = tmp_path / "methods.txt"
        f.write_text(
            "mode semantic\nmethod f Int*Str => mI\nmethod f Void*Int => mV\n",
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, "dispatch", "--methods", str(f), "--call", "f Int*Str",
            "--hierarchy", str(h),
        )
        assert code == 2 and out == "" and "Void" in err

    def test_undecodable_methods_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "methods.txt"
        f.write_bytes(METHODS.encode() + b"method plus Int*Flt => m\xff\n")
        code, out, err = run(
            capsys, "dispatch", "--methods", str(f), "--call", "plus Int*Int"
        )
        assert code == 2 and out == "" and err.startswith("error: ") and "UTF-8" in err


# The type parser's alphabet: names of each kind, an undeclared name, every
# operator spelling, two spaces and three characters that start no token.
TOKENS = (
    "Int", "Real", "Num", "Str", "Foo", "*", "×", "|", "∪", "(", ")", " ", "\u2003", "\u200b", "3", "_",
)
NAMES = ("Num", "Real", "Int", "Flt", "Cmplx", "Str", "Foo")

#: The exit codes that each command documents; argparse's usage error is 2.
EXIT_CODES = {
    "check": {0, 1, 2},
    "match": {0, 1, 2},
    "eq": {0, 1, 2},
    "nf": {0, 2},
    "interp": {0, 2},
    "hierarchy": {0, 2},
    "dispatch": {0, 2, 3, 4},
}


def _tokens(rng, most=7):
    return "".join(rng.choice(TOKENS) for _ in range(rng.randint(0, most)))


def _random_type(rng, depth=2):
    return random_type(rng, DEFAULT_HIERARCHY, depth)


def _type_text(rng):
    # Half the time a well-formed type over the built-in hierarchy.
    return str(_random_type(rng, 3)) if rng.random() < 0.5 else _tokens(rng)


def _line(rng):
    # A hierarchy or method line, now and then a malformed one.
    kind = rng.randrange(5)
    if kind == 0:
        parent = f" <: {rng.choice(NAMES)}" if rng.random() < 0.6 else ""
        return f"{rng.choice(['abstract', 'concrete'])} {rng.choice(NAMES)}{parent}"
    if kind == 1:
        return f"mode {rng.choice(['semantic', 'atomic', 'lazy'])}"
    if kind in (2, 3):
        return f"method {rng.choice('fg')} {_type_text(rng)} => m{rng.randrange(4)}"
    return _tokens(rng)


def _random_files(rng, tmp_path):
    """Paths of a missing file, the files above, files of random bytes, of
    random lines and of methods; about a third begin with a byte-order mark."""
    texts = [HIERARCHY.encode(), METHODS.encode()]
    texts += [bytes(rng.randrange(256) for _ in range(rng.randint(0, 40))) for _ in range(10)]
    texts += ["\n".join(_line(rng) for _ in range(rng.randint(0, 6))).encode() for _ in range(30)]
    for _ in range(30):  # well-formed method files, so that calls can resolve
        sigs = [Pair(_random_type(rng), _random_type(rng)) for _ in range(rng.randint(1, 8))]
        lines = [f"mode {rng.choice(['semantic', 'atomic'])}"]
        lines += [f"method f {sig} => m{i}" for i, sig in enumerate(sigs)]
        texts.append("\n".join(lines).encode())
    paths = [str(tmp_path / "missing")]
    for i, data in enumerate(texts):
        path = tmp_path / f"file{i}"
        path.write_bytes(codecs.BOM_UTF8 + data if rng.random() < 0.3 else data)
        paths.append(str(path))
    return paths, paths[-30:]


def _random_argv(rng, command, files, methods):
    if command == "hierarchy":
        argv = ["hierarchy", "validate", "--file", rng.choice(files)]
    elif command == "dispatch":
        call = f"f {Pair(_random_type(rng), _random_type(rng))}"
        if rng.random() < 0.3:
            call = f"{rng.choice(['f', 'g', 'plus', ''])} {_type_text(rng)}"
        argv = ["dispatch", "--methods", rng.choice(methods if rng.random() < 0.7 else files), "--call", call]
    else:
        arity = 1 if command in ("nf", "interp") else 2
        argv = [command, *(_type_text(rng) for _ in range(arity))]
        if command in ("check", "eq", "interp") and rng.random() < 0.3:
            argv += ["--mode", "atomic"]
        if command == "check" and rng.random() < 0.3:
            argv += ["--trace", "--derivation", "--strategy", "short-path-first"]
        if command == "nf" and rng.random() < 0.3:
            argv.append("--atomic")
    if command != "hierarchy" and rng.random() < 0.2:
        argv += ["--hierarchy", rng.choice(files)]
    if rng.random() < 0.05:
        del argv[rng.randrange(1, len(argv))]  # a usage error, now and then
    return argv


class TestRandomInput:
    """Seeded random arguments and files: every run exits with a code that
    its command documents, an error (2) writes stderr only, and any other
    outcome writes stdout only."""

    @pytest.mark.parametrize("command", sorted(EXIT_CODES))
    def test_exit_codes(self, capsys, tmp_path, command):
        rng = random.Random(f"cli {command}")
        files, methods = _random_files(rng, tmp_path)
        seen = set()
        for _ in range(300):
            argv = _random_argv(rng, command, files, methods)
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
            out, err = capsys.readouterr()
            assert code in EXIT_CODES[command], argv
            if code == 2:
                assert out == "" and err != "", argv
            else:
                assert err == "", argv
            seen.add(code)
        assert seen == EXIT_CODES[command]


def python(*args):
    """Run a fresh interpreter that imports this checkout's tagsub."""
    src = str(Path(tagsub.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestImport:
    def test_importing_the_cli_loads_no_argparse(self):
        out = python("-c", "import sys, tagsub, tagsub.cli; print('argparse' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    def test_help_still_works(self):
        out = python("-m", "tagsub", "--help")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: tagsub")
