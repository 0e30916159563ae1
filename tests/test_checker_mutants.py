"""The mutation runner of the proof checkers, scripts/checker_mutants.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location(
        "checker_mutants", ROOT / "scripts" / "checker_mutants.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_changes_its_module_in_one_place(runner):
    for label, module, text, replacement in runner.MUTANTS:
        assert (ROOT / "src" / "tagsub" / module).read_text().count(text) == 1, label
        assert replacement != text, label


def test_a_no_op_mutant_survives_and_the_run_exits_1(runner, capsys):
    unknown_rule = next(m for m in runner.MUTANTS if m[0].startswith("_check: an unknown rule"))
    tests = ["tests/test_subtyping.py::TestMalformedTraces"]
    assert runner.run([unknown_rule, runner.NO_OP], tests) == 1
    out = capsys.readouterr().out
    assert "killed   _check: an unknown rule" in out
    assert "SURVIVED no-op" in out
    assert "1 of 2 mutants killed" in out
