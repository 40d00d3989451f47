"""Every command-line flag is passed by something that runs it.

Walks every subparser of ``repro.cli.build_parser`` and fails on any
declared ``--flag`` that no tier-1 test and no CI step passes. A test passes
a flag when the flag appears in one of its string literals (docstrings and
comments do not count); a CI step passes it when it appears on a
non-comment line of ``.github/workflows/ci.yml``. A value only one caller
sets is a constant at that use, not a flag: delete the flag through every
layer that only carries its value, or add the ``main([...])`` case or CI
step that shows what it does.
"""

import argparse
import ast
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"


def declared_flags():
    """``(command, --flag)`` for every long option of every subcommand."""
    parser = build_parser()
    (commands,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    yield command, option


def _string_literals(path: Path) -> list[str]:
    """The string constants of one test module, docstrings excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, documented) and node.body and isinstance(node.body[0], ast.Expr)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


def passed_text() -> str:
    """Everything a test or a CI step could pass on a command line."""
    here = Path(__file__).resolve()
    texts = [
        literal
        for path in sorted((ROOT / "tests").rglob("*.py"))
        if path.resolve() != here
        for literal in _string_literals(path)
    ]
    texts += [
        line
        for line in CI.read_text(encoding="utf-8").splitlines()
        if not line.lstrip().startswith("#")
    ]
    return "\n".join(texts)


def test_every_declared_flag_is_passed_by_a_test_or_a_ci_step():
    flags = list(declared_flags())
    commands = {command for command, _ in flags}
    assert {"stress", "serve", "replicate", "slo", "run", "run-all"} <= commands
    text = passed_text()
    unexercised = [
        f"{command} {flag}"
        for command, flag in flags
        if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)
    ]
    assert not unexercised, (
        f"flags no test and no CI step passes: {unexercised}; give each a "
        f"main([...]) case or a CI step, or delete it through the layers "
        f"that only carry its value"
    )


def test_a_flag_only_named_in_a_docstring_or_comment_is_not_passed(tmp_path):
    module = tmp_path / "test_example.py"
    module.write_text(
        '"""Mentions --docstring-flag."""\n'
        "# and --comment-flag\n"
        "def test_x():\n"
        '    """And --inner-docstring-flag."""\n'
        '    main(["stress", "--passed-flag", "1"])\n',
        encoding="utf-8",
    )
    assert _string_literals(module) == ["stress", "--passed-flag", "1"]
