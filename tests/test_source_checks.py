"""Checks in these modules must survive `python -O`, which strips asserts."""

import ast
from pathlib import Path

import pytest

import latorb

SRC = Path(latorb.__file__).parent


@pytest.mark.parametrize(
    "module",
    [
        "isometries.py",
        "lattice_core.py",
        "irrationality.py",
        "torus_forms.py",
        "intlin.py",
        "orbit_explorer.py",
        "jsonio.py",
        "cli.py",
    ],
)
def test_no_assert_statements(module):
    tree = ast.parse((SRC / module).read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == [], f"{module} uses assert at lines {lines}"
