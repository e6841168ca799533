"""The library's internal checks stay on under `python -O`: liereg raises
AssertionError explicitly and has no bare `assert` statement, which -O
would strip."""
import ast
from pathlib import Path

import pytest

import liereg
from liereg import kacmoody
from liereg.kacmoody import validate_gcm

SRC = Path(liereg.__file__).parent


def test_no_bare_assert_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_peterson_raises_on_an_inexact_division(monkeypatch):
    # with twice the pairing, the recurrence gives non-integral multiplicities
    gcm = validate_gcm([[2, -1], [-1, 2]])
    monkeypatch.setattr(gcm, "pair_vector", lambda beta: tuple(
        2 * sum(x * y for x, y in zip(row, beta)) for row in gcm.b
    ))
    with pytest.raises(AssertionError) as info:
        kacmoody.root_multiplicities(gcm, 3)
    assert info.traceback[-1].name == "root_multiplicities"
