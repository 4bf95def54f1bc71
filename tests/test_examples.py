"""Smoke tests: every example script runs end-to-end.

The examples are shrunk via monkeypatched sys.argv where applicable; the
scripts themselves are executed in-process with runpy so import errors
and API drift surface in the test suite. A ``DeprecationWarning`` is an
error: the first code a reader runs must not lean on a retiring API.
"""

from __future__ import annotations

import runpy
import sys
import warnings
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(script)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "three_level_comparison", "multi_client_server"} <= names
    assert len(EXAMPLES) >= 3
