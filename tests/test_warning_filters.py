"""The project's warning filters let a failing hypothesis test be reported.

On a failure, hypothesis's pytest plugin imports
`hypothesis.extra._patching`, which imports libcst, whose
`mypy_extensions.TypedDict` subclass warns as it is defined.  Under the
"error" filter alone that warning becomes an INTERNALERROR: pytest stops,
and no later test runs.  pyproject.toml ignores that one warning.
"""

import pathlib
import subprocess
import sys

import pytest


def test_hypothesis_failure_report_imports_under_project_filters():
    pytest.importorskip("libcst")
    tomllib = pytest.importorskip("tomllib")
    with open(pathlib.Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    # A fresh interpreter, so that no earlier import hides the warning;
    # as in pytest's list, a later -W filter takes precedence.
    proc = subprocess.run(
        [sys.executable, *(f"-W{f}" for f in filters), "-c",
         "import hypothesis.extra._patching"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
