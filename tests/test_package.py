"""The package's public surface, `ietsaf.__all__`, and its dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import ietsaf

SRC = Path(__file__).resolve().parent.parent / "src"


def test_all_is_sorted_unique_and_every_name_resolves():
    names = ietsaf.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(ietsaf, name)] == []


def test_the_library_imports_no_test_dependency():
    """sympy, numpy and hypothesis are test oracles only: a fresh
    interpreter that imports the library and its CLI has loaded none."""
    probe = ("import sys, ietsaf, ietsaf.cli; "
             "print(sorted({'sympy', 'numpy', 'hypothesis'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == "[]\n"
