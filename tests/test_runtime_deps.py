"""The package imports with only its runtime requirements installed.

SymPy is a test dependency (``requirements-dev.txt``): the tests use it to
cross-check the derivative engine.  ``sqlite3`` is optional in CPython
builds, and the result store is plain JSONL.  The check runs in a fresh
interpreter with ``sys.modules[name] = None`` for both, which makes any
``import`` of them raise ImportError as if they were not installed.
"""

import os
import subprocess
import sys

_IMPORT_ALL_WITHOUT_SYMPY = """\
import sys
sys.modules["sympy"] = None
sys.modules["sqlite3"] = None
import importlib, pkgutil
import repro, repro.cli
for m in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(m.name)
"""


def test_every_module_imports_without_sympy():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL_WITHOUT_SYMPY],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
