"""Importing blindvote loads every module but cli and no process-pool,
pickling, subprocess or ctypes module, and the package never forks.

Each unwanted module would add import time and resident memory to every run, also
to toy-key runs that never reach ``blindsig._bn``, the OpenSSL binding,
which loads ctypes on its first call. Key generation and sealed-ballot
decryption run in one process, so that no timing depends on a free
second CPU.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNWANTED = ("multiprocessing", "concurrent.futures", "pickle", "subprocess", "ctypes")


def _fresh_import(code: str) -> list[str]:
    """What ``import sys, blindvote; <code>`` prints in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, blindvote; {code}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    return done.stdout.split()


def test_import_loads_no_unwanted_module():
    assert _fresh_import(f"print(*(m for m in {UNWANTED!r} if m in sys.modules))") == []


def test_import_loads_every_module_but_cli():
    # the benchmark's setup_s times ``import blindvote`` as the cost of the
    # package, so the root keeps importing it although it re-exports nothing
    loaded = _fresh_import("print(*(m for m in sys.modules if m.startswith('blindvote.')))")
    modules = {p.stem for p in (ROOT / "src" / "blindvote").glob("*.py")} - {"__init__", "cli"}
    assert sorted(loaded) == sorted(f"blindvote.{m}" for m in modules)


def test_no_fork_site():
    forks = []
    for path in sorted((ROOT / "src" / "blindvote").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("os", "posix"):
                forks += [f"{path.name}:{node.lineno}" for a in node.names if "fork" in a.name]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fork"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                forks.append(f"{path.name}:{node.lineno}")
    assert forks == []
