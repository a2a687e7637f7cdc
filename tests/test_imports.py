"""Importing blindvote loads no process-pool, pickling or subprocess module.

Each would add import time and resident memory to every run; key
generation forks with ``os.fork`` and a pipe instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNWANTED = ("multiprocessing", "concurrent.futures", "pickle", "subprocess")


def test_import_loads_no_unwanted_module():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = f"import sys, blindvote; print(*(m for m in {UNWANTED!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    assert done.stdout.split() == []
