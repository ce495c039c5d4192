"""Test-session setup: the package imports from this checkout's ``src``, in
the test process (``pythonpath`` in ``pyproject.toml``) and in the child
processes some tests start."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
