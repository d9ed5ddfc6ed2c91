"""Let the suite run from an uninstalled checkout.

pytest puts src on sys.path (pyproject's pythonpath); the CLI tests start
fresh interpreters, which find the package through PYTHONPATH instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
