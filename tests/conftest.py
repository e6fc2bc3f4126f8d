"""Child Python processes (the CLI and -O tests) import ryser from src/ as
the test process does, so the suite needs no PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
