"""Test set-up for the benchmark's own tests: the package from ``src`` and
the benchmark modules importable by name.

Run from the repository root: python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
