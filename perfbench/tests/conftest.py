"""Make the benchmark's modules and the program importable.

These tests live outside the tier-1 ``testpaths``; run them with
``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))
