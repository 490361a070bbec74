"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the
repository root.  Puts the program (``src/``) and the benchmark's own
modules on the import path, as ``run.py`` does."""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
