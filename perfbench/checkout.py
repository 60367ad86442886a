"""Where the benchmark finds the program: the `src/` tree of the checkout it
runs in, never an installed copy.

Kept free of heavy imports so the set-up probe can time `import linepaint`
(numpy and PyYAML included) from a cold interpreter.
"""

import os
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, altered inputs)."""


def use_source_tree() -> None:
    """Put the checkout's `src/` first on the import path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "linepaint", "__init__.py")):
        raise BenchError(f"no linepaint sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)


def check_imported(module) -> None:
    """Refuse a `linepaint` that was imported from anywhere but `src/`."""
    where = os.path.realpath(module.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"linepaint imported from {where}, not from {SRC}")
