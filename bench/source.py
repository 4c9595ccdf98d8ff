"""Where the benchmark finds the program and keeps its scratch files.

The benchmark runs from the root of a source checkout. It imports
meshsim from that checkout's ``src/`` and nowhere else, so a tree
without the sources fails loudly instead of measuring an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"


class MissingSource(RuntimeError):
    pass


def load_meshsim():
    """Import meshsim from ROOT/src; raise MissingSource otherwise."""
    package = SRC / "meshsim"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no meshsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import meshsim

    if Path(meshsim.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"meshsim imported from {meshsim.__file__}, not {package}")
    return meshsim
