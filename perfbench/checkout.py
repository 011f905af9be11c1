"""Locates the checkout and imports flatiso from its src/ directory only."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_flatiso():
    """Import the package built from this checkout's sources, or exit nonzero."""
    sys.path.insert(0, SRC)
    try:
        import flatiso
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import flatiso from {SRC}: {exc}")
    if not os.path.abspath(flatiso.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: flatiso was imported from {flatiso.__file__}, not from {SRC}")
    return flatiso
