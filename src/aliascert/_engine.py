"""Interpreter core selection.

The compiled extension is preferred when importable; the pure-Python
twin is always available.  Set ``ALIASCERT_PURE=1`` to force the
fallback.  The parity tests import both cores directly and the benchmark
records which one ran; neither sets the variable.
"""

from __future__ import annotations

import os

from . import _simpure

if os.environ.get("ALIASCERT_PURE"):
    _core = _simpure
    BACKEND = "pure"
else:
    try:
        from . import _simcore as _core  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        _core = _simpure
        BACKEND = "pure"

run_clean_image = _core.run_clean_image
run_alias_image = _core.run_alias_image
