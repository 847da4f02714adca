"""Kernel backend selection: compiled `_speedups` if available, else pure Python.

Set DOUBLEDIST_PURE=1 to force the pure backend, e.g. to time it once the
compiled module is built.
"""

import os

from . import py as _py

if os.environ.get("DOUBLEDIST_PURE"):
    _impl = _py
    BACKEND = "pure"
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        _impl = _py
        BACKEND = "pure"

walk_components = _impl.walk_components
sigma2x_from_lengths = _impl.sigma2x_from_lengths
best_resolution = _impl.best_resolution
alternating_cycles = _impl.alternating_cycles
alternating_even_paths = _impl.alternating_even_paths
