"""The graph kernels; callers reach them as `_kernels.<fn>`.

The functions live in `py` and none of them calls another, so a wrapper set
on an attribute of this namespace sees every call the library makes.  The
sweep scores the resolutions incrementally; `walk_components` walks one
resolved graph, for the re-score of a witness.
"""

from .py import (
    alternating_cycles,
    alternating_even_paths,
    best_resolution,
    walk_components,
)
