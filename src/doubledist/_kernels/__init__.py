"""The graph kernels; callers reach them as `_kernels.<fn>`.

The functions live in `py`, whose sweep calls its own `walk_components`, so a
wrapper set on an attribute of this namespace sees only the outside calls.
"""

from .py import (
    alternating_cycles,
    alternating_even_paths,
    best_resolution,
    sigma2x_from_lengths,
    walk_components,
)
