"""The peak memory of one call, for the working-set tests.

numpy reports its array buffers to ``tracemalloc``, so the peak traced
during a call, over what was traced when it started, is the most that its
arrays and Python objects held at once, its result included.  Inputs built
before the call do not count.
"""

from __future__ import annotations

import tracemalloc


def peak_bytes(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak bytes traced while it ran)``."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, peak
