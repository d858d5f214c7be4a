"""Speed calibration for timings taken on a shared host.

On a shared 2-vCPU cloud host (Python 3.11) the same instance ran anywhere
from 0.65 s to 1.1 s, switching between a fast and a slow state every few
seconds (other tenants on the host).  A run-to-run spread of ~25%
hides any change smaller than that.  So every timed region is bracketed by
this fixed pure-Python kernel (tuple keys, dict updates and a sort, like
nncp's own permutation work), and the reported time is rescaled to a host
on which the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

The raw times are kept next to the rescaled ones in the .bench_out record.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.05


def kernel_seconds() -> float:
    """Time one run of the fixed calibration kernel (40-70 ms on that host)."""
    t = time.perf_counter()
    counts: dict[tuple, int] = {}
    for i in range(40000):
        key = (i % 97, i % 89, i % 83)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - t


def rescale(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S / ((before + after) / 2)
