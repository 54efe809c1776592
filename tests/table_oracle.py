"""Bessel tables filled by evaluating fn directly at every node.

This is the fill `kernel.BesselTable` replaced by its two-level
interpolation from coarse nodes; tests compare the two.  fn is evaluated
chunk by chunk; it acts pointwise, so the values equal
fn(np.arange(n) * spacing) bit for bit.
"""

import numpy as np

from kgpoint.kernel import _TABLE_SPACING

_BUILD_CHUNK = 1 << 15  # table points per fn call, so fn's temporaries stay in cache


def direct_values(fn, a_max: float) -> np.ndarray:
    """fn at k * _TABLE_SPACING for every node of a `BesselTable(fn, a_max)`."""
    n = int(np.ceil(float(a_max) / _TABLE_SPACING)) + 4
    values = np.empty(n)
    for lo in range(0, n, _BUILD_CHUNK):
        hi = min(lo + _BUILD_CHUNK, n)
        values[lo:hi] = fn(np.arange(lo, hi) * _TABLE_SPACING)
    return values
