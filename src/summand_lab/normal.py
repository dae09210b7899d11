"""Standard normal CDF over numpy arrays.

ndtr is Phi(x) = 1/2 erfc(-x / sqrt 2) with the C library's erfc, one value
at a time: within 2.2e-16 absolute of scipy.special.ndtr, and the same bits
as ndtr_scalar, the CDF of one float. At about 0.1 us a value it is cheap
where it runs: the continuous KS reads F at about 1250 of the 2e4 values of
a row (see montecarlo._continuous_ks).
"""

from __future__ import annotations

import math

from ._lazy import np

_SQRT_2 = math.sqrt(2.0)


def ndtr_scalar(z: float) -> float:
    """Phi(z) of one float by the C library's erfc, within 2.2e-16 of scipy's ndtr."""
    return 0.5 * math.erfc(-z / _SQRT_2)


def ndtr(x) -> np.ndarray:
    """Phi(x) elementwise, bit for bit ndtr_scalar of each value."""
    x = np.asarray(x, dtype=np.float64)
    z = (-x / _SQRT_2).ravel().tolist()
    out = np.fromiter(map(math.erfc, z), np.float64, len(z))
    out *= 0.5
    return out.reshape(x.shape)
