"""Faddeeva function w(z) = exp(-z^2) erfc(-i z), at a point or over an ndarray.

Weideman's rational expansion with N = 36 terms above the real axis (Weideman
1994, SIAM J. Numer. Anal. 31, 1497; relative error about 2e-14), and the
reflection w(z) = 2 exp(-z^2) - w(-z) below it. The expansion is one Horner
loop that runs unchanged on a Python complex or elementwise on an array.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import FaddeevaOverflow

_N = 36
_L = math.sqrt(_N / math.sqrt(2.0))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# exp(-z^2) overflows beyond this real part of -z^2
_EXP_LIMIT = 700.0


@lru_cache(maxsize=1)
def _coefficients() -> tuple[float, ...]:
    """a_N .. a_1, the cosine transform of exp(-t^2) (L^2 + t^2) sampled at
    t = L tan(k pi / 2M), |k| < M = 2N; built on first use."""
    m = 2 * _N
    ks = range(1 - m, m)
    f = [math.exp(-t * t) * (_L * _L + t * t)
         for t in (_L * math.tan(k * math.pi / (2 * m)) for k in ks)]
    return tuple(sum(fk * math.cos(math.pi * k * n / m) for k, fk in zip(ks, f)) / (2 * m)
                 for n in range(_N, 0, -1))


def faddeeva(z):
    """w(z) at one point, or elementwise over a complex ndarray; raises
    FaddeevaOverflow where exp(-z^2) would overflow (at any element)."""
    if isinstance(z, np.ndarray):
        lower = z.imag < 0.0
        if lower.any():
            zl = z[lower]
            x, y = zl.real, zl.imag
            re = (y - x) * (y + x)
            if re.max() > _EXP_LIMIT:
                i = int(re.argmax())
                raise _overflow(x[i], y[i])
            w = faddeeva(np.where(lower, -z, z))
            w[lower] = 2.0 * np.exp(re - 2j * x * y) - w[lower]
            return w
    else:
        z = complex(z)
        if z.imag < 0.0:
            x, y = z.real, z.imag
            re = (y - x) * (y + x)
            if re > _EXP_LIMIT:
                raise _overflow(x, y)
            e = cmath.exp(complex(re, -2.0 * x * y)) if re > -745.0 else 0.0
            return 2.0 * e - faddeeva(-z)
    # Weideman's expansion, for Im z >= 0
    s = 1.0 / (_L - 1j * z)
    x = (_L + 1j * z) * s
    p = 0.0
    for c in _coefficients():
        p = p * x + c
    return s * (2.0 * p * s + _INV_SQRT_PI)


def _overflow(x, y) -> FaddeevaOverflow:
    return FaddeevaOverflow(f"exp(-z^2) overflows at z = {complex(x, y)}")
