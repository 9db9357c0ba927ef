"""Faddeeva function w(z) = exp(-z^2) erfc(-i z), scalar and pure Python.

Weideman's rational expansion with N = 36 terms above the real axis (Weideman
1994, SIAM J. Numer. Anal. 31, 1497; relative error about 2e-14), and the
reflection w(z) = 2 exp(-z^2) - w(-z) below it.
"""

import cmath
import math
from functools import lru_cache

from .errors import FaddeevaOverflow

_N = 36
_L = math.sqrt(_N / math.sqrt(2.0))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


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


def faddeeva(z: complex) -> complex:
    """w(z) at one point; raises FaddeevaOverflow where exp(-z^2) would overflow."""
    z = complex(z)
    if z.imag < 0.0:
        x, y = z.real, z.imag
        re = (y - x) * (y + x)
        if re > 700.0:
            raise FaddeevaOverflow(f"exp(-z^2) overflows at z = {z}")
        e = cmath.exp(complex(re, -2.0 * x * y)) if re > -745.0 else 0.0
        return 2.0 * e - faddeeva(-z)
    s = 1.0 / (_L - 1j * z)
    x = (_L + 1j * z) * s
    p = 0.0
    for c in _coefficients():
        p = p * x + c
    return s * (2.0 * p * s + _INV_SQRT_PI)
