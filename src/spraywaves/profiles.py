"""Equilibrium velocity distributions: entire Gaussian parts and compact bumps.

Every profile is one flat mixture of Gaussian parts and bump terms:

    f(v) = sum_i a_i m_i / (sqrt(2 pi) w_i) exp(-(v - u_i)^2 / (2 w_i^2))
         + sum_j (m_j / eta_j) g((v - c_j) / eta_j),

with mixture coefficients a_i, Gaussian masses m_i, drifts u_i and widths w_i,
and bump terms of mass m_j, half-width eta_j and centre c_j. g is a fixed
smooth unit-mass bump supported on (-1, 1) with g'(0) > 0. Three constructors
build every profile:

- `maxwellian`: one Gaussian part with a = 1, entire in v.
- `make_bump_on_tail`: the base's Gaussian coefficients and bump masses times
  (1 - eps), plus one bump term of mass eps * M on the base mass M, so the
  total integral is preserved.
- `profile_sum`: the parts of every component (two-stream style setups).

g is analytic except at w = +-1 and |exp(-1/(1 - w^2))| <= 1 where |Re w| < 1,
so complex evaluation of a bump term is refused only near its support edges.

Profiles are frozen dataclasses and every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import _gauss
from ._faddeeva import _EXP_LIMIT
from .errors import FaddeevaOverflow, InvalidBump, StripViolation, VacuumViolation

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Fraction of eta around the bump support edges where complex evaluation is
# refused (the compactly supported bump is not analytic at |w| = 1).
BUMP_EDGE_MARGIN = 0.05


@dataclass(frozen=True)
class Gaussian:
    """coef * mass / (sqrt(2 pi) width) * exp(-(v - drift)^2 / (2 width^2))."""

    coef: float
    mass: float
    drift: float
    width: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mass, self.drift, self.width))):
            raise ValueError("mass, drift and width must be finite")
        if min(self.mass, self.width) <= 0:
            raise ValueError("mass and width must be positive")
        if not math.isfinite(self.mass / self.width / self.width):
            raise ValueError("Gaussian derivative scale mass / width**2 overflows")


@dataclass(frozen=True)
class Bump:
    """(mass / eta) * g((v - c_star) / eta); complex evaluation is refused near
    its support edges only."""

    mass: float
    eta: float
    c_star: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mass, self.eta, self.c_star))):
            raise ValueError("mass, eta and c_star must be finite")
        if not math.isfinite(self.mass / self.eta / self.eta):
            raise ValueError("bump derivative scale mass / eta**2 overflows")
        pts = self.breakpoints
        if any(x >= y for x, y in zip(pts, pts[1:])):
            raise ValueError("bump support too narrow to resolve at c_star: "
                             "its panel breakpoints coincide in floating point")

    @property
    def support(self) -> tuple[float, float]:
        return (self.c_star - self.eta, self.c_star + self.eta)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Its support edges, where g is not analytic, and 8 panel edges graded
        geometrically into each; other terms are smooth there and not cut."""
        (lo, hi), hs = self.support, [self.eta * 2.0 ** (-j) for j in range(1, 9)]
        return tuple(sorted([lo, hi, *(lo + h for h in hs), *(hi - h for h in hs)]))


@dataclass(frozen=True)
class VelocityProfile:
    """Analytic equilibrium distribution, given by its parts alone: the total
    mass ``m0`` is derived from them."""

    gaussians: tuple[Gaussian, ...]
    bumps: tuple[Bump, ...]

    def __post_init__(self):
        if not math.isfinite(self.m0):
            raise ValueError("total mass must be finite")
        lo, hi = support_bounds(self)
        if not math.isfinite(hi - lo):
            raise ValueError("profile support overflows")

    @cached_property
    def m0(self) -> float:
        """Total mass moment(self, 0), computed once per object."""
        return moment(self, 0)

    @cached_property
    def node_sets(self) -> dict:
        """Quadrature nodes per weight, filled by `quadrature`."""
        return {}


def maxwellian(mass: float = 1.0, drift: float = 0.0,
               width: float = 1.0) -> VelocityProfile:
    """One Gaussian part."""
    return VelocityProfile((Gaussian(1.0, mass, drift, width),), ())


def make_bump_on_tail(base: VelocityProfile, eps: float, eta: float,
                      c_star: float) -> VelocityProfile:
    """Superimpose a narrow unit-sign bump of relative mass ``eps`` at ``c_star``.

    The bump term is (eps * m0 / eta) * g((v - c_star) / eta) with a fixed
    smooth g of unit integral supported on (-1, 1), and the parts of ``base``
    (Gaussian coefficients, bump masses) are scaled by (1 - eps), so the
    composite carries the same total mass m0 as ``base``.
    """
    if not (0.0 < eps < 1.0) or eta <= 0.0:
        raise InvalidBump(f"need 0 < eps < 1 and eta > 0, got eps={eps}, eta={eta}")
    gaussians = (replace(g, coef=(1.0 - eps) * g.coef) for g in base.gaussians)
    bumps = (replace(b, mass=(1.0 - eps) * b.mass) for b in base.bumps)
    return VelocityProfile(tuple(gaussians),
                           (*bumps, Bump(eps * base.m0, eta, c_star)))


def profile_sum(*parts: VelocityProfile) -> VelocityProfile:
    if not parts:
        raise ValueError("profile_sum needs at least one component")
    return VelocityProfile(sum((p.gaussians for p in parts), ()),
                           sum((p.bumps for p in parts), ()))


# ---------------------------------------------------------------------------
# bump shape g: C (1+w)^2 exp(-1/(1-w^2)) on (-1, 1), zero outside.
# C is fixed numerically so that g has unit integral; g'(0) = 2 C / e > 0.
# ---------------------------------------------------------------------------

def _inside(shape, w, *args) -> np.ndarray:
    """shape(w, *args) where Re w lies inside (-1, 1) and 0 elsewhere, as complex."""
    w = np.asarray(w)
    out = np.zeros_like(w, dtype=complex)
    inside = np.abs(np.real(w)) < 1.0
    if np.any(inside):
        out[inside] = shape(w[inside], *args)
    return out


def _bump_raw(w):
    return _inside(lambda w: (1.0 + w) ** 2 * np.exp(-1.0 / (1.0 - w * w)), w)


def _bump_shape_deriv(w, order: int = 1):
    """g'(w) = E (1 + w) h, or (``order`` 2) g''(w) = E (h (h - 1) + (1 + w) h'),
    inside (-1, 1), with E = exp(-1/q), q = 1 - w^2 and h = 2 - 2 w (1 + w)/q^2."""
    q = 1.0 - w * w
    h = 2.0 - 2.0 * w * (1.0 + w) / (q * q)
    if order == 1:
        return np.exp(-1.0 / q) * (1.0 + w) * h
    dh = -(2.0 + 4.0 * w + 8.0 * w * w * (1.0 + w) / q) / (q * q)
    return np.exp(-1.0 / q) * (h * (h - 1.0) + (1.0 + w) * dh)


@lru_cache(maxsize=1)
def _bump_constants() -> tuple[float, float, float]:
    """(normalization C, first moment of g, second moment of g)."""
    nodes, weights = _gauss.panel_nodes(-1.0, 1.0, 64, 12)
    raw = np.real(_bump_raw(nodes))
    i0 = float(np.sum(raw * weights))
    m1 = float(np.sum(nodes * raw * weights)) / i0
    m2 = float(np.sum(nodes**2 * raw * weights)) / i0
    return 1.0 / i0, m1, m2


def _check_edges(profile: VelocityProfile, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if any(np.any(_bump_df_refused(b, v)) for b in profile.bumps):
        raise StripViolation("complex evaluation of a bump term refused within its "
                             "support-edge margin")
    return v


def _eval_raw(profile: VelocityProfile, v, df: bool) -> np.ndarray:
    """f (f' if ``df``) at v with no edge-margin check: each Gaussian part's value
    times its coef, summed over those parts (FaddeevaOverflow where one
    overflows) and then the bump terms."""
    v = np.asarray(v, dtype=complex)
    terms = []
    for g in profile.gaussians:
        z = (v - g.drift) / g.width
        exponent = -0.5 * z * z
        if exponent.real.max(initial=-math.inf) > _EXP_LIMIT:
            raise FaddeevaOverflow("exp(-z^2/2) of a Gaussian part overflows")
        f = g.mass / (_SQRT_2PI * g.width) * np.exp(exponent)
        terms.append(g.coef * (-(v - g.drift) / g.width**2 * f if df else f))
    for b in profile.bumps:
        c, _, _ = _bump_constants()
        terms.append(_bump_df(b, v) if df else b.mass / b.eta * c
                     * _bump_raw((v - b.c_star) / b.eta))
    return sum(terms[1:], terms[0])


def _bump_df(b: Bump, v, order: int = 1) -> np.ndarray:
    """Velocity derivative of a bump term, the first or (``order`` 2) the second."""
    c, _, _ = _bump_constants()
    w = (np.asarray(v) - b.c_star) / b.eta
    return b.mass / b.eta**(order + 1) * c * _inside(_bump_shape_deriv, w, order)


def _bump_df_refused(b: Bump, s):
    """Whether `_check_edges` refuses complex evaluation of a bump term at s (off
    the axis and within `BUMP_EDGE_MARGIN` of |w| = 1): a bool at a point,
    elementwise over an ndarray."""
    w_re = (s.real - b.c_star) / b.eta
    return (s.imag != 0.0) & (abs(abs(w_re) - 1.0) < BUMP_EDGE_MARGIN)


def _evaluate(profile: VelocityProfile, v, df: bool):
    v = _check_edges(profile, v)
    out = _eval_raw(profile, v, df)
    if np.all(np.imag(v) == 0.0):
        out = np.real(out) + 0.0j
    return out if out.shape else complex(out)


def eval_f(profile: VelocityProfile, v):
    """Analytic extension of the distribution at complex v (real >= 0 on the axis)."""
    return _evaluate(profile, v, df=False)


def eval_df(profile: VelocityProfile, v):
    """Closed-form velocity derivative of the analytic extension."""
    return _evaluate(profile, v, df=True)


def support_bounds(profile: VelocityProfile) -> tuple[float, float]:
    """Interval outside which the distribution is negligible: 10 widths around
    each Gaussian part, 5 half-widths around each bump term."""
    spans = ([(g.drift, 10.0 * g.width) for g in profile.gaussians]
             + [(b.c_star, 5.0 * b.eta) for b in profile.bumps])
    return (min(c - r for c, r in spans), max(c + r for c, r in spans))


def bump_edges(profile: VelocityProfile) -> tuple[float, ...]:
    """The bump terms' support edges, where complex evaluation is refused."""
    return tuple(x for b in profile.bumps for x in b.support)


def narrowest_width(profile: VelocityProfile) -> float:
    """The narrowest Gaussian width or bump eta: the scale of counts and scans."""
    return min([g.width for g in profile.gaussians] + [b.eta for b in profile.bumps])


def resolution_scale(profile: VelocityProfile) -> float:
    """Smallest velocity feature size (quadrature panel sizing hint)."""
    return min([g.width for g in profile.gaussians]
               + [0.5 * b.eta for b in profile.bumps])


def moment(profile: VelocityProfile, order: int) -> float:
    """Velocity moment of f of order 0 or 2, in closed form: the Gaussian
    moments, and for the bump terms those of their shape from `_bump_constants`."""
    if order not in (0, 2):
        raise ValueError("moment order must be 0 or 2")
    total = 0.0
    for g in profile.gaussians:
        total += g.coef * (g.mass * (1.0 if order == 0 else g.width**2 + g.drift**2))
    for b in profile.bumps:
        _, m1, m2 = _bump_constants()
        c, eta = b.c_star, b.eta
        shape = 1.0 if order == 0 else c * c + 2.0 * c * eta * m1 + eta * eta * m2
        total += b.mass * shape
    return total


def compatibility_alpha(profile: VelocityProfile, kappa: float) -> float:
    """Background volume fraction alpha0 = 1 - kappa * m0, required positive."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    alpha0 = 1.0 - kappa * profile.m0
    if alpha0 <= 0.0:
        raise VacuumViolation(
            f"kappa * m0 = {kappa * profile.m0:.6g} >= 1 leaves no fluid volume")
    return alpha0
