"""Continued Cauchy transforms of velocity profiles on all three branches.

sigma -> int g(v)/(v - sigma) dv, continued holomorphically from the upper
half-plane, is the plain integral above the real axis, the principal value
+ i pi g(sigma) on it, and the plain integral + 2 i pi g(sigma) below it. For
g = p f' with a polynomial weight p (`cauchy_transform`) it is linear in f:

- Maxwellian parts are exact. With p(v) = p(sigma) + (v - sigma) t(v),
  int p f'/(v - sigma) dv = -(m/w^2) p(sigma) (1 + zeta Z(zeta)) - m E[t'(v)],
  where zeta = (sigma - u)/(sqrt(2) w), Z(zeta) = i sqrt(pi) w(zeta) is the
  plasma dispersion function (Fried & Conte 1961) and E a Gaussian moment;
  the Faddeeva function w is entire, so this holds on every branch.
- The compact bump term of a bump-on-tail part is integrated by Gauss panels
  over its support only, by singularity subtraction: int_a^b g/(v - s) dv =
  int_a^b (g(v) - g(s))/(v - s) dv + g(s) (log(b - s) - log(a - s)), whose
  first term is analytic across the axis, so branch continuity holds to
  quadrature accuracy. `singular_integral` and `pv_integral` expose it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _gauss, profiles
from ._faddeeva import faddeeva
from .errors import StripViolation, ZeroSigma

# |Im sigma| below which a real-axis g value may stand in for g(sigma) when
# the true complex value is unavailable (bump support edges)
_AXIS_FALLBACK_FRACTION = 0.05
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution knobs for the velocity integrals. ``truncation_halfwidth``
    only sets the default interval of raw-callable integrals; ``nodes`` sizes
    the Gauss panels (for profiles, over the bump support)."""

    truncation_halfwidth: float = 12.0
    nodes: int = 256
    axis_tolerance: float = 1e-12
    subtraction_window: float = 1.0

    def __post_init__(self):
        for name in ("truncation_halfwidth", "subtraction_window"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 64 <= self.nodes <= 65536 or self.nodes % 2:
            raise ValueError("nodes must be an even integer in [64, 65536]")
        if not (0.0 < self.axis_tolerance <= 1e-10):
            raise ValueError("axis_tolerance must lie in (0, 1e-10]")


DEFAULT_CONFIG = QuadratureConfig()


class Branch(enum.Enum):
    UPPER = "upper"
    REAL_AXIS = "real_axis"
    LOWER = "lower"


def classify_branch(sigma: complex, config: QuadratureConfig = DEFAULT_CONFIG) -> Branch:
    im = np.imag(sigma)
    if im > config.axis_tolerance:
        return Branch.UPPER
    if im < -config.axis_tolerance:
        return Branch.LOWER
    return Branch.REAL_AXIS


def _eval_at(g, s: complex) -> complex:
    return complex(np.asarray(g(np.array([s], dtype=complex)))[0])


def _panel_sum(g, panels, integrand) -> complex:
    """Sum of integrand(g(v), v) * w over the (nodes, weights) panels, one g call."""
    vs = np.concatenate([v for v, _ in panels])
    terms = integrand(g(vs), vs) * np.concatenate([w for _, w in panels])
    return complex(np.sum(terms))


def _subtracted_panels(g, g_at_s: complex, s: complex, a: float, b: float,
                       breakpoints: tuple[float, ...], scale: float, nodes: int) -> complex:
    """int of (g(v) - g(s))/(v - s) on [a, b] cut at breakpoints."""
    edges = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    panels = [_gauss.panel_nodes(lo, hi, *_gauss.layout(
        hi - lo, scale, max(64, nodes * (hi - lo) / (b - a))))
        for lo, hi in zip(edges[:-1], edges[1:])]
    return _panel_sum(g, panels, lambda gv, vs: (gv - g_at_s) / (vs - s))


def pv_integral(g, x0: float, config: QuadratureConfig = DEFAULT_CONFIG, *,
                bounds: tuple[float, float] | None = None, scale: float = 1.0,
                breakpoints: tuple[float, ...] = ()) -> complex:
    """Principal value of int g(v)/(v - x0) dv over the truncated line.

    Singularity subtraction with panel edges pinned at x0 and at the
    subtraction window, plus the exact log term for the asymmetric remainder.
    """
    span = config.truncation_halfwidth + abs(x0)
    a, b = bounds if bounds is not None else (-span, span)
    if not a < x0 < b:
        raise ValueError(f"x0={x0} outside truncation interval [{a}, {b}]")
    g0 = _eval_at(g, complex(x0))
    w = min(config.subtraction_window, 0.5 * (b - x0), 0.5 * (x0 - a))
    breaks = (x0 - w, x0, x0 + w) + breakpoints
    val = _subtracted_panels(g, g0, complex(x0), a, b, breaks, scale, config.nodes)
    return complex(val + g0 * np.log((b - x0) / (x0 - a)))


def singular_integral(g, sigma: complex, branch: Branch,
                      config: QuadratureConfig = DEFAULT_CONFIG, *,
                      bounds: tuple[float, float] | None = None, scale: float = 1.0,
                      breakpoints: tuple[float, ...] = ()) -> complex:
    """Branch-correct continuation of int_a^b g(v)/(v - sigma) dv from above.

    ``g`` must accept complex ndarrays; if it raises StripViolation at sigma
    itself, the subtraction falls back to the nearest real-axis value (close
    to the axis) or to direct quadrature (far from it). On the axis outside
    [a, b] the integral is plain.
    """
    sigma = complex(sigma)
    x0 = sigma.real
    span = config.truncation_halfwidth + abs(x0)
    a, b = bounds if bounds is not None else (-span, span)
    if branch is Branch.REAL_AXIS:
        if not a < x0 < b:
            return _subtracted_panels(g, 0.0, complex(x0), a, b, breakpoints, scale,
                                      config.nodes)
        val = pv_integral(g, x0, config, bounds=(a, b), scale=scale,
                          breakpoints=breakpoints)
        return val + 1j * np.pi * _eval_at(g, complex(x0))
    g_sigma = None
    try:
        g_sigma = _eval_at(g, sigma)
    except StripViolation:
        # close to the axis the real-axis value stands in for the analytic
        # continuation (exact up to O(Im sigma)); farther away the lower-branch
        # residue genuinely needs the strip value
        if abs(sigma.imag) <= _AXIS_FALLBACK_FRACTION * scale:
            g_sigma = _eval_at(g, complex(x0))
        elif branch is Branch.LOWER:
            raise
    if g_sigma is None:
        # no usable value of g at sigma: direct quadrature, panels refined
        # down to the pole distance; each segment holds at least `nodes`, so
        # g is called per segment to keep temporaries small
        eff = min(scale, max(abs(sigma.imag), scale / 64.0))
        edges = sorted({a, b, *(x for x in (x0, *breakpoints) if a < x < b)})
        return complex(sum(_panel_sum(g, [_gauss.panel_nodes(lo, hi, *_gauss.layout(
            hi - lo, eff, config.nodes))], lambda gv, vs: gv / (vs - sigma))
            for lo, hi in zip(edges[:-1], edges[1:])))
    w = min(config.subtraction_window, 0.25 * (b - a))
    breaks = tuple(x for x in (x0 - w, x0, x0 + w) if a < x < b) + breakpoints
    val = _subtracted_panels(g, g_sigma, sigma, a, b, breaks, scale, config.nodes)
    val += g_sigma * (np.log(b - sigma) - np.log(a - sigma))
    if branch is Branch.LOWER:
        val += 2j * np.pi * g_sigma
    return complex(val)


def _maxwellian_part(weight: tuple[float, ...], sigma: complex, branch: Branch,
                     mass: float, drift: float, width: float, strip: float) -> complex:
    """Continued int p(v) f'(v)/(v - sigma) dv for one Maxwellian, in closed form."""
    if branch is Branch.LOWER and -sigma.imag > strip * (1.0 + 1e-12):
        raise StripViolation(f"|Im sigma| = {-sigma.imag:.3g} exceeds strip "
                             f"halfwidth {strip:.3g} on the lower branch")
    # p(v) = p(sigma) + (v - sigma) t(v); ts = [0, t_(d-1), ..., t_0]
    p_sigma, ts = 0.0, []
    for c in reversed(weight):
        ts.append(p_sigma)
        p_sigma = p_sigma * sigma + c
    # int t f' = -int t' f = -mass sum_n n t_n E[v^(n-1)], Gaussian raw moments
    # E[v^(k+1)] = drift E[v^k] + k width^2 E[v^(k-1)]
    tail, e_prev, e_k = 0.0, 0.0, 1.0
    for k, t in enumerate(ts[-2:0:-1]):
        tail += (k + 1) * t * e_k
        e_prev, e_k = e_k, drift * e_k + k * width * width * e_prev
    # int f'/(v - sigma) = -(mass / width^2) (1 + zeta Z(zeta))
    zeta = (sigma - drift) / (math.sqrt(2.0) * width)
    z_func = 1j * _SQRT_PI * faddeeva(zeta)
    return -mass * (p_sigma * (1.0 + zeta * z_func) / (width * width) + tail)


def cauchy_transform(profile: profiles.VelocityProfile, weight: tuple[float, ...],
                     sigma: complex,
                     config: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """Branch-correct continuation of int p(v) f'(v)/(v - sigma) dv from above.

    ``weight`` holds the coefficients of the real polynomial p in ascending
    powers of v. Maxwellian parts are summed in closed form; on the lower branch
    beyond a part's strip halfwidth they raise StripViolation. Bump terms go
    through `singular_integral` over the bump support, where complex points in
    the edge margin raise StripViolation for its axis or direct fallback.
    """
    sigma = complex(sigma)
    branch = classify_branch(sigma, config)
    if branch is Branch.REAL_AXIS:
        sigma = complex(sigma.real)
    gaussians, bumps, scale = profile.quadrature_hints
    total = sum(_maxwellian_part(weight, sigma, branch, *part) for part in gaussians)
    for bump, coef, support, breakpoints in bumps:
        def g(v, bump=bump, coef=coef):
            # panel nodes stay real, so the bump kernel runs in real arithmetic
            if np.iscomplexobj(v) and np.any(v.imag != 0.0):
                profiles._check_strip(bump, v)
            p = weight[-1]
            for c in reversed(weight[:-1]):
                p = p * v + c
            return coef * p * profiles._bump_df(bump, v)

        total += singular_integral(g, sigma, branch, config, bounds=support,
                                   scale=scale, breakpoints=breakpoints)
    return complex(total)


def resonance_integral(profile: profiles.VelocityProfile, sigma: complex,
                       config: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """(1/sigma) * continued integral of v f'(v)/(v - sigma) dv.

    This is the velocity-resonance functional entering the dispersion
    function; for large |sigma| it behaves like m0/sigma^2 + 3 m2/sigma^4.
    """
    sigma = complex(sigma)
    if abs(sigma) < 1e-14:
        raise ZeroSigma("resonance integral undefined at sigma = 0")
    return cauchy_transform(profile, (0.0, 1.0), sigma, config) / sigma


def resonance_asymptotic(profile: profiles.VelocityProfile, sigma: complex,
                         order: int) -> complex:
    """Large-|sigma| expansion m0/sigma^2 (+ 3 m2/sigma^4 at order 4)."""
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    sigma = complex(sigma)
    m0 = profiles.moment(profile, 0)
    out = m0 / sigma**2
    if order == 4:
        out += 3.0 * profiles.moment(profile, 2) / sigma**4
    return out
