"""Continued Cauchy transforms of velocity profiles on all three branches.

sigma -> int g(v)/(v - sigma) dv, continued holomorphically from the upper
half-plane, is the plain integral above the real axis, the principal value
+ i pi g(sigma) on it, and the plain integral + 2 i pi g(sigma) below it. For
g = p f' with a polynomial weight p (`cauchy_transform`) it is linear in f:

- Maxwellian parts are exact. With p(v) = p(sigma) + (v - sigma) t(v),
  int p f'/(v - sigma) dv = -(m/w^2) p(sigma) (1 + zeta Z(zeta)) - m E[t'(v)],
  where zeta = (sigma - u)/(sqrt(2) w), Z(zeta) = i sqrt(pi) w(zeta) is the
  plasma dispersion function (Fried & Conte 1961) and E a Gaussian moment;
  the Faddeeva function w is entire, so this holds on every branch. For an
  ndarray of sigma the same expression runs once over the whole array.
- The compact bump term of a bump-on-tail part is integrated over its support
  [a, b] only, by singularity subtraction: int_a^b g/(v - s) dv =
  int_a^b (g(v) - g(s))/(v - s) dv + g(s) (log(b - s) - log(a - s)). The
  first term is analytic in v wherever g is, so it needs no panel edge at
  Re s: Gauss nodes over the support (cut only at the bump's breakpoints) and
  g on them are built once per profile, weight and node count, and each s
  costs one scalar g(s) and one fused sum. Branch continuity holds to
  quadrature accuracy. Points where that sum would lose digits (within
  1e-2 of a node weight of a node) or where g(s) is refused (the support-edge
  margin, beyond the strip) go through `singular_integral`, which pins panel
  edges at Re s and has the axis and direct-quadrature fallbacks;
  `pv_integral` is its on-axis part. Bump terms take an array point by point.
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


def classify_branch(sigma, config: QuadratureConfig = DEFAULT_CONFIG):
    """Branch of sigma; an object array of branches for an ndarray sigma."""
    if isinstance(sigma, np.ndarray):
        im, tol = sigma.imag, config.axis_tolerance
        return np.where(im > tol, Branch.UPPER,
                        np.where(im < -tol, Branch.LOWER, Branch.REAL_AXIS))
    im = complex(sigma).imag
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
    return _panel_sum(g, _gauss.segment_panels(a, b, breakpoints, scale, nodes),
                      lambda gv, vs: (gv - g_at_s) / (vs - s))


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


def _maxwellian_part(weight: tuple[float, ...], sigma, depth: float, mass: float,
                     drift: float, width: float, strip: float):
    """Continued int p(v) f'(v)/(v - sigma) dv for one Maxwellian, in closed form,
    at a point or elementwise over an array; ``depth`` is the largest -Im sigma
    on the lower branch (0 if none), refused beyond the strip halfwidth."""
    if depth > strip * (1.0 + 1e-12):
        raise StripViolation(f"|Im sigma| = {depth:.3g} exceeds strip "
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
                     sigma, config: QuadratureConfig = DEFAULT_CONFIG):
    """Branch-correct continuation of int p(v) f'(v)/(v - sigma) dv from above.

    ``weight`` holds the coefficients of the real polynomial p in ascending
    powers of v. ``sigma`` is a point or an ndarray of points; an array gives
    the values elementwise, in its shape, and raises where any point would.
    Maxwellian parts are summed in closed form (over the whole array at once);
    on the lower branch beyond a part's strip halfwidth they raise
    StripViolation. Bump terms are fused sums over nodes cached in
    ``profile.node_sets``, one point at a time (`_bump_part`).
    """
    if isinstance(sigma, np.ndarray):
        return _cauchy_array(profile, tuple(weight), sigma, config)
    sigma, weight = complex(sigma), tuple(weight)
    branch = classify_branch(sigma, config)
    if branch is Branch.REAL_AXIS:
        sigma = complex(sigma.real)
    depth = -sigma.imag if branch is Branch.LOWER else 0.0
    gaussians, bumps, scale = profile.quadrature_hints
    total = 0.0
    for part in gaussians:
        total += _maxwellian_part(weight, sigma, depth, *part)
    if bumps:
        for hint, node_set in zip(bumps, _node_sets(profile, weight, config.nodes)):
            total += _bump_part(weight, sigma, branch, config, scale, *hint, *node_set)
    return complex(total)


def _cauchy_array(profile: profiles.VelocityProfile, weight: tuple[float, ...],
                  sigma: np.ndarray, config: QuadratureConfig) -> np.ndarray:
    """`cauchy_transform` elementwise over an ndarray of sigma."""
    im = sigma.imag
    sigma = np.where((im <= config.axis_tolerance) & (im >= -config.axis_tolerance),
                     sigma.real, sigma).astype(complex, copy=False)
    depth = -float(sigma.imag.min(initial=0.0))
    gaussians, bumps, scale = profile.quadrature_hints
    total = np.zeros(sigma.shape, dtype=complex)
    for part in gaussians:
        total += _maxwellian_part(weight, sigma, depth, *part)
    if bumps:
        points = sigma.ravel()
        branches = classify_branch(points, config)
        for hint, node_set in zip(bumps, _node_sets(profile, weight, config.nodes)):
            total += np.reshape([
                _bump_part(weight, s, branch, config, scale, *hint, *node_set)
                for s, branch in zip(points.tolist(), branches)], sigma.shape)
    return total


def _node_sets(profile: profiles.VelocityProfile, weight: tuple[float, ...],
               nodes: int) -> tuple:
    """`_bump_nodes` of each bump term, built once per profile, weight and
    node count."""
    node_sets = profile.node_sets.get((weight, nodes))
    if node_sets is None:
        _, bumps, scale = profile.quadrature_hints
        node_sets = profile.node_sets[weight, nodes] = tuple(
            _bump_nodes(weight, nodes, scale, *hint) for hint in bumps)
    return node_sets


def _bump_nodes(weight: tuple[float, ...], nodes: int, scale: float,
                bump: profiles.VelocityProfile, coef: float,
                support: tuple[float, float], breakpoints: tuple[float, ...]) -> tuple:
    """Gauss nodes vs and weights ws over one bump support cut at its
    breakpoints, g(vs) = coef p(vs) f_bump'(vs), and the near-node radius."""
    vs, ws = (np.concatenate(arrs) for arrs in zip(*_gauss.segment_panels(
        *support, breakpoints, scale, nodes)))
    return (vs, ws, coef * _poly(weight, vs) * np.real(profiles._bump_df(bump, vs)),
            1e-2 * ws.max())


def _poly(weight: tuple[float, ...], v):
    p = weight[-1]
    for c in reversed(weight[:-1]):
        p = p * v + c
    return p


def _log(z: complex) -> complex:
    return complex(math.log(abs(z)), math.atan2(z.imag, z.real))


def _bump_part(weight: tuple[float, ...], sigma: complex, branch: Branch,
               config: QuadratureConfig, scale: float, bump: profiles.VelocityProfile,
               coef: float, support: tuple[float, float], breakpoints: tuple[float, ...],
               vs: np.ndarray, ws: np.ndarray, gvs: np.ndarray, near: float) -> complex:
    """Continued int p(v) f_bump'(v)/(v - sigma) dv for one bump term.

    The subtracted integrand (g(v) - g(sigma))/(v - sigma) is analytic in v, so
    one fused sum over the fixed support nodes vs (with g(vs) = gvs) serves
    every sigma; sigma in the edge margin, beyond the strip or within 1e-2 of
    a node weight of a node goes through `singular_integral` instead.
    """
    try:
        g_sigma = coef * _poly(weight, sigma) * profiles._bump_df_at(bump, sigma)
    except StripViolation:
        g_sigma = None
    if g_sigma is None or (abs(sigma.imag) < near and _near_node(vs, ws, sigma)):
        def g(v):
            # panel nodes stay real, so the bump kernel runs in real arithmetic
            if np.iscomplexobj(v) and np.any(v.imag != 0.0):
                profiles._check_strip(bump, v)
            return coef * _poly(weight, v) * profiles._bump_df(bump, v)

        return singular_integral(g, sigma, branch, config, bounds=support,
                                 scale=scale, breakpoints=breakpoints)
    val = complex(np.sum((gvs - g_sigma) / (vs - sigma) * ws))
    if g_sigma:
        # g vanishes outside (a, b) and near its edges, so no log meets zero
        a, b = support
        if branch is Branch.REAL_AXIS:
            log_term = complex(math.log((b - sigma.real) / (sigma.real - a)), math.pi)
        else:
            log_term = _log(b - sigma) - _log(a - sigma)
        val += g_sigma * log_term
        if branch is Branch.LOWER:
            val += 2j * math.pi * g_sigma
    return val


def _near_node(vs: np.ndarray, ws: np.ndarray, sigma: complex) -> bool:
    """Whether sigma lies within 1e-2 w_j of a node v_j, where the fused sum
    would lose digits to cancellation."""
    i = int(vs.searchsorted(sigma.real))
    return any(abs(vs.item(j) - sigma) < 1e-2 * ws.item(j)
               for j in (i - 1, i) if 0 <= j < vs.size)


def resonance_integral(profile: profiles.VelocityProfile, sigma,
                       config: QuadratureConfig = DEFAULT_CONFIG):
    """(1/sigma) * continued integral of v f'(v)/(v - sigma) dv, at a point or
    elementwise over an ndarray.

    This is the velocity-resonance functional entering the dispersion
    function; for large |sigma| it behaves like m0/sigma^2 + 3 m2/sigma^4.
    """
    if isinstance(sigma, np.ndarray):
        sigma = sigma.astype(complex, copy=False)
        nearest = np.abs(sigma).min(initial=math.inf)
    else:
        sigma = complex(sigma)
        nearest = abs(sigma)
    if nearest < 1e-14:
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
