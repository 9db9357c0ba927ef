"""Singular velocity integrals on all three branches of the analytic continuation.

The central object is the continuation of sigma -> integral of g(v)/(v - sigma)
over the real line, extended holomorphically from the upper half-plane:

- upper half-plane: the plain integral;
- real axis:        principal value + i pi g(sigma);
- lower half-plane: plain integral + 2 i pi g(sigma).

All three are computed through the same singularity-subtraction identity

    int_a^b g(v)/(v - s) dv = int_a^b (g(v) - g(s))/(v - s) dv
                              + g(s) * (log(b - s) - log(a - s)),

whose first term is analytic across the axis whenever g is, so branch
continuity holds to quadrature accuracy instead of degrading as Im sigma -> 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _gauss, profiles
from .errors import QuadratureDivergence, StripViolation, ZeroSigma

# relative tail fraction above which truncation is considered divergent
_TAIL_FRACTION = 1e-3
# |Im sigma| below which a real-axis g value may stand in for g(sigma) when
# the true complex value is unavailable (bump support edges)
_AXIS_FALLBACK_FRACTION = 0.05


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation and resolution knobs for the velocity integrals."""

    truncation_halfwidth: float = 12.0
    nodes: int = 256
    axis_tolerance: float = 1e-12
    subtraction_window: float = 1.0

    def __post_init__(self):
        if self.truncation_halfwidth <= 0:
            raise ValueError("truncation_halfwidth must be positive")
        if self.nodes < 64 or self.nodes % 2:
            raise ValueError("nodes must be an even integer >= 64")
        if not (0.0 < self.axis_tolerance <= 1e-10):
            raise ValueError("axis_tolerance must lie in (0, 1e-10]")
        if self.subtraction_window <= 0:
            raise ValueError("subtraction_window must be positive")


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


def _default_bounds(sigma: complex, config: QuadratureConfig) -> tuple[float, float]:
    span = config.truncation_halfwidth + abs(np.real(sigma))
    return (-span, span)


def _check_tail(value: complex, g_ends, terms, a, b, sigma, scale, envelope,
                floor: float = 0.0):
    # The divergence check is armed only when the caller supplies a decay
    # envelope (profile-backed integrands always do); raw callables on a
    # finite truncation interval are taken at face value. `g_ends` holds
    # g(a), g(b); `floor` guards symmetric near-zero results (odd integrands).
    # a result inside the rounding noise of the summed `terms` counts as 0.
    if envelope is None:
        return value
    dist = max(min(abs(a - np.real(sigma)), abs(b - np.real(sigma))), scale)
    sample = float(np.sum(np.abs(g_ends)) * 100.0 * scale / dist)
    c0, c1 = envelope
    edge = min(abs(a), abs(b))
    env = 2.0 * c0 * np.exp(-c1 * edge * edge) / max(2.0 * c1 * edge, 1e-12) / dist
    # the global Gaussian envelope can grossly overestimate compact bumps;
    # trust the endpoint samples (with margin) when they are smaller
    tail = float(min(env, sample))
    if tail > _TAIL_FRACTION * max(abs(value), floor, 1e-300) and \
            tail > _TAIL_FRACTION * np.finfo(float).eps * float(np.sum(np.abs(terms))):
        raise QuadratureDivergence(
            f"truncation tail estimate {tail:.3g} exceeds {_TAIL_FRACTION:g} "
            f"of result magnitude {abs(value):.3g}")
    return value


def _eval_at(g, s: complex) -> complex:
    return complex(np.asarray(g(np.array([s], dtype=complex)))[0])


def _panel_sum(g, panels, a: float, b: float, integrand):
    """(sum of integrand(g(v), v) * w over the (nodes, weights) panels, g(a), g(b),
    terms), with one g call on all nodes and a, b; panels are summed alone, in order."""
    vs = np.concatenate([v for v, _ in panels])
    gv = g(np.concatenate([vs, (a, b)]))
    terms = integrand(gv[:-2], vs) * np.concatenate([w for _, w in panels])
    total, start = 0.0 + 0.0j, 0
    for v, _ in panels:
        total += np.add.reduce(terms[start:start + v.size])
        start += v.size
    return total, gv[-2:], terms


def _subtracted_panels(g, g_at_s: complex, s: complex, a: float, b: float,
                       breakpoints: tuple[float, ...], scale: float, nodes: int):
    """(int of (g(v) - g(s))/(v - s) on [a, b] cut at breakpoints, g(a), g(b), terms)."""
    edges = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    panels = [_gauss.panel_nodes(lo, hi, *_gauss.layout(
        hi - lo, scale, max(64, nodes * (hi - lo) / (b - a))))
        for lo, hi in zip(edges[:-1], edges[1:])]
    return _panel_sum(g, panels, a, b, lambda gv, vs: (gv - g_at_s) / (vs - s))


def pv_integral(g, x0: float, config: QuadratureConfig = DEFAULT_CONFIG, *,
                bounds: tuple[float, float] | None = None, scale: float = 1.0,
                envelope: tuple[float, float] | None = None,
                breakpoints: tuple[float, ...] = ()) -> complex:
    """Principal value of int g(v)/(v - x0) dv over the truncated line.

    Singularity subtraction with panel edges pinned at x0 and at the
    subtraction window, plus the exact log term for the asymmetric remainder.
    """
    a, b = bounds if bounds is not None else _default_bounds(x0, config)
    if not a < x0 < b:
        raise ValueError(f"x0={x0} outside truncation interval [{a}, {b}]")
    g0 = _eval_at(g, complex(x0))
    w = min(config.subtraction_window, 0.5 * (b - x0), 0.5 * (x0 - a))
    breaks = (x0 - w, x0, x0 + w) + breakpoints
    val, g_ends, terms = _subtracted_panels(g, g0, complex(x0), a, b, breaks, scale,
                                            config.nodes)
    val += g0 * np.log((b - x0) / (x0 - a))
    return _check_tail(complex(val), g_ends, terms, a, b, x0, scale, envelope,
                       floor=abs(g0))


def _line_integral(g, sigma: complex, config: QuadratureConfig, *,
                   bounds: tuple[float, float], scale: float,
                   g_sigma: complex | None,
                   breakpoints: tuple[float, ...] = ()):
    """(int_a^b g(v)/(v - sigma) dv, Im sigma != 0; g(a), g(b); terms or sum |terms|)."""
    a, b = bounds
    x0 = float(np.real(sigma))
    if g_sigma is None:
        # no usable value of g at sigma: direct quadrature, panels refined
        # down to the pole distance. They can hold many times the nodes of the
        # subtracted path, so g is called per segment to keep temporaries small.
        eff = min(scale, max(abs(np.imag(sigma)), scale / 64.0))
        edges = sorted({a, b, *(x for x in (x0, *breakpoints) if a < x < b)})
        total, mass = 0.0 + 0.0j, 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            panel = _gauss.panel_nodes(lo, hi, *_gauss.layout(hi - lo, eff, config.nodes))
            part, g_ends, terms = _panel_sum(g, [panel], a, b,
                                             lambda gv, vs: gv / (vs - sigma))
            total += part
            mass += float(np.sum(np.abs(terms)))
        return complex(total), g_ends, (mass,)
    w = min(config.subtraction_window, 0.25 * (b - a))
    breaks = tuple(x for x in (x0 - w, x0, x0 + w) if a < x < b) + breakpoints
    val, g_ends, terms = _subtracted_panels(g, g_sigma, sigma, a, b, breaks, scale,
                                            config.nodes)
    val += g_sigma * (np.log(b - sigma) - np.log(a - sigma))
    return complex(val), g_ends, terms


def singular_integral(g, sigma: complex, branch: Branch,
                      config: QuadratureConfig = DEFAULT_CONFIG, *,
                      bounds: tuple[float, float] | None = None, scale: float = 1.0,
                      envelope: tuple[float, float] | None = None,
                      breakpoints: tuple[float, ...] = ()) -> complex:
    """Branch-correct continuation of int g(v)/(v - sigma) dv from above.

    ``g`` must accept complex ndarrays; if it raises StripViolation at sigma
    itself, the subtraction falls back to the nearest real-axis value (close
    to the axis) or to direct quadrature (far from it).
    """
    sigma = complex(sigma)
    a, b = bounds if bounds is not None else _default_bounds(sigma, config)
    if branch is Branch.REAL_AXIS:
        x0 = float(np.real(sigma))
        val = pv_integral(g, x0, config, bounds=(a, b), scale=scale,
                          envelope=envelope, breakpoints=breakpoints)
        return val + 1j * np.pi * _eval_at(g, complex(x0))
    g_sigma = None
    try:
        g_sigma = _eval_at(g, sigma)
    except StripViolation:
        # close to the axis the real-axis value stands in for the analytic
        # continuation (exact up to O(Im sigma)); farther away the lower-branch
        # residue genuinely needs the strip value
        if abs(np.imag(sigma)) <= _AXIS_FALLBACK_FRACTION * scale:
            g_sigma = _eval_at(g, complex(np.real(sigma)))
        elif branch is Branch.LOWER:
            raise
    val, g_ends, terms = _line_integral(g, sigma, config, bounds=(a, b), scale=scale,
                                        g_sigma=g_sigma, breakpoints=breakpoints)
    if branch is Branch.LOWER:
        val += 2j * np.pi * g_sigma
    floor = abs(g_sigma) if g_sigma is not None else 0.0
    return _check_tail(complex(val), g_ends, terms, a, b, sigma, scale, envelope,
                       floor=floor)


def cauchy_transform(profile: profiles.VelocityProfile, weight: tuple[float, ...],
                     sigma: complex,
                     config: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """Branch-correct continuation of int p(v) f'(v)/(v - sigma) dv from above.

    ``weight`` holds the coefficients of the real polynomial p in ascending
    powers of v. Truncation, panel sizing, bump-edge breakpoints and the tail
    check all come from the profile; complex points inside the bump edge margin
    raise StripViolation, which singular_integral turns into its axis or
    direct-quadrature fallback.
    """
    def g(v):
        v = np.asarray(v, dtype=complex)
        if np.any(np.imag(v) != 0.0):
            profiles._check_strip(profile, v)
        p = weight[-1]
        for c in reversed(weight[:-1]):
            p = p * v + c
        return p * profiles._eval_df_raw(profile, v)

    # the truncation interval covers the profile support and the resonance point
    (lo, hi), scale, breakpoints, envelope = profile.quadrature_hints
    span = max(config.truncation_halfwidth,
               8.0 * profile.width + abs(profile.drift) + abs(np.real(sigma)))
    return singular_integral(
        g, sigma, classify_branch(sigma, config), config,
        bounds=(min(lo, -span), max(hi, span)), scale=scale,
        envelope=envelope, breakpoints=breakpoints)


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
