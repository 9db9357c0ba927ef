"""Shared fixtures and independent numerical oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the Dawson
function comes from its Taylor series, dense line integrals from scipy's
adaptive quadrature, the lower-branch continuation from quadrature along an
explicitly deformed contour, and 30-digit transforms (and their sigma-derivatives)
on all three branches from mpmath with f' written afresh from the parts' parameters.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from spraywaves import dispersion, profiles
from spraywaves.profiles import VelocityProfile


# ---------------------------------------------------------------------------
# profiles and parameter fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def std_maxwellian() -> VelocityProfile:
    return profiles.maxwellian()


@pytest.fixture(scope="session")
def bump_profile(std_maxwellian) -> VelocityProfile:
    return profiles.make_bump_on_tail(std_maxwellian, eps=0.05, eta=0.5, c_star=5.0)


@pytest.fixture(scope="session")
def maxwellian_params(std_maxwellian):
    return dispersion.make_params(std_maxwellian, c0=1.0, rho0=1.0, kappa=0.01)


@pytest.fixture(scope="session")
def bump_params(bump_profile):
    return dispersion.make_params(bump_profile, c0=5.0, rho0=1.0, kappa=1.5e-3)


@pytest.fixture(scope="session")
def acoustic_params():
    return dispersion.SprayParams(c0=1.0, rho0=1.0, kappa=0.0)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def dawson_series(x: float, terms: int = 200) -> float:
    """Dawson function by its Taylor series D(x) = sum (-2)^n x^(2n+1)/(2n+1)!!."""
    term = float(x)
    total = term
    for n in range(1, terms):
        term *= -2.0 * x * x / (2 * n + 1)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1.0):
            break
    return total


def dense_line_integral(g, sigma: complex, lo: float = -np.inf,
                        hi: float = np.inf, **tolerances) -> complex:
    """Adaptive scipy quadrature of g(v)/(v - sigma) over the real line;
    ``tolerances`` (epsabs, epsrel, limit) go to scipy.integrate.quad."""
    def real_part(v):
        return np.real(g(np.array([v]))[0] / (v - sigma))

    def imag_part(v):
        return np.imag(g(np.array([v]))[0] / (v - sigma))

    tolerances = {"limit": 400, **tolerances}
    re, _ = scipy_integrate.quad(real_part, lo, hi, **tolerances)
    im, _ = scipy_integrate.quad(imag_part, lo, hi, **tolerances)
    return complex(re, im)


def contour_deformed_integral(g, sigma: complex, a: float, b: float,
                              dip: float) -> complex:
    """int g(z)/(z - sigma) dz along a contour dipping below sigma.

    Path: (a,0) -> (x0-r,0) -> (x0-r,y) -> (x0+r,y) -> (x0+r,0) -> (b,0) with
    y = Im(sigma) - dip; equals the analytic continuation from above when g is
    analytic between the contour and the axis.
    """
    x0 = sigma.real
    r = dip
    y = sigma.imag - dip
    nodes = [complex(a, 0), complex(x0 - r, 0), complex(x0 - r, y),
             complex(x0 + r, y), complex(x0 + r, 0), complex(b, 0)]
    total = 0.0 + 0.0j
    xs, ws = np.polynomial.legendre.leggauss(80)
    for z1, z2 in zip(nodes[:-1], nodes[1:]):
        mid = 0.5 * (z1 + z2)
        half = 0.5 * (z2 - z1)
        zs = mid + half * xs
        total += half * np.sum(g(zs) / (zs - sigma) * ws)
    return complex(total)


def system_mode_sigmas(system, nv: int = 2049, bound: float = 10.0) -> np.ndarray:
    """Eigenvalues of the discretized coupled system on nv Simpson nodes v_j
    (weights w_j) over [-bound, bound]: the (N + nv) matrix
    [[A, -kappa phi(v_j) w_j], [-f'(v_j) grad_psi^T, diag(v_j)]]. Eliminating the
    kinetic rows leaves (A - sigma) x = kappa (grad_psi . x) I_h(sigma), I_h the
    Simpson sum of phi f'/(v - sigma), so its eigenvalues well above the axis are
    the zeros of S(sigma) = 1 - kappa <grad_psi, (A - sigma)^(-1) I(sigma)>."""
    v = np.linspace(-bound, bound, nv)
    w = np.ones(nv)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (v[1] - v[0]) / 3.0
    n = system.a_matrix.shape[0]
    m = np.zeros((n + nv, n + nv))
    m[:n, :n] = system.a_matrix
    m[:n, n:] = -system.kappa * np.polynomial.polynomial.polyval(
        v, np.array(system.phi_coeffs)) * w
    m[n:, :n] = -np.outer(np.real(profiles.eval_df(system.profile, v)), system.grad_psi)
    m[np.arange(n, n + nv), np.arange(n, n + nv)] = v
    return np.linalg.eigvals(m)


def profile_integrand(profile: VelocityProfile, weight: str = "v_df"):
    """Raw (no strip checks) integrand closures used against the oracles."""
    if weight == "v_df":
        return lambda v: np.asarray(v, dtype=complex) * profiles._eval_raw(
            profile, np.asarray(v, dtype=complex), df=True)
    if weight == "df":
        return lambda v: profiles._eval_raw(profile, np.asarray(v, dtype=complex),
                                            df=True)
    if weight == "f":
        return lambda v: profiles._eval_raw(profile, np.asarray(v, dtype=complex),
                                            df=False)
    raise ValueError(weight)


_TIGHT = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 2000}


def bump_oracle(profile: VelocityProfile, weight, sigma: complex, reach: float = 0.1,
                df=None) -> complex:
    """Continued int p(v) f'(v)/(v - sigma) dv of a bump-on-tail profile by
    adaptive scipy quadrature, split at the bump support edges, with no
    subtraction at sigma; ``df`` replaces f' (the bump term alone, say).

    On the axis: the principal value folded about x0, int_0^r (g(x0 + t) -
    g(x0 - t))/t dt, plus plain integrals outside [x0 - r, x0 + r] and the
    residue i pi g(x0). Within 1e-6 of the axis: the real line with
    [x0 - reach, x0 + reach] replaced by a box dipping reach below sigma
    (`contour_deformed_integral`). Elsewhere: the real line split at Re sigma,
    plus 2 pi i g(sigma) below the axis.
    """
    edges = profile.bumps[-1].support
    df = profile_integrand(profile, "df") if df is None else df
    g = lambda v: np.polynomial.polynomial.polyval(v, weight) * df(v)
    x0 = sigma.real

    def line(cuts):
        return sum(dense_line_integral(g, sigma, lo, hi, **_TIGHT)
                   for lo, hi in zip(cuts[:-1], cuts[1:]))

    if sigma.imag == 0.0:
        r = 0.3
        cuts = sorted({-np.inf, *(e for e in edges if abs(e - x0) > r), x0 - r, np.inf})
        left = [c for c in cuts if c <= x0 - r]
        right = [x0 + r, *(c for c in cuts if c > x0 + r)]
        folded = lambda t: np.real(g(np.array([x0 + t]))[0] - g(np.array([x0 - t]))[0]) / t
        tcuts = sorted({0.0, *(abs(e - x0) for e in edges if 0.0 < abs(e - x0) < r), r})
        pv = line(left) + line(right) + sum(
            scipy_integrate.quad(folded, lo, hi, **_TIGHT)[0]
            for lo, hi in zip(tcuts[:-1], tcuts[1:]))
        return pv + 1j * math.pi * g(np.array([complex(x0)]))[0]
    if abs(sigma.imag) < 1e-6:
        lo, hi = x0 - reach, x0 + reach
        return (line([-np.inf, *(e for e in edges if e < lo), lo])
                + line([hi, *(e for e in edges if e > hi), np.inf])
                + contour_deformed_integral(g, sigma, lo, hi, reach))
    val = line(sorted({-np.inf, *edges, x0, np.inf}))
    if sigma.imag < 0.0:
        val += 2j * math.pi * g(np.array([sigma]))[0]
    return val


def _mp_point(sigma):
    sigma = complex(sigma)
    return mp.mpf(sigma.real) if sigma.imag == 0.0 else mp.mpc(sigma)


def mp_transform(profile: VelocityProfile, weight, sigma: complex) -> complex:
    """Continued int p(v) f'(v)/(v - sigma) dv at sigma, to 30 digits by mpmath
    (`mp_continued`)."""
    with mp.workdps(30):
        return complex(mp_continued(profile, weight, _mp_point(sigma)))


def mp_transform_derivative(profile: VelocityProfile, weight, sigma: complex) -> complex:
    """d/dsigma of the continued transform, by `mpmath.diff` of `mp_continued`
    along the real direction (on the axis, along the axis) at 30 digits."""
    with mp.workdps(30):
        return complex(mp.diff(lambda z: mp_continued(profile, weight, z),
                               _mp_point(sigma)))


def mp_continued(profile: VelocityProfile, weight, s):
    """Continued int p(v) f'(v)/(v - s) dv at the working precision: off the
    axis the line integral (split at Re s and the bump edges) plus, below the
    axis, 2 i pi p(s) f'(s) of each Gaussian part and of each bump term whose
    support column holds s (0 off it); on the axis (a real s) the principal
    value, int (p f'(v) - p f'(s) [|v - s| < 1])/(v - s) dv, plus i pi p(s) f'(s).
    The bump shape is C (1 + w)^2 exp(-1/(1 - w^2)), with C from an mpmath
    integral."""
    norm = 1 / mp.quad(lambda w: (1 + w) ** 2 * mp.exp(-1 / (1 - w * w)), [-1, 1])

    def gauss_df(part, v):
        z = (v - part.drift) / part.width
        return (-part.coef * part.mass * z / (mp.sqrt(2 * mp.pi) * part.width**2)
                * mp.exp(-z * z / 2))

    def bump_df(b, v):
        w = (v - b.c_star) / b.eta
        if not abs(mp.re(w)) < 1:
            return 0
        q = 1 - w * w
        return (b.mass * norm / b.eta**2 * mp.exp(-1 / q)
                * (2 * (1 + w) - 2 * w * (1 + w) ** 2 / q**2))

    def pdf(v):
        return (sum(c * v**k for k, c in enumerate(weight))
                * (sum(gauss_df(g, v) for g in profile.gaussians)
                   + sum(bump_df(b, v) for b in profile.bumps)))

    edges = [mp.mpf(e) for b in profile.bumps for e in b.support]
    if isinstance(s, mp.mpf):
        ps = pdf(s)
        inner = lambda v: (pdf(v) - (ps if abs(v - s) < 1 else 0)) / (v - s)
        cuts = sorted({s - 1, s, s + 1, *edges})
        return mp.quad(inner, [-mp.inf, *cuts, mp.inf]) + 1j * mp.pi * ps
    cuts = sorted({s.real, *edges})
    val = mp.quad(lambda v: pdf(v) / (v - s), [-mp.inf, *cuts, mp.inf])
    if s.imag < 0:
        val += 2j * mp.pi * pdf(s)
    return val
