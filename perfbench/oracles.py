"""Reference computations that share no code with spraywaves.

- Maxwellian family (single Maxwellians and sums of them): the continued
  Cauchy transforms entering D(sigma), the electrostatic analogue and the
  secular function have closed forms in the plasma dispersion function
  Z(zeta) = i sqrt(pi) w(zeta), with w the Faddeeva function
  (`scipy.special.wofz`). Z is the continuation from the upper half-plane,
  so one formula serves the upper branch, the real axis and the lower branch.
- Bump-on-tail profiles have no closed form. Their unstable roots and the
  root count per box are the eigenvalues of the discrete (nv+2) x (nv+2)
  mode matrix that the linearised single-mode system integrates, solved with
  `numpy.linalg.eigvals`; above the real axis D(sigma) itself is the
  closed-form base part plus the smooth bump part by dense adaptive
  quadrature, which pins a root far more tightly.

Profiles are plain dicts in the CLI config shape ("kind": "maxwellian",
"bump_on_tail" or "sum").
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
from scipy import integrate as scipy_integrate
from scipy.special import wofz

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)


def components(profile: dict) -> list[tuple[float, float, float]]:
    """(mass, drift, width) of each Maxwellian in a Maxwellian-family profile."""
    if profile["kind"] == "maxwellian":
        return [(float(profile.get("mass", 1.0)), float(profile.get("drift", 0.0)),
                 float(profile.get("width", 1.0)))]
    if profile["kind"] == "sum":
        return [c for part in profile["parts"] for c in components(part)]
    raise ValueError(f"no closed form for profile kind {profile['kind']!r}")


def total_mass(profile: dict) -> float:
    if profile["kind"] == "bump_on_tail":
        return total_mass(profile["base"])   # the bump carries eps of the base mass
    return sum(m for m, _, _ in components(profile))


def plasma_z(zeta):
    return 1j * SQRT_PI * wofz(zeta)


def cauchy_df(profile: dict, sigma):
    """J0(sigma): continuation from above of int f'(v) / (v - sigma) dv."""
    sigma = np.asarray(sigma, dtype=complex)
    out = np.zeros_like(sigma)
    for m, d, w in components(profile):
        zeta = (sigma - d) / (SQRT2 * w)
        out += -m * (1.0 + zeta * plasma_z(zeta)) / w**2
    return out


def moment(profile: dict, order: int) -> float:
    """Raw velocity moment int v^order f dv of a Maxwellian-family profile."""
    total = 0.0
    for m, d, w in components(profile):
        total += m * {0: 1.0, 1: d, 2: d * d + w * w}[order]
    return total


def coupling_prefactor(params: dict, profile: dict) -> float:
    kappa = float(params["kappa"])
    alpha0 = 1.0 - kappa * total_mass(profile)
    return kappa * float(params["rho0"]) * float(params["c0"]) ** 2 / alpha0


def dispersion(params: dict, profile: dict, sigma):
    """D(sigma) = 1 - c0^2/sigma^2 - pref * J0(sigma) (Maxwellian family)."""
    sigma = np.asarray(sigma, dtype=complex)
    c0 = float(params["c0"])
    return 1.0 - c0**2 / sigma**2 - coupling_prefactor(params, profile) \
        * cauchy_df(profile, sigma)


def dispersion_derivative(params: dict, profile: dict, sigma):
    """dD/dsigma, using Z'(zeta) = -2 (1 + zeta Z)."""
    sigma = np.asarray(sigma, dtype=complex)
    c0 = float(params["c0"])
    dj = np.zeros_like(sigma)
    for m, d, w in components(profile):
        zeta = (sigma - d) / (SQRT2 * w)
        z = plasma_z(zeta)
        dz = -2.0 * (1.0 + zeta * z)
        dj += -m * (z + zeta * dz) / (SQRT2 * w) / w**2
    return 2.0 * c0**2 / sigma**3 - coupling_prefactor(params, profile) * dj


def landau(profile: dict, k: float, omega: complex) -> complex:
    """Electrostatic analogue 1 - J0(omega/k) / k^2, for k > 0."""
    return complex(1.0 - cauchy_df(profile, omega / k) / k**2)


def newton(func, dfunc, z0: complex, tol: float = 1e-13, max_iter: int = 60) -> complex:
    """Newton iteration on an analytic closed form; raises if it does not settle."""
    z = complex(z0)
    for _ in range(max_iter):
        step = func(z) / dfunc(z)
        z -= step
        if abs(step) <= tol * max(1.0, abs(z)):
            return z
    raise ArithmeticError(f"closed-form Newton did not converge from {z0}")


def dispersion_root(params: dict, profile: dict, z0: complex) -> complex:
    return newton(lambda z: complex(dispersion(params, profile, z)),
                  lambda z: complex(dispersion_derivative(params, profile, z)), z0)


def winding_count(func, re_min, re_max, im_min, im_max, n_per_edge: int = 4000) -> int:
    """Zeros minus poles of a vectorised analytic func inside a rectangle.

    Uniform boundary sampling, doubled until no step turns the phase by more
    than half a radian; the caller keeps every zero and pole off the contour.
    """
    corners = [complex(re_min, im_min), complex(re_max, im_min),
               complex(re_max, im_max), complex(re_min, im_max)]
    while True:
        t = np.linspace(0.0, 1.0, n_per_edge, endpoint=False)
        pts = np.concatenate([a + (b - a) * t
                              for a, b in zip(corners, corners[1:] + corners[:1])])
        vals = func(np.append(pts, pts[0]))
        steps = np.angle(vals[1:] / vals[:-1])
        if np.max(np.abs(steps)) <= 0.5:
            return int(round(float(np.sum(steps)) / (2.0 * math.pi)))
        if n_per_edge >= 1 << 18:
            raise ArithmeticError("a zero or pole sits on the winding contour")
        n_per_edge *= 2


def axis_damping(params: dict, profile: dict, x: float) -> float:
    """-Im D(x) / Re D'(x) on the real axis: the thin-spray rate at speed x."""
    d = complex(dispersion(params, profile, x))
    dd = complex(dispersion_derivative(params, profile, x))
    return -d.imag / dd.real


def thin_spray(params: dict, profile: dict) -> tuple[float, float]:
    """(c_star, gamma) of the first-order thin-spray expansion, closed form."""
    c0 = float(params["c0"])
    pref = coupling_prefactor(params, profile)
    c_star = c0 * (1.0 + 0.5 * pref * float(np.real(cauchy_df(profile, complex(c0)))))
    return c_star, axis_damping(params, profile, c_star)


# ---------------------------------------------------------------------------
# hyperbolic systems over Maxwellian-family profiles
# ---------------------------------------------------------------------------

def df_real(profile: dict, v):
    """f'(v) on the real axis (Maxwellian family)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for m, d, w in components(profile):
        out += -(v - d) / w**2 * m / (math.sqrt(2.0 * math.pi) * w) \
            * np.exp(-0.5 * ((v - d) / w) ** 2)
    return out


def kinetic_vector(phi_coeffs, profile: dict, sigma: complex) -> np.ndarray:
    """I(sigma) = C[phi(v) f'(v) / (v - sigma)] for polynomial phi.

    v^p / (v - s) = sum_{q<p} s^(p-1-q) v^q + s^p / (v - s), and
    int v^q f' dv = -q M_{q-1}.
    """
    j0 = complex(cauchy_df(profile, complex(sigma)))
    out = np.zeros(len(phi_coeffs[0]), dtype=complex)
    for p, coeff in enumerate(phi_coeffs):
        jp = sigma**p * j0
        for q in range(1, p):
            jp += sigma ** (p - 1 - q) * (-q * moment(profile, q - 1))
        out += np.asarray(coeff, dtype=float) * jp
    return out


def secular(a_matrix, grad_psi, phi_coeffs, kappa, profile, sigma) -> complex:
    a = np.asarray(a_matrix, dtype=float)
    ivec = kinetic_vector(phi_coeffs, profile, sigma)
    x = np.linalg.solve(a - sigma * np.eye(len(a)), ivec)
    return complex(1.0 - kappa * np.dot(np.asarray(grad_psi, dtype=float), x))


def secular_root(system: dict, profile: dict, z0: complex) -> complex:
    """Zero of the closed-form secular function near z0.

    The derivative is a central difference on a step well inside the
    distance to the nearest pole sigma_j of the resolvent.
    """
    f = lambda z: secular(system["A"], system["grad_psi"], system["phi_coeffs"],
                          float(system["kappa"]), profile, z)
    poles = np.linalg.eigvalsh(np.asarray(system["A"], dtype=float))

    def df(z):
        h = 1e-4 * min(max(1.0, abs(z)), float(np.min(np.abs(poles - z))))
        return (f(z + h) - f(z - h)) / (2.0 * h)

    return newton(f, df, z0, tol=1e-14)


def first_order_shift(system: dict, profile: dict, j: int) -> complex:
    """d sigma / d kappa at kappa = 0: -(grad_psi . r_j)(I(sigma_j) . r_j)."""
    vals, vecs = np.linalg.eigh(np.asarray(system["A"], dtype=float))
    r = vecs[:, j]
    ivec = kinetic_vector(system["phi_coeffs"], profile, complex(vals[j]))
    return complex(-np.dot(np.asarray(system["grad_psi"], dtype=float), r)
                   * np.dot(ivec, r))


def mode_rates(system: dict, profile: dict) -> list[dict]:
    """Eigenpairs of A (numpy eigh) and the first-order rates -pi q_j."""
    a = np.asarray(system["A"], dtype=float)
    psi = np.asarray(system["grad_psi"], dtype=float)
    vals, vecs = np.linalg.eigh(a)
    out = []
    for j, sigma_j in enumerate(vals):
        r = vecs[:, j]
        phi = sum(np.asarray(c, dtype=float) * sigma_j**p
                  for p, c in enumerate(system["phi_coeffs"]))
        q = float(np.dot(psi, r) * np.dot(phi, r) * df_real(profile, sigma_j))
        out.append({"sigma_j": float(sigma_j), "q_j": q, "imag_rate": -math.pi * q})
    return out


def scalar_root(lambda0: float, kappa: float, profile: dict) -> complex:
    """Root of omega - lambda0 + kappa * omega * J0(omega) near lambda0."""
    f = lambda z: z - lambda0 + kappa * z * complex(cauchy_df(profile, z))
    h = 1e-7
    return newton(f, lambda z: (f(z + h) - f(z - h)) / (2.0 * h), complex(lambda0),
                  tol=1e-14)


# ---------------------------------------------------------------------------
# bump-on-tail: discrete mode matrix
# ---------------------------------------------------------------------------

def _bump_shape(w):
    return (1.0 + w) ** 2 * math.exp(-1.0 / (1.0 - w * w)) if abs(w) < 1.0 else 0.0


@lru_cache(maxsize=1)
def bump_normalisation() -> float:
    """C with C * int_{-1}^{1} (1+w)^2 exp(-1/(1-w^2)) dw = 1 (adaptive quadrature)."""
    integral, _ = scipy_integrate.quad(_bump_shape, -1.0, 1.0, epsabs=0.0,
                                       epsrel=1e-13, limit=200)
    return 1.0 / integral


def _bump_df(profile: dict, v: np.ndarray) -> np.ndarray:
    """Derivative of the bump term alone, supported on c_star +- eta."""
    eps, eta, c_star = (float(profile[k]) for k in ("eps", "eta", "c_star"))
    m0 = total_mass(profile["base"])
    w = (v - c_star) / eta
    dg = np.zeros_like(w)
    inside = np.abs(w) < 1.0
    wi = w[inside]
    q = 1.0 - wi * wi
    dg[inside] = np.exp(-1.0 / q) * (1.0 + wi) * (2.0 - 2.0 * wi * (1.0 + wi) / q**2)
    return eps * m0 / eta**2 * bump_normalisation() * dg


def df_profile(profile: dict, v) -> np.ndarray:
    """f'(v) on the real axis for any profile kind."""
    v = np.asarray(v, dtype=float)
    if profile["kind"] != "bump_on_tail":
        return df_real(profile, v)
    return (1.0 - float(profile["eps"])) * df_profile(profile["base"], v) \
        + _bump_df(profile, v)


def bump_dispersion(params: dict, profile: dict, sigma: complex) -> complex:
    """D(sigma) for a bump-on-tail profile above the real axis.

    The base Maxwellian part uses the closed form; the bump part, smooth and
    compactly supported, is int bump'(v) / (v - sigma) dv by dense adaptive
    quadrature, regular for Im sigma > 0.
    """
    sigma = complex(sigma)
    if sigma.imag <= 0.0:
        raise ValueError(f"bump_dispersion needs Im sigma > 0, got {sigma}")
    eta, c_star = float(profile["eta"]), float(profile["c_star"])
    lo, hi = c_star - eta, c_star + eta
    g = lambda v: float(_bump_df(profile, np.array([v]))[0]) / (v - sigma)
    part = lambda fn: scipy_integrate.quad(
        fn, lo, hi, points=[sigma.real] if lo < sigma.real < hi else None,
        limit=400, epsabs=1e-14, epsrel=1e-12)[0]
    j0 = (1.0 - float(profile["eps"])) * complex(cauchy_df(profile["base"], sigma)) \
        + complex(part(lambda v: g(v).real), part(lambda v: g(v).imag))
    return 1.0 - float(params["c0"]) ** 2 / sigma**2 \
        - coupling_prefactor(params, profile) * j0


def bump_dispersion_root(params: dict, profile: dict, z0: complex) -> complex:
    """Zero of the quadrature D(sigma) near z0 (central-difference Newton)."""
    f = lambda z: bump_dispersion(params, profile, z)
    h = 1e-6
    return newton(f, lambda z: (f(z + h) - f(z - h)) / (2.0 * h), z0, tol=1e-13)


def mode_matrix_sigmas(params: dict, profile: dict, nv: int = 1025,
                       v_bounds: tuple[float, float] = (-10.0, 10.0)) -> np.ndarray:
    """Phase velocities sigma of the discrete single-mode system.

    The mode system d/dt (tau, u, f_j) = i k A (tau, u, f_j) has solutions
    exp(-i k sigma t) with sigma = -eig(A); sigma does not depend on k.
    Simpson weights need an odd nv.
    """
    if nv % 2 == 0:
        raise ValueError("mode matrix uses Simpson weights: nv must be odd")
    c0, rho0, kappa = (float(params[k]) for k in ("c0", "rho0", "kappa"))
    alpha0 = 1.0 - kappa * total_mass(profile)
    v = np.linspace(v_bounds[0], v_bounds[1], nv)
    dv = v[1] - v[0]
    weights = np.ones(nv)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= dv / 3.0
    a = np.zeros((nv + 2, nv + 2))
    a[0, 1] = 1.0 / rho0
    a[0, 2:] = kappa / (alpha0 * rho0) * weights * v
    a[1, 0] = rho0 * c0**2
    a[2:, 0] = -c0**2 * rho0**2 * df_profile(profile, v)
    a[np.arange(2, nv + 2), np.arange(2, nv + 2)] = -v
    return -np.linalg.eigvals(a)


def unstable_sigmas(params: dict, profile: dict, nv: int = 1025,
                    floor: float = 1e-6) -> list[complex]:
    """Mode-matrix phase velocities with Im sigma > floor, sorted by real part."""
    sig = mode_matrix_sigmas(params, profile, nv)
    return sorted((complex(s) for s in sig if s.imag > floor), key=lambda s: s.real)


def close(a: complex, b: complex, tol: float) -> bool:
    return cmath.isfinite(a) and cmath.isfinite(b) and abs(a - b) <= tol
