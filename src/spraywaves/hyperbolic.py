"""Kinetic coupling of hyperbolic conservation laws: secular roots and mode checks.

A symmetric hyperbolic system coupled to a kinetic equation through gradients
acquires, at small coupling kappa, eigenvalue shifts with imaginary part

    (Im sigma_j)'(0) = -pi (grad_psi . r_j)(phi(sigma_j) . r_j) f'(sigma_j),

so each eigenpair of the uncoupled matrix is pushed off the real axis unless
the product q_j = (grad_psi . r_j)(phi(sigma_j) . r_j) f'(sigma_j) is >= 0.
The coupled eigenvalues are located as zeros of the rank-one secular function

    S(sigma) = 1 - kappa < grad_psi, (A - sigma I)^(-1) I(sigma) >,
    I(sigma) = continued integral of phi(v) f'(v) / (v - sigma) dv,

evaluated on the correct branch of the analytic continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import profiles, quadrature
from .dispersion import RootReport, SearchRegion, _newton, _winding_numbers
from .errors import (DegenerateSpectrum, NonConvergence, ResolventSingularity)
from .profiles import VelocityProfile

STABLE_MODE = "stable_mode"
UNSTABLE_MODE = "unstable_mode"
DECOUPLED = "decoupled"

_DECOUPLE_TOL = 1e-12
_GAP_TOL = 1e-8
_EIGEN_RESIDUAL = 1e-10        # relative to max(1, max|A|)
# largest |kappa| for which scalar_root trusts its first-order seed
SCALAR_KAPPA_MAX = 0.1
# |P_j| accepted by track_secular_root regardless of tol, per unit max(1, |sigma_j|):
# a few rounding units of sigma_j - sigma
_ROUNDING_FLOOR = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ScalarCoupling:
    """Scalar conservation law with characteristic speed lambda0 coupled to f."""

    lambda0: float
    kappa: float
    profile: VelocityProfile

    def __post_init__(self):
        if not (math.isfinite(self.lambda0) and math.isfinite(self.kappa)):
            raise ValueError("lambda0 and kappa must be finite")
        if self.lambda0 == 0.0:
            raise ValueError("small-coupling analysis requires lambda0 != 0")


@dataclass(frozen=True, eq=False)
class SystemCoupling:
    """Symmetric N x N hyperbolic system with kinetic feedback.

    ``phi_coeffs[j]`` is the N-vector coefficient of v**j, so the feedback
    profile phi(v) stays analytic and inherits the distribution's decay.
    """

    a_matrix: np.ndarray
    grad_psi: np.ndarray
    phi_coeffs: tuple[tuple[float, ...], ...]
    kappa: float
    profile: VelocityProfile

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "grad_psi", np.asarray(self.grad_psi, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("a_matrix must be square")
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise ValueError("a_matrix must be symmetric to 1e-12")
        if self.grad_psi.shape != (n,):
            raise ValueError("grad_psi must have length N")
        if any(len(c) != n for c in self.phi_coeffs):
            raise ValueError("each phi coefficient must have length N")
        if not (math.isfinite(self.kappa) and all(
                np.isfinite(x).all() for x in (a, self.grad_psi, self.phi_coeffs))):
            raise ValueError("kappa, a_matrix, grad_psi and phi_coeffs must be finite")

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[0]

    @cached_property
    def eigenpairs(self) -> list[tuple[float, np.ndarray]]:
        """symmetric_eigen(a_matrix), solved once per system."""
        return symmetric_eigen(self.a_matrix)

    def phi(self, v):
        """phi(v) evaluated component-wise; returns shape (N,) + shape(v)."""
        v = np.asarray(v, dtype=complex)
        out = np.zeros((self.dim,) + v.shape, dtype=complex)
        power = np.ones_like(v)
        for coeff in self.phi_coeffs:
            for i, c in enumerate(coeff):
                if c:
                    out[i] += c * power
            power = power * v
        return out


@dataclass(frozen=True, eq=False)
class ModeVerdict:
    """Necessary-condition check for one eigenpair of the uncoupled system."""

    j: int
    sigma_j: float
    r_j: np.ndarray
    q_j: float
    imag_rate: float
    verdict: str

    def as_dict(self) -> dict:
        return {"j": self.j, "sigma_j": self.sigma_j, "r_j": list(self.r_j),
                "q_j": self.q_j, "imag_rate": self.imag_rate, "verdict": self.verdict}


def scalar_as_system(c: ScalarCoupling) -> SystemCoupling:
    """N=1 embedding: zeros of the secular function coincide with scalar roots."""
    return SystemCoupling(a_matrix=np.array([[c.lambda0]]), grad_psi=np.array([1.0]),
                          phi_coeffs=((0.0,), (1.0,)), kappa=c.kappa,
                          profile=c.profile)


# ---------------------------------------------------------------------------
# scalar coupling
# ---------------------------------------------------------------------------

def scalar_dispersion(c: ScalarCoupling, omega):
    """G(omega) = omega - lambda0 + kappa * C[v f'/(v - omega)], at a point or
    elementwise over an ndarray; roots solve the coupled scalar dispersion
    relation."""
    if not isinstance(omega, np.ndarray):
        omega = complex(omega)
    if c.kappa == 0.0:
        return omega - c.lambda0
    return omega - c.lambda0 + c.kappa * quadrature.cauchy_transform(
        c.profile, (0.0, 1.0), omega)


def scalar_root(c: ScalarCoupling, tol: float = 1e-12) -> RootReport:
    """Coupled root by one Newton solve on G from the first-order seed
    lambda0 - G(lambda0); G is -P_0 of track_secular_root for N = 1."""
    if abs(c.kappa) > SCALAR_KAPPA_MAX:
        raise ValueError(f"first-order seed trusted only for |kappa| <= "
                         f"{SCALAR_KAPPA_MAX}")
    func = lambda z: scalar_dispersion(c, z)
    omega, iters = _newton(func, c.lambda0 - func(c.lambda0), tol,
                           trust_radius=max(1.0, abs(c.lambda0)))
    half = max(1e-3 * max(1.0, abs(c.lambda0)), 4.0 * abs(omega.imag))
    evidence, = _winding_numbers(func, [SearchRegion(
        omega.real - half, omega.real + half, omega.imag - half, omega.imag + half)])
    return RootReport(sigma=omega, residual=abs(func(omega)),
                      branch=quadrature.classify_branch(omega),
                      winding_evidence=evidence, newton_iters=iters)


def scalar_imag_leading(c: ScalarCoupling) -> float:
    """Leading-order Im omega = -pi kappa lambda0 f'(lambda0)."""
    slope = float(np.real(profiles.eval_df(c.profile, c.lambda0)))
    return -math.pi * c.kappa * c.lambda0 * slope


# ---------------------------------------------------------------------------
# symmetric eigenproblem
# ---------------------------------------------------------------------------

def symmetric_eigen(a_matrix) -> list[tuple[float, np.ndarray]]:
    """Deterministic eigen-decomposition of a symmetric matrix.

    LAPACK symmetric solver; eigenvalues ascending, eigenvector sign fixed so
    the first component above 1e-12 is positive. Rejects spectra with gaps
    below 1e-8 (strict hyperbolicity is assumed throughout).
    """
    a = np.array(np.atleast_2d(a_matrix), dtype=float)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if a.shape != (n, n) or np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ValueError("symmetric_eigen requires a symmetric square matrix")
    eigvals, vecs = np.linalg.eigh(a)
    gaps = np.diff(eigvals)
    if n > 1 and np.min(gaps) <= _GAP_TOL:
        raise DegenerateSpectrum(f"eigenvalue gap {np.min(gaps):.3g} <= {_GAP_TOL:g}")
    out = []
    for j in range(n):
        r = vecs[:, j]
        lead = np.flatnonzero(np.abs(r) > 1e-12)[0]
        if r[lead] < 0:
            r = -r
        resid = np.linalg.norm(a @ r - eigvals[j] * r)
        if resid > _EIGEN_RESIDUAL * scale:
            raise NonConvergence(f"eigenvector residual {resid:.3g} too large")
        out.append((float(eigvals[j]), r))
    return out


# ---------------------------------------------------------------------------
# secular function and perturbation checks
# ---------------------------------------------------------------------------

def _modal_projections(s: SystemCoupling, sigma: complex) -> np.ndarray:
    """(grad_psi . r_i)(r_i . I(sigma)) for each eigenpair i of A, where I(sigma) is
    the continued integral of phi(v) f'(v)/(v - sigma), component-wise."""
    ivec = np.array([quadrature.cauchy_transform(s.profile, w, sigma)
                     if any(w) else 0.0 for w in zip(*s.phi_coeffs)])
    return np.array([float(np.dot(s.grad_psi, r)) * complex(np.dot(r, ivec))
                     for _, r in s.eigenpairs])


def secular_function(s: SystemCoupling, sigma: complex) -> complex:
    """S(sigma) = 1 - kappa <grad_psi, (A - sigma)^(-1) I(sigma)>, summed over the
    eigenpairs as 1 - kappa sum_i (grad_psi . r_i)(r_i . I) / (sigma_i - sigma)."""
    sigma = complex(sigma)
    if s.kappa == 0.0:
        return 1.0 + 0.0j
    poles = np.array([ev for ev, _ in s.eigenpairs]) - sigma
    if np.min(np.abs(poles)) < 1e-10:
        raise ResolventSingularity(
            "secular function evaluated on an eigenvalue of the uncoupled matrix")
    return 1.0 - s.kappa * complex(np.sum(_modal_projections(s, sigma) / poles))


def imag_derivative_at_zero(s: SystemCoupling, j: int) -> float:
    """(Im sigma_j)'(0) = -pi (grad_psi . r_j)(phi(sigma_j) . r_j) f'(sigma_j)."""
    return stability_necessary_condition(s)[j].imag_rate


def stability_necessary_condition(s: SystemCoupling) -> list[ModeVerdict]:
    """Per-mode sign check of q_j; any q_j < 0 fails the necessary condition."""
    verdicts = []
    for j, (sigma_j, r_j) in enumerate(s.eigenpairs):
        psi_proj = float(np.dot(s.grad_psi, r_j))
        phi_proj = float(np.real(np.dot(s.phi(sigma_j), r_j)))
        slope = float(np.real(profiles.eval_df(s.profile, sigma_j)))
        q_j = psi_proj * phi_proj * slope
        if abs(psi_proj) <= _DECOUPLE_TOL or abs(phi_proj) <= _DECOUPLE_TOL:
            verdict = DECOUPLED
        elif q_j < -_DECOUPLE_TOL:
            verdict = UNSTABLE_MODE
        else:
            verdict = STABLE_MODE
        verdicts.append(ModeVerdict(j=j, sigma_j=sigma_j, r_j=r_j, q_j=q_j,
                                    imag_rate=-math.pi * q_j, verdict=verdict))
    return verdicts


def fails_necessary_condition(verdicts: list[ModeVerdict]) -> bool:
    return any(v.verdict == UNSTABLE_MODE for v in verdicts)


def track_secular_root(s: SystemCoupling, j: int, kappa_target: float,
                       tol: float = 1e-9) -> complex:
    """Zero of the secular function at kappa_target that leaves eigenvalue j.

    One Newton solve from the first-order seed sigma_j + kappa sigma'(0),
    sigma'(0) = -(grad_psi . r_j)(r_j . I(sigma_j)), on the pole-free
    P_j(sigma) = (sigma_j - sigma) S(sigma), written out term by term so that
    Newton never meets the pole at sigma_j (Bunch, Nielsen & Sorensen 1978).
    Newton stops at |P_j| <= max(tol |kappa sigma'(0)|, floor), and the root is
    returned only if |P_j| <= max(tol |sigma - sigma_j|, floor), where
    floor = 8 eps max(1, |sigma_j|) is the rounding of sigma_j - sigma. So
    |S| = |P_j| / |sigma - sigma_j| <= tol holds wherever tol |sigma - sigma_j|
    exceeds the floor; for a root closer to sigma_j than floor / tol (about 3.6e-6
    at sigma_j = 2) only |P_j| <= floor is guaranteed.
    """
    sigma_j = s.eigenpairs[j][0]

    def pole_free(z: complex) -> complex:
        m = _modal_projections(s, z)
        rest = sum(m[i] / (ev - z) for i, (ev, _) in enumerate(s.eigenpairs) if i != j)
        return (sigma_j - z) * (1.0 - kappa_target * rest) - kappa_target * m[j]

    step = -kappa_target * _modal_projections(s, complex(sigma_j))[j]
    floor = _ROUNDING_FLOOR * max(1.0, abs(sigma_j))
    sigma, _ = _newton(pole_free, sigma_j + step, max(tol * abs(step), floor),
                       trust_radius=10.0 * abs(step) + 1e-6)
    if abs(pole_free(sigma)) > max(tol * abs(sigma - sigma_j), floor):
        raise NonConvergence(f"|S| > {tol:.3g} at the secular root of mode {j}")
    return sigma
