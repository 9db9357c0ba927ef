"""Kinetic coupling of hyperbolic conservation laws: secular roots and mode checks.

A symmetric hyperbolic system coupled to a kinetic equation through gradients
acquires, at small coupling kappa, eigenvalue shifts with imaginary part

    (Im sigma_j)'(0) = -pi (grad_psi . r_j)(phi(sigma_j) . r_j) f'(sigma_j),

so each eigenpair of the uncoupled matrix is pushed off the real axis unless
the product q_j = (grad_psi . r_j)(phi(sigma_j) . r_j) f'(sigma_j) is >= 0.
The coupled eigenvalues are located as zeros of the rank-one secular function

    S(sigma) = 1 - kappa < grad_psi, (A - sigma I)^(-1) I(sigma) >,
    I(sigma) = continued integral of phi(v) f'(v) / (v - sigma) dv,

evaluated on the correct branch of the analytic continuation, as sum_k phi_k
C[v**k f'] from the one transform C = `quadrature.cauchy_transform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import profiles, quadrature
from .dispersion import RootReport, _newton, _seeded_root
from .errors import DegenerateSpectrum, NonConvergence
from .profiles import VelocityProfile

STABLE_MODE = "stable_mode"
UNSTABLE_MODE = "unstable_mode"
DECOUPLED = "decoupled"

_DECOUPLE_TOL = 1e-12
_GAP_TOL = 1e-8
_EIGEN_RESIDUAL = 1e-10        # relative to max(1, max|A|)
# |P_j| accepted by track_secular_root regardless of |S|, per unit max(1, |sigma_j|):
# a few rounding units of sigma_j - sigma
_ROUNDING_FLOOR = 8.0 * np.finfo(float).eps


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

    @cached_property
    def eigenpairs(self) -> list[tuple[float, np.ndarray]]:
        """symmetric_eigen(a_matrix), solved once per system."""
        return symmetric_eigen(self.a_matrix)

    @cached_property
    def modal_table(self) -> tuple[list[float], dict[int, list[float]]]:
        """(psi_i = grad_psi . r_i per eigenpair i, and for each power k whose phi
        row is nonzero the Phi_ik = r_i . phi_coeffs[k]), as Python floats."""
        rows = [r for _, r in self.eigenpairs]
        return ([float(np.dot(self.grad_psi, r)) for r in rows],
                {k: [float(np.dot(c, r)) for r in rows]
                 for k, c in enumerate(self.phi_coeffs) if any(c)})


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


def scalar_law(lambda0: float, kappa: float, profile: VelocityProfile) -> SystemCoupling:
    """The scalar conservation law with characteristic speed lambda0 coupled to f,
    as the N = 1 system A = (lambda0), grad_psi = (1), phi(v) = v; its P_0 is -G,
    G(omega) = omega - lambda0 + kappa C[v f'/(v - omega)]."""
    if lambda0 == 0.0:
        raise ValueError("small-coupling analysis requires lambda0 != 0")
    return SystemCoupling(a_matrix=np.array([[lambda0]]), grad_psi=np.array([1.0]),
                          phi_coeffs=((0.0,), (1.0,)), kappa=kappa, profile=profile)


def scalar_root(s: SystemCoupling) -> RootReport:
    """Coupled root of a `scalar_law`: mode 0's `track_secular_root`, polished and
    certified by `dispersion._seeded_root` on its P_0 at the scale
    max(1, |lambda0|)."""
    func = partial(pole_free_secular, s, 0, s.kappa)
    return _seeded_root(func, track_secular_root(s, 0, s.kappa),
                        max(1.0, abs(s.eigenpairs[0][0])), profiles.bump_edges(s.profile))


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
    # A V by broadcasting: a matrix product (BLAS gemm) adds 0.3 MiB to the peak RSS
    resid = np.linalg.norm((a[:, :, None] * vecs).sum(axis=1) - vecs * eigvals,
                           axis=0).max()
    if resid > _EIGEN_RESIDUAL * scale:
        raise NonConvergence(f"eigenvector residual {resid:.3g} too large")
    lead = np.argmax(np.abs(vecs) > 1e-12, axis=0)
    flip = vecs[lead, range(n)] < 0
    return [(float(eigvals[j]), -vecs[:, j] if flip[j] else vecs[:, j]) for j in range(n)]


# ---------------------------------------------------------------------------
# secular function and perturbation checks
# ---------------------------------------------------------------------------

def _modal_projections(s: SystemCoupling, sigma, derivative: bool = False) -> list:
    """m_i(sigma) = (grad_psi . r_i)(r_i . I(sigma)) = psi_i sum_k Phi_ik C_k for
    each eigenpair i of A, I(sigma) the continued integral of phi(v) f'(v)/(v -
    sigma) and C_k = C[v**k f']; Python numbers at a point, ndarrays over one;
    with ``derivative`` the pair of lists (m_i, m_i'). One kernel call gives C_0
    = C: v**k = sigma v**(k-1) + (v - sigma) v**(k-1) and int v**(k-1) f' =
    -(k-1) M_(k-2), M_n the moments of f, give C_k = sigma C_(k-1) - (k-1)
    M_(k-2) and C_k' = C_(k-1) + sigma C_(k-1)'."""
    psi, phi = s.modal_table
    if not phi:            # no feedback row: nothing to transform
        return ([0.0] * len(psi),) * 2 if derivative else [0.0] * len(psi)
    c = quadrature.cauchy_transform(s.profile, sigma, derivative)
    cs, dcs = ([c[0]], [c[1]]) if derivative else ([c], None)
    for k in range(1, max(phi) + 1):
        if derivative:
            dcs.append(cs[-1] + sigma * dcs[-1])
        cs.append(sigma * cs[-1])
        if k > 1:
            cs[-1] -= (k - 1) * profiles.moment(s.profile, k - 2)
    project = lambda cs: [psi_i * sum(cs[k] * col[i] for k, col in phi.items())
                          for i, psi_i in enumerate(psi)]
    return (project(cs), project(dcs)) if derivative else project(cs)


def stability_necessary_condition(s: SystemCoupling) -> list[ModeVerdict]:
    """Per-mode sign check of q_j; any q_j < 0 fails the necessary condition."""
    psi, phi = s.modal_table
    verdicts = []
    for j, (sigma_j, r_j) in enumerate(s.eigenpairs):
        psi_proj = psi[j]
        # phi(sigma_j) . r_j = sum_k sigma_j**k Phi_jk
        phi_proj = float(sum(sigma_j**k * col[j] for k, col in phi.items()))
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


def pole_free_secular(s: SystemCoupling, j: int, kappa: float, sigma,
                      derivative: bool = False):
    """P_j(sigma) = (sigma_j - sigma) S(sigma) at coupling kappa, written out term
    by term so that it has no pole at the eigenvalue sigma_j; at a point or
    elementwise over an ndarray; sigma_j - sigma at kappa = 0. With ``derivative``
    the pair (P_j, P_j'), P_j' differentiated term by term."""
    sigma_j = s.eigenpairs[j][0]
    if kappa == 0.0:
        return (sigma_j - sigma, -1.0) if derivative else sigma_j - sigma
    m = _modal_projections(s, sigma, derivative)
    m, dm = m if derivative else (m, None)
    rest = sum(m[i] / (ev - sigma) for i, (ev, _) in enumerate(s.eigenpairs) if i != j)
    value = (sigma_j - sigma) * (1.0 - kappa * rest) - kappa * m[j]
    if not derivative:
        return value
    d_rest = sum((dm[i] + m[i] / (ev - sigma)) / (ev - sigma)
                 for i, (ev, _) in enumerate(s.eigenpairs) if i != j)
    return value, -(1.0 - kappa * rest) - kappa * ((sigma_j - sigma) * d_rest + dm[j])


def track_secular_root(s: SystemCoupling, j: int, kappa_target: float) -> complex:
    """Zero of the secular function at kappa_target that leaves eigenvalue j.

    One Newton solve from the first-order seed sigma_j + kappa sigma'(0),
    sigma'(0) = -(grad_psi . r_j)(r_j . I(sigma_j)), on the pole-free
    P_j = `pole_free_secular`, so that Newton never meets the pole at sigma_j
    (Bunch, Nielsen & Sorensen 1978).
    With tol = 1e-9, Newton stops at |P_j| <= max(tol |kappa sigma'(0)|, floor),
    and the root is returned only if |P_j| <= max(tol |sigma - sigma_j|, floor),
    where floor = 8 eps max(1, |sigma_j|) is the rounding of sigma_j - sigma. So
    |S| = |P_j| / |sigma - sigma_j| <= tol holds wherever tol |sigma - sigma_j|
    exceeds the floor; for a root closer to sigma_j than floor / tol (about 3.6e-6
    at sigma_j = 2) only |P_j| <= floor is guaranteed.
    """
    sigma_j = s.eigenpairs[j][0]
    step = -kappa_target * _modal_projections(s, sigma_j)[j]
    floor, tol = _ROUNDING_FLOOR * max(1.0, abs(sigma_j)), 1e-9
    sigma, _, p_j = _newton(lambda z: pole_free_secular(s, j, kappa_target, z, True),
                            sigma_j + step, max(tol * abs(step), floor),
                            trust_radius=10.0 * abs(step) + 1e-6)
    if abs(p_j) > max(tol * abs(sigma - sigma_j), floor):
        raise NonConvergence(f"|S| > {tol:.3g} at the secular root of mode {j}")
    return sigma
