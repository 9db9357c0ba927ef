"""Thick-spray dispersion function: evaluation, root location, and verdicts.

The dispersion function of the linearized particle-laden acoustics depends on
the phase velocity sigma = omega/|k| alone:

    D(sigma) = 1 - c0^2/sigma^2 - (kappa rho0 c0^2 / alpha0) * C(sigma),

where C(sigma) is the branch-correct continuation of int f'(v)/(v - sigma) dv
from the upper half-plane (see `quadrature`): the coupling integral int v f'/(v -
sigma) dv is sigma C, since int f' = 0. Zeros with Im sigma > 0 are unstable
modes; zeros with Im sigma < 0 are decay rates of the continued function, not
regular eigenvalues. D is evaluated as E(sigma)/sigma^2 from the pole-free
E(sigma) = sigma^2 D(sigma), which has the same zeros and no pole at sigma = 0.
Root counts are certified with argument-principle winding numbers of E over
rectangles; roots are polished by Newton iteration on the continued
(holomorphic) D itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import profiles, quadrature
from .errors import (BoundaryRoot, DegenerateDerivative, NonConvergence,
                     SprayWaveError, ZeroSigma)
from .profiles import VelocityProfile
from .quadrature import Branch

STABLE = "stable"
UNSTABLE = "unstable"
NEUTRAL = "neutral"

_ROOT_TOL = 1e-10
_NEWTON_MAX_ITER = 80
# |sigma| / c0 below which the sigma = 0 pole refuses evaluation (ZeroSigma)
POLE_RADIUS = 1e-14


@dataclass(frozen=True)
class SprayParams:
    """Background state of the linearization (fluid at rest after the Galilean
    shift); the volume fraction alpha0 = 1 - kappa m0 follows from the profile."""

    c0: float
    rho0: float
    kappa: float

    def __post_init__(self):
        if not (0 < self.c0 < math.inf and 0 < self.rho0 < math.inf):
            raise ValueError("c0 and rho0 must be positive and finite")
        if not 0 <= self.kappa < math.inf:
            raise ValueError("kappa must be >= 0 and finite")


def make_params(profile: VelocityProfile, c0: float, rho0: float,
                kappa: float) -> SprayParams:
    """SprayParams, refused (VacuumViolation) where kappa m0 >= 1 leaves no fluid."""
    profiles.compatibility_alpha(profile, kappa)
    return SprayParams(c0=c0, rho0=rho0, kappa=kappa)


def coupling_prefactor(params: SprayParams, profile: VelocityProfile) -> float:
    """kappa rho0 c0^2 / alpha0, with the volume fraction alpha0 = 1 - kappa m0."""
    return (params.kappa * params.rho0 * params.c0**2
            / profiles.compatibility_alpha(profile, params.kappa))


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle in the sigma plane searched for dispersion roots."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("degenerate search region")

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.re_min, self.im_min), complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max), complex(self.re_min, self.im_max))

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    @property
    def diameter(self) -> float:
        return math.hypot(self.re_max - self.re_min, self.im_max - self.im_min)

    def contains(self, z: complex) -> bool:
        """Whether z lies strictly inside the rectangle."""
        return self.re_min < z.real < self.re_max and self.im_min < z.imag < self.im_max


@dataclass(frozen=True)
class RootReport:
    """One located zero of the dispersion function with its evidence."""

    sigma: complex
    residual: float
    branch: Branch
    winding_evidence: int
    newton_iters: int

    def as_dict(self) -> dict:
        return {"re_sigma": self.sigma.real, "im_sigma": self.sigma.imag,
                "residual": self.residual, "branch": self.branch.value,
                "winding_evidence": self.winding_evidence,
                "newton_iters": self.newton_iters,
                "interpretation": ("decay_rate" if self.branch is Branch.LOWER
                                   else "eigenvalue")}


def dispersion_value(params: SprayParams, profile: VelocityProfile, sigma,
                     derivative: bool = False):
    """Branch-correct dispersion function D = E(sigma) / sigma^2 at complex sigma,
    or elementwise over an ndarray of sigma, with E the pole-free `_pole_free`
    (ZeroSigma if any point is within POLE_RADIUS c0 of 0); with ``derivative`` (D, D').

    The continuation term carries the same kappa rho0 c0^2 / alpha0 prefactor
    as the principal-value term (exact holomorphic continuation).
    """
    if isinstance(sigma, np.ndarray):
        sigma = sigma.astype(complex, copy=False)
        nearest = np.abs(sigma).min(initial=math.inf)
    else:
        sigma = complex(sigma)
        nearest = abs(sigma)
    if nearest < POLE_RADIUS * params.c0:
        raise ZeroSigma("dispersion function has a pole at sigma = 0")
    if not derivative:
        return _pole_free(params, profile, sigma) / sigma**2
    e, de = _pole_free(params, profile, sigma, True)
    return e / sigma**2, (de - 2.0 * e / sigma) / sigma**2


def landau_dispersion(profile: VelocityProfile, k: float, omega):
    """Electrostatic-analogue dispersion value 1 - C/k^2, a function of omega/k and k,
    at a point or elementwise over an ndarray of omega.

    C continues int f'(v)/(v - omega/k) dv from Im omega > 0, which is the upper
    half of the sigma = omega/k plane for k > 0 and the lower half for k < 0.
    The continuation from below is conj(C(conj sigma)), because f' is real on
    the axis.
    """
    if k == 0.0:
        raise ZeroSigma("landau dispersion undefined at k = 0")
    sigma = (omega if isinstance(omega, np.ndarray) else complex(omega)) / k
    if k > 0.0:
        cont = quadrature.cauchy_transform(profile, sigma)
    else:
        cont = quadrature.cauchy_transform(profile, sigma.conjugate()).conjugate()
    return 1.0 - cont / k**2


# ---------------------------------------------------------------------------
# argument-principle machinery
# ---------------------------------------------------------------------------

_MIN_BOUNDARY_MOD = 1e-9
_MAX_WINDING_DEFECT = 0.25   # |winding - round(winding)| must stay below
_PHASE_STEP = 1.0           # max phase increment per boundary step (radians)
_MAX_BOUNDARY_EVALS = 60000
_SPLIT = 8                  # pieces an unresolved segment is cut into per level
_EDGE_SAMPLES = 48          # initial samples per edge, the least with a feature scale


def _winding_number(func, region: SearchRegion, feature_scale: float | None = None,
                    support: tuple[float, float] | None = None,
                    marks: tuple[float, ...] = ()) -> int:
    """Winding number of func around the boundary of the rectangle.

    Adaptive phase walk: a segment is cut into _SPLIT equal pieces until each
    step turns by less than _PHASE_STEP *and* the value magnitude changes by
    less than a factor of e, so a full 2 pi swing between samples cannot alias
    to a small principal-value step. The accumulated phase is then an exact
    multiple of 2 pi up to float noise. ``func`` takes an ndarray of points and
    is called once on all edge samples, then once per refinement level on the
    _SPLIT - 1 inner points of every unresolved segment; whether a segment is
    resolved depends on its end values only, so the samples are those of a
    depth-first walk. Raises BoundaryRoot when a zero (or a resolution limit)
    sits on the contour, or the winding defect reaches 0.25.

    A horizontal edge below the axis also samples Re sigma at the ``marks``
    (bump support edges, where func refuses a contour crossing one) and, where
    the 1024-sample cap leaves it coarser than the feature scale, one scale
    apart over the ``support``, lest a narrow residue fall between samples.
    """
    a = np.array(region.corners)
    b = np.roll(a, -1)
    n = np.full(4, _EDGE_SAMPLES)
    if feature_scale is not None and feature_scale > 0:
        n = np.clip(np.ceil(abs(b - a) / feature_scale), _EDGE_SAMPLES, 1024).astype(int)
    # edge e holds the samples a_e + (b_e - a_e) t, t = k / n_e (k < n_e), in walk order
    ts = [np.arange(n_e) * (1.0 / n_e) for n_e in n]
    xs, width = [np.array(marks)], region.re_max - region.re_min
    if support is not None and region.im_min < 0.0 and width / n[0] > feature_scale:
        lo, hi = max(region.re_min, support[0]), min(region.re_max, support[1])
        if hi - lo > 0.5 * _MAX_BOUNDARY_EVALS * feature_scale:
            raise BoundaryRoot("contour too long to sample at the feature scale")
        xs.append(np.arange(lo, hi, feature_scale))
    t = (np.concatenate(xs) - region.re_min) / width
    t = t[(t >= 0.0) & (t < 1.0)]
    # the bottom edge (0) runs right and the top edge (2) left; a repeated
    # sample only adds a zero-length segment
    for e, extra in ((0, t), (2, 1.0 - t[t > 0.0])):
        if extra.size and a[e].imag < 0.0:
            ts[e] = np.sort(np.concatenate((ts[e], extra)))
    z1 = np.concatenate([a_e + (b_e - a_e) * t_e for a_e, b_e, t_e in zip(a, b, ts)])
    v1 = func(z1)
    # a segment ends at the next sample; the last one closes the loop
    z2, v2 = np.roll(z1, -1), np.roll(v1, -1)
    evals, phase = z1.size, 0.0
    pieces = np.arange(1, _SPLIT) / _SPLIT
    while True:
        if np.abs(v1).min() < _MIN_BOUNDARY_MOD:
            raise BoundaryRoot("dispersion value vanishes on the contour")
        dphi = np.angle(v2 / v1)
        ratio = np.abs(v2) / np.abs(v1)
        done = ((np.abs(dphi) <= _PHASE_STEP) & (1.0 / math.e <= ratio)
                & (ratio <= math.e)) | (np.abs(z2 - z1) < 1e-13 * (1.0 + np.abs(z1)))
        phase += dphi[done].sum()
        z1, v1, z2, v2 = (x[~done] for x in (z1, v1, z2, v2))
        if not z1.size:
            break
        evals += (_SPLIT - 1) * z1.size
        if evals > _MAX_BOUNDARY_EVALS:
            raise BoundaryRoot("phase walk did not resolve the contour")
        zm = z1[:, None] + (z2 - z1)[:, None] * pieces
        vm = func(zm.ravel()).reshape(zm.shape)
        z1, z2 = np.column_stack((z1, zm)).ravel(), np.column_stack((zm, z2)).ravel()
        v1, v2 = np.column_stack((v1, vm)).ravel(), np.column_stack((vm, v2)).ravel()
    winding = phase / (2.0 * math.pi)
    defect = abs(winding - round(winding))
    if defect >= _MAX_WINDING_DEFECT:
        raise BoundaryRoot(f"winding defect {defect:.3f} >= {_MAX_WINDING_DEFECT}")
    return int(round(winding))


def _pole_free(params: SprayParams, profile: VelocityProfile, sigma,
               derivative: bool = False):
    """E(sigma) = sigma^2 D(sigma) = sigma^2 (1 - pref C(sigma)) - c0^2, at a point
    or elementwise over an ndarray, with C the continued int f'(v)/(v - sigma) dv
    (sigma^2 - c0^2 at kappa = 0): the zeros of D without its sigma = 0 pole
    (E(0) = -c0^2); with ``derivative`` (E, E'), E' = 2 sigma (1 - pref C) -
    pref sigma^2 C'."""
    # complex ** raises OverflowError where the square overflows; so must an array
    with np.errstate(over="raise"):
        square = sigma**2
    if params.kappa == 0.0:
        base = square - params.c0**2
        return (base, 2.0 * sigma) if derivative else base
    pref = coupling_prefactor(params, profile)
    c = quadrature.cauchy_transform(profile, sigma, derivative)
    if not derivative:
        return square * (1.0 - pref * c) - params.c0**2
    rest = 1.0 - pref * c[0]
    return square * rest - params.c0**2, 2.0 * sigma * rest - pref * square * c[1]


def count_roots(params: SprayParams, profile: VelocityProfile,
                region: SearchRegion) -> int:
    """Certified number of dispersion zeros (with multiplicity) inside the region,
    counted as the winding number of the pole-free sigma^2 D(sigma) around its
    boundary, sampled on that boundary only; a zero on or too close to the
    contour raises BoundaryRoot, and one crossing a bump's support edge below
    the axis StripViolation (`quadrature._bump_gate`)."""
    # feature scale: half the smaller of c0 and half the narrowest width or eta
    scale = 0.5 * min(params.c0, 0.5 * profiles.narrowest_width(profile))
    return _winding_number(lambda z: _pole_free(params, profile, z), region, scale,
                           profiles.support_bounds(profile), profiles.bump_edges(profile))


def _newton(func, z0: complex, tol: float,
            trust_radius: float = math.inf) -> tuple[complex, int, complex]:
    """(z, steps, F(z)), |F(z)| <= tol, by Newton from z0 calling func(z) = (F, F') once
    per step; steps are cut to the trust radius, and an iterate beyond it raises."""
    z = complex(z0)
    for it in range(1, _NEWTON_MAX_ITER + 2):
        fz, d = func(z)
        if abs(fz) <= tol:
            return z, min(it, _NEWTON_MAX_ITER), fz
        if it > _NEWTON_MAX_ITER or d == 0:
            break
        if abs(z - z0) > trust_radius:
            raise NonConvergence("Newton iterate escaped its isolating rectangle")
        step = fz / d
        if abs(step) > trust_radius:
            step *= trust_radius / abs(step)
        z = z - step
    raise NonConvergence(f"Newton stalled at |D| = {abs(fz):.3g} (tol {tol:.3g})")


def _seeded_root(func, seed: complex, scale: float,
                 marks: tuple[float, ...]) -> RootReport:
    """Newton on func(z, True), the value and derivative of func, from the seed to
    |func| <= 1e-12 within scale/2 of it, then a winding count of func (the
    report's evidence, for the caller to check) on the square of half-width
    max(1e-3 scale, |Im z|/2) around the iterate z: an upper root's square stays
    above the axis. A lower square also samples the ``marks`` (the bump support
    edges of func's profile), so that one crossing an edge is refused too."""
    z, iters, fz = _newton(lambda s: func(s, True), seed, 1e-12, trust_radius=0.5 * scale)
    half = max(1e-3 * scale, 0.5 * abs(z.imag))
    evidence = _winding_number(func, SearchRegion(z.real - half, z.real + half,
                                                  z.imag - half, z.imag + half),
                               marks=marks)
    return RootReport(sigma=z, residual=abs(fz),
                      branch=quadrature.classify_branch(z), winding_evidence=evidence,
                      newton_iters=iters)


def find_roots(params: SprayParams, profile: VelocityProfile, region: SearchRegion,
               tol: float = _ROOT_TOL) -> list[RootReport]:
    """All dispersion zeros in the region, certified by winding counts.

    A rectangle counted to hold one root is solved by Newton (with the analytic
    derivative of the continued function, from the same evaluation) from its
    centre, and bisected only if the iterate does not converge inside it; rectangles
    with more roots are bisected until they isolate single roots or shrink to
    the Newton box, where deflation handles clustered roots. Every count runs
    on the region or one of its parts: a root on or too close to the region's
    boundary raises BoundaryRoot, while a bisection line is nudged off a root.
    """
    tol = max(tol, 1e-14)
    subdiv_floor = 1e-3 * params.c0
    newton_box = 0.1 * params.c0
    roots: list[RootReport] = []

    def deflated(s: complex, prior: list) -> tuple[complex, complex]:
        """(D/Pi, (D' - D sum 1/(s - r))/Pi), Pi the product of s - r over prior roots."""
        d, dd = dispersion_value(params, profile, s, True)
        pi = math.prod(s - r for r in prior)
        return d / pi, (dd - d * sum(1.0 / (s - r) for r in prior)) / pi

    def polish(reg: SearchRegion, n: int, trust_radius: float) -> None:
        found: list[RootReport] = []
        for _ in range(n):
            prior = [r.sigma for r in found]
            z, iters, fz = _newton(lambda s: deflated(s, prior), reg.center, tol,
                                   trust_radius=trust_radius)
            if not reg.contains(z):       # a root the count did not certify
                raise NonConvergence("Newton converged outside its rectangle")
            found.append(RootReport(sigma=z, winding_evidence=n, newton_iters=iters,
                                    residual=abs(fz * math.prod(z - r for r in prior)),
                                    branch=quadrature.classify_branch(z)))
        roots.extend(found)       # all or nothing: a failed polish bisects

    def recurse(reg: SearchRegion, count: int | None = None, depth: int = 0):
        n = count_roots(params, profile, reg) if count is None else count
        if n < 0:
            raise NonConvergence("negative winding count: phase walk fault")
        if n == 0:
            return
        diam = max(reg.re_max - reg.re_min, reg.im_max - reg.im_min)
        small = diam <= newton_box or diam <= subdiv_floor or depth > 40
        if small or n == 1:
            # a small box is Newton's local basin, and in a larger one the count
            # certifies the one root; a failure (a centre on the pole, an iterate
            # at a bump's support edge, say) bisects
            try:
                polish(reg, n, (5.0 if small else 1.0) * reg.diameter)
                return
            except SprayWaveError:
                if depth > 40 or diam <= subdiv_floor:
                    raise
        # bisect the longer side, nudging the cut if a root sits on it
        horizontal = (reg.re_max - reg.re_min) >= (reg.im_max - reg.im_min)
        for frac in (0.5, 0.43, 0.57, 0.35):
            if horizontal:
                cut = reg.re_min + frac * (reg.re_max - reg.re_min)
                first, second = replace(reg, re_max=cut), replace(reg, re_min=cut)
            else:
                cut = reg.im_min + frac * (reg.im_max - reg.im_min)
                first, second = replace(reg, im_max=cut), replace(reg, im_min=cut)
            try:
                n1 = count_roots(params, profile, first)
            except BoundaryRoot:
                continue
            recurse(first, n1, depth + 1)
            recurse(second, n - n1, depth + 1)
            return
        raise BoundaryRoot("could not find a clean bisection line")

    recurse(region)
    return sorted(roots, key=lambda r: (r.sigma.real, r.sigma.imag))


# ---------------------------------------------------------------------------
# thin-spray expansion and the stability verdict
# ---------------------------------------------------------------------------

def damping_rate_at(params: SprayParams, profile: VelocityProfile, c_ref: float) -> float:
    """First-order Im sigma of the wave near the real reference speed c_ref:
    -Im D(c_ref) / Dr'(c_ref), Dr' = Re D' read with D from one evaluation; warns
    that it is unreliable where r = c_ref Dr'(c_ref) / 2 (1 for pure acoustics)
    leaves [0.5, 2], as near a steep edge of f."""
    d, d_prime = dispersion_value(params, profile, c_ref, True)
    d_imag, d_rprime = d.imag, d_prime.real
    if abs(d_rprime) < 1e-8:
        raise DegenerateDerivative(f"|Dr'({c_ref})| = {abs(d_rprime):.3g} < 1e-8")
    r = 0.5 * c_ref * d_rprime
    if not 0.5 <= r <= 2.0:
        warnings.warn(f"first-order rate at c_ref = {c_ref:.6g} is unreliable: "
                      f"c_ref dRe D/dsigma / 2 = {r:.3g} lies outside [0.5, 2]",
                      stacklevel=2)
    return -d_imag / d_rprime


def thin_spray_expansion(params: SprayParams,
                         profile: VelocityProfile) -> tuple[float, float]:
    """(spray sound speed c_star, first-order damping/growth rate gamma).

    c_star = c0 (1 + pref/2 Re C(c0)) = c0 + pref/2 Re C[v f'](c0), pref = kappa
    rho0 c0^2 / alpha0 and Re C(c0) = P.V. int f'(v)/(v - c0) dv;
    gamma = -Di(c_star)/Dr'(c_star).
    """
    if params.kappa == 0.0:
        return params.c0, 0.0
    if params.kappa > 0.1:
        warnings.warn("thin-spray expansion requested at kappa > 0.1",
                      stacklevel=2)
    # on the axis the continuation is P.V. + i pi f'(c0); keep the P.V.
    pv = quadrature.cauchy_transform(profile, params.c0).real
    c_star = params.c0 * (1.0 + 0.5 * coupling_prefactor(params, profile) * pv)
    gamma = damping_rate_at(params, profile, c_star)
    return c_star, gamma


def verdict_region(params: SprayParams, profile: VelocityProfile) -> SearchRegion:
    """The box [-R, R] x [h, 1.05 Y] holding every zero with Im sigma >= h = 1e-6.

    With y = Im sigma > 0, pref the coupling prefactor and N >= ||v f'||_1
    (`quadrature.vdf_norm`): |sigma|, |v - sigma| >= y give |D - 1| <= (c0^2 +
    pref N)/y^2, so no zero lies above Y = sqrt(c0^2 + pref N), and |D| >= 0.09
    at 1.05 Y. For |Re sigma| >= R split the integral at |v| = R/2: |sigma| >= R,
    and |v - sigma| >= R/2 inside, >= h outside, give |D - 1| <= (c0^2 + 2 pref
    N)/R^2 + pref T/(R h), T = int_{|v|>R/2} |v f'| dv. A bump term adds 0 to T
    once R/2 clears its support; a Gaussian part (mass m, drift d, width w) at
    most (2m/w) phi(k) (|d| + w (k + 1/k)), k = (R/2 - |d|)/w, phi the unit normal
    density (|v| <= |d| + w|u| and Mills' ratio in u = (v - d)/w). R grows by 1.25
    from twice the largest of c0, |d| + w and |bump edge| until that is <= 1/2.
    """
    pref, h = coupling_prefactor(params, profile), 1e-6
    norm = quadrature.vdf_norm(profile) if pref else 0.0

    def side_bound(r: float) -> float:
        tail = 0.0
        for g in profile.gaussians:
            m, d, w = g.coef * g.mass, abs(g.drift), g.width
            k = (0.5 * r - d) / w
            tail += (2.0 * m / w * math.exp(-0.5 * k * k) / math.sqrt(2.0 * math.pi)
                     * (d + w * (k + 1.0 / k)))
        return (params.c0**2 + 2.0 * pref * norm) / r**2 + pref * tail / (r * h)

    r = 2.0 * max([params.c0] + [abs(g.drift) + g.width for g in profile.gaussians]
                  + [max(-b.support[0], b.support[1]) for b in profile.bumps])
    while side_bound(r) > 0.5:
        r *= 1.25
    return SearchRegion(-r, r, h, 1.05 * math.sqrt(params.c0**2 + pref * norm))


def spectral_verdict(params: SprayParams, profile: VelocityProfile) -> str:
    """'unstable' if any upper-half zero exists, 'stable' if none and both
    thin-spray waves are damped, 'neutral' otherwise. The count runs on
    `verdict_region`, which holds every zero with Im sigma >= 1e-6."""
    if count_roots(params, profile, verdict_region(params, profile)) >= 1:
        return UNSTABLE
    if params.kappa == 0.0:
        return NEUTRAL
    c_star, gamma_plus = thin_spray_expansion(params, profile)
    gamma_minus = damping_rate_at(params, profile, -c_star)
    if gamma_plus < -1e-12 and gamma_minus < -1e-12:
        return STABLE
    return NEUTRAL
