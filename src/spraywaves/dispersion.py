"""Thick-spray dispersion function: evaluation, root location, and verdicts.

The dispersion function of the linearized particle-laden acoustics depends on
the phase velocity sigma = omega/|k| alone:

    D(sigma) = 1 - c0^2/sigma^2
               - (kappa rho0 c0^2 / alpha0) * (1/sigma) * C[v f'(v)/(v - sigma)],

where C[.] is the branch-correct continuation of the velocity integral from
the upper half-plane (see `quadrature`). Zeros with Im sigma > 0 are unstable
modes; zeros with Im sigma < 0 are decay rates of the continued function, not
regular eigenvalues. Root counts are certified with argument-principle winding
numbers over rectangles, then polished by Newton iteration on the continued
(holomorphic) function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import profiles, quadrature
from .errors import (BoundaryRoot, DegenerateDerivative, NonConvergence,
                     StripViolation, ZeroSigma)
from .profiles import VelocityProfile
from .quadrature import Branch

STABLE = "stable"
UNSTABLE = "unstable"
NEUTRAL = "neutral"

_COMPAT_TOL = 1e-10
_ROOT_TOL = 1e-10
# |sigma| / c0 below which the sigma = 0 pole refuses evaluation (ZeroSigma)
POLE_RADIUS = 1e-14


@dataclass(frozen=True)
class SprayParams:
    """Background state of the linearization (fluid at rest after the Galilean shift)."""

    c0: float
    rho0: float
    kappa: float
    alpha0: float
    u0: float = 0.0

    def __post_init__(self):
        if not (0 < self.c0 < math.inf and 0 < self.rho0 < math.inf):
            raise ValueError("c0 and rho0 must be positive and finite")
        if not 0 <= self.kappa < math.inf:
            raise ValueError("kappa must be >= 0 and finite")
        if not (0.0 < self.alpha0 <= 1.0):
            raise ValueError("alpha0 must lie in (0, 1]")

    @property
    def coupling_prefactor(self) -> float:
        return self.kappa * self.rho0 * self.c0**2 / self.alpha0


def make_params(profile: VelocityProfile, c0: float, rho0: float,
                kappa: float, u0: float = 0.0) -> SprayParams:
    """SprayParams with alpha0 fixed by the volume-fraction compatibility condition."""
    return SprayParams(c0=c0, rho0=rho0, kappa=kappa,
                       alpha0=profiles.compatibility_alpha(profile, kappa), u0=u0)


def check_compatibility(params: SprayParams, profile: VelocityProfile) -> None:
    expected = 1.0 - params.kappa * profile.m0
    if abs(params.alpha0 - expected) > _COMPAT_TOL:
        raise ValueError(
            f"alpha0={params.alpha0} inconsistent with 1 - kappa*m0 = {expected}")


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

    def dilated(self, factor: float) -> "SearchRegion":
        cx = 0.5 * (self.re_min + self.re_max)
        cy = 0.5 * (self.im_min + self.im_max)
        hw = 0.5 * (self.re_max - self.re_min) * factor
        hh = 0.5 * (self.im_max - self.im_min) * factor
        return SearchRegion(cx - hw, cx + hw, cy - hh, cy + hh)

    @property
    def im_reach(self) -> float:
        return max(abs(self.im_min), abs(self.im_max))


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


def dispersion_value(params: SprayParams, profile: VelocityProfile, sigma):
    """Branch-correct dispersion function at complex sigma, or elementwise over
    an ndarray of sigma (ZeroSigma if any point is within the pole radius).

    The continuation term carries the same kappa rho0 c0^2 / alpha0 prefactor
    as the principal-value term (exact holomorphic continuation).
    """
    array = isinstance(sigma, np.ndarray)
    if array:
        sigma = sigma.astype(complex, copy=False)
        nearest = np.abs(sigma).min(initial=math.inf)
    else:
        sigma = complex(sigma)
        nearest = abs(sigma)
    if nearest < POLE_RADIUS * params.c0:
        raise ZeroSigma("dispersion function has a pole at sigma = 0")
    if array:
        # complex ** raises OverflowError where the square overflows; so must this
        with np.errstate(over="raise"):
            base = 1.0 - params.c0**2 / sigma**2
    else:
        base = 1.0 - params.c0**2 / sigma**2
    if params.kappa == 0.0:
        return base
    check_compatibility(params, profile)
    return base - params.coupling_prefactor * quadrature.resonance_integral(
        profile, sigma)


def dispersion_parts(params: SprayParams, profile: VelocityProfile,
                     sigma: float) -> tuple[float, float]:
    """(real, imaginary) split of the on-axis dispersion function.

    On the axis the continuation is the principal value plus the residue
    i pi sigma f'(sigma), so the imaginary part is -pi * pref * f'(sigma).
    """
    sig = complex(sigma)
    if abs(sig.imag) > quadrature.AXIS_TOLERANCE:
        raise ValueError("dispersion_parts requires a real sigma")
    val = dispersion_value(params, profile, sig.real)
    return float(val.real), float(val.imag)


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
        cont = quadrature.cauchy_transform(profile, (1.0,), sigma)
    else:
        cont = quadrature.cauchy_transform(profile, (1.0,), sigma.conjugate()).conjugate()
    return 1.0 - cont / k**2


# ---------------------------------------------------------------------------
# argument-principle machinery
# ---------------------------------------------------------------------------

_MIN_BOUNDARY_MOD = 1e-9
_MAX_WINDING_DEFECT = 0.25   # |winding - round(winding)| must stay below
_PHASE_STEP = 1.0           # max phase increment per boundary step (radians)
_MAX_BOUNDARY_EVALS = 60000


def _winding_numbers(func, regions: list[SearchRegion], n0: int = 48,
                     feature_scale: float | None = None) -> list[int]:
    """Winding number of func around the boundary of each rectangle.

    Adaptive phase walk: segments are bisected until each step turns by less
    than _PHASE_STEP *and* the value magnitude changes by less than a factor
    of e, so a full 2 pi swing between samples cannot alias to a small
    principal-value step. The accumulated phase is then an exact multiple of
    2 pi up to float noise. ``func`` takes an ndarray of points: it is called
    once on the initial edge samples of every rectangle and then once per
    refinement level, on the midpoints of every unresolved segment of every
    rectangle. Whether a segment is resolved depends on its end values only,
    so each rectangle gets the samples of its own depth-first walk, and its
    own `_MAX_BOUNDARY_EVALS` cap. Raises BoundaryRoot when a zero (or a
    resolution limit) sits on a contour, or any winding defect reaches 0.25.
    """
    walks = []
    for region in regions:
        corners = region.corners
        edges = []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            n_edge = n0
            if feature_scale is not None and feature_scale > 0:
                n_edge = max(n0, min(1024, int(math.ceil(abs(b - a) / feature_scale))))
            edges.append(a + (b - a) * np.linspace(0.0, 1.0, n_edge, endpoint=False))
        walks.append(np.concatenate(edges + [edges[0][:1]]))
    # per rectangle: open segments as (start, start value, end, end value)
    # arrays, accumulated phase and samples taken; `live` indexes the open ones
    segs = [(z[:-1], v[:-1], z[1:], v[1:]) for z, v in zip(walks, _joint(func, walks))]
    phase, evals = [0.0] * len(walks), [z.size for z in walks]
    live = list(range(len(walks)))
    while live:
        todo, live, mids = live, [], []
        for k in todo:
            z1, v1, z2, v2 = segs[k]
            if min(np.abs(v1).min(), np.abs(v2).min()) < _MIN_BOUNDARY_MOD:
                raise BoundaryRoot("dispersion value vanishes on the contour")
            dphi = np.angle(v2 / v1)
            ratio = np.abs(v2) / np.abs(v1)
            done = ((np.abs(dphi) <= _PHASE_STEP) & (1.0 / math.e <= ratio)
                    & (ratio <= math.e)) | (np.abs(z2 - z1) < 1e-13 * (1.0 + np.abs(z1)))
            phase[k] += float(dphi[done].sum())
            keep = ~done
            z1, v1, z2, v2 = segs[k] = z1[keep], v1[keep], z2[keep], v2[keep]
            if z1.size:
                evals[k] += z1.size
                if evals[k] > _MAX_BOUNDARY_EVALS:
                    raise BoundaryRoot("phase walk did not resolve the contour")
                live.append(k)
                mids.append(0.5 * (z1 + z2))
        for k, zm, vm in zip(live, mids, _joint(func, mids)):
            z1, v1, z2, v2 = segs[k]
            segs[k] = (np.concatenate((z1, zm)), np.concatenate((v1, vm)),
                       np.concatenate((zm, z2)), np.concatenate((vm, v2)))
    windings = [total / (2.0 * math.pi) for total in phase]
    defect = max((abs(w - round(w)) for w in windings), default=0.0)
    if defect >= _MAX_WINDING_DEFECT:
        raise BoundaryRoot(f"winding defect {defect:.3f} >= {_MAX_WINDING_DEFECT}")
    return [int(round(w)) for w in windings]


def _joint(func, parts: list[np.ndarray]) -> list[np.ndarray]:
    """func of each array of points, in one call over all of them."""
    if len(parts) < 2:
        return [func(part) for part in parts]
    return np.split(func(np.concatenate(parts)), np.cumsum([p.size for p in parts[:-1]]))


def _split_at_pole(params: SprayParams, region: SearchRegion) -> list[SearchRegion]:
    """Split the region so the sigma = 0 pole never lies inside or on a contour.

    Only the square |Re sigma|, |Im sigma| <= g = 1e-3 c0 is cut out: the parts
    left and right of it and the column above and below it stay, so roots on
    the imaginary axis (purely growing or decaying modes) are still counted.
    """
    gap = 1e-3 * params.c0
    r = region
    if not (r.re_min < gap and r.re_max > -gap and r.im_min < gap and r.im_max > -gap):
        return [region]
    lo, hi = max(r.re_min, -gap), min(r.re_max, gap)
    out = []
    if r.re_min < -gap:
        out.append(SearchRegion(r.re_min, -gap, r.im_min, r.im_max))
    if r.re_max > gap:
        out.append(SearchRegion(gap, r.re_max, r.im_min, r.im_max))
    if r.im_max > gap:
        out.append(SearchRegion(lo, hi, gap, r.im_max))
    if r.im_min < -gap:
        out.append(SearchRegion(lo, hi, r.im_min, -gap))
    return out


def count_roots(params: SprayParams, profile: VelocityProfile, region: SearchRegion,
                *, max_dilations: int = 3) -> int:
    """Certified number of dispersion zeros (with multiplicity) inside the region.

    A zero too close to the contour triggers up to `max_dilations` 1% dilations
    before BoundaryRoot propagates (bisection passes 0 to keep sub-counts
    attached to exact rectangles).
    """
    strip = profile.strip_halfwidth
    # the upper branch needs no analyticity strip, so only a box that reaches
    # below the axis is checked
    if region.im_min < 0.0 and region.im_reach > strip:
        raise StripViolation("search region exceeds the profile analyticity strip")
    func = lambda z: dispersion_value(params, profile, z)
    scale = 0.5 * min(params.c0, profile.width, strip)
    current = region
    for attempt in range(max_dilations + 1):
        try:
            # re-split after every dilation so a grown edge cannot cross the
            # sigma = 0 pole; the parts are walked together
            return sum(_winding_numbers(func, _split_at_pole(params, current),
                                        feature_scale=scale))
        except BoundaryRoot:
            if attempt == max_dilations:
                raise
            current = current.dilated(1.01)
            if current.im_min < 0.0 and current.im_reach > strip:
                raise
    raise AssertionError("unreachable")


def _newton(func, z0: complex, tol: float, max_iter: int = 80,
            h_rel: float = 1e-7, trust_radius: float = math.inf) -> tuple[complex, int]:
    z = complex(z0)
    for it in range(1, max_iter + 1):
        fz = func(z)
        if abs(fz) <= tol:
            return z, it
        if abs(z - z0) > trust_radius:
            raise NonConvergence("Newton iterate escaped its isolating rectangle")
        h = h_rel * max(1.0, abs(z))
        d = (func(z + 1j * h) - func(z - 1j * h)) / (2j * h)
        if d == 0:
            break
        step = fz / d
        if abs(step) > trust_radius:
            step *= trust_radius / abs(step)
        z = z - step
    fz = func(z)
    if abs(fz) <= tol:
        return z, max_iter
    raise NonConvergence(f"Newton stalled at |D| = {abs(fz):.3g} (tol {tol:.3g})")


def find_roots(params: SprayParams, profile: VelocityProfile, region: SearchRegion,
               tol: float = _ROOT_TOL) -> list[RootReport]:
    """All dispersion zeros in the region, certified by winding counts.

    Rectangles are bisected until they isolate single roots, then Newton (with
    a complex central-difference derivative of the continued function) refines
    each; deflation handles clustered roots below the bisection floor.
    """
    tol = max(tol, 1e-14)
    func = lambda z: dispersion_value(params, profile, z)
    subdiv_floor = 1e-3 * params.c0
    newton_box = 0.1 * params.c0
    roots: list[tuple[complex, int, int]] = []

    def polish(reg: SearchRegion, n: int) -> None:
        center = complex(0.5 * (reg.re_min + reg.re_max),
                         0.5 * (reg.im_min + reg.im_max))
        diam = math.hypot(reg.re_max - reg.re_min, reg.im_max - reg.im_min)
        found: list[complex] = []
        target = func
        for _ in range(n):
            z, iters = _newton(target, center, tol, trust_radius=5.0 * diam)
            found.append(z)
            roots.append((z, n, iters))
            prev = list(found)
            target = lambda s, _prev=prev: func(s) / np.prod([s - r for r in _prev])

    def recurse(reg: SearchRegion, count: int | None = None, depth: int = 0):
        n = count_roots(params, profile, reg) if count is None else count
        if n < 0:
            raise NonConvergence("negative winding count: pole inside search region")
        if n == 0:
            return
        diam = max(reg.re_max - reg.re_min, reg.im_max - reg.im_min)
        if diam <= newton_box or diam <= subdiv_floor or depth > 40:
            # small enough for Newton to start inside the local basin
            try:
                polish(reg, n)
                return
            except NonConvergence:
                if depth > 40 or diam <= subdiv_floor:
                    raise
        # bisect the longer side, nudging the cut if a root sits on it
        horizontal = (reg.re_max - reg.re_min) >= (reg.im_max - reg.im_min)
        for frac in (0.5, 0.43, 0.57, 0.35):
            if horizontal:
                cut = reg.re_min + frac * (reg.re_max - reg.re_min)
                first = SearchRegion(reg.re_min, cut, reg.im_min, reg.im_max)
                second = SearchRegion(cut, reg.re_max, reg.im_min, reg.im_max)
            else:
                cut = reg.im_min + frac * (reg.im_max - reg.im_min)
                first = SearchRegion(reg.re_min, reg.re_max, reg.im_min, cut)
                second = SearchRegion(reg.re_min, reg.re_max, cut, reg.im_max)
            try:
                n1 = count_roots(params, profile, first, max_dilations=0)
            except BoundaryRoot:
                continue
            recurse(first, n1, depth + 1)
            recurse(second, n - n1, depth + 1)
            return
        raise BoundaryRoot("could not find a clean bisection line")

    recurse(region)
    reports = []
    for z, evidence, iters in sorted(roots, key=lambda t: (t[0].real, t[0].imag)):
        reports.append(RootReport(sigma=z, residual=abs(func(z)),
                                  branch=quadrature.classify_branch(z),
                                  winding_evidence=evidence, newton_iters=iters))
    return reports


# ---------------------------------------------------------------------------
# thin-spray expansion and the stability verdict
# ---------------------------------------------------------------------------

def _axis_rderivative(params: SprayParams, profile: VelocityProfile, x0: float) -> float:
    """d/dsigma of the real part of the on-axis dispersion function."""
    h = 1e-6 * max(1.0, abs(x0))
    dr_p, _ = dispersion_parts(params, profile, x0 + h)
    dr_m, _ = dispersion_parts(params, profile, x0 - h)
    return (dr_p - dr_m) / (2.0 * h)


def damping_rate_at(params: SprayParams, profile: VelocityProfile, c_ref: float) -> float:
    """First-order Im sigma of the wave near the real reference speed c_ref."""
    _, d_imag = dispersion_parts(params, profile, c_ref)
    d_rprime = _axis_rderivative(params, profile, c_ref)
    if abs(d_rprime) < 1e-8:
        raise DegenerateDerivative(f"|Dr'({c_ref})| = {abs(d_rprime):.3g} < 1e-8")
    return -d_imag / d_rprime


def thin_spray_expansion(params: SprayParams,
                         profile: VelocityProfile) -> tuple[float, float]:
    """(spray sound speed c_star, first-order damping/growth rate gamma).

    c_star = c0 * (1 + pref/2 * P.V. int f'(v)/(v - c0) dv) with
    pref = kappa rho0 c0^2 / alpha0; gamma = -Di(c_star)/Dr'(c_star).
    """
    if params.kappa == 0.0:
        return params.c0, 0.0
    if params.kappa > 0.1:
        warnings.warn("thin-spray expansion requested at kappa > 0.1",
                      stacklevel=2)
    check_compatibility(params, profile)
    # on the axis the continuation is P.V. + i pi f'(c0); keep the P.V.
    pv = quadrature.cauchy_transform(profile, (1.0,), params.c0).real
    c_star = params.c0 * (1.0 + 0.5 * params.coupling_prefactor * pv)
    gamma = damping_rate_at(params, profile, c_star)
    return c_star, gamma


def default_region(params: SprayParams, profile: VelocityProfile) -> SearchRegion:
    """Heuristic search box: |Re sigma| <= |drift| + 5 (c0 + width), |Im sigma| <=
    half the analyticity strip, which count_roots requires only of boxes reaching
    below the axis. The cap bounds no root, so spectral_verdict misses unstable
    roots above it: bump eps=0.3, eta=0.5, c_star=c0=5, kappa=0.05 has a root near
    4.567+0.756i and is reported 'stable'."""
    re_span = abs(profile.drift) + 5.0 * (params.c0 + profile.width)
    return SearchRegion(-re_span, re_span, -0.5 * profile.strip_halfwidth,
                        0.5 * profile.strip_halfwidth)


def spectral_verdict(params: SprayParams, profile: VelocityProfile,
                     region: SearchRegion | None = None) -> str:
    """'unstable' if any upper-half zero exists, 'stable' if none and both
    thin-spray waves are damped, 'neutral' otherwise."""
    if region is None:
        region = default_region(params, profile)
    upper = SearchRegion(region.re_min, region.re_max,
                         max(region.im_min, 1e-6), region.im_max)
    if count_roots(params, profile, upper) >= 1:
        return UNSTABLE
    if params.kappa == 0.0:
        return NEUTRAL
    c_star, gamma_plus = thin_spray_expansion(params, profile)
    gamma_minus = damping_rate_at(params, profile, -c_star)
    if gamma_plus < -1e-12 and gamma_minus < -1e-12:
        return STABLE
    return NEUTRAL
