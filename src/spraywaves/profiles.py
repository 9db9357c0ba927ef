"""Equilibrium velocity distributions analytic on a complex strip.

Three kinds are supported:

- ``maxwellian``: f(v) = mass / (sqrt(2 pi) width) * exp(-(v - drift)^2 / (2 width^2)),
  entire in v; the declared strip is a conservative working band.
- ``bump_on_tail``: (1 - eps) * base + (eps * m0 / eta) * g((v - c_star) / eta),
  where g is a fixed smooth unit-mass bump supported on (-1, 1) with g'(0) > 0.
  The bump carries exactly eps * m0 of the base mass, so the total integral is
  preserved.
- ``sum``: plain superposition of component profiles (two-stream style setups).

Profiles are frozen dataclasses and every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _gauss
from .errors import InvalidBump, StripViolation, VacuumViolation

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Fraction of eta around the bump support edges where complex evaluation is
# refused (the compactly supported bump is not analytic across |w| = 1).
BUMP_EDGE_MARGIN = 0.05


@dataclass(frozen=True)
class VelocityProfile:
    """Analytic equilibrium distribution with strip metadata.

    ``mass``/``drift``/``width`` always describe the aggregate distribution
    (total integral, mean bulk velocity, bulk thermal spread); the optional
    fields are populated per ``kind``.
    """

    kind: str
    mass: float = 1.0
    drift: float = 0.0
    width: float = 1.0
    strip_halfwidth: float = 0.0         # filled in __post_init__ when 0
    eps: float | None = None
    eta: float | None = None
    c_star: float | None = None
    base: "VelocityProfile | None" = None
    parts: "tuple[VelocityProfile, ...] | None" = None

    def __post_init__(self):
        if self.kind not in ("maxwellian", "bump_on_tail", "sum"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        for name in ("mass", "drift", "width", "strip_halfwidth", "eps", "eta", "c_star"):
            if not math.isfinite(getattr(self, name) or 0.0):
                raise ValueError(f"{name} must be finite")
        if self.mass <= 0 or self.width <= 0:
            raise ValueError("mass and width must be positive")
        if self.strip_halfwidth == 0.0:
            object.__setattr__(self, "strip_halfwidth", self._default_strip())
        if self.strip_halfwidth <= 0:
            raise ValueError("strip_halfwidth must be positive")
        lo, hi = support_bounds(self)
        if not math.isfinite(hi - lo + 4.0 * self.width):
            raise ValueError("profile support overflows")
        # f' scales like mass / width**2, and a bump term's like eps * mass / eta**2
        slope = self.mass / self.width / self.width
        if self.kind == "bump_on_tail":
            slope = max(slope, self.eps * self.mass / self.eta / self.eta)
        if not math.isfinite(slope):
            raise ValueError("profile derivative scale overflows")
        if self.kind == "bump_on_tail":
            pts = _bump_breakpoints(self)
            if any(x >= y for x, y in zip(pts, pts[1:])):
                raise ValueError("bump support too narrow to resolve at c_star: "
                                 "its panel breakpoints coincide in floating point")

    def _default_strip(self) -> float:
        if self.kind == "maxwellian":
            return 0.5 * self.width
        if self.kind == "bump_on_tail":
            # bump analytic band shrinks with eta; stay well inside
            return min(self.base.strip_halfwidth, 0.5 * self.eta)
        return min(p.strip_halfwidth for p in self.parts)

    @cached_property
    def quadrature_hints(self) -> tuple:
        """f split into Maxwellians (mass with mixture weight, drift, width,
        strip) and bump terms (bump-on-tail profile, weight, support,
        breakpoints), plus the resolution scale; computed once per object."""
        gaussians, bumps = [], []

        def walk(p: VelocityProfile, coef: float) -> None:
            if p.kind == "maxwellian":
                gaussians.append((coef * p.mass, p.drift, p.width, p.strip_halfwidth))
            elif p.kind == "bump_on_tail":
                walk(p.base, coef * (1.0 - p.eps))
                bumps.append((p, coef, (p.c_star - p.eta, p.c_star + p.eta),
                              analyticity_breakpoints(p)))
            else:
                for part in p.parts:
                    walk(part, coef)

        walk(self, 1.0)
        return tuple(gaussians), tuple(bumps), resolution_scale(self)

    @cached_property
    def m0(self) -> float:
        """Total mass moment(self, 0), computed once per object."""
        return moment(self, 0)

    @cached_property
    def node_sets(self) -> dict:
        """Quadrature nodes per weight, filled by `quadrature`."""
        return {}


def maxwellian(mass: float = 1.0, drift: float = 0.0, width: float = 1.0,
               strip_halfwidth: float = 0.0) -> VelocityProfile:
    return VelocityProfile(kind="maxwellian", mass=mass, drift=drift, width=width,
                           strip_halfwidth=strip_halfwidth)


def make_bump_on_tail(base: VelocityProfile, eps: float, eta: float,
                      c_star: float) -> VelocityProfile:
    """Superimpose a narrow unit-sign bump of relative mass ``eps`` at ``c_star``.

    The bump term is (eps * m0 / eta) * g((v - c_star) / eta) with a fixed
    smooth g of unit integral supported on (-1, 1), so the composite carries
    the same total mass as ``base``.
    """
    if not (0.0 < eps < 1.0) or eta <= 0.0:
        raise InvalidBump(f"need 0 < eps < 1 and eta > 0, got eps={eps}, eta={eta}")
    return VelocityProfile(kind="bump_on_tail", mass=base.mass, drift=base.drift,
                           width=base.width, eps=eps, eta=eta, c_star=c_star,
                           base=base)


def profile_sum(*parts: VelocityProfile) -> VelocityProfile:
    if not parts:
        raise ValueError("profile_sum needs at least one component")
    mass = sum(p.mass for p in parts)
    drift = sum(p.mass * p.drift for p in parts) / mass
    width = max(abs(p.drift - drift) + p.width for p in parts)
    return VelocityProfile(kind="sum", mass=mass, drift=drift, width=width,
                           parts=tuple(parts))


# ---------------------------------------------------------------------------
# bump shape g: C (1+w)^2 exp(-1/(1-w^2)) on (-1, 1), zero outside.
# C is fixed numerically so that g has unit integral; g'(0) = 2 C / e > 0.
# ---------------------------------------------------------------------------

def _bump_raw(w):
    w = np.asarray(w)
    out = np.zeros_like(w, dtype=complex)
    inside = np.abs(np.real(w)) < 1.0
    if np.any(inside):
        wi = w[inside]
        out[inside] = (1.0 + wi) ** 2 * np.exp(-1.0 / (1.0 - wi * wi))
    return out


def _bump_shape_deriv(w, exp):
    """g'(w) inside (-1, 1), for numpy arrays or (with a scalar exp) numbers."""
    q = 1.0 - w * w
    return exp(-1.0 / q) * (1.0 + w) * (2.0 - 2.0 * w * (1.0 + w) / (q * q))


def _bump_raw_deriv(w):
    w = np.asarray(w)
    out = np.zeros_like(w, dtype=complex)
    inside = np.abs(np.real(w)) < 1.0
    if np.any(inside):
        out[inside] = _bump_shape_deriv(w[inside], np.exp)
    return out


def _exp(z: complex) -> complex:
    r = math.exp(z.real)
    return complex(r * math.cos(z.imag), r * math.sin(z.imag))


@lru_cache(maxsize=1)
def _bump_constants() -> tuple[float, float, float]:
    """(normalization C, first moment of g, second moment of g)."""
    nodes, weights = _gauss.panel_nodes(-1.0, 1.0, 64, 12)
    raw = np.real(_bump_raw(nodes))
    i0 = float(np.sum(raw * weights))
    m1 = float(np.sum(nodes * raw * weights)) / i0
    m2 = float(np.sum(nodes**2 * raw * weights)) / i0
    return 1.0 / i0, m1, m2


def _check_strip(profile: VelocityProfile, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    im = np.imag(v)
    if np.any(np.abs(im) > profile.strip_halfwidth * (1.0 + 1e-12)):
        raise StripViolation(
            f"|Im v| = {np.max(np.abs(im)):.3g} exceeds strip halfwidth "
            f"{profile.strip_halfwidth:.3g}")
    if profile.kind == "bump_on_tail" and np.any(_bump_df_refused(profile, v)):
        raise StripViolation("complex evaluation within the bump support-edge margin")
    if profile.kind == "sum":
        for p in profile.parts:
            _check_strip(p, v)
    return v


def _eval_f_raw(profile: VelocityProfile, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if profile.kind == "maxwellian":
        z = (v - profile.drift) / profile.width
        return profile.mass / (_SQRT_2PI * profile.width) * np.exp(-0.5 * z * z)
    if profile.kind == "bump_on_tail":
        c, _, _ = _bump_constants()
        w = (v - profile.c_star) / profile.eta
        amp = profile.eps * profile.base.m0 / profile.eta
        return (1.0 - profile.eps) * _eval_f_raw(profile.base, v) + amp * c * _bump_raw(w)
    return sum(_eval_f_raw(p, v) for p in profile.parts)


def _eval_df_raw(profile: VelocityProfile, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if profile.kind == "maxwellian":
        return -(v - profile.drift) / profile.width**2 * _eval_f_raw(profile, v)
    if profile.kind == "bump_on_tail":
        return (1.0 - profile.eps) * _eval_df_raw(profile.base, v) + _bump_df(profile, v)
    return sum(_eval_df_raw(p, v) for p in profile.parts)


def _bump_df_scale(profile: VelocityProfile) -> float:
    c, _, _ = _bump_constants()
    return profile.eps * profile.base.m0 / profile.eta**2 * c


def _bump_df(profile: VelocityProfile, v) -> np.ndarray:
    """Velocity derivative of the bump term alone of a bump-on-tail profile."""
    return _bump_df_scale(profile) * _bump_raw_deriv(
        (np.asarray(v) - profile.c_star) / profile.eta)


def _bump_df_refused(profile: VelocityProfile, s):
    """Whether `_check_strip` refuses complex evaluation of the bump term of a
    bump-on-tail profile at s (off the axis, beyond the strip or within the
    support-edge margin): a bool at a point, elementwise over an ndarray."""
    w_re = (s.real - profile.c_star) / profile.eta
    return (s.imag != 0.0) & ((abs(s.imag) > profile.strip_halfwidth * (1.0 + 1e-12))
                              | (abs(abs(w_re) - 1.0) < BUMP_EDGE_MARGIN))


def _bump_df_at(profile: VelocityProfile, s: complex) -> complex:
    """`_bump_df` at one complex point in plain Python, refused where
    `_bump_df_refused` says so."""
    if _bump_df_refused(profile, s):
        raise StripViolation(f"complex evaluation of the bump term refused at {s}")
    return _bump_df_unrefused(profile, s)


def _bump_df_unrefused(profile: VelocityProfile, s: complex) -> complex:
    """`_bump_df_at` at a point `_bump_df_refused` has passed."""
    w = (s - profile.c_star) / profile.eta
    if not abs(w.real) < 1.0:
        return 0j
    return _bump_df_scale(profile) * _bump_shape_deriv(w, _exp)


def eval_f(profile: VelocityProfile, v):
    """Analytic extension of the distribution at complex v (real >= 0 on the axis)."""
    v = _check_strip(profile, v)
    out = _eval_f_raw(profile, v)
    if np.all(np.imag(v) == 0.0):
        out = np.real(out) + 0.0j
    return out if out.shape else complex(out)


def eval_df(profile: VelocityProfile, v):
    """Closed-form velocity derivative of the analytic extension."""
    v = _check_strip(profile, v)
    out = _eval_df_raw(profile, v)
    if np.all(np.imag(v) == 0.0):
        out = np.real(out) + 0.0j
    return out if out.shape else complex(out)


def support_bounds(profile: VelocityProfile) -> tuple[float, float]:
    """Interval outside which the distribution is negligible."""
    if profile.kind == "maxwellian":
        return (profile.drift - 10.0 * profile.width,
                profile.drift + 10.0 * profile.width)
    if profile.kind == "bump_on_tail":
        lo, hi = support_bounds(profile.base)
        return (min(lo, profile.c_star - 5.0 * profile.eta),
                max(hi, profile.c_star + 5.0 * profile.eta))
    los, his = zip(*(support_bounds(p) for p in profile.parts))
    return (min(los), max(his))


def resolution_scale(profile: VelocityProfile) -> float:
    """Smallest velocity feature size (quadrature panel sizing hint)."""
    if profile.kind == "maxwellian":
        return profile.width
    if profile.kind == "bump_on_tail":
        return min(resolution_scale(profile.base), 0.5 * profile.eta)
    return min(resolution_scale(p) for p in profile.parts)


def analyticity_breakpoints(profile: VelocityProfile) -> tuple[float, ...]:
    """Panel edges that must be honored when integrating across this profile.

    The compact bump is smooth but not analytic at its support edges; panels
    are pinned there and graded geometrically into the support so Gauss
    quadrature keeps spectral accuracy.
    """
    if profile.kind == "maxwellian":
        return ()
    if profile.kind == "bump_on_tail":
        return _bump_breakpoints(profile) + analyticity_breakpoints(profile.base)
    return sum((analyticity_breakpoints(p) for p in profile.parts), ())


def _bump_breakpoints(profile: VelocityProfile) -> tuple[float, ...]:
    """The bump's support edges and 8 panel edges graded geometrically into each."""
    lo, hi = profile.c_star - profile.eta, profile.c_star + profile.eta
    hs = [profile.eta * 2.0 ** (-j) for j in range(1, 9)]
    return tuple(sorted([lo, hi, *(lo + h for h in hs), *(hi - h for h in hs)]))


def moment(profile: VelocityProfile, order: int) -> float:
    """Velocity moment of f of order 0 or 2, in closed form: the Gaussian
    moments, and for the bump term those of its shape from `_bump_constants`."""
    if order not in (0, 2):
        raise ValueError("moment order must be 0 or 2")
    if profile.kind == "maxwellian":
        return profile.mass * (1.0 if order == 0
                               else profile.width**2 + profile.drift**2)
    if profile.kind == "bump_on_tail":
        _, m1, m2 = _bump_constants()
        c, eta = profile.c_star, profile.eta
        bump = 1.0 if order == 0 else c * c + 2.0 * c * eta * m1 + eta * eta * m2
        return ((1.0 - profile.eps) * moment(profile.base, order)
                + profile.eps * profile.base.m0 * bump)
    return sum(moment(p, order) for p in profile.parts)


def compatibility_alpha(profile: VelocityProfile, kappa: float) -> float:
    """Background volume fraction alpha0 = 1 - kappa * m0, required positive."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    alpha0 = 1.0 - kappa * profile.m0
    if alpha0 <= 0.0:
        raise VacuumViolation(
            f"kappa * m0 = {kappa * profile.m0:.6g} >= 1 leaves no fluid volume")
    return alpha0
