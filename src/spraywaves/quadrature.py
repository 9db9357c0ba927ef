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
  int_a^b (g(v) - c)/(v - s) dv + c (log(b - s) - log(a - s)), c = g(s). The
  first term is analytic in v wherever g is, so Gauss nodes over the support
  (cut only at the bump's breakpoints) and g on them are built once per
  profile and weight. Its sum over the nodes runs in real
  arithmetic; for an ndarray of s, g(s), the log terms and that sum run over
  all ordinary points at once, in blocks of (s, node) pairs that stay in
  cache. Where g(s) is refused (the edge margin, beyond the strip) at least 10
  node gaps above the axis, c = 0: the nodes resolve g(v)/(v - s) there as it
  stands. Points within 1e-2 of a node weight of a node, where the sum would
  lose digits, and refused points closer to the axis go one at a time through
  `_pinned_part`: panel edges pinned at Re s and Re s +- w, and c = g(Re s)
  where g(s) is refused, which is exact above the axis, within O(Im s) just
  below it and refused farther down. Far from the support, where the plain
  node sum is the continued value, 34 cached moments of the nodes give that sum
  (`_far_sum`; Greengard & Rokhlin 1987, J. Comput. Phys. 73, 325).
"""

from __future__ import annotations

import enum
import math
import numpy as np

from . import _gauss, profiles
from ._faddeeva import faddeeva
from .errors import StripViolation, ZeroSigma

# |Im sigma| below which a real-axis g value may stand in for g(sigma) when
# the true complex value is unavailable (bump support edges)
_AXIS_FALLBACK_FRACTION = 0.05
# halfwidth of the panels pinned around Re sigma by the subtraction fallback
_PIN_WINDOW = 1.0
_SQRT_PI = math.sqrt(math.pi)


# Gauss nodes over a bump support, and |Im sigma| up to which sigma counts as
# on the real axis
NODES = 256
AXIS_TOLERANCE = 1e-12

# Far field of a bump term: with u_j = (v_j - m)/h in (-1, 1) (support centre m,
# half-width h) and t = h/(sigma - m), 1/(v_j - sigma) = -(t/h) sum_k (t u_j)^k,
# so the plain node sum is -(t/h) sum_k mu_k t^k, mu_k = sum_j g(v_j) w_j u_j^k.
# For |sigma - m| >= rho h the terms from k = K on add at most sum_j |g(v_j) w_j|
# (|t|/h) rho^-K/(1 - 1/rho), below 2^-53 of that scale from K = 34 at rho = 3.
_FAR_RHO, _FAR_TERMS = 3.0, 34


class Branch(enum.Enum):
    UPPER = "upper"
    REAL_AXIS = "real_axis"
    LOWER = "lower"


def classify_branch(sigma):
    """Branch of sigma; an object array of branches for an ndarray sigma."""
    tol = AXIS_TOLERANCE
    if isinstance(sigma, np.ndarray):
        im = sigma.imag
        return np.where(im > tol, Branch.UPPER,
                        np.where(im < -tol, Branch.LOWER, Branch.REAL_AXIS))
    im = complex(sigma).imag
    return Branch.UPPER if im > tol else Branch.LOWER if im < -tol else Branch.REAL_AXIS


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
                     sigma):
    """Branch-correct continuation of int p(v) f'(v)/(v - sigma) dv from above.

    ``weight`` holds the coefficients of the real polynomial p in ascending
    powers of v. ``sigma`` is a point or an ndarray of points; an array gives
    the values elementwise, in its shape, and raises where any point would.
    Maxwellian parts are summed in closed form (over the whole array at once);
    on the lower branch beyond a part's strip halfwidth they raise
    StripViolation. Bump terms are sums over nodes cached in
    ``profile.node_sets``, in real arithmetic; an array's ordinary points are
    summed together in blocks of (sigma, node) pairs (`_bump_array`).
    """
    if isinstance(sigma, np.ndarray):
        return _cauchy_array(profile, tuple(weight), sigma)
    sigma, weight = complex(sigma), tuple(weight)
    branch = classify_branch(sigma)
    if branch is Branch.REAL_AXIS:
        sigma = complex(sigma.real)
    depth = -sigma.imag if branch is Branch.LOWER else 0.0
    gaussians, bumps, scale = profile.quadrature_hints
    total = 0.0
    for part in gaussians:
        total += _maxwellian_part(weight, sigma, depth, *part)
    if bumps:
        for hint, node_set in zip(bumps, _node_sets(profile, weight)):
            total += _bump_part(weight, sigma, branch, scale, *hint, *node_set)
    return complex(total)


def _cauchy_array(profile: profiles.VelocityProfile, weight: tuple[float, ...],
                  sigma: np.ndarray) -> np.ndarray:
    """`cauchy_transform` elementwise over an ndarray of sigma."""
    im = sigma.imag
    sigma = np.where((im <= AXIS_TOLERANCE) & (im >= -AXIS_TOLERANCE),
                     sigma.real, sigma).astype(complex, copy=False)
    depth = -float(sigma.imag.min(initial=0.0))
    gaussians, bumps, scale = profile.quadrature_hints
    total = np.zeros(sigma.shape, dtype=complex)
    for part in gaussians:
        total += _maxwellian_part(weight, sigma, depth, *part)
    if bumps:
        points = sigma.ravel()
        for hint, node_set in zip(bumps, _node_sets(profile, weight)):
            total += _bump_array(weight, points, scale, *hint,
                                 *node_set).reshape(sigma.shape)
    return total


def _node_sets(profile: profiles.VelocityProfile, weight: tuple[float, ...]) -> tuple:
    """`_bump_nodes` of each bump term, built once per profile and weight."""
    node_sets = profile.node_sets.get(weight)
    if node_sets is None:
        _, bumps, scale = profile.quadrature_hints
        node_sets = profile.node_sets[weight] = tuple(
            _bump_nodes(weight, scale, *hint) for hint in bumps)
    return node_sets


def _bump_nodes(weight: tuple[float, ...], scale: float,
                bump: profiles.VelocityProfile, coef: float,
                support: tuple[float, float], breakpoints: tuple[float, ...]) -> tuple:
    """Gauss nodes vs and weights ws over one bump support cut at its
    breakpoints, g(v) = coef p(v) f_bump'(v) on real nodes (in real
    arithmetic), g(vs), the far field (the support's centre m and half-width h,
    and the moments mu_K-1 .. mu_0), the near-node radius and the plain-sum
    height: 10 times the largest node gap."""
    vs, ws = _gauss.segment_panels(*support, breakpoints, scale, NODES)
    g = lambda v: coef * _poly(weight, v) * np.real(profiles._bump_df(bump, v))
    gvs, (a, b) = g(vs), support
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    # a running product: np.vander would add its n x K temporary to the peak RSS
    u, term, moments = (vs - centre) / half, gvs * ws, []
    for _ in range(_FAR_TERMS):
        moments.append(float(term.sum()))
        term *= u
    return (vs, ws, g, gvs, (centre, half, tuple(moments[::-1])),
            float(1e-2 * ws.max()), float(10.0 * np.diff(vs).max()))


def _poly(weight: tuple[float, ...], v):
    p = weight[-1]
    for c in reversed(weight[:-1]):
        p = p * v + c
    return p


def _log(z: complex) -> complex:
    return complex(math.log(abs(z)), math.atan2(z.imag, z.real))


def _bump_part(weight: tuple[float, ...], sigma: complex, branch: Branch, scale: float,
               bump: profiles.VelocityProfile, coef: float, support: tuple[float, float],
               breakpoints: tuple[float, ...], vs: np.ndarray, ws: np.ndarray, g,
               gvs: np.ndarray, field: tuple, near: float, plain: float) -> complex:
    """Continued int p(v) f_bump'(v)/(v - sigma) dv for one bump term.

    The subtracted integrand (g(v) - g(sigma))/(v - sigma) is analytic in v, so
    one sum over the fixed support nodes vs (with g(vs) = gvs) serves every
    sigma (`_subtracted_sums`); `_bump_gate` says where that sum does not
    serve, and `_far` where the moments give the plain sum.
    """
    refused, pinned = _bump_gate(bump, sigma, vs, ws, near, plain, scale)
    if pinned:
        c = _g_at(weight, bump, coef, complex(sigma.real) if refused else sigma)
        return _pinned_part(g, c, sigma, branch, support, breakpoints, scale, NODES)
    if _far(sigma, field):
        return _far_sum(field, sigma)
    c = 0j if refused else _g_at(weight, bump, coef, sigma)
    return _plus_log_part(complex(_subtracted_sums(vs, ws, gvs, sigma, c)), c, sigma,
                          branch, *support)


def _bump_array(weight: tuple[float, ...], sigma: np.ndarray, scale: float,
                bump: profiles.VelocityProfile, coef: float, support: tuple[float, float],
                breakpoints: tuple[float, ...], vs: np.ndarray, ws: np.ndarray, g,
                gvs: np.ndarray, field: tuple, near: float, plain: float) -> np.ndarray:
    """`_bump_part` elementwise over a 1-D array of sigma (axis points exactly
    real): the far-field series, then g(sigma) and the subtracted sums, each for
    all points it serves at once, the pinned ones one at a time."""
    refused, pinned = _bump_gate(bump, sigma, vs, ws, near, plain, scale)
    far = ~pinned & _far(sigma, field)
    summed = ~(pinned | far)
    out = np.empty(sigma.shape, dtype=complex)
    if far.any():
        out[far] = _far_sum(field, sigma[far])
    if summed.any():
        s = sigma[summed]
        cs = np.zeros(s.shape, dtype=complex)
        ok = ~refused[summed]
        cs[ok] = coef * _poly(weight, s[ok]) * profiles._bump_df(bump, s[ok])
        out[summed] = _plus_log_part(_subtracted_sums(vs, ws, gvs, s, cs), cs, s, None,
                                     *support)
    for i in np.flatnonzero(pinned).tolist():
        z = complex(sigma[i])
        ci = _g_at(weight, bump, coef, complex(z.real) if refused[i] else z)
        out[i] = _pinned_part(g, ci, z, classify_branch(z), support, breakpoints, scale,
                              NODES)
    return out


def _bump_gate(bump: profiles.VelocityProfile, sigma, vs: np.ndarray, ws: np.ndarray,
               near: float, plain: float, scale: float):
    """(refused, pinned) for a bump term at sigma, a point or elementwise over a
    1-D array: refused where g(sigma) is (the edge margin, beyond the strip),
    pinned where the sum goes on `_pinned_part`'s panels instead of the node sum
    with c = g(sigma): within 1e-2 of a node weight of a node, or refused below
    `plain`. Refused at least `plain` above the axis, nothing is subtracted (c =
    0): there the nodes resolve g(v)/(v - sigma) as it stands. Raises
    StripViolation where g(sigma) is refused more than 0.05 scale below the
    axis."""
    refused = profiles._bump_df_refused(bump, sigma)
    # above the axis any constant subtracts exactly, and close below it
    # g(Re sigma) stands in for the continuation (exact up to O(Im sigma));
    # farther down the residue 2 i pi g(sigma) needs the strip
    deep = refused & (sigma.imag < -_AXIS_FALLBACK_FRACTION * scale)
    # a bool at one point, where np.any would cost more than the gate itself
    if deep if isinstance(deep, bool) else deep.any():
        raise StripViolation("complex evaluation of the bump term refused at "
                             f"{complex(np.ravel(sigma)[np.argmax(deep)])}")
    return refused, (refused & (sigma.imag < plain)) | _near_node(vs, ws, sigma, near)


def _far(sigma, field: tuple):
    """Whether `_far_sum` gives the bump term at an unpinned point (elementwise): rho
    or more half-widths from the centre, on or above the axis or off the support."""
    centre, half, _ = field
    d = sigma - centre
    return (abs(d) >= _FAR_RHO * half) & ((sigma.imag >= 0.0) | (abs(d.real) >= half))


def _far_sum(field: tuple, sigma):
    """sum_j g(v_j) w_j/(v_j - sigma) = -(t/h) sum_k mu_k t^k, t = h/(sigma - m),
    by Horner over the moments, at a point or elementwise over an ndarray."""
    centre, half, moments = field
    t = half / (sigma - centre)
    acc = 0.0
    for mu in moments:
        acc = acc * t + mu
    return -(t / half) * acc


def _g_at(weight: tuple[float, ...], bump: profiles.VelocityProfile, coef: float,
          s: complex) -> complex:
    """g(s) at a point `_bump_gate` has not refused, or on the axis."""
    return coef * _poly(weight, s) * profiles._bump_df_unrefused(bump, s)


# (sigma, node) pairs per block of `_subtracted_sums`: a block's float
# temporaries (128 KiB each) stay in cache
_BLOCK = 16384


def _subtracted_sums(vs: np.ndarray, ws: np.ndarray, gvs: np.ndarray, sigma, c):
    """sum_j (g(v_j) - c) w_j/(v_j - sigma) in real arithmetic, at one point
    (complex sigma and c) or elementwise over 1-D arrays of sigma and c, in
    blocks of about `_BLOCK` (point, node) pairs."""
    if not isinstance(sigma, np.ndarray):
        return _real_split_sum(ws, vs - sigma.real, gvs - c.real, sigma.imag, c.imag)
    out = np.empty(sigma.size, dtype=complex)
    rows = max(1, _BLOCK // vs.size)
    for i in range(0, sigma.size, rows):
        s, ci = sigma[i:i + rows], c[i:i + rows]
        out[i:i + rows] = _real_split_sum(ws, vs - s.real[:, None],
                                          gvs - ci.real[:, None], s.imag, ci.imag)
    return out


def _real_split_sum(ws: np.ndarray, x: np.ndarray, h: np.ndarray, y, c_im):
    """`_subtracted_sums` from x = v_j - Re sigma and h = g(v_j) - Re c (one row
    per point), y = Im sigma and c_im = Im c (floats, or one per row); h is
    overwritten.

    With d = w_j/(x^2 + y^2) the real part is sum h x d + c_im y sum d and the
    imaginary part y sum h d - c_im sum x d. h stays one term: summing g(v_j)
    and c apart would bring back the cancellation the subtraction removes.
    """
    t = x * x
    t += np.square(y)[..., None]           # a column per row; one point broadcasts
    np.reciprocal(t, out=t)                 # d = w t: the dot with ws applies w_j
    sum_d = np.vecdot(t, ws)
    h *= t
    sum_hd = np.vecdot(h, ws)
    t *= x
    sum_xd = np.vecdot(t, ws)
    h *= x
    return np.vecdot(h, ws) + c_im * y * sum_d + 1j * (y * sum_hd - c_im * sum_xd)


def _pinned_part(g, c: complex, sigma: complex, branch: Branch,
                 support: tuple[float, float], breakpoints: tuple[float, ...],
                 scale: float, nodes: int) -> complex:
    """Continued int_a^b g(v)/(v - sigma) dv as int_a^b (g(v) - c)/(v - sigma) dv,
    on panels pinned at Re sigma and Re sigma +- _PIN_WINDOW (at most (b - a)/4)
    with one g call, plus the `_plus_log_part` of c. Exact for any c above the
    axis; on and below it c must be g(sigma) (or within O(Im sigma) of it), and
    Re sigma inside (a, b) unless c = 0."""
    a, b = support
    x0, w = sigma.real, min(_PIN_WINDOW, 0.25 * (b - a))
    vs, ws = _gauss.segment_panels(a, b, (x0 - w, x0, x0 + w) + breakpoints, scale, nodes)
    return _plus_log_part(complex(np.sum((g(vs) - c) / (vs - sigma) * ws)), c, sigma,
                          branch, a, b)


def _plus_log_part(val, c, sigma, branch: Branch | None, a: float, b: float):
    """val + c int_a^b dv/(v - sigma) continued from above: c log((b - sigma)/(a -
    sigma)), the real log plus i pi on the axis, plus 2 i pi c below it. Over
    ndarrays (``branch`` None) elementwise, each point on the axis exactly when
    its Im sigma is 0."""
    if isinstance(sigma, np.ndarray):
        k = np.flatnonzero(c)
        s, ck = sigma[k], c[k]
        axis = s.imag == 0.0
        x, z = s.real[axis], s[~axis]
        log = np.empty(k.size, dtype=complex)
        log[axis] = np.log((b - x) / (x - a)) + 1j * math.pi
        log[~axis] = (np.log(b - z) - np.log(a - z)
                      + np.where(z.imag < 0.0, 2j * math.pi, 0.0))
        val[k] += ck * log
        return val
    if not c:
        # g vanishes outside (a, b) and near its edges, so no log meets zero
        return val
    if branch is Branch.REAL_AXIS:
        return val + c * complex(math.log((b - sigma.real) / (sigma.real - a)), math.pi)
    val += c * (_log(b - sigma) - _log(a - sigma))
    return val + 2j * math.pi * c if branch is Branch.LOWER else val


def _near_node(vs: np.ndarray, ws: np.ndarray, sigma, near: float):
    """Whether sigma lies within `near` of the axis and within 1e-2 w_j of a
    node v_j, where the subtracted sum would lose digits to cancellation; a
    bool at a point, elementwise over an ndarray."""
    if isinstance(sigma, np.ndarray):
        i = vs.searchsorted(sigma.real)
        hit = np.zeros(sigma.shape, dtype=bool)
        for j in (np.maximum(i - 1, 0), np.minimum(i, vs.size - 1)):
            hit |= np.abs(vs[j] - sigma) < 1e-2 * ws[j]
        return hit & (np.abs(sigma.imag) < near)
    if abs(sigma.imag) >= near:
        return False
    i = int(vs.searchsorted(sigma.real))
    return any(abs(vs.item(j) - sigma) < 1e-2 * ws.item(j)
               for j in (i - 1, i) if 0 <= j < vs.size)


def resonance_integral(profile: profiles.VelocityProfile, sigma):
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
    return cauchy_transform(profile, (0.0, 1.0), sigma) / sigma


def resonance_asymptotic(profile: profiles.VelocityProfile, sigma: complex,
                         order: int) -> complex:
    """Large-|sigma| expansion m0/sigma^2 (+ 3 m2/sigma^4 at order 4)."""
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    sigma = complex(sigma)
    out = profiles.moment(profile, 0) / sigma**2
    if order == 4:
        out += 3.0 * profiles.moment(profile, 2) / sigma**4
    return out
