"""Continued Cauchy transforms of velocity profiles on all three branches.

sigma -> int g(v)/(v - sigma) dv, continued holomorphically from the upper
half-plane, is the plain integral above the real axis, the principal value
+ i pi g(sigma) on it, and the plain integral + 2 i pi g(sigma) below it. For
g = p f' with a polynomial weight p (`cauchy_transform`) it is linear in f:

- Gaussian parts are exact. With p(v) = p(sigma) + (v - sigma) t(v),
  int p f'/(v - sigma) dv = -(m/w^2) p(sigma) (1 + zeta Z(zeta)) - m E[t'(v)],
  where zeta = (sigma - u)/(sqrt(2) w), Z(zeta) = i sqrt(pi) w(zeta) is the
  plasma dispersion function (Fried & Conte 1961) and E a Gaussian moment;
  the Faddeeva function w is entire, so this holds on every branch. It runs
  on a Python complex at one point and once over the whole array for an
  ndarray of sigma: a one-element array would cost about 15 times as much.
- Each compact bump term (`profiles.Bump`) is integrated over its support
  [a, b] only, by singularity subtraction: int_a^b g/(v - s) dv =
  int_a^b (g(v) - c)/(v - s) dv + c (log(b - s) - log(a - s)), c = g(s). The
  first term is analytic in v wherever g is, so Gauss nodes over the support
  (cut only at the bump's breakpoints) and g on them are built once per
  profile and weight.
  One path serves a point and an array alike: the points are taken as a 1-D
  array (one element for a point), and g(s), the log terms and the sum over
  the nodes, in real arithmetic, run over all ordinary points at once, in
  blocks of (s, node) pairs that stay in cache. g(s) has a value at any s off
  the support edges, so below the axis the residue 2 i pi g(s) holds at any
  depth in the support column (0 off it). Where g(s) is refused (the edge
  margin) at least 10 node gaps above the axis, c = 0: the nodes resolve
  g(v)/(v - s) there as it stands. Points within 1e-2 of a node weight of a
  node, where the sum would lose digits, and refused points closer to the axis
  go one at a time through `_pinned_part`: panel edges pinned at Re s and
  Re s +- w, and c = g(Re s) where g(s) is refused, which is exact above the
  axis, within O(Im s) just below it and refused farther down. Far from the
  support, where the plain node sum is the continued value, 34 cached moments
  of the nodes give that sum (`_far_sum`; Greengard & Rokhlin 1987, J. Comput.
  Phys. 73, 325).
- The sigma-derivative comes from the same call: a Gaussian part's by Z' = -2 (1 +
  zeta Z), and a bump term's as C[g'] over a second node set on the same nodes
  (g vanishes with all its derivatives at the support edges).
"""

from __future__ import annotations

import enum
import math
import numpy as np

from . import _gauss, profiles
from ._faddeeva import faddeeva
from .errors import StripViolation

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
    im, tol = np.imag(sigma), AXIS_TOLERANCE
    branch = np.where(im > tol, Branch.UPPER,
                      np.where(im < -tol, Branch.LOWER, Branch.REAL_AXIS))
    return branch if np.ndim(sigma) else branch.item()


def _maxwellian_part(weight: tuple[float, ...], sigma, part: profiles.Gaussian,
                     derivative: bool = False):
    """(C, dC/dsigma), dC/dsigma 0 unless ``derivative``, for C the continued int
    p(v) f'(v)/(v - sigma) dv of one Gaussian part in closed form, at a point or
    elementwise over an array; raises FaddeevaOverflow where exp(-zeta^2) overflows."""
    mass, drift, width = part.coef * part.mass, part.drift, part.width
    # p(v) = p(sigma) + (v - sigma) t(v); ts = [0, t_(d-1), ..., t_0], dts their d/dsigma
    p_sigma, dp, ts, dts = 0.0, 0.0, [], []
    for c in reversed(weight):
        ts.append(p_sigma)
        if derivative:
            dts.append(dp)
            dp = dp * sigma + p_sigma
        p_sigma = p_sigma * sigma + c
    # int t f' = -int t' f = -mass sum_n n t_n E[v^(n-1)], Gaussian raw moments
    # E[v^(k+1)] = drift E[v^k] + k width^2 E[v^(k-1)]
    tail, dtail, e_prev, e_k = 0.0, 0.0, 0.0, 1.0
    for k, t in enumerate(ts[-2:0:-1]):
        tail += (k + 1) * t * e_k
        if derivative:
            dtail += (k + 1) * dts[-2 - k] * e_k
        e_prev, e_k = e_k, drift * e_k + k * width * width * e_prev
    # int f'/(v - sigma) = -(mass / width^2) A, A = 1 + zeta Z(zeta)
    zeta = (sigma - drift) / (math.sqrt(2.0) * width)
    z_func = 1j * _SQRT_PI * faddeeva(zeta)
    a = 1.0 + zeta * z_func
    value = -mass * (p_sigma * a / (width * width) + tail)
    if not derivative:
        return value, 0.0
    # Z' = -2 A (Fried & Conte 1961), so dA/dsigma = (Z - 2 zeta A)/(sqrt(2) w)
    da = (z_func - 2.0 * zeta * a) / (math.sqrt(2.0) * width)
    return value, -mass * ((dp * a + p_sigma * da) / (width * width) + dtail)


def cauchy_transform(profile: profiles.VelocityProfile, weight: tuple[float, ...],
                     sigma, derivative: bool = False):
    """Branch-correct continuation of int p(v) f'(v)/(v - sigma) dv from above,
    and with ``derivative`` the pair (C, dC/dsigma).

    ``weight`` holds the coefficients of the real polynomial p in ascending
    powers of v. ``sigma`` is a point or an ndarray of points; an array gives
    the values elementwise, in its shape, and raises where any point would.
    Maxwellian parts are summed in closed form (at a point on a Python complex)
    on every branch; deep in the lower half-plane they raise FaddeevaOverflow.
    Bump terms are sums over nodes cached in ``profile.node_sets``, in real
    arithmetic, by `_bump_array` over the points as a 1-D array.
    """
    weight, point = tuple(weight), not isinstance(sigma, np.ndarray)
    if point:
        sigma = complex(sigma)
        if abs(sigma.imag) <= AXIS_TOLERANCE:
            sigma = complex(sigma.real)
    else:
        sigma = np.where(np.abs(sigma.imag) <= AXIS_TOLERANCE, sigma.real,
                         sigma).astype(complex, copy=False)
    # one zero for both sums: each term is added out of place
    total = slope = 0j if point else np.zeros(sigma.shape, dtype=complex)
    for part in profile.gaussians:
        value, d = _maxwellian_part(weight, sigma, part, derivative)
        total, slope = total + value, slope + d
    if profile.bumps:
        points, scale = np.ravel(sigma), profiles.resolution_scale(profile)
        for i in range(1 + derivative):
            for bump, nodes in zip(profile.bumps, _node_sets(profile, weight, i)):
                term = _bump_array(points, scale, bump, *nodes).reshape(np.shape(sigma))
                total, slope = (total + term, slope) if i == 0 else (total, slope + term)
    if not derivative:
        return complex(total) if point else total
    return (complex(total), complex(slope)) if point else (total, slope)


def _node_sets(profile: profiles.VelocityProfile, weight: tuple[float, ...],
               derivative: bool = False) -> tuple:
    """`_bump_nodes` of each bump term for g = p f_bump' or g', cached per weight."""
    key = (weight, "d") if derivative else weight
    node_sets = profile.node_sets.get(key)
    if node_sets is None:
        scale = profiles.resolution_scale(profile)
        g = lambda b: lambda v: _poly(weight, v) * profiles._bump_df(b, v)
        if derivative:      # g' = p' f_bump' + p f_bump''
            dweight = tuple(k * c for k, c in enumerate(weight))[1:] or (0.0,)
            g = lambda b: lambda v: (_poly(dweight, v) * profiles._bump_df(b, v)
                                     + _poly(weight, v) * profiles._bump_df(b, v, 2))
        node_sets = profile.node_sets[key] = tuple(_bump_nodes(g(bump), scale, bump)
                                                   for bump in profile.bumps)
    return node_sets


def _bump_nodes(g, scale: float, bump: profiles.Bump) -> tuple:
    """Gauss nodes vs and weights ws over one bump support cut at its
    breakpoints, the integrand g (complex, for the subtraction constant), its
    real values g(vs) on the nodes, the far field (the support's centre m and
    half-width h, and the moments mu_K-1 .. mu_0), the near-node radius and the
    plain-sum height: 10 times the largest node gap."""
    vs, ws = _gauss.segment_panels(*bump.support, bump.breakpoints, scale, NODES)
    gvs, (a, b) = g(vs).real.copy(), bump.support     # contiguous, for the node sums
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


def _bump_array(sigma: np.ndarray, scale: float, bump: profiles.Bump, vs: np.ndarray,
                ws: np.ndarray, g, gvs: np.ndarray, field: tuple, near: float,
                plain: float) -> np.ndarray:
    """Continued int g(v)/(v - sigma) dv for one bump term's integrand g,
    elementwise over a 1-D array of sigma (axis points exactly real).

    The subtracted integrand (g(v) - c)/(v - sigma) is analytic in v, so one sum
    over the fixed support nodes vs (with g(vs) = gvs) serves every ordinary
    sigma (`_subtracted_sums`); `_bump_gate` says where it does not serve, and
    `_far` where the moments give the plain sum. c is g(sigma), or where that
    is refused g(Re sigma) on pinned panels and 0 in the node sum.
    """
    refused, pinned = _bump_gate(bump, sigma, vs, ws, near, plain, scale)
    far = ~pinned & _far(sigma, field)
    summed = ~(pinned | far)
    # g is finite at far points too: 0 off the support, real at Re sigma
    at = np.where(refused, sigma.real, sigma)
    c = g(at)
    c[refused & summed] = 0.0
    out = np.empty(sigma.shape, dtype=complex)
    if far.any():
        out[far] = _far_sum(field, sigma[far])
    if summed.any():
        s, cs = sigma[summed], c[summed]
        out[summed] = _plus_log_part(_subtracted_sums(vs, ws, gvs, s, cs), cs, s,
                                     *bump.support)
    for i in np.flatnonzero(pinned).tolist():
        out[i] = _pinned_part(g, complex(c[i]), complex(sigma[i]), bump.support,
                              bump.breakpoints, scale, NODES)
    return out


def _bump_gate(bump: profiles.Bump, sigma: np.ndarray, vs: np.ndarray, ws: np.ndarray,
               near: float, plain: float, scale: float):
    """(refused, pinned) for a bump term elementwise over a 1-D array of sigma:
    refused where g(sigma) is (the edge margin off the axis), pinned where
    the sum goes on `_pinned_part`'s panels instead of the node sum with c =
    g(sigma): within 1e-2 of a node weight of a node, or refused below `plain`.
    Refused at least `plain` above the axis, nothing is subtracted (c = 0):
    there the nodes resolve g(v)/(v - sigma) as it stands. Raises
    StripViolation where g(sigma) is refused more than 0.05 scale below the
    axis."""
    refused = profiles._bump_df_refused(bump, sigma)
    # above the axis any constant subtracts exactly, and close below it
    # g(Re sigma) stands in for the continuation (exact up to O(Im sigma));
    # farther down the residue 2 i pi g(sigma) has no value at a support edge
    deep = refused & (sigma.imag < -_AXIS_FALLBACK_FRACTION * scale)
    if deep.any():
        raise StripViolation("complex evaluation of the bump term refused at "
                             f"{complex(sigma[np.argmax(deep)])}")
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


# (sigma, node) pairs per block of `_subtracted_sums`: a block's float
# temporaries (128 KiB each) stay in cache
_BLOCK = 16384


def _subtracted_sums(vs: np.ndarray, ws: np.ndarray, gvs: np.ndarray,
                     sigma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_j (g(v_j) - c) w_j/(v_j - sigma) in real arithmetic, elementwise over
    1-D arrays of sigma and c, in blocks of about `_BLOCK` (point, node) pairs."""
    out = np.empty(sigma.size, dtype=complex)
    rows = max(1, _BLOCK // vs.size)
    for i in range(0, sigma.size, rows):
        s, ci = sigma[i:i + rows], c[i:i + rows]
        out[i:i + rows] = _real_split_sum(ws, vs - s.real[:, None],
                                          gvs - ci.real[:, None], s.imag, ci.imag)
    return out


def _real_split_sum(ws: np.ndarray, x: np.ndarray, h: np.ndarray, y, c_im):
    """`_subtracted_sums` from x = v_j - Re sigma and h = g(v_j) - Re c (one row
    per point), y = Im sigma and c_im = Im c (one per row); h is overwritten.

    With d = w_j/(x^2 + y^2) the real part is sum h x d + c_im y sum d and the
    imaginary part y sum h d - c_im sum x d. h stays one term: summing g(v_j)
    and c apart would bring back the cancellation the subtraction removes.
    """
    t = x * x
    t += np.square(y)[:, None]
    np.reciprocal(t, out=t)                 # d = w t: the dot with ws applies w_j
    sum_d = np.vecdot(t, ws)
    h *= t
    sum_hd = np.vecdot(h, ws)
    t *= x
    sum_xd = np.vecdot(t, ws)
    h *= x
    return np.vecdot(h, ws) + c_im * y * sum_d + 1j * (y * sum_hd - c_im * sum_xd)


def _pinned_part(g, c: complex, sigma: complex, support: tuple[float, float],
                 breakpoints: tuple[float, ...], scale: float, nodes: int) -> complex:
    """Continued int_a^b g(v)/(v - sigma) dv as int_a^b (g(v) - c)/(v - sigma) dv,
    on panels pinned at Re sigma and Re sigma +- _PIN_WINDOW (at most (b - a)/4)
    with one g call, plus the `_plus_log_part` of c. Exact for any c above the
    axis; on and below it c must be g(sigma) (or within O(Im sigma) of it), and
    Re sigma inside (a, b) unless c = 0."""
    a, b = support
    x0, w = sigma.real, min(_PIN_WINDOW, 0.25 * (b - a))
    vs, ws = _gauss.segment_panels(a, b, (x0 - w, x0, x0 + w) + breakpoints, scale, nodes)
    sigma, c = np.array([sigma]), np.array([c])
    val = np.sum((g(vs) - c) / (vs - sigma) * ws, keepdims=True)
    return complex(_plus_log_part(val, c, sigma, a, b)[0])


def _plus_log_part(val: np.ndarray, c: np.ndarray, sigma: np.ndarray, a: float,
                   b: float) -> np.ndarray:
    """val + c int_a^b dv/(v - sigma) continued from above, elementwise and in
    place: c log((b - sigma)/(a - sigma)), the real log plus i pi where Im sigma
    is 0, plus 2 i pi c below the axis. Nothing where c = 0: g vanishes outside
    (a, b) and near its edges, so no log meets zero."""
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


def _near_node(vs: np.ndarray, ws: np.ndarray, sigma: np.ndarray, near: float):
    """Whether sigma lies within `near` of the axis and within 1e-2 w_j of a
    node v_j, where the subtracted sum would lose digits to cancellation,
    elementwise over an ndarray."""
    i = vs.searchsorted(sigma.real)
    hit = np.zeros(sigma.shape, dtype=bool)
    for j in (np.maximum(i - 1, 0), np.minimum(i, vs.size - 1)):
        hit |= np.abs(vs[j] - sigma) < 1e-2 * ws[j]
    return hit & (np.abs(sigma.imag) < near)


def vdf_norm(profile: profiles.VelocityProfile) -> float:
    """Upper bound on int |v f'(v)| dv: m (1 + |d| sqrt(2/pi)/w) for each Gaussian
    part (mass m, drift d, width w; with u = (v - d)/w, |v| <= |d| + w|u|,
    E|u| = sqrt(2/pi) and E u^2 = 1), plus 1.001 times the node sum of
    |v f_bump'| for each bump term: that sum falls short by up to about 8e-5
    relative, at the kinks of |v f_bump'| (its zeros) between nodes."""
    norm = sum(g.coef * g.mass * (1.0 + abs(g.drift) * math.sqrt(2.0 / math.pi) / g.width)
               for g in profile.gaussians)
    return norm + 1.001 * sum(float(np.abs(gvs) @ ws)
                              for _, ws, _, gvs, *_ in _node_sets(profile, (0.0, 1.0)))
