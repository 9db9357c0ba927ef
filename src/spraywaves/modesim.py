"""Direct time integration of one spatial Fourier mode of the linearized system.

For wavenumber k the linearized thick-spray equations reduce to the ODE system

    d tau/dt = (i k / (alpha0 rho0)) (alpha0 u + kappa * int f v dv)
    d u/dt   = i k rho0 c0^2 tau
    d f/dt   = -i k v f - i k c0^2 rho0^2 tau f0'(v)

on a uniform velocity grid (composite Simpson for the moment integral, RK4
in time). From a block's start state g_b (g = sqrt(w) f) every later g is
A(theta) g_b + phi R(theta), theta = -k dt v, so one linear map dt L acts on
the lifted state (tau, u, A, R), and RK4 is the textbook
P(dt L) = sum_(m<=4) (dt L)^m / m! on it, eight steps a block, the last block
of a run ending after nsteps mod 8 steps when that is not 0. Fitted rates of
|tau(t)| are the independent oracle for dispersion roots; normalized-mode
runs show loss of Sobolev control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import dispersion, profiles
from .dispersion import SearchRegion, SprayParams
from .errors import (CflViolation, DegenerateFit, NoUnstableRoot, NotARoot,
                     RefineGrid)
from .profiles import VelocityProfile

_CFL_FRACTION = 0.1
_EIGENMODE_RESIDUAL = 1e-8     # |D(sigma)| accepted for an eigenmode seed
_GRID_MULTIPLE = 3.0           # |Im sigma| must exceed this many grid spacings
_OVERFLOW_LIMIT = 1e150
MIN_NV = 256
MAX_NV = 65536
DEFAULT_NV = 2048
MAX_WORK = 2**31               # RK4 steps x velocity nodes of one run


@dataclass(frozen=True)
class SimConfig:
    """Grid/stepping parameters for one mode run."""

    nv: int
    v_bounds: tuple[float, float]
    dt: float
    t_final: float
    fit_window: tuple[float, float]

    def __post_init__(self):
        if not MIN_NV <= self.nv <= MAX_NV:
            raise ValueError(f"nv must lie in [{MIN_NV}, {MAX_NV}]")
        if not -math.inf < self.v_bounds[0] < self.v_bounds[1] < math.inf:
            raise ValueError("v_bounds must be a finite, nonempty velocity interval")
        if not (self.dt > 0 and self.t_final > 0):
            raise ValueError("dt and t_final must be positive")
        steps = self.t_final / self.dt
        if steps > MAX_WORK or math.ceil(steps) * self.nv > MAX_WORK:
            raise ValueError(f"t_final/dt = {steps:.3g} steps on {self.nv} velocity "
                             f"nodes exceeds the {MAX_WORK} node-step cap")
        lo, hi = self.fit_window
        if not (0.0 <= lo < hi <= self.t_final):
            raise ValueError("fit_window must lie inside [0, t_final]")

    @property
    def dv(self) -> float:
        return (self.v_bounds[1] - self.v_bounds[0]) / (self.nv - 1)


def velocity_grid(config: SimConfig) -> np.ndarray:
    return np.linspace(config.v_bounds[0], config.v_bounds[1], config.nv)


@lru_cache(maxsize=32)
def _simpson_weights(n: int, dv: float) -> np.ndarray:
    """Composite Simpson weights for n uniform points (3/8 closeout when n is even)."""
    if n < 4:
        raise ValueError("need at least 4 velocity nodes")
    w = np.zeros(n)
    if n % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= dv / 3.0
    else:
        head = _simpson_weights(n - 3, dv)
        w[:n - 3] += head
        w[n - 4:] += np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 * dv / 8.0
    return w


@dataclass(frozen=True, eq=False)
class ModeState:
    """Complex amplitudes of one spatial Fourier mode at a single time."""

    k: float
    tau_hat: complex
    u_hat: complex
    f_hat: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.k == 0.0:
            raise ValueError("k must be nonzero")
        fh = np.asarray(self.f_hat, dtype=complex)
        object.__setattr__(self, "f_hat", fh)
        if not np.all(np.isfinite(fh)):
            raise ValueError("f_hat entries must be finite")

    def scaled(self, factor: complex) -> "ModeState":
        return ModeState(k=self.k, tau_hat=self.tau_hat * factor,
                         u_hat=self.u_hat * factor, f_hat=self.f_hat * factor,
                         time=self.time)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Amplitude series of one integrate() run and its last full state."""

    k: float
    times: np.ndarray
    tau_hat: np.ndarray
    u_hat: np.ndarray
    kinetic_l2: np.ndarray
    overflow: bool
    final_state: ModeState


@dataclass(frozen=True)
class GrowthFit:
    rate: float
    residual: float


def recurrence_time(config: SimConfig, k: float) -> float:
    """Grid-recurrence horizon 2 pi / (|k| dv) of discrete free streaming."""
    return 2.0 * math.pi / (abs(k) * config.dv)


def _check_recurrence(config: SimConfig, k: float) -> None:
    horizon = recurrence_time(config, k)
    if config.t_final >= horizon:
        raise ValueError(f"t_final = {config.t_final:.6g} reaches the velocity-grid "
                         f"recurrence time {horizon:.6g}")


def cfl_limit(params: SprayParams, config: SimConfig, k: float) -> float:
    vmax = max(abs(config.v_bounds[0]), abs(config.v_bounds[1]))
    return _CFL_FRACTION / (abs(k) * vmax + abs(k) * params.c0)


def _check_cfl(params: SprayParams, config: SimConfig, k: float, exc: type) -> None:
    limit = cfl_limit(params, config, k)
    if config.dt > limit * (1.0 + 1e-12):
        raise exc(f"dt = {config.dt:.3g} exceeds the stability bound {limit:.3g}")


def default_sim_config(params: SprayParams, profile: VelocityProfile, k: float,
                       t_final: float, nv: int = DEFAULT_NV,
                       dt: float | None = None) -> SimConfig:
    """Grid on the profile support, dt (by default 0.9 of the CFL bound) and the
    fit window [0.2, 0.8] t_final; ValueError when t_final reaches the
    velocity-grid recurrence time or a given dt exceeds the CFL bound."""
    lo, hi = profiles.support_bounds(profile)
    cfg = SimConfig(nv=nv, v_bounds=(lo, hi), dt=1.0, t_final=t_final,
                    fit_window=(0.2 * t_final, 0.8 * t_final))
    _check_recurrence(cfg, k)
    cfg = replace(cfg, dt=0.9 * cfl_limit(params, cfg, k) if dt is None else dt)
    _check_cfl(params, cfg, k, ValueError)
    return cfg


def acoustic_state(params: SprayParams, k: float, config: SimConfig,
                   direction: int = 1) -> ModeState:
    """Pure fluid acoustic mode (tau, u) = (1, -rho0 c0^2 / sigma), sigma = +-c0."""
    if direction not in (1, -1):
        raise ValueError(f"direction must be 1 or -1, got {direction}")
    sigma = direction * params.c0
    return ModeState(k=k, tau_hat=1.0 + 0.0j,
                     u_hat=-params.rho0 * params.c0**2 / sigma,
                     f_hat=np.zeros(config.nv, dtype=complex))


def init_eigenmode(params: SprayParams, profile: VelocityProfile, sigma: complex,
                   k: float, config: SimConfig) -> ModeState:
    """Mode amplitudes of the plane-wave solution attached to a dispersion root.

    tau = 1, u = -rho0 c0^2 / sigma, f(v) = -rho0^2 c0^2 f0'(v)/(v - sigma).
    """
    sigma = complex(sigma)
    residual = abs(dispersion.dispersion_value(params, profile, sigma))
    if residual > _EIGENMODE_RESIDUAL:
        raise NotARoot(f"|D(sigma)| = {residual:.3g} > {_EIGENMODE_RESIDUAL:.3g}")
    if params.kappa != 0.0 and abs(sigma.imag) < _GRID_MULTIPLE * config.dv:
        raise RefineGrid(
            f"|Im sigma| = {abs(sigma.imag):.3g} below {_GRID_MULTIPLE * config.dv:.3g} "
            f"({_GRID_MULTIPLE:g} dv); the grid cannot resolve the resonant denominator")
    grid = velocity_grid(config)
    dfdv = np.real(profiles.eval_df(profile, grid))
    denom = grid - sigma
    # kappa = 0 seeds may sit on the axis; the kinetic part is then passive and
    # grid-coincident singular entries are clipped
    tiny = np.abs(denom) < 1e-12
    denom = np.where(tiny, 1.0, denom)
    f_hat = -params.rho0**2 * params.c0**2 * dfdv / denom
    f_hat[tiny] = 0.0
    return ModeState(k=k, tau_hat=1.0 + 0.0j,
                     u_hat=-params.rho0 * params.c0**2 / sigma, f_hat=f_hat)


# A block of _BLOCK steps cuts every polynomial in theta above theta^_DEGREE. The
# CFL check keeps |theta| <= |k| dt max|v| < 0.1, and the coefficients of
# P(i theta)^l are bounded by those of e^(l theta), so the cut drops less than
# (8 * 0.1)^19 / 19! * e^0.8 < 3e-19 of the magnitudes it truncates.
_BLOCK = 8
_DEGREE = 18


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of the small block-table matrices, by einsum: BLAS's complex matrix
    product would leave about 0.3 MiB of its work buffer resident."""
    return np.einsum("ij,jk->ik", a, b)


def _block_operator(params: SprayParams, profile: VelocityProfile, config: SimConfig,
                    k: float, dt: float, root_w: np.ndarray, tail: int):
    """Per-run tables that apply _BLOCK RK4 steps at once from a block's start state.

    On g = sqrt(w) f and theta = -k dt v, dt L maps (tau, u, g) to
    (a u + i <eps, g>, b tau, i theta g + i tau phi), eps and phi real. From a
    block's start state g_b, every later g is A(theta) g_b + phi R(theta), so dt L
    acts on the lifted state (tau, u, A, R), each polynomial cut above theta^D:

        tau <- a u + i sum_d A_d mu_d + i sum_q R_q <eps phi, theta^q>,
        u <- b tau,  A <- i theta A,  R <- i theta R + i tau,

    mu_d = <eps theta^d, g_b>, D = _DEGREE. tau, u and R's coefficients are rows
    over w = (tau_b, u_b, mu_0..D), and A's coefficients, which do not depend on
    the data, sit in the mu columns of one more row. One step is
    P(dt L) = sum_(m<=4) (dt L)^m / m!, applied _BLOCK times in extended precision;
    after j steps A = P(i theta)^j. With x = (w, psi_0..psi_D),
    psi_d = <phi theta^d, g_b>,

        |g_(b+j)|^2 = <|P^j|^2, |g_b|^2> + Re(x^H Q_j w),
        Q_j w = (rho^H Lambda rho w, 2 conj(T_j) rho w),

    rho the map from w to R_j's coefficients, T_j the product with P^j and
    Lambda[q, q'] = <phi^2, theta^(q + q')>. With e = |P|^2 - 1, which is
    -theta^6/72 + theta^8/576 < 1.4e-8, |P^j|^2 = 1 + j e + j (j-1)/2 e^2 to
    within 35 e^3 < 1e-22.

    Returns the real Fortran-ordered (nv, 2 D + 5) table of the columns
    eps theta^d, phi theta^d (d <= D), 1, e and e^2; the complex map from w to
    (tau_1, u_1, .., tau_B, u_B, R_B's coefficients, Q_1 w, .., Q_(B-1) w); the
    maps from w to the coefficients of R_1..R_B; the real (B-1, 6) weights of
    <(1, e, e^2), (Re g_b)^2> and <(1, e, e^2), (Im g_b)^2>, interleaved, in
    |g_(b+j)|^2; P^B, P^tail and P on the grid, from A after B, tail and 1
    steps; and theta.
    """
    n, width = _DEGREE + 1, _DEGREE + 3
    grid = velocity_grid(config)
    theta = -k * dt * grid
    alpha0 = profiles.compatibility_alpha(profile, params.kappa)
    eps = k * dt * params.kappa / (alpha0 * params.rho0) * root_w * grid
    phi = -k * dt * params.c0**2 * params.rho0**2 * root_w * np.real(
        profiles.eval_df(profile, grid))
    # the small tables first, whose temporaries the table can then reuse
    weighted, power = np.array([eps * phi, phi * phi]), np.ones_like(theta)
    kappa, lam = np.empty((2, n))
    for q in range(n):
        kappa[q], lam[q] = weighted @ power
        power *= theta
    gram = np.array([np.append(lam[q:], np.zeros(q)) for q in range(n)])  # cut at D

    # dt L / m in extended precision: the lifted state carries from step to
    # step, and a block stays within a rounding of eight steps
    ikdt, i = 1j * k * dt, np.clongdouble(1j)
    a = np.clongdouble(ikdt / params.rho0)
    b = np.clongdouble(ikdt * params.rho0 * params.c0**2)
    scaled = [(a / m, b / m, i / m, i * kappa / m) for m in range(1, 5)]

    def dt_l(x: np.ndarray, m: int) -> np.ndarray:
        """dt L / m on the lifted state's rows A, tau, R_0..D and u."""
        a_m, b_m, i_m, kappa_m = scaled[m - 1]
        y = np.zeros_like(x)
        np.multiply(x[0, 2:-1], i_m, out=y[0, 3:])
        y[1] = a_m * x[-1] + i_m * x[0] + kappa_m @ x[2:-1]
        np.multiply(x[1:-2], i_m, out=y[2:-1])
        np.multiply(x[1], b_m, out=y[-1])
        return y

    x = np.zeros((n + 3, width), dtype=np.clongdouble)
    x[0, 2] = x[1, 0] = x[-1, 1] = 1.0      # A = 1, tau = tau_b, u = u_b, R = 0
    rows, forms, remainders, coefs = [], [], [], [x[0, 2:]]
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    for j in range(1, _BLOCK + 1):
        term = x
        for m in range(1, 5):
            term = dt_l(term, m)            # (dt L)^m x / m!
            x = x + term
        r = x[2:-1].astype(complex)
        rows.append(x[[1, -1]])
        remainders.append(r)
        coefs.append(x[0, 2:])
        if j < _BLOCK:
            toeplitz = np.tril(coefs[j][lag]).astype(complex)    # T_j[n, p] = A_(n-p)
            forms += [_product(r.conj().T, _product(gram, r)),
                      2.0 * _product(toeplitz.conj(), r)]
    block_map = np.vstack([np.vstack(rows).astype(complex), remainders[-1], *forms])
    weights = np.repeat([[1, j, j * (j - 1) / 2] for j in range(1, _BLOCK)], 2, axis=1)
    p_block, p_tail, stream = (np.polyval(np.trim_zeros(coefs[m], "b")[::-1].astype(complex),
                                          theta) for m in (_BLOCK, tail, 1))

    table = np.empty((len(theta), 2 * n + 3), order="F")
    table[:, 0], table[:, n], table[:, 2 * n] = eps, phi, 1.0
    excess = np.convolve(coefs[1].conj(), coefs[1])[:n].real.astype(float)  # |P|^2
    excess[0] = 0.0
    table[:, 2 * n + 1] = np.polyval(excess[::-1], theta)
    np.multiply(table[:, 2 * n + 1], table[:, 2 * n + 1], out=table[:, 2 * n + 2])
    for first in (0, n):
        for col in range(first + 1, first + n):
            np.multiply(table[:, col - 1], theta, out=table[:, col])
    return table, block_map, np.array(remainders), weights, p_block, p_tail, stream, theta


def integrate(params: SprayParams, profile: VelocityProfile, state0: ModeState,
              config: SimConfig) -> Trajectory:
    """Classical RK4 trajectory of the mode system at fixed dt.

    Each block of _BLOCK = 8 steps is one product of _block_operator's map, RK4
    on the lifted state, with (tau, u) and the power moments of the block's
    start state, so the grid is read a few times per block; the last block ends
    after nsteps mod 8 steps when that is not 0. A
    block whose tau, u or kinetic norm trips the overflow alarm looks for its
    first step where tau, u or max|f| exceeds _OVERFLOW_LIMIT, and the run
    stops there with that step's state, as the textbook RK4 does.
    """
    k = state0.k
    _check_cfl(params, config, k, CflViolation)
    _check_recurrence(config, k)
    if len(state0.f_hat) != config.nv:
        raise ValueError("state f_hat length does not match config.nv")

    nsteps = max(1, int(math.ceil(config.t_final / config.dt)))
    dt = config.t_final / nsteps
    B, n = _BLOCK, _DEGREE + 1
    # outputs before the operator, whose temporaries then free at the heap top;
    # the outputs run to the end of the last block, which may end early
    times = np.arange(nsteps + 1) * dt
    taus, us = np.empty((2, nsteps + 1 + -nsteps % B), dtype=complex)
    kin = np.empty(len(taus))
    root_w = np.sqrt(_simpson_weights(config.nv, config.dv))
    table, block_map, remainders, weights, p_block, p_tail, stream, theta = \
        _block_operator(params, profile, config, k, dt, root_w, nsteps % B)
    phi = table[:, n]

    g = state0.f_hat * root_w
    taus[0], us[0] = state0.tau_hat, state0.u_hat
    states = [(v, v.view(float), v.view(float).reshape(-1, 2))
              for v in (g, np.empty_like(g))]
    feed = np.empty_like(g)
    feed_pairs = feed.view(float).reshape(-1, 2)
    power_dot, energy_dot = table[:, :2 * n].T.dot, table[:, 2 * n:].T.dot
    phi_dot, map_dot = table[:, n:2 * n].dot, block_map.dot
    w = np.zeros(2 * n + 2, dtype=complex)    # (tau_b, u_b, mu, psi)
    w_head, w_pairs, wr = w[:n + 2], w[2:].view(float).reshape(-1, 2), w.view(float)
    out = np.empty(len(block_map), dtype=complex)
    scalars = out[:2 * B]
    scalars_r, taus_out, us_out = scalars.view(float), scalars[0::2], scalars[1::2]
    r, r_pairs = out[2 * B:2 * B + n], out[2 * B:2 * B + n].view(float).reshape(-1, 2)
    forms_dot = out[2 * B + n:].view(float).reshape(B - 1, -1).dot
    energy = np.empty(6)
    weights_dot, multiply, add = weights.dot, np.multiply, np.add
    # max|f| > _OVERFLOW_LIMIT forces sum w|f|^2 > min(w) _OVERFLOW_LIMIT^2, so
    # below half that max|f| needs no look
    norm_alarm = 0.5 * float(root_w.min())**2 * _OVERFLOW_LIMIT**2

    def first_overflow(g: np.ndarray, i: int, end: int, state: np.ndarray) -> int:
        """The first of steps i+1..end from g whose tau, u or max|f| exceeds the
        limit, a non-finite value counting, with its state in ``state``; else 0.
        g_(i+j) = P^j g + phi R_j(theta) is built only where tau or u does or
        max|f| may: |P^j| <= 1 for |theta| < 2.8, so max|f_(i+j)| is at most
        max|f_i| + max|gamma| sum_d |R_(j,d)| max|theta|^d, up to rounding."""
        coefs = remainders[:end - i] @ w_head
        reach = abs(g / root_w).max() + abs(phi / root_w).max() * (
            abs(coefs) @ abs(theta).max() ** np.arange(n))
        big = ~(abs(scalars).reshape(B, 2).max(axis=1)[:end - i] <= _OVERFLOW_LIMIT)
        built = np.flatnonzero(big | ~(reach <= _OVERFLOW_LIMIT * (1.0 - 1e-12)))
        if not len(built):
            return 0
        g_built = phi_dot(np.ascontiguousarray(coefs[built].T).view(float)).view(complex)
        powers = np.cumprod(np.broadcast_to(stream, (built[-1] + 1, len(g))), axis=0)
        g_built += (powers[built] * g).T
        over = big[built] | ~(abs(g_built / root_w[:, None]).max(axis=0)
                              <= _OVERFLOW_LIMIT)
        if not over.any():
            return 0
        first = over.argmax()
        state[:] = g_built[:, first]
        kin[i + 1 + built[first]] = state.view(float).dot(state.view(float))
        return i + 1 + int(built[first])

    overflow_step = 0
    # a state near or past overflow is the alarm's to report, not numpy's
    with np.errstate(over="ignore", invalid="ignore"):
        # gr . gr = sum_j w_j |f_j|^2 on the float view gr of g = sqrt(w) f
        kin[0] = g.view(float).dot(g.view(float))
        for i in range(0, nsteps, B):
            (g, _, g_pairs), (g_next, g_next_r, _) = states
            w[0], w[1] = taus[i], us[i]
            power_dot(g_pairs, out=w_pairs)
            multiply(g_pairs, g_pairs, feed_pairs)      # the feed is written later
            energy_dot(feed_pairs, out=energy.reshape(3, 2))
            map_dot(w_head, out=out)                    # tau, u, r and the Q_j w
            taus[i + 1:i + B + 1] = taus_out
            us[i + 1:i + B + 1] = us_out
            add(forms_dot(wr), weights_dot(energy), out=kin[i + 1:i + B])
            end = i + B
            if end > nsteps:        # the last block ends after m = nsteps - i steps
                end = nsteps
                remainders[end - i - 1].dot(w_head, out=r)
                p_block = p_tail
            phi_dot(r_pairs, out=feed_pairs)
            multiply(g, p_block, g_next)
            add(g_next, feed, g_next)
            kin[end] = g_next_r.dot(g_next_r)
            # sum |tau|^2 + |u|^2 bounds max(|tau|, |u|)^2 from above; NaN trips too
            if not (scalars_r.dot(scalars_r) <= _OVERFLOW_LIMIT**2
                    and kin[i + 1:end + 1].max() <= norm_alarm):
                overflow_step = first_overflow(g, i, end, g_next)
                if overflow_step:
                    break
            states.reverse()
    g = g_next if overflow_step else states[0][0]
    n_done = overflow_step or nsteps
    end = n_done + 1
    # in place: a fresh array here would outlive the call above the freed tables
    return Trajectory(k=k, times=times[:end], tau_hat=taus[:end], u_hat=us[:end],
                      kinetic_l2=np.sqrt(kin[:end], out=kin[:end]),
                      overflow=bool(overflow_step),
                      final_state=ModeState(k=k, tau_hat=taus[n_done].item(),
                                            u_hat=us[n_done].item(),
                                            f_hat=np.divide(g, root_w, out=g),
                                            time=float(times[n_done])))


def growth_rate(trajectory: Trajectory, fit_window: tuple[float, float]) -> GrowthFit:
    """Least-squares slope of log|tau(t)| over the window, with its RMS residual.

    The slope is taken from the centred sums in the window's own time
    s = (t - lo)/(hi - lo), so any time scale from 1e-300 to 1e300 fits alike.
    """
    lo, hi = fit_window
    mask = (trajectory.times >= lo) & (trajectory.times <= hi)
    if np.count_nonzero(mask) < 50:
        raise ValueError("fit window contains fewer than 50 samples")
    amp = np.abs(trajectory.tau_hat[mask])
    if np.any(amp <= 1e-300):
        raise ValueError("amplitude underflow inside the fit window")
    s = (trajectory.times[mask] - lo) / (hi - lo)
    s -= s.mean()
    log_amp = np.log(amp)
    log_amp -= log_amp.mean()
    slope = float(s @ log_amp / (s @ s))
    residual = float(np.sqrt(np.mean((log_amp - slope * s) ** 2)))
    rate = slope / (hi - lo)
    if residual > max(0.1 * abs(slope), 1e-6):
        raise DegenerateFit(
            f"fit residual {residual:.3g} too large for slope {rate:.3g}")
    return GrowthFit(rate=rate, residual=residual)


@dataclass(frozen=True)
class ScalingRow:
    k: float
    t_k: float
    init_hs_norm: float
    final_l2_norm: float
    fitted_rate: float


@dataclass(frozen=True, eq=False)
class ScalingReport:
    """Normalized-mode scaling table for the Sobolev ill-posedness demonstration."""

    rows: tuple[ScalingRow, ...]
    sigma: complex
    theta0: float
    final_norm_nondecreasing: bool
    trajectories: tuple[Trajectory, ...] = ()


def check_scaling_inputs(params: SprayParams, profile: VelocityProfile, s: float,
                         n_exponent: float, k_list: list[float],
                         nv: int) -> list[SimConfig]:
    """The default grid of each k in k_list, run to t_k = (N+1) log(k)/k;
    ValueError unless the scaling experiment can run on these inputs (each
    t_k positive and inside its grid's recurrence time)."""
    if not 0.0 <= s < n_exponent:
        raise ValueError("need 0 <= s < n_exponent")
    if len(k_list) < 3 or any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise ValueError("k_list must be increasing with at least 3 entries")
    return [default_sim_config(params, profile, k, nv=nv,
                               t_final=(n_exponent + 1.0) * math.log(k) / k)
            for k in k_list]


def sobolev_scaling_experiment(params: SprayParams, profile: VelocityProfile,
                               region: SearchRegion, s: float, n_exponent: float,
                               k_list: list[float],
                               nv: int = DEFAULT_NV) -> ScalingReport:
    """Initial H^s shrinkage vs final L^2 size for mode data scaled by k^(-N).

    Each mode is the eigenmode of the most unstable root in ``region``, scaled
    by k^(-N) and run to t_k = (N+1) log(k)/k; columns use the single-mode norm
    proxies (1+k^2)^(s/2) amp for H^s and amp for L^2.
    """
    configs = check_scaling_inputs(params, profile, s, n_exponent, k_list, nv)
    roots = [r for r in dispersion.find_roots(params, profile, region)
             if r.sigma.imag > 0]
    if not roots:
        raise NoUnstableRoot("no dispersion root with Im sigma > 0 in the region")
    sigma = max(roots, key=lambda r: r.sigma.imag).sigma

    def run_one(k: float, config: SimConfig) -> tuple[ScalingRow, Trajectory]:
        seed = init_eigenmode(params, profile, sigma, k, config)
        seed = seed.scaled(k ** (-n_exponent))
        traj = integrate(params, profile, seed, config)
        fit = growth_rate(traj, config.fit_window)
        row = ScalingRow(
            k=k, t_k=config.t_final,
            init_hs_norm=(1.0 + k * k) ** (0.5 * s) * abs(traj.tau_hat[0]),
            final_l2_norm=abs(traj.tau_hat[-1]),
            fitted_rate=fit.rate)
        return row, traj

    rows, trajectories = zip(*(run_one(k, config) for k, config in zip(k_list, configs)))
    finals = [r.final_l2_norm for r in rows]
    return ScalingReport(rows=rows, sigma=sigma,
                         theta0=min(finals),
                         final_norm_nondecreasing=all(
                             b >= a * (1.0 - 1e-9) for a, b in zip(finals, finals[1:])),
                         trajectories=trajectories)
