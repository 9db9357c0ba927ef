"""Direct time integration of one spatial Fourier mode of the linearized system.

For wavenumber k the linearized thick-spray equations reduce to the ODE system

    d tau/dt = (i k / (alpha0 rho0)) (alpha0 u + kappa * int f v dv)
    d u/dt   = i k rho0 c0^2 tau
    d f/dt   = -i k v f - i k c0^2 rho0^2 tau f0'(v)

on a uniform velocity grid (composite Simpson for the moment integral, RK4
in time with each step applied in closed form from the rank-two structure of
the operator). Fitted rates of |tau(t)| are the independent oracle for
dispersion roots; normalized-mode runs show loss of Sobolev control.
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
        if self.v_bounds[0] >= self.v_bounds[1]:
            raise ValueError("empty velocity interval")
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


def _rk4_step_operator(params: SprayParams, profile: VelocityProfile,
                       config: SimConfig, k: float, dt: float, root_w: np.ndarray):
    """Per-run pieces of one RK4 step y <- P(dt L) y, P(x) = sum_{j<=4} x^j / j!.

    dt L maps (tau, u, f) to (a u + <omega, f>, b tau, z f + tau c), z = -i k dt v.
    The step is f <- P(z) f + sum_m tau_m G_m, G_m = sum_{j=m+1..4} z^(j-1-m) c / j!,
    where a linear recursion in tau, u and s_j = <omega z^j, f> gives tau_m, tau', u';
    on unit vectors it is one 6x6 map (tau, u, s_0..s_3) -> (tau', u', beta_0..3),
    sum_m tau_m G_m = sum_p beta_p gamma theta^p (z = i theta, c = i gamma). For
    g = sqrt(w) f, returns the rows omega z^j / sqrt(w), the map, P(z) and the
    real (nv, 4) columns sqrt(w) gamma theta^p, Fortran-ordered.
    """
    grid = velocity_grid(config)
    ikdt = 1j * k * dt
    z = -ikdt * grid
    c = -ikdt * params.c0**2 * params.rho0**2 * np.real(profiles.eval_df(profile, grid))
    alpha0 = profiles.compatibility_alpha(profile, params.kappa)
    omega = ikdt * params.kappa / (alpha0 * params.rho0) * root_w * grid
    moments = omega * z ** np.arange(4)[:, None]
    a, b = ikdt / params.rho0, ikdt * params.rho0 * params.c0**2
    q0, q1, q2 = (moments[:3] @ (root_w * c)).tolist()
    tau, u, s0, s1, s2, s3 = np.eye(6, dtype=complex)
    t1, u1 = a * u + s0, b * tau
    t2, u2 = a * u1 + s1 + q0 * tau, b * t1
    t3, u3 = a * u2 + s2 + q1 * tau + q0 * t1, b * t2
    t4, u4 = a * u3 + s3 + q2 * tau + q1 * t1 + q0 * t2, b * t3
    betas = [sum(1j ** (p + 1) / math.factorial(p + m + 1) * tm
                 for m, tm in enumerate((tau, t1, t2, t3)[:4 - p])) for p in range(4)]
    step = np.array((tau + t1 + t2 / 2.0 + t3 / 6.0 + t4 / 24.0,
                     u + u1 + u2 / 2.0 + u3 / 6.0 + u4 / 24.0, *betas))
    stream = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    return moments, step, stream, (root_w * c.imag * z.imag ** np.arange(4)[:, None]).T


def integrate(params: SprayParams, profile: VelocityProfile, state0: ModeState,
              config: SimConfig) -> Trajectory:
    """Classical RK4 trajectory of the mode system at fixed dt.

    The system is linear and L is free streaming plus a rank-two coupling, so
    each step is applied in closed form (see _rk4_step_operator).
    """
    k = state0.k
    _check_cfl(params, config, k, CflViolation)
    _check_recurrence(config, k)
    if len(state0.f_hat) != config.nv:
        raise ValueError("state f_hat length does not match config.nv")

    nsteps = max(1, int(math.ceil(config.t_final / config.dt)))
    dt = config.t_final / nsteps
    # outputs before the operator, whose temporaries then free at the heap top
    times = np.arange(nsteps + 1) * dt
    taus, us = np.empty((2, nsteps + 1), dtype=complex)
    kin = np.empty(nsteps + 1)
    root_w = np.sqrt(_simpson_weights(config.nv, config.dv))
    moments, step, stream, feeds = _rk4_step_operator(params, profile, config, k, dt,
                                                      root_w)

    # gr . gr = sum_j w_j |f_j|^2 on the float view gr of g = sqrt(w) f. Two
    # 6-vectors alternate: x = (tau, u, s_0..3) -> y = (tau', u', beta_0..3), the
    # feed reads the betas, and the next moments overwrite them, so y is the next
    # x. Bound .dot methods skip np.dot's dispatch.
    g = state0.f_hat * root_w
    gr, feed = g.view(float), np.empty_like(g)
    feed_pairs = feed.view(float).reshape(-1, 2)
    cur, nxt = ((v, v[:2], v[2:], v[2:].view(float).reshape(4, 2))
                for v in np.empty((2, 6), dtype=complex))
    cur[1][:] = taus[0], us[0] = state0.tau_hat, state0.u_hat
    kin[0] = gr.dot(gr)
    moments_dot, step_dot, feeds_dot, gr_dot = moments.dot, step.dot, feeds.dot, gr.dot
    multiply, add = np.multiply, np.add
    # max|f| > _OVERFLOW_LIMIT forces sum w|f|^2 > min(w) _OVERFLOW_LIMIT^2, so
    # below half that max|f| needs no look
    norm_alarm = 0.5 * float(root_w.min())**2 * _OVERFLOW_LIMIT**2
    overflow = False
    n_done = nsteps
    for i in range(1, nsteps + 1):
        (x, _, s, _), (y, head, _, betas) = cur, nxt
        moments_dot(g, out=s)
        step_dot(x, out=y)
        feeds_dot(betas, out=feed_pairs)
        multiply(g, stream, g)
        add(g, feed, g)
        taus[i], us[i] = tau, u = head.tolist()
        kin[i] = norm2 = gr_dot(gr)
        if max(abs(tau), abs(u)) > _OVERFLOW_LIMIT or (
                norm2 > norm_alarm and np.abs(g / root_w).max() > _OVERFLOW_LIMIT):
            overflow = True
            n_done = i
            break
        cur, nxt = nxt, cur
    end = n_done + 1
    return Trajectory(k=k, times=times[:end], tau_hat=taus[:end], u_hat=us[:end],
                      kinetic_l2=np.sqrt(kin[:end]), overflow=overflow,
                      final_state=ModeState(k=k, tau_hat=tau, u_hat=u, f_hat=g / root_w,
                                            time=float(times[n_done])))


def growth_rate(trajectory: Trajectory, fit_window: tuple[float, float]) -> GrowthFit:
    """Least-squares slope of log|tau(t)| over the window, with its RMS residual."""
    lo, hi = fit_window
    mask = (trajectory.times >= lo) & (trajectory.times <= hi)
    if np.count_nonzero(mask) < 50:
        raise ValueError("fit window contains fewer than 50 samples")
    amp = np.abs(trajectory.tau_hat[mask])
    if np.any(amp <= 1e-300):
        raise ValueError("amplitude underflow inside the fit window")
    t = trajectory.times[mask]
    log_amp = np.log(amp)
    coeffs = np.polyfit(t, log_amp, 1)
    fitted = np.polyval(coeffs, t)
    residual = float(np.sqrt(np.mean((log_amp - fitted) ** 2)))
    rate = float(coeffs[0])
    if residual > max(0.1 * abs(rate) * (hi - lo), 1e-6):
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

    results = [run_one(k, config) for k, config in zip(k_list, configs)]
    rows = [row for row, _ in results]
    trajectories = [traj for _, traj in results]
    finals = [r.final_l2_norm for r in rows]
    return ScalingReport(rows=tuple(rows), sigma=sigma,
                         theta0=min(finals),
                         final_norm_nondecreasing=all(
                             b >= a * (1.0 - 1e-9) for a, b in zip(finals, finals[1:])),
                         trajectories=tuple(trajectories))
