import math
import warnings

import numpy as np
import pytest

from spraywaves import dispersion, modesim, profiles
from spraywaves.dispersion import SearchRegion, find_roots
from spraywaves.errors import (CflViolation, DegenerateFit, NoUnstableRoot,
                               NotARoot, RefineGrid)
from spraywaves.modesim import (ModeState, SimConfig, acoustic_state,
                                default_sim_config, growth_rate,
                                init_eigenmode, integrate, recurrence_time,
                                sobolev_scaling_experiment)

BUMP_SIGMA = 4.973114775529999 + 0.06020144833923488j   # root of the bump scenario


@pytest.fixture(scope="module")
def bump_root(bump_params, bump_profile):
    region = SearchRegion(4.0, 6.0, 1e-3, 0.12)
    reports = find_roots(bump_params, bump_profile, region, tol=1e-11)
    return max(reports, key=lambda r: r.sigma.imag).sigma


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(nv=100, v_bounds=(-10, 10), dt=1e-3, t_final=1.0,
                      fit_window=(0.2, 0.8))
        with pytest.raises(ValueError):
            SimConfig(nv=256, v_bounds=(-10, 10), dt=1e-3, t_final=1.0,
                      fit_window=(0.8, 0.2))
        for bounds in ((10, -10), (1, 1), (math.nan, 10), (-10, math.nan),
                       (-math.inf, math.inf), (-math.inf, 10), (-10, math.inf)):
            with pytest.raises(ValueError):
                SimConfig(nv=256, v_bounds=bounds, dt=1e-3, t_final=1.0,
                          fit_window=(0.2, 0.8))

    def test_work_caps(self):
        # nv up to MAX_NV and ceil(t_final/dt) * nv up to MAX_WORK; the arrays
        # come later, in integrate, so constructing these allocates nothing
        def config(nv, steps, dt=1e-3):
            return SimConfig(nv=nv, v_bounds=(-10.0, 10.0), dt=dt, t_final=steps * dt,
                             fit_window=(0.0, 0.5 * steps * dt))

        config(modesim.MAX_NV, 2)
        config(2**14, 2**17, dt=0.5)
        for nv, steps in ((modesim.MAX_NV + 2, 2), (2**14, 2**17 + 0.5),
                          (256, 1e300), (256, math.inf)):
            with pytest.raises(ValueError):
                config(nv, steps, dt=0.5)
        with pytest.raises(ValueError):
            config(256, 10, dt=math.nan)

    def test_recurrence_arithmetic(self):
        cfg = SimConfig(nv=2001, v_bounds=(-10.0, 10.0), dt=1e-3, t_final=1.0,
                        fit_window=(0.2, 0.8))
        assert cfg.dv == pytest.approx(0.01)
        assert recurrence_time(cfg, 1.0) == pytest.approx(628.3185307, rel=1e-9)

    def test_doubling_nv_doubles_recurrence(self):
        lo = SimConfig(nv=512, v_bounds=(-10.0, 10.0), dt=1e-3, t_final=1.0,
                       fit_window=(0.2, 0.8))
        hi = SimConfig(nv=1023, v_bounds=(-10.0, 10.0), dt=1e-3, t_final=1.0,
                       fit_window=(0.2, 0.8))
        assert recurrence_time(hi, 2.0) == pytest.approx(
            2.0 * recurrence_time(lo, 2.0), rel=2e-3)

    def test_default_config_safety(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=10.0,
                                 nv=256)
        assert cfg.dt <= modesim.cfl_limit(acoustic_params, cfg, 1.0)
        assert 10.0 <= 0.5 * recurrence_time(cfg, 1.0)


class TestSimpsonWeights:
    @pytest.mark.parametrize("n", [256, 257, 1001, 2048])
    def test_polynomial_exactness(self, n):
        w = modesim._simpson_weights(n, 1.0 / (n - 1))
        x = np.linspace(0.0, 1.0, n)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
        assert np.sum(w * x**2) == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert np.sum(w * x**3) == pytest.approx(0.25, rel=1e-9)


def rhs(params, profile, state, config):
    """Time derivative of the mode amplitudes (same container, time preserved):
    the operator L of modesim's module docstring, written out term by term."""
    grid = modesim.velocity_grid(config)
    weights = modesim._simpson_weights(config.nv, config.dv)
    dfdv = np.real(profiles.eval_df(profile, grid))
    ik = 1j * state.k
    kinetic_flux = float(params.kappa) * np.sum(weights * state.f_hat * grid)
    alpha0 = profiles.compatibility_alpha(profile, params.kappa)
    dtau = ik / (alpha0 * params.rho0) * (alpha0 * state.u_hat + kinetic_flux)
    du = ik * params.rho0 * params.c0**2 * state.tau_hat
    df = -ik * grid * state.f_hat - ik * params.c0**2 * params.rho0**2 \
        * state.tau_hat * dfdv
    return ModeState(k=state.k, tau_hat=dtau, u_hat=du, f_hat=df, time=state.time)


class TestRhs:
    def test_acoustic_oscillation_exact(self, acoustic_params, std_maxwellian):
        k = 1.0
        cfg = default_sim_config(acoustic_params, std_maxwellian, k, t_final=5.0,
                                 nv=256)
        state = acoustic_state(acoustic_params, k, cfg, direction=-1)
        # (tau, u) = (1, rho0 c0) solves the sigma = -c0 acoustic branch
        assert state.u_hat == pytest.approx(acoustic_params.rho0 * acoustic_params.c0)
        d = rhs(acoustic_params, std_maxwellian, state, cfg)
        lam = -1j * k * (-acoustic_params.c0)
        assert d.tau_hat == pytest.approx(lam * state.tau_hat, abs=1e-10)
        assert d.u_hat == pytest.approx(lam * state.u_hat, abs=1e-10)

    def test_linearity_structure(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=5.0,
                                 nv=256)
        state = ModeState(k=1.0, tau_hat=0.0, u_hat=1.0,
                          f_hat=np.zeros(cfg.nv, dtype=complex))
        d = rhs(acoustic_params, std_maxwellian, state, cfg)
        assert d.tau_hat == pytest.approx(1j / acoustic_params.rho0)
        assert d.u_hat == 0.0

    def test_eigenmode_relation_on_grid(self, bump_params, bump_profile, bump_root):
        k = 8.0
        cfg = default_sim_config(bump_params, bump_profile, k, t_final=1.0, nv=2048)
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        d = rhs(bump_params, bump_profile, state, cfg)
        lam = -1j * k * bump_root
        assert abs(d.tau_hat - lam * state.tau_hat) <= 1e-5
        assert abs(d.u_hat - lam * state.u_hat) <= 1e-8
        assert np.max(np.abs(d.f_hat - lam * state.f_hat)) <= 1e-8


def textbook_rk4(params, profile, state, cfg):
    """The state after each step of four classical stages of rhs, at the step
    integrate() uses, from the given state on."""
    nsteps = max(1, math.ceil(cfg.t_final / cfg.dt))
    dt = cfg.t_final / nsteps

    def axpy(s, h, d):
        return ModeState(k=s.k, tau_hat=s.tau_hat + h * d.tau_hat,
                         u_hat=s.u_hat + h * d.u_hat, f_hat=s.f_hat + h * d.f_hat)

    states = [state]
    for _ in range(nsteps):
        k1 = rhs(params, profile, state, cfg)
        k2 = rhs(params, profile, axpy(state, dt / 2, k1), cfg)
        k3 = rhs(params, profile, axpy(state, dt / 2, k2), cfg)
        k4 = rhs(params, profile, axpy(state, dt, k3), cfg)
        for stage, weight in ((k1, 1.0), (k2, 2.0), (k3, 2.0), (k4, 1.0)):
            state = axpy(state, weight * dt / 6.0, stage)
        states.append(state)
    return states


def rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def bump_window_config(params, k, nsteps):
    """nv = 256 on a narrow window around the bump, which resolves its Im sigma."""
    base = SimConfig(nv=256, v_bounds=(3.0, 7.0), dt=1.0, t_final=1.0,
                     fit_window=(0.2, 0.8))
    dt = 0.9 * modesim.cfl_limit(params, base, k)
    # dt a rounding above t_final / nsteps, so that ceil(t_final / dt) = nsteps
    return SimConfig(nv=256, v_bounds=(3.0, 7.0), dt=dt * (1.0 + 1e-12),
                     t_final=nsteps * dt, fit_window=(0.0, nsteps * dt))


class TestClosedFormStep:
    """integrate() applies each RK4 step in closed form; rhs is the reference L."""

    @classmethod
    def assert_matches_textbook(cls, params, profile, state, cfg):
        traj = integrate(params, profile, state, cfg)
        states = textbook_rk4(params, profile, state, cfg)
        assert len(traj.times) == len(states) >= 200
        cls.assert_close_to_textbook(traj, states, cfg)

    @staticmethod
    def assert_close_to_textbook(traj, states, cfg):
        assert len(traj.times) == len(states)
        assert rel(traj.tau_hat, np.array([s.tau_hat for s in states])) <= 1e-12
        assert rel(traj.u_hat, np.array([s.u_hat for s in states])) <= 1e-12
        assert rel(traj.final_state.f_hat, states[-1].f_hat) <= 1e-12
        # sqrt(sum w |f|^2) at every step, inside blocks of steps too
        weights = modesim._simpson_weights(cfg.nv, cfg.dv)
        norms = np.sqrt([weights @ np.abs(s.f_hat) ** 2 for s in states])
        assert rel(traj.kinetic_l2, norms) <= 1e-12

    @pytest.mark.parametrize("nsteps", [200, 201])
    def test_bump_eigenmode(self, bump_params, bump_profile, bump_root, nsteps):
        # integrate alternates two buffers block by block: 25 full blocks, and
        # 25 and a block of one step
        cfg = bump_window_config(bump_params, 4.0, nsteps)
        state = init_eigenmode(bump_params, bump_profile, bump_root, 4.0, cfg)
        self.assert_matches_textbook(bump_params, bump_profile, state, cfg)

    @pytest.mark.parametrize("nsteps", [1, 7, 9])
    def test_runs_with_a_partial_block(self, bump_params, bump_profile, bump_root,
                                       nsteps):
        # a run shorter than one block of eight steps, or one block and one step
        cfg = bump_window_config(bump_params, 4.0, nsteps)
        state = init_eigenmode(bump_params, bump_profile, bump_root, 4.0, cfg)
        traj = integrate(bump_params, bump_profile, state, cfg)
        states = textbook_rk4(bump_params, bump_profile, state, cfg)
        assert len(states) == nsteps + 1
        self.assert_close_to_textbook(traj, states, cfg)

    @staticmethod
    def assert_overflows_at(params, profile, root, nsteps, j):
        # a seed scaled so that the largest of |tau|, |u| and max|f| along the
        # textbook run first exceeds the overflow limit at step j: the run
        # stops there, holding the textbook's state of that step
        cfg = bump_window_config(params, 4.0, nsteps)
        state = init_eigenmode(params, profile, root, 4.0, cfg)
        states = textbook_rk4(params, profile, state, cfg)
        peaks = np.array([max(abs(s.tau_hat), abs(s.u_hat), np.abs(s.f_hat).max())
                          for s in states])
        assert np.all(np.diff(peaks[:j + 1]) > 1e-5 * peaks[1:j + 1])
        scale = 2.0 * modesim._OVERFLOW_LIMIT / (peaks[j - 1] + peaks[j])
        traj = integrate(params, profile, state.scaled(scale), cfg)
        assert traj.overflow and len(traj.times) - 1 == j
        assert traj.final_state.time == traj.times[-1] == j * (cfg.t_final / nsteps)
        assert rel(traj.tau_hat, scale * np.array([s.tau_hat for s in states[:j + 1]])) \
            <= 1e-12
        assert traj.final_state.tau_hat == traj.tau_hat[-1]
        assert rel(traj.final_state.f_hat, scale * states[j].f_hat) <= 1e-12

    def test_overflow_on_an_odd_step(self, bump_params, bump_profile, bump_root):
        self.assert_overflows_at(bump_params, bump_profile, bump_root, 201, 101)

    def test_overflow_inside_the_partial_block(self, bump_params, bump_profile,
                                               bump_root):
        # 205 = 25 * 8 + 5 steps: the last block runs steps 201..205
        self.assert_overflows_at(bump_params, bump_profile, bump_root, 205, 203)

    def test_generic_state_at_the_cfl_limit(self, maxwellian_params, std_maxwellian):
        # dt at the CFL bound gives the largest |theta| = |k| dt max|v| (0.091
        # here), where cutting the block polynomials loses most; a generic complex
        # state, and 8 m + 5 steps, so that the last block ends after five
        k, p = 1.0, maxwellian_params
        base = default_sim_config(p, std_maxwellian, k, t_final=1.0, nv=256)
        dt = modesim.cfl_limit(p, base, k)
        cfg = default_sim_config(p, std_maxwellian, k, t_final=4005 * dt, nv=256,
                                 dt=dt)
        rng = np.random.default_rng(5)
        tau, u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = rng.standard_normal(cfg.nv) + 1j * rng.standard_normal(cfg.nv)
        state = ModeState(k=k, tau_hat=tau, u_hat=u, f_hat=f)
        assert math.ceil(cfg.t_final / cfg.dt) == 4005
        self.assert_matches_textbook(p, std_maxwellian, state, cfg)

    def test_bump_eigenmode_full_grid(self, bump_params, bump_profile, bump_root):
        # the benchmark's grid: nv = 2048 over the profile support, 1,000 steps
        k = 4.0
        base = default_sim_config(bump_params, bump_profile, k, t_final=1.0, nv=2048)
        cfg = default_sim_config(bump_params, bump_profile, k,
                                 t_final=1000 * base.dt, nv=2048)
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        self.assert_matches_textbook(bump_params, bump_profile, state, cfg)

    def test_acoustic_without_coupling(self, acoustic_params, std_maxwellian):
        k = 1.0
        base = default_sim_config(acoustic_params, std_maxwellian, k, t_final=1.0,
                                  nv=256)
        cfg = default_sim_config(acoustic_params, std_maxwellian, k,
                                 t_final=200 * base.dt, nv=256)
        # kappa = 0: the table's columns eps theta^d vanish and tau, u never see f
        table = modesim._block_operator(
            acoustic_params, std_maxwellian, cfg, k, base.dt,
            np.sqrt(modesim._simpson_weights(cfg.nv, cfg.dv)), 0)[0]
        assert not np.any(table[:, :modesim._DEGREE + 1])
        state = acoustic_state(acoustic_params, k, cfg)
        self.assert_matches_textbook(acoustic_params, std_maxwellian, state, cfg)

    def test_step_map_matches_recursion(self, bump_params, bump_profile):
        # the first step of the block operator from random (tau, u, f), through
        # the table's power moments mu_d = <eps theta^d, g>, the map's tau_1, u_1
        # rows and R_1, against the stage recursion written out
        k, p = 4.0, bump_params
        cfg = default_sim_config(p, bump_profile, k, t_final=1.0, nv=256)
        dt, grid = cfg.dt, modesim.velocity_grid(cfg)
        w = modesim._simpson_weights(cfg.nv, cfg.dv)
        n = modesim._DEGREE + 1
        table, block_map, remainders, _, _, _, stream, theta = \
            modesim._block_operator(p, bump_profile, cfg, k, dt, np.sqrt(w), 0)
        assert np.array_equal(theta, -k * dt * grid)
        ikdt = 1j * k * dt
        z = -ikdt * grid
        c = -ikdt * p.c0**2 * p.rho0**2 * np.real(
            profiles.eval_df(bump_profile, grid))
        alpha0 = 1.0 - p.kappa * profiles.moment(bump_profile, 0)
        omega = ikdt * p.kappa / (alpha0 * p.rho0) * w * grid
        a, b = ikdt / p.rho0, ikdt * p.rho0 * p.c0**2
        q0, q1, q2 = (omega * z**j @ c for j in range(3))
        rng = np.random.default_rng(7)
        for _ in range(5):
            tau, u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f = rng.standard_normal(cfg.nv) + 1j * rng.standard_normal(cfg.nv)
            s0, s1, s2, s3 = (omega * z**j @ f for j in range(4))
            t1, u1 = a * u + s0, b * tau
            t2, u2 = a * u1 + s1 + q0 * tau, b * t1
            t3, u3 = a * u2 + s2 + q1 * tau + q0 * t1, b * t2
            t4, u4 = a * u3 + s3 + q2 * tau + q1 * t1 + q0 * t2, b * t3
            stage_rows = [sum(z**(j - 1 - m) * c / math.factorial(j)
                              for j in range(m + 1, 5)) for m in range(4)]
            f_next = (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) * f + sum(
                tm * row for tm, row in zip((tau, t1, t2, t3), stage_rows))
            g = np.sqrt(w) * f
            x = np.concatenate(((tau, u), table[:, :n].T @ g))
            r1 = remainders[0] @ x
            g_next = stream * g + table[:, n] * sum(r1[q] * theta**q for q in range(n))
            assert block_map[0] @ x == pytest.approx(
                tau + t1 + t2 / 2 + t3 / 6 + t4 / 24, rel=1e-13, abs=0.0)
            assert block_map[1] @ x == pytest.approx(
                u + u1 + u2 / 2 + u3 / 6 + u4 / 24, rel=1e-13, abs=0.0)
            assert np.max(np.abs(g_next / np.sqrt(w) - f_next)) <= \
                1e-13 * np.max(np.abs(f_next))

    @pytest.mark.parametrize("k, nv", [(1.0, 256), (2.0, 2048)])
    def test_rk4_dissipation_at_kappa0(self, acoustic_params, std_maxwellian, k, nv):
        # at kappa = 0 tau, u follow the acoustic eigenvalue i k c0, and |tau|
        # decays at RK4's own rate log|P(i x)| / dt, x = k c0 dt, where
        # |P(i x)|^2 = (1 - x^2/2 + x^4/24)^2 + (x - x^3/6)^2 = 1 - x^6/72 + x^8/576:
        # about -2.5e-13, so the block tables must round no more than once a block
        cfg = default_sim_config(acoustic_params, std_maxwellian, k,
                                 t_final=20.0 * math.pi, nv=nv)
        traj = integrate(acoustic_params, std_maxwellian,
                         acoustic_state(acoustic_params, k, cfg), cfg)
        dt = traj.times[1]
        x = k * acoustic_params.c0 * dt
        exact = 0.5 * math.log1p(-x**6 / 72 + x**8 / 576) / dt
        rate = growth_rate(traj, cfg.fit_window).rate
        assert rate == pytest.approx(exact, rel=3e-3, abs=0.0)


class TestInitEigenmode:
    def test_not_a_root_rejected(self, bump_params, bump_profile):
        cfg = default_sim_config(bump_params, bump_profile, 8.0, t_final=1.0, nv=2048)
        with pytest.raises(NotARoot):
            init_eigenmode(bump_params, bump_profile, 4.0 + 0.1j, 8.0, cfg)

    def test_refine_grid_guard(self, bump_params, bump_profile, bump_root):
        coarse = default_sim_config(bump_params, bump_profile, 8.0, t_final=1.0,
                                    nv=256)
        assert abs(bump_root.imag) < 3.0 * coarse.dv
        with pytest.raises(RefineGrid):
            init_eigenmode(bump_params, bump_profile, bump_root, 8.0, coarse)

    def test_decoupled_real_root_allowed(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=1.0,
                                 nv=256)
        state = init_eigenmode(acoustic_params, std_maxwellian, 1.0 + 0.0j, 1.0, cfg)
        assert state.u_hat == pytest.approx(-acoustic_params.rho0 * acoustic_params.c0)
        assert np.all(np.isfinite(state.f_hat))


class TestIntegrate:
    def test_acoustic_energy_invariant(self, acoustic_params, std_maxwellian):
        k = 1.0
        t_final = 10.0 * 2.0 * math.pi / (k * acoustic_params.c0)
        cfg = default_sim_config(acoustic_params, std_maxwellian, k,
                                 t_final=t_final, nv=256)
        traj = integrate(acoustic_params, std_maxwellian,
                         acoustic_state(acoustic_params, k, cfg), cfg)
        energy = np.abs(traj.u_hat) ** 2 + (acoustic_params.rho0
                                            * acoustic_params.c0) ** 2 \
            * np.abs(traj.tau_hat) ** 2
        assert np.max(np.abs(energy - energy[0])) / energy[0] <= 1e-6

    def test_amplitude_constant_for_neutral_mode(self, acoustic_params,
                                                 std_maxwellian):
        k = 1.0
        t_final = 10.0 * 2.0 * math.pi / (k * acoustic_params.c0)
        cfg = default_sim_config(acoustic_params, std_maxwellian, k,
                                 t_final=t_final, nv=256)
        state = init_eigenmode(acoustic_params, std_maxwellian, 1.0 + 0.0j, k, cfg)
        traj = integrate(acoustic_params, std_maxwellian, state, cfg)
        amp = np.abs(traj.tau_hat)
        assert np.max(np.abs(amp - 1.0)) <= 1e-6

    def test_final_state_at_last_step(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=3.0,
                                 nv=256)
        traj = integrate(acoustic_params, std_maxwellian,
                         acoustic_state(acoustic_params, 1.0, cfg), cfg)
        assert traj.final_state.time == pytest.approx(traj.times[-1])
        assert traj.final_state.tau_hat == traj.tau_hat[-1]

    def test_zero_state_stays_zero(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=2.0,
                                 nv=256)
        state = ModeState(k=1.0, tau_hat=0.0, u_hat=0.0,
                          f_hat=np.zeros(cfg.nv, dtype=complex))
        traj = integrate(acoustic_params, std_maxwellian, state, cfg)
        assert np.all(traj.tau_hat == 0.0) and np.all(traj.u_hat == 0.0)

    def test_linearity_of_trajectories(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=3.0,
                                 nv=256)
        a = acoustic_state(acoustic_params, 1.0, cfg, direction=1)
        b = acoustic_state(acoustic_params, 1.0, cfg, direction=-1)
        combined = ModeState(k=1.0, tau_hat=a.tau_hat + b.tau_hat,
                             u_hat=a.u_hat + b.u_hat, f_hat=a.f_hat + b.f_hat)
        ta = integrate(acoustic_params, std_maxwellian, a, cfg)
        tb = integrate(acoustic_params, std_maxwellian, b, cfg)
        tc = integrate(acoustic_params, std_maxwellian, combined, cfg)
        np.testing.assert_allclose(tc.tau_hat, ta.tau_hat + tb.tau_hat, atol=1e-10)
        np.testing.assert_allclose(tc.u_hat, ta.u_hat + tb.u_hat, atol=1e-10)

    def test_fourth_order_convergence(self, acoustic_params, std_maxwellian):
        k = 1.0
        base = default_sim_config(acoustic_params, std_maxwellian, k, t_final=2.0,
                                  nv=256)
        exact = np.exp(-1j * k * acoustic_params.c0 * 2.0)

        def final_error(dt):
            cfg = SimConfig(nv=base.nv, v_bounds=base.v_bounds, dt=dt,
                            t_final=2.0, fit_window=base.fit_window)
            traj = integrate(acoustic_params, std_maxwellian,
                             acoustic_state(acoustic_params, k, cfg), cfg)
            return abs(traj.tau_hat[-1] - exact)

        e1 = final_error(4e-3)
        e2 = final_error(2e-3)
        assert 12.0 <= e1 / e2 <= 20.0

    def test_cfl_violation(self, acoustic_params, std_maxwellian):
        cfg = SimConfig(nv=256, v_bounds=(-10.0, 10.0), dt=1.0, t_final=2.0,
                        fit_window=(0.2, 0.8))
        with pytest.raises(CflViolation):
            integrate(acoustic_params, std_maxwellian,
                      acoustic_state(acoustic_params, 1.0, cfg), cfg)

    def test_default_config_refuses_dt_above_the_cfl_bound(self, acoustic_params,
                                                           std_maxwellian):
        # a given dt is an input: above the bound it is refused as a bad value
        base = default_sim_config(acoustic_params, std_maxwellian, 1.0, 2.0)
        limit = modesim.cfl_limit(acoustic_params, base, 1.0)
        assert base.dt == 0.9 * limit
        assert default_sim_config(acoustic_params, std_maxwellian, 1.0, 2.0,
                                  dt=limit).dt == limit
        with pytest.raises(ValueError):
            default_sim_config(acoustic_params, std_maxwellian, 1.0, 2.0,
                               dt=1.01 * limit)

    def test_recurrence_guard(self, acoustic_params, std_maxwellian):
        cfg = SimConfig(nv=256, v_bounds=(-10.0, 10.0), dt=5e-3, t_final=200.0,
                        fit_window=(10.0, 20.0))
        with pytest.raises(ValueError):
            integrate(acoustic_params, std_maxwellian,
                      acoustic_state(acoustic_params, 1.0, cfg), cfg)

    def test_default_config_refuses_recurrence(self, acoustic_params, std_maxwellian):
        with pytest.raises(ValueError, match="recurrence time"):
            default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=1e6, nv=256)

    def test_overflow_flag(self, bump_params, bump_profile, bump_root):
        k = 8.0
        cfg = default_sim_config(bump_params, bump_profile, k, t_final=4.0, nv=2048)
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        # the 3e148-scaled seed already has max|f| above 1e150 at t = 0, so
        # the check stops the run at its first step
        huge = state.scaled(3e148)
        traj = integrate(bump_params, bump_profile, huge, cfg)
        assert traj.overflow
        assert len(traj.times) - 1 == 1

    def test_overflow_flag_mid_run(self, bump_params, bump_profile, bump_root):
        # max|f| starts at 1e150 / 3 and the growing mode crosses 1e150 late
        k = 8.0
        cfg = default_sim_config(bump_params, bump_profile, k, t_final=4.0, nv=2048)
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        seed = state.scaled(1e150 / (3.0 * np.max(np.abs(state.f_hat))))
        traj = integrate(bump_params, bump_profile, seed, cfg)
        assert traj.overflow
        assert len(traj.times) - 1 == 3042
        assert 0.0 < traj.times[-1] < 4.0

    def test_non_finite_norm_overflows(self, maxwellian_params, std_maxwellian):
        # f = 1e155 makes sum w |f|^2 inf and the block's norms inf or NaN:
        # either must trip the overflow alarm, and max|f| stops the run at once;
        # the alarm handles such a state, so numpy must not warn about it
        cfg = default_sim_config(maxwellian_params, std_maxwellian, 1.0, t_final=1.0,
                                 nv=256)
        state = ModeState(k=1.0, tau_hat=0.0, u_hat=0.0,
                          f_hat=np.full(cfg.nv, 1e155, dtype=complex))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = integrate(maxwellian_params, std_maxwellian, state, cfg)
        assert traj.kinetic_l2[0] == math.inf
        assert traj.overflow
        assert len(traj.times) - 1 == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_kinetic_norm_of_states(self, bump_params, bump_profile, bump_root):
        # kinetic_l2 is sqrt(sum w |f|^2) at the initial and the final state
        k = 8.0
        cfg = default_sim_config(bump_params, bump_profile, k, t_final=4.0, nv=2048)
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        traj = integrate(bump_params, bump_profile, state, cfg)
        weights = modesim._simpson_weights(cfg.nv, cfg.dv)
        for i, f_hat in ((0, state.f_hat), (-1, traj.final_state.f_hat)):
            want = math.sqrt(weights @ np.abs(f_hat) ** 2)
            assert traj.kinetic_l2[i] == pytest.approx(want, rel=1e-14, abs=0.0)


class TestGrowthRate:
    def test_neutral_mode_rate(self, acoustic_params, std_maxwellian):
        k = 1.0
        t_final = 10.0 * 2.0 * math.pi / (k * acoustic_params.c0)
        cfg = default_sim_config(acoustic_params, std_maxwellian, k,
                                 t_final=t_final, nv=256)
        traj = integrate(acoustic_params, std_maxwellian,
                         acoustic_state(acoustic_params, k, cfg), cfg)
        fit = growth_rate(traj, cfg.fit_window)
        assert abs(fit.rate) <= 1e-4 * k * acoustic_params.c0

    def test_damped_rate_from_smooth_seed(self, std_maxwellian):
        # decay rates (roots with Im sigma < 0) are measured from smooth
        # initial data; the continued-eigenfunction seed is van Kampen noisy
        params = dispersion.make_params(std_maxwellian, c0=1.0, rho0=1.0,
                                        kappa=0.05)
        roots = find_roots(params, std_maxwellian,
                           SearchRegion(0.5, 1.5, -0.1, 0.05), tol=1e-11)
        sigma = min(roots, key=lambda r: abs(r.sigma - 1.0)).sigma
        assert sigma.imag < 0
        k = 4.0
        cfg = default_sim_config(params, std_maxwellian, k, t_final=20.0, nv=4096)
        traj = integrate(params, std_maxwellian,
                         acoustic_state(params, k, cfg), cfg)
        fit = growth_rate(traj, cfg.fit_window)
        assert fit.rate < 0
        assert fit.rate == pytest.approx(k * sigma.imag, rel=0.10)

    @pytest.mark.parametrize("c0,kappa", [(1.0, 0.05), (1.0, 0.2), (1.5, 0.1)])
    def test_acoustic_decay_matches_the_least_damped_root(self, std_maxwellian, c0,
                                                          kappa):
        # the time-domain oracle of the damping rate: an acoustic wave on the
        # unit Maxwellian, run through the RK4 kinetic solver rather than the
        # Cauchy kernel, decays at Im sigma of find_roots' least-damped root
        # (relative gaps measured 3.3e-5 to 1.3e-4)
        params = dispersion.make_params(std_maxwellian, c0=c0, rho0=1.0, kappa=kappa)
        roots = find_roots(params, std_maxwellian,
                           SearchRegion(0.3 * c0, 2.0 * c0, -0.5, 0.02))
        sigma = max(roots, key=lambda r: r.sigma.imag).sigma
        cfg = default_sim_config(params, std_maxwellian, 1.0, t_final=200.0, nv=4096)
        traj = integrate(params, std_maxwellian, acoustic_state(params, 1.0, cfg), cfg)
        rate = growth_rate(traj, cfg.fit_window).rate
        assert rate == pytest.approx(sigma.imag, rel=5e-4, abs=0.0)

    def test_unstable_mode_matches_root(self, bump_params, bump_profile, bump_root):
        k = 8.0
        t_final = 6.0 / (k * bump_root.imag)
        cfg = default_sim_config(bump_params, bump_profile, k, t_final=t_final,
                                 nv=2048)
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        traj = integrate(bump_params, bump_profile, state, cfg)
        fit = growth_rate(traj, cfg.fit_window)
        assert fit.rate == pytest.approx(k * bump_root.imag, rel=0.02)

    def test_scaling_invariance(self, bump_params, bump_profile, bump_root):
        k = 8.0
        cfg = default_sim_config(bump_params, bump_profile, k, t_final=1.0, nv=2048)
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        t1 = integrate(bump_params, bump_profile, state, cfg)
        t2 = integrate(bump_params, bump_profile, state.scaled(37.0), cfg)
        f1 = growth_rate(t1, cfg.fit_window)
        f2 = growth_rate(t2, cfg.fit_window)
        assert f1.rate == pytest.approx(f2.rate, rel=1e-9)

    def test_k_scaling_of_rates(self, bump_params, bump_profile, bump_root):
        rates = []
        for k in (8.0, 16.0):
            t_final = 4.0 / (k * bump_root.imag)
            cfg = default_sim_config(bump_params, bump_profile, k,
                                     t_final=t_final, nv=2048)
            state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
            traj = integrate(bump_params, bump_profile, state, cfg)
            rates.append(growth_rate(traj, cfg.fit_window).rate)
        assert rates[1] == pytest.approx(2.0 * rates[0], rel=0.03)

    def test_wiggly_amplitude_degenerate(self, acoustic_params, std_maxwellian):
        # superpose counter-propagating acoustic modes: |tau| oscillates and no
        # single rate describes the window
        k = 1.0
        cfg = default_sim_config(acoustic_params, std_maxwellian, k, t_final=30.0,
                                 nv=256)
        a = acoustic_state(acoustic_params, k, cfg, direction=1)
        b = acoustic_state(acoustic_params, k, cfg, direction=-1)
        both = ModeState(k=k, tau_hat=a.tau_hat + 1.05 * b.tau_hat,
                         u_hat=a.u_hat + 1.05 * b.u_hat,
                         f_hat=a.f_hat + 1.05 * b.f_hat)
        traj = integrate(acoustic_params, std_maxwellian, both, cfg)
        with pytest.raises(DegenerateFit):
            growth_rate(traj, cfg.fit_window)

    def test_any_time_scale(self, capfd):
        # the same log|tau| on times scaled by 1e-300, 1 and 1e300: the rate
        # scales with them, and the fit writes nothing to stderr
        base = np.linspace(0.0, 10.0, 501)
        log_amp = 0.3 * base + 1e-3 * np.sin(7.0 * base)
        rates = []
        for scale in (1e-300, 1.0, 1e300):
            state = ModeState(k=1.0, tau_hat=1.0, u_hat=0.0, f_hat=np.zeros(4))
            traj = modesim.Trajectory(
                k=1.0, times=scale * base, tau_hat=np.exp(log_amp + 0j),
                u_hat=np.zeros(501), kinetic_l2=np.zeros(501), overflow=False,
                final_state=state)
            rates.append(scale * growth_rate(traj, (2.0 * scale, 8.0 * scale)).rate)
        assert rates[0] == pytest.approx(rates[1], rel=1e-12, abs=0.0)
        assert rates[2] == pytest.approx(rates[1], rel=1e-12, abs=0.0)
        assert rates[1] == pytest.approx(0.3, rel=1e-2)
        assert capfd.readouterr().err == ""

    def test_window_needs_samples(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=2.0,
                                 nv=256)
        traj = integrate(acoustic_params, std_maxwellian,
                         acoustic_state(acoustic_params, 1.0, cfg), cfg)
        with pytest.raises(ValueError):
            growth_rate(traj, (1.0, 1.0001))


class TestScalingExperiment:
    def test_stable_profile_refuses(self, maxwellian_params, std_maxwellian):
        region = dispersion.verdict_region(maxwellian_params, std_maxwellian)
        with pytest.raises(NoUnstableRoot):
            sobolev_scaling_experiment(maxwellian_params, std_maxwellian, region,
                                       s=1.0, n_exponent=2.0,
                                       k_list=[8.0, 16.0, 32.0], nv=512)

    def test_bump_table_properties(self, bump_params, bump_profile):
        region = dispersion.verdict_region(bump_params, bump_profile)
        report = sobolev_scaling_experiment(bump_params, bump_profile, region, s=1.0,
                                            n_exponent=2.0,
                                            k_list=[8.0, 16.0, 32.0], nv=2048)
        inits = [r.init_hs_norm for r in report.rows]
        assert all(b < a for a, b in zip(inits, inits[1:]))
        assert report.theta0 > 0.0
        rates = [r.fitted_rate for r in report.rows]
        assert rates[1] == pytest.approx(2.0 * rates[0], rel=0.05)
        assert rates[2] == pytest.approx(2.0 * rates[1], rel=0.05)
        assert report.sigma.imag > 0.0

    def test_recurrence_refused_before_the_root_search(self, bump_params, bump_profile,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("root search started")

        region = dispersion.verdict_region(bump_params, bump_profile)
        monkeypatch.setattr(dispersion, "find_roots", refuse)
        for k_list in ([8.0, 16.0, 1e300], [1.0, 16.0, 32.0]):
            with pytest.raises(ValueError):
                sobolev_scaling_experiment(bump_params, bump_profile, region, s=1.0,
                                           n_exponent=2.0, k_list=k_list)

    def test_argument_validation(self, bump_params, bump_profile):
        region = dispersion.verdict_region(bump_params, bump_profile)
        with pytest.raises(ValueError):
            sobolev_scaling_experiment(bump_params, bump_profile, region, s=2.0,
                                       n_exponent=1.0, k_list=[8.0, 16.0, 32.0])
        with pytest.raises(ValueError):
            sobolev_scaling_experiment(bump_params, bump_profile, region, s=1.0,
                                       n_exponent=2.0, k_list=[8.0, 16.0])
