import math

import numpy as np
import pytest

from spraywaves import dispersion, modesim
from spraywaves.dispersion import SearchRegion, find_roots
from spraywaves.errors import (CflViolation, DegenerateFit, NoUnstableRoot,
                               NotARoot, RefineGrid)
from spraywaves.modesim import (ModeState, SimConfig, acoustic_state,
                                default_sim_config, growth_rate,
                                init_eigenmode, integrate, recurrence_time,
                                rhs, sobolev_scaling_experiment)

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
    """Four classical stages of rhs per step, at the step integrate() uses."""
    nsteps = max(1, math.ceil(cfg.t_final / cfg.dt))
    dt = cfg.t_final / nsteps

    def axpy(s, h, d):
        return ModeState(k=s.k, tau_hat=s.tau_hat + h * d.tau_hat,
                         u_hat=s.u_hat + h * d.u_hat, f_hat=s.f_hat + h * d.f_hat)

    taus, us = [state.tau_hat], [state.u_hat]
    for _ in range(nsteps):
        k1 = rhs(params, profile, state, cfg)
        k2 = rhs(params, profile, axpy(state, dt / 2, k1), cfg)
        k3 = rhs(params, profile, axpy(state, dt / 2, k2), cfg)
        k4 = rhs(params, profile, axpy(state, dt, k3), cfg)
        for stage, weight in ((k1, 1.0), (k2, 2.0), (k3, 2.0), (k4, 1.0)):
            state = axpy(state, weight * dt / 6.0, stage)
        taus.append(state.tau_hat)
        us.append(state.u_hat)
    return np.array(taus), np.array(us), state.f_hat


class TestClosedFormStep:
    """integrate() applies each RK4 step in closed form; rhs is the reference L."""

    @staticmethod
    def assert_matches_textbook(params, profile, state, cfg):
        traj = integrate(params, profile, state, cfg)
        taus, us, f = textbook_rk4(params, profile, state, cfg)
        assert len(traj.times) == len(taus) >= 200
        rel = lambda a, b: np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert rel(traj.tau_hat, taus) <= 1e-12
        assert rel(traj.u_hat, us) <= 1e-12
        assert rel(traj.final_state.f_hat, f) <= 1e-12

    def test_bump_eigenmode(self, bump_params, bump_profile, bump_root):
        # a narrow window around the bump resolves Im sigma at nv = 256
        k = 4.0
        base = SimConfig(nv=256, v_bounds=(3.0, 7.0), dt=1.0, t_final=1.0,
                         fit_window=(0.2, 0.8))
        dt = 0.9 * modesim.cfl_limit(bump_params, base, k)
        cfg = SimConfig(nv=256, v_bounds=(3.0, 7.0), dt=dt, t_final=200 * dt,
                        fit_window=(0.0, 200 * dt))
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        self.assert_matches_textbook(bump_params, bump_profile, state, cfg)

    def test_acoustic_without_coupling(self, acoustic_params, std_maxwellian):
        k = 1.0
        base = default_sim_config(acoustic_params, std_maxwellian, k, t_final=1.0,
                                  nv=256)
        cfg = default_sim_config(acoustic_params, std_maxwellian, k,
                                 t_final=200 * base.dt, nv=256)
        state = acoustic_state(acoustic_params, k, cfg)
        self.assert_matches_textbook(acoustic_params, std_maxwellian, state, cfg)


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

    def test_snapshots_sampled_along_run(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=3.0,
                                 nv=256)
        traj = integrate(acoustic_params, std_maxwellian,
                         acoustic_state(acoustic_params, 1.0, cfg), cfg)
        assert len(traj.snapshots) >= 16
        assert traj.snapshots[0].time == 0.0
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

    def test_kinetic_norm_of_snapshots(self, bump_params, bump_profile, bump_root):
        # kinetic_l2 is sqrt(sum w |f|^2) at every recorded state
        k = 8.0
        cfg = default_sim_config(bump_params, bump_profile, k, t_final=4.0, nv=2048)
        state = init_eigenmode(bump_params, bump_profile, bump_root, k, cfg)
        traj = integrate(bump_params, bump_profile, state, cfg)
        weights = modesim._simpson_weights(cfg.nv, cfg.dv)
        for snap in traj.snapshots:
            i = int(round(snap.time / traj.times[1]))
            want = math.sqrt(weights @ np.abs(snap.f_hat) ** 2)
            assert traj.kinetic_l2[i] == pytest.approx(want, rel=1e-14)


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

    def test_window_needs_samples(self, acoustic_params, std_maxwellian):
        cfg = default_sim_config(acoustic_params, std_maxwellian, 1.0, t_final=2.0,
                                 nv=256)
        traj = integrate(acoustic_params, std_maxwellian,
                         acoustic_state(acoustic_params, 1.0, cfg), cfg)
        with pytest.raises(ValueError):
            growth_rate(traj, (1.0, 1.0001))


class TestScalingExperiment:
    def test_stable_profile_refuses(self, maxwellian_params, std_maxwellian):
        with pytest.raises(NoUnstableRoot):
            sobolev_scaling_experiment(maxwellian_params, std_maxwellian,
                                       s=1.0, n_exponent=2.0,
                                       k_list=[8.0, 16.0, 32.0], nv=512)

    def test_bump_table_properties(self, bump_params, bump_profile):
        report = sobolev_scaling_experiment(bump_params, bump_profile, s=1.0,
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

        monkeypatch.setattr(dispersion, "find_roots", refuse)
        for k_list in ([8.0, 16.0, 1e300], [1.0, 16.0, 32.0]):
            with pytest.raises(ValueError):
                sobolev_scaling_experiment(bump_params, bump_profile, s=1.0,
                                           n_exponent=2.0, k_list=k_list)

    def test_argument_validation(self, bump_params, bump_profile):
        with pytest.raises(ValueError):
            sobolev_scaling_experiment(bump_params, bump_profile, s=2.0,
                                       n_exponent=1.0, k_list=[8.0, 16.0, 32.0])
        with pytest.raises(ValueError):
            sobolev_scaling_experiment(bump_params, bump_profile, s=1.0,
                                       n_exponent=2.0, k_list=[8.0, 16.0])
