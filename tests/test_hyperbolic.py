import math

import numpy as np
import pytest

from conftest import mp_transform, mp_transform_derivative, system_mode_sigmas
from scipy import integrate as scipy_integrate
from spraywaves import hyperbolic, profiles, quadrature
from spraywaves.dispersion import SearchRegion, find_roots
from spraywaves.errors import DegenerateSpectrum
from spraywaves.hyperbolic import (DECOUPLED, STABLE_MODE, UNSTABLE_MODE,
                                   SystemCoupling, pole_free_secular, scalar_law,
                                   scalar_root, stability_necessary_condition,
                                   symmetric_eigen, track_secular_root)


def p0(c: SystemCoupling, omega):
    """P_0 of the scalar law: -G(omega), G the scalar dispersion function
    omega - lambda0 + kappa C[v f'/(v - omega)]."""
    return pole_free_secular(c, 0, c.kappa, omega)


def dense_secular(s: SystemCoupling, sigma: complex) -> complex:
    """Oracle S(sigma) = 1 - kappa <grad_psi, (A - sigma)^(-1) I(sigma)> by a dense
    resolvent solve, with no eigenpairs and no moments of f: component i of
    I(sigma) = int p_i(v) f'(v)/(v - sigma) dv, p_i(v) = sum_k phi_k[i] v**k, is
    p_i(sigma) C(sigma) + sum_m q_m int v**m f' dv, q = (p_i(v) - p_i(sigma))/(v - sigma)
    by polynomial division and the regular integrals by scipy's adaptive
    quadrature over the profile's support, cut at its bump edges."""
    poly, phi = np.polynomial.polynomial, np.array(s.phi_coeffs, dtype=complex)
    lo, hi = profiles.support_bounds(s.profile)
    df = lambda v: float(np.real(profiles.eval_df(s.profile, v)))
    plain = [scipy_integrate.quad(lambda v: v**m * df(v), lo, hi, limit=200,
                                  points=profiles.bump_edges(s.profile) or None)[0]
             for m in range(len(phi) - 1)]
    c = quadrature.cauchy_transform(s.profile, sigma)
    ivec = []
    for p in phi.T:
        p_sigma = poly.polyval(sigma, p)
        q = poly.polydiv(np.append(p[0] - p_sigma, p[1:]), [-sigma, 1.0])[0]
        ivec.append(p_sigma * c + np.dot(q[:len(plain)], plain))
    x = np.linalg.solve(s.a_matrix - sigma * np.eye(len(ivec)), np.array(ivec))
    return 1.0 - s.kappa * complex(np.dot(s.grad_psi, x))


def leading_imag(c: SystemCoupling) -> float:
    """Leading-order Im omega of the scalar law: kappa times the imag_rate of
    mode 0, -pi kappa lambda0 f'(lambda0)."""
    return c.kappa * stability_necessary_condition(c)[0].imag_rate


@pytest.fixture(scope="module")
def fixture_systems(std_maxwellian):
    """Three admissible couplings: N=2 passing, N=2 failing, N=3 mixed."""
    a2 = np.array([[1.0, 0.3], [0.3, 2.0]])
    gp2 = np.array([1.0, 0.4])
    passing = SystemCoupling(a2, gp2, ((-1.0, -0.4),), 1e-4, std_maxwellian)
    failing = SystemCoupling(a2, gp2, ((1.0, 0.4),), 1e-4, std_maxwellian)
    a3 = np.array([[0.5, 0.1, 0.0], [0.1, 1.3, 0.2], [0.0, 0.2, 2.2]])
    gp3 = np.array([0.8, -0.3, 0.5])
    mixed = SystemCoupling(a3, gp3, ((0.2, 0.1, -0.4), (0.5, 0.0, 0.3)),
                           1e-4, std_maxwellian)
    return passing, failing, mixed


class TestScalarDispersion:
    def test_uncoupled_is_affine(self, std_maxwellian):
        c = scalar_law(1.0, 0.0, std_maxwellian)
        assert p0(c, 3.0) == pytest.approx(-2.0)
        assert p0(c, 1.0) == 0.0

    def test_axis_continuation_term(self, std_maxwellian):
        # on-axis value includes - i pi kappa omega f'(omega)
        kappa = 5e-3
        c = scalar_law(1.0, kappa, std_maxwellian)
        omega = 0.8
        val = p0(c, omega)
        slope = profiles.eval_df(std_maxwellian, omega).real
        assert val.imag == pytest.approx(-math.pi * kappa * omega * slope, rel=1e-10)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_plemelj_continuity(self, std_maxwellian, eps):
        c = scalar_law(1.0, 5e-3, std_maxwellian)
        up = p0(c, 0.8 + 1j * eps)
        ax = p0(c, 0.8)
        assert abs(up - ax) <= 10.0 * eps

    def test_lambda_zero_rejected(self, std_maxwellian):
        with pytest.raises(ValueError):
            scalar_law(0.0, 1e-3, std_maxwellian)


class TestScalarRoot:
    def test_uncoupled_root(self, std_maxwellian):
        c = scalar_law(1.0, 0.0, std_maxwellian)
        report = scalar_root(c)
        assert report.sigma == pytest.approx(1.0)

    @pytest.mark.parametrize("lambda0", [1.0, 600.0, -0.3])
    def test_uncoupled_root_needs_no_strip(self, lambda0):
        # at kappa = 0 the law is omega - lambda0: its count square may reach
        # below a bump strip (half-width 0.6 at lambda0 = 600, bump strip 0.1)
        for prof in (profiles.maxwellian(),
                     profiles.make_bump_on_tail(profiles.maxwellian(), 0.05, 0.2, 5.0)):
            report = scalar_root(scalar_law(lambda0, 0.0, prof))
            assert report.sigma == complex(lambda0)
            assert (report.residual, report.winding_evidence) == (0.0, 1)
            assert type(report.sigma) is complex and type(report.residual) is float

    @pytest.mark.parametrize("kappa,sign", [(1e-3, +1), (-1e-3, -1)])
    def test_imaginary_sign_tracks_kappa(self, std_maxwellian, kappa, sign):
        # decaying f at lambda0 = 1: positive kappa amplifies, negative damps
        c = scalar_law(1.0, kappa, std_maxwellian)
        report = scalar_root(c)
        assert math.copysign(1.0, report.sigma.imag) == sign
        assert report.winding_evidence >= 1

    def test_matches_leading_order(self, std_maxwellian):
        c = scalar_law(1.0, 1e-3, std_maxwellian)
        lead = leading_imag(c)
        root = scalar_root(c)
        assert root.sigma.imag == pytest.approx(lead, rel=0.05)

    @pytest.mark.parametrize("kappa", [1e-3, 0.05, 2.0])
    def test_root_is_the_tracked_root(self, std_maxwellian, kappa):
        # the certified root is mode 0's tracked root, polished
        c = scalar_law(1.0, kappa, std_maxwellian)
        root = scalar_root(c)
        assert abs(root.sigma - track_secular_root(c, 0, kappa)) <= 1e-9
        assert root.winding_evidence == 1

    def test_large_kappa(self, std_maxwellian):
        # no cap on kappa: the count square of an upper root stays above the axis
        root = scalar_root(scalar_law(1.0, 0.5, std_maxwellian))
        assert root.sigma == pytest.approx(1.042507 + 0.305488j, abs=1e-6)
        assert root.winding_evidence == 1 and root.residual <= 1e-12


class TestScalarLeading:
    def test_zero_kappa(self, std_maxwellian):
        c = scalar_law(1.0, 0.0, std_maxwellian)
        assert leading_imag(c) == 0.0

    def test_gaussian_arithmetic(self, std_maxwellian):
        c = scalar_law(1.0, 1e-3, std_maxwellian)
        expected = math.pi * 1e-3 * 0.24197072451914337
        assert leading_imag(c) == pytest.approx(expected, rel=1e-12)
        assert leading_imag(c) == pytest.approx(7.602e-4, rel=1e-3)

    def test_sign_flips_with_kappa(self, std_maxwellian):
        plus = scalar_law(1.0, 1e-3, std_maxwellian)
        minus = scalar_law(1.0, -1e-3, std_maxwellian)
        assert leading_imag(plus) == -leading_imag(minus)


class TestSymmetricEigen:
    def test_identity_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            symmetric_eigen(np.eye(2))

    def test_diagonal(self):
        pairs = symmetric_eigen(np.diag([1.0, 3.0]))
        assert pairs[0][0] == pytest.approx(1.0)
        np.testing.assert_allclose(pairs[0][1], [1.0, 0.0], atol=1e-14)
        assert pairs[1][0] == pytest.approx(3.0)
        np.testing.assert_allclose(pairs[1][1], [0.0, 1.0], atol=1e-14)

    def test_acoustic_matrix(self):
        pairs = symmetric_eigen(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert [ev for ev, _ in pairs] == pytest.approx([-2.0, 2.0])

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            raw = rng.normal(size=(4, 4))
            a = 0.5 * (raw + raw.T) + np.diag([0.0, 2.0, 4.0, 6.0])
            try:
                pairs = symmetric_eigen(a)
            except DegenerateSpectrum:
                continue
            evals = np.array([ev for ev, _ in pairs])
            expected = np.linalg.eigvalsh(a)
            np.testing.assert_allclose(evals, expected, atol=1e-10)
            for ev, r in pairs:
                assert np.linalg.norm(a @ r - ev * r) <= 1e-10 * max(
                    1.0, np.max(np.abs(a)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_rejected(self, bad, where):
        # a comparison with NaN is false: each entry is refused, none solved
        a = np.array([[1.0, 0.2], [0.2, 3.0]])
        a[where] = a[where[::-1]] = bad
        with pytest.raises(ValueError, match="finite"):
            symmetric_eigen(a)


class TestSecularFunction:
    def test_uncoupled_identity(self, fixture_systems):
        # S = 1 at kappa = 0: P_j(sigma) = sigma_j - sigma for every mode
        passing, _, _ = fixture_systems
        z = 1.5 + 0.5j
        for j, (sigma_j, _) in enumerate(passing.eigenpairs):
            assert pole_free_secular(passing, j, 0.0, z) == sigma_j - z

    @pytest.mark.parametrize("kappa", [2e-3, 1e-3, 5e-4, 2e-4, 1e-4])
    def test_scalar_equivalence(self, std_maxwellian, kappa):
        c = scalar_law(1.0, kappa, std_maxwellian)
        scalar = scalar_root(c).sigma
        system = track_secular_root(c, 0, kappa)
        assert abs(system - scalar) <= 1e-9

    def test_thick_spray_embedding(self, std_maxwellian, maxwellian_params):
        # symmetrized acoustics with the kinetic feedback reproduces the
        # dispersion-module roots
        p = maxwellian_params
        a = np.array([[0.0, -p.c0], [-p.c0, 0.0]])
        grad_psi = np.array([p.rho0 * p.c0, 0.0])
        alpha0 = 1.0 - p.kappa * profiles.moment(std_maxwellian, 0)
        phi_coeffs = ((0.0, 0.0), (-p.c0 / alpha0, 0.0))
        system = SystemCoupling(a, grad_psi, phi_coeffs, p.kappa, std_maxwellian)
        sec_plus = track_secular_root(system, 1, p.kappa)
        roots = find_roots(p, std_maxwellian, SearchRegion(0.5, 1.5, -0.05, 0.02),
                           tol=1e-12)
        disp_root = min(roots, key=lambda r: abs(r.sigma - p.c0))
        assert abs(sec_plus - disp_root.sigma) <= 1e-8


class TestSystemCoupling:
    @pytest.mark.parametrize("field", ["a_matrix", "grad_psi", "phi_coeffs", "kappa"])
    def test_non_finite_rejected(self, std_maxwellian, field):
        args = {"a_matrix": np.diag([1.0, 2.0]), "grad_psi": np.array([1.0, 0.5]),
                "phi_coeffs": ((1.0, 1.0),), "kappa": 1e-4, "profile": std_maxwellian}
        args[field] = {"a_matrix": np.diag([1.0, math.nan]),
                       "grad_psi": np.array([1.0, math.inf]),
                       "phi_coeffs": ((math.nan, 1.0),), "kappa": math.nan}[field]
        with pytest.raises(ValueError, match="finite"):
            SystemCoupling(**args)

    def test_degenerate_spectrum_at_construction(self, std_maxwellian):
        # the matrix is solved as the system is built, not at first use
        with pytest.raises(DegenerateSpectrum):
            SystemCoupling(np.eye(2), np.array([1.0, 0.5]), ((1.0, 1.0),), 1e-4,
                           std_maxwellian)


class TestTrackSecularRoot:
    def test_modal_sum_matches_resolvent_solve(self, fixture_systems):
        # P_j(sigma) / (sigma_j - sigma), summed over the modal table, is the S of
        # a dense resolvent solve for every j
        for system in fixture_systems:
            for sigma in (0.7 + 0.01j, 1.5 - 0.02j, 2.5 + 0.0j, 1.0001 + 1e-9j):
                expected = dense_secular(system, sigma)
                for j, (sigma_j, _) in enumerate(system.eigenpairs):
                    got = pole_free_secular(system, j, system.kappa, sigma)
                    assert abs(got / (sigma_j - sigma) - expected) <= \
                        1e-13 * max(1.0, abs(expected))

    def test_weak_mode(self, std_maxwellian):
        # the root sits kappa |sigma'(0)| ~ 1.3e-6 from the pole at sigma_1 = 2
        weak = SystemCoupling(np.diag([1.0, 2.0]), np.array([1.0, 0.03]),
                              ((1.0, 1.0),), 1e-4, std_maxwellian)
        tracked = track_secular_root(weak, 1, 1e-4)
        assert tracked == pytest.approx(complex(1.99999916006, 1.0176e-6), abs=1e-10)
        assert abs(dense_secular(weak, tracked)) <= 1e-9

    @pytest.mark.parametrize("grad_psi_2", [1e-3, 3e-4, 1e-4])
    def test_root_within_rounding_of_eigenvalue(self, std_maxwellian, grad_psi_2):
        # the root lies 4.4e-8 to 4.4e-9 from sigma_1 = 2, where |S| <= 1e-9 would
        # need |P_1| below the rounding of sigma_1 - sigma; the floor accepts it
        system = SystemCoupling(np.diag([1.0, 2.0]), np.array([1.0, grad_psi_2]),
                                ((1.0, 1.0),), 1e-4, std_maxwellian)
        tracked = track_secular_root(system, 1, 1e-4)

        def pole_free(z):    # (sigma_1 - z) S(z) from a dense resolvent solve
            return (2.0 - z) * dense_secular(system, z)

        floor = 8.0 * np.finfo(float).eps * 2.0
        assert abs(pole_free(tracked)) <= 2.0 * floor
        z, h = complex(tracked) + 1e-9, 1e-7
        for _ in range(8):
            z -= pole_free(z) / ((pole_free(z + h) - pole_free(z - h)) / (2.0 * h))
        assert abs(tracked - z) <= 1e-13
        assert 0.0 < abs(tracked - 2.0) < 1e-7 and tracked.imag > 0.0

    def test_uncoupled_target_returns_eigenvalue(self, fixture_systems):
        passing, _, _ = fixture_systems
        for j, (sigma_j, _) in enumerate(passing.eigenpairs):
            assert track_secular_root(passing, j, 0.0) == sigma_j

    def test_three_evaluations_on_a_seeded_system(self, std_maxwellian, monkeypatch):
        # the seed's projection and at most two Newton steps, each one kernel
        # call for every phi power, the value and the derivative, and the
        # acceptance test reads Newton's own |P_j|
        rng = np.random.default_rng(23)
        raw = rng.normal(size=(3, 3))
        system = SystemCoupling(0.75 * (raw + raw.T), rng.normal(size=3),
                                tuple(map(tuple, rng.normal(size=(2, 3)))), 1e-3,
                                std_maxwellian)
        calls = []
        transform = quadrature.cauchy_transform
        monkeypatch.setattr(quadrature, "cauchy_transform",
                            lambda *args: calls.append(args) or transform(*args))
        for j in range(3):
            calls.clear()
            tracked = track_secular_root(system, j, system.kappa)
            assert len(calls) <= 3
            assert abs(dense_secular(system, tracked)) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_systems_track_every_mode(self, std_maxwellian, n):
        rng = np.random.default_rng(20 + n)
        worst = 0.0
        for _ in range(25):
            raw = rng.normal(size=(n, n))
            system = SystemCoupling(0.75 * (raw + raw.T), rng.normal(size=n),
                                    tuple(map(tuple, rng.normal(size=(2, n)))),
                                    float(rng.uniform(1e-4, 1e-3)), std_maxwellian)
            for j in range(n):
                tracked = track_secular_root(system, j, system.kappa)
                worst = max(worst, abs(dense_secular(system, tracked)))
        assert worst <= 1e-9


class TestImagDerivative:
    def test_zero_at_profile_peak(self, std_maxwellian):
        system = SystemCoupling(np.diag([0.0, 2.0]) + np.array([[0, 1e-3], [1e-3, 0]]),
                                np.array([1.0, 1.0]), ((1.0, 1.0),),
                                1e-4, std_maxwellian)
        pairs = symmetric_eigen(system.a_matrix)
        assert abs(pairs[0][0]) < 1e-3    # eigenvalue essentially at the peak
        assert abs(stability_necessary_condition(system)[0].imag_rate) < 1e-3

    def test_orthogonal_feedback_decouples(self, std_maxwellian):
        # phi constant along e2, eigenvector e1: no interaction
        system = SystemCoupling(np.diag([1.0, 2.0]), np.array([1.0, 0.0]),
                                ((0.0, 1.0),), 1e-4, std_maxwellian)
        assert stability_necessary_condition(system)[0].imag_rate == 0.0
        verdicts = stability_necessary_condition(system)
        assert verdicts[0].verdict == DECOUPLED

    def test_finite_difference_oracle(self, fixture_systems):
        _, failing, _ = fixture_systems
        kappa = 1e-4
        tracked = track_secular_root(failing, 0, kappa)
        deriv = stability_necessary_condition(failing)[0].imag_rate
        assert tracked.imag / kappa == pytest.approx(deriv, rel=0.05)


class TestNecessaryCondition:
    def test_passing_fixture(self, fixture_systems):
        passing, _, _ = fixture_systems
        verdicts = stability_necessary_condition(passing)
        assert all(v.verdict == STABLE_MODE for v in verdicts)
        assert all(v.q_j >= 0 for v in verdicts)
        assert not hyperbolic.fails_necessary_condition(verdicts)

    def test_sign_flip_fails(self, fixture_systems):
        _, failing, _ = fixture_systems
        verdicts = stability_necessary_condition(failing)
        assert all(v.verdict == UNSTABLE_MODE for v in verdicts)
        assert hyperbolic.fails_necessary_condition(verdicts)

    def test_eigenvector_sign_invariance(self, fixture_systems):
        passing, _, _ = fixture_systems
        verdicts = stability_necessary_condition(passing)
        for v in verdicts:
            psi_proj = float(np.dot(passing.grad_psi, -v.r_j))
            phi_proj = sum(v.sigma_j**k * float(np.dot(c, -v.r_j))
                           for k, c in enumerate(passing.phi_coeffs))
            slope = float(np.real(profiles.eval_df(passing.profile, v.sigma_j)))
            assert psi_proj * phi_proj * slope == pytest.approx(v.q_j, rel=1e-12)

    def test_perturbation_consistency(self, fixture_systems):
        for system in fixture_systems:
            for kappa in (1e-4, 5e-5):
                for v in stability_necessary_condition(system):
                    if v.verdict == DECOUPLED:
                        continue
                    si = SystemCoupling(system.a_matrix, system.grad_psi,
                                        system.phi_coeffs, kappa, system.profile)
                    tracked = track_secular_root(si, v.j, kappa)
                    assert abs(tracked.imag - kappa * v.imag_rate) <= \
                        0.1 * kappa * abs(v.imag_rate) + 1e-12

    @pytest.mark.parametrize("profile", [
        profiles.maxwellian(), profiles.make_bump_on_tail(profiles.maxwellian(), 0.05,
                                                          0.5, 5.0),
        profiles.profile_sum(profiles.maxwellian(0.5, -2.0, 0.6),
                             profiles.maxwellian(0.5, 2.0, 0.6))],
        ids=["maxwellian", "bump", "two-stream"])
    def test_one_slope_call(self, profile, monkeypatch):
        # f' at every eigenvalue comes from one eval_df call, and q_j, imag_rate
        # and the verdict equal those of one call per eigenvalue bit for bit: on
        # seeded 1 x 1 to 7 x 7 systems with 1 to 3 phi rows, spread over the
        # profile, on the bump's support edges and on a quadratic-phi system
        rng = np.random.default_rng(11)
        systems = [TestModeMatrixOracle.seeded_system(25, profile, rows=3),
                   SystemCoupling(np.diag([4.5, 4.51, 5.0, 5.49, 5.5]), np.ones(5),
                                  ((1.0,) * 5, (0.5,) * 5), 1e-3, profile)]
        for n in range(1, 8):
            for shift in (-2.0, 0.0, 2.0, 5.0):
                raw = rng.normal(size=(n, n))
                systems.append(SystemCoupling(
                    0.75 * (raw + raw.T) / math.sqrt(n) + shift * np.eye(n),
                    rng.normal(size=n), tuple(map(tuple, rng.normal(size=(1 + n % 3, n)))),
                    1e-3, profile))
        eval_df, calls = profiles.eval_df, []
        one_call = lambda prof, v: calls.append(v) or eval_df(prof, v)
        per_mode = lambda prof, v: np.array([eval_df(prof, x) for x in v])
        for system in systems:
            results = []
            for patch in (one_call, per_mode):
                monkeypatch.setattr(profiles, "eval_df", patch)
                results.append([(v.q_j.hex(), v.imag_rate.hex(), v.verdict)
                                for v in stability_necessary_condition(system)])
            assert results[0] == results[1]
            assert len(calls) == 1
            calls.clear()

    def test_unstable_modes_grow(self, fixture_systems):
        for system in fixture_systems:
            for v in stability_necessary_condition(system):
                if v.verdict == UNSTABLE_MODE:
                    tracked = track_secular_root(system, v.j, 1e-4)
                    assert tracked.imag > 0.0


class TestPowerTransforms:
    """C_k = C[v^k f'] as `_modal_projections` builds it from one kernel call and
    the moments of f, read as m_0 of the 1 x 1 system A = (1), grad_psi = (1),
    phi(v) = v^k, against conftest's 30-digit `mp_transform` with the weight
    v^k, for k = 0..4 on all three branches; C_4' against `mpmath.diff` of it."""

    TWO_STREAM = profiles.profile_sum(profiles.maxwellian(0.5, -2.0, 0.6),
                                      profiles.maxwellian(0.5, 2.0, 0.6))
    BUMP = profiles.make_bump_on_tail(profiles.maxwellian(), 0.05, 0.5, 5.0)

    @pytest.mark.parametrize("profile,sigma", [
        (profiles.maxwellian(), 0.5 + 0.3j), (profiles.maxwellian(), 1.3),
        (profiles.maxwellian(), 0.9 - 0.1j),
        (TWO_STREAM, 1.0 + 0.4j), (TWO_STREAM, -2.0), (TWO_STREAM, 2.2 - 0.2j),
        (BUMP, 5.2 + 0.3j), (BUMP, 4.8), (BUMP, 5.2 - 0.1j)],
        ids=[f"{name}-{branch}" for name in ("maxwellian", "two-stream", "bump")
             for branch in ("upper", "axis", "lower")])
    def test_against_mpmath(self, profile, sigma):
        for k in range(5):
            weight = (0.0,) * k + (1.0,)
            system = SystemCoupling(np.array([[1.0]]), np.array([1.0]),
                                    tuple((c,) for c in weight), 1e-3, profile)
            value, slope = hyperbolic._modal_projections(system, sigma, True)
            assert hyperbolic._modal_projections(system, sigma) == value
            want = mp_transform(profile, weight, sigma)
            assert abs(value[0] - want) <= 1e-13 * max(1.0, abs(want)), k
        want = mp_transform_derivative(profile, weight, sigma)
        assert abs(slope[0] - want) <= 1e-12 * max(1.0, abs(want))


class TestModeMatrixOracle:
    """Roots above the axis against the eigenvalues of the discretized coupled
    system (`conftest.system_mode_sigmas`), which share nothing with the secular
    function but f': each root is within rel_tol of an eigenvalue, and the eigenvalues
    above Im sigma = 0.02 are exactly those roots. nv is the least Simpson grid,
    2049 or 1025, that resolves the root's distance from the axis; the
    differences measured there are at most 1.6e-10 relative on the Maxwellian
    family and 5e-7 on the bump, whose edges keep Simpson's rule from
    converging fast."""

    @staticmethod
    def check(system, roots, nv, rel_tol):
        sigmas = system_mode_sigmas(system, nv)
        assert len(roots) == int(np.sum(sigmas.imag > 0.02))
        for root in roots:
            assert np.min(np.abs(sigmas - root)) <= rel_tol * abs(root)

    @staticmethod
    def seeded_system(seed, profile, rows=2):
        """A 3 x 3 system whose phi has ``rows`` rows, powers 0 to rows - 1."""
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(3, 3))
        return SystemCoupling(0.75 * (raw + raw.T), rng.normal(size=3),
                              tuple(map(tuple, rng.normal(size=(rows, 3)))), 0.3, profile)

    @pytest.mark.parametrize("case,nv", [("system-prop1", 2049), (25, 1025), (31, 1025),
                                         ("quadratic 25", 1025)])
    def test_tracked_unstable_modes(self, std_maxwellian, case, nv):
        # the last has a quadratic phi row, so its C_2 = C[v^2 f'] reads M_0
        if case == "system-prop1":
            system = SystemCoupling(np.array([[1.0, 0.3], [0.3, 2.0]]),
                                    np.array([1.0, 0.4]), ((1.0, 0.4),), 0.5,
                                    std_maxwellian)
        elif case == "quadratic 25":
            system = self.seeded_system(25, std_maxwellian, rows=3)
        else:
            system = self.seeded_system(case, std_maxwellian)
        roots = [track_secular_root(system, v.j, system.kappa)
                 for v in stability_necessary_condition(system)
                 if v.verdict == UNSTABLE_MODE]
        assert len(roots) == 2 and min(r.imag for r in roots) >= 0.05
        self.check(system, roots, nv, 1e-9)

    @pytest.mark.parametrize("profile,lambda0,kappa,nv,rel_tol", [
        (profiles.maxwellian(), 1.0, 0.2, 1025, 1e-9),
        (profiles.maxwellian(), 1.0, 0.5, 1025, 1e-9),
        (profiles.profile_sum(profiles.maxwellian(0.5, -2.0, 0.6),
                              profiles.maxwellian(0.5, 2.0, 0.6)), 2.5, 0.05, 2049, 1e-9),
        (profiles.make_bump_on_tail(profiles.maxwellian(), 0.05, 0.5, 5.0), 5.3, 0.05,
         2049, 1e-6)], ids=["maxwellian-0.2", "maxwellian-0.5", "two-stream", "bump"])
    def test_scalar_roots(self, profile, lambda0, kappa, nv, rel_tol):
        # the last two are certified only by a count square that stays above the axis
        system = scalar_law(lambda0, kappa, profile)
        root = scalar_root(system)
        assert root.winding_evidence == 1 and root.sigma.imag > 0.1
        self.check(system, [root.sigma], nv, rel_tol)
