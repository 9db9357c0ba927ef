import math
import warnings

import numpy as np
import pytest
from scipy.special import wofz

from conftest import bump_oracle, dense_line_integral, profile_integrand
from spraywaves import dispersion, profiles, quadrature
from spraywaves.dispersion import (SearchRegion, SprayParams, count_roots,
                                   damping_rate_at, dispersion_value, find_roots,
                                   landau_dispersion, make_params, spectral_verdict,
                                   thin_spray_expansion)
from spraywaves.errors import BoundaryRoot, NonConvergence, StripViolation, ZeroSigma
from spraywaves.quadrature import Branch


class TestDispersionValue:
    def test_decoupled_acoustic_root(self, acoustic_params, std_maxwellian):
        assert dispersion_value(acoustic_params, std_maxwellian, 1.0) == 0.0

    def test_decoupled_arithmetic(self, acoustic_params, std_maxwellian):
        assert dispersion_value(acoustic_params, std_maxwellian, 2.0) == \
            pytest.approx(0.75)

    def test_large_sigma_tends_to_one(self, maxwellian_params, std_maxwellian):
        val = dispersion_value(maxwellian_params, std_maxwellian, 50.0)
        assert abs(val - 1.0) <= 1e-3

    def test_zero_sigma_rejected(self, maxwellian_params, std_maxwellian):
        with pytest.raises(ZeroSigma):
            dispersion_value(maxwellian_params, std_maxwellian, 0.0)

    def test_pole_radius_scales_with_c0(self, std_maxwellian):
        # the one pole guard is |sigma| < POLE_RADIUS c0 = 5e-15 here
        params = make_params(std_maxwellian, c0=0.5, rho0=1.0, kappa=0.01)
        for sigma in (4e-15, 4e-15j, np.array([1.0, -4e-15])):
            with pytest.raises(ZeroSigma):
                dispersion_value(params, std_maxwellian, sigma)
        for sigma in (6e-15, 6e-15j, np.array([1.0, -6e-15])):
            assert np.all(np.isfinite(dispersion_value(params, std_maxwellian, sigma)))

    def test_alpha0_follows_each_profile(self, std_maxwellian):
        # params built for one profile serve another of a different mass:
        # alpha0 = 1 - kappa m0 is read from the profile D(sigma) is evaluated on
        params = make_params(std_maxwellian, c0=1.0, rho0=1.0, kappa=0.01)
        heavy = profiles.maxwellian(mass=3.0)
        sigma = 1.2 + 0.1j
        for profile, m0 in ((std_maxwellian, 1.0), (heavy, 3.0)):
            pref = 0.01 / (1.0 - 0.01 * m0)
            integral = dense_line_integral(profile_integrand(profile), sigma)
            want = 1.0 - 1.0 / sigma**2 - pref * integral / sigma
            got = dispersion_value(params, profile, sigma)
            assert abs(got - want) <= 1e-10
            assert got == dispersion_value(make_params(profile, 1.0, 1.0, 0.01),
                                           profile, sigma)

    @pytest.mark.parametrize("field", ["c0", "rho0", "kappa"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_params_reject_non_finite(self, field, value):
        fields = {"c0": 1.0, "rho0": 1.0, "kappa": 0.01}
        with pytest.raises(ValueError):
            SprayParams(**{**fields, field: value})

    @pytest.mark.parametrize("sigma", [1.2 + 0.1j, -0.7 + 0.5j, 1.3, -0.4, 0.9 - 0.1j,
                                       -1.4 - 0.3j])
    def test_derivative_against_wofz_closed_form(self, maxwellian_params, std_maxwellian,
                                                 sigma):
        # unit Maxwellian: C[v f'] = -sigma A, A = 1 + zeta Z(zeta), zeta = sigma/sqrt 2,
        # Z = i sqrt(pi) w(zeta) from scipy and Z' = -2 A, so C' = -A - sigma (Z -
        # 2 zeta A)/sqrt 2; D = 1 - 1/sigma^2 - pref C/sigma at c0 = rho0 = 1
        pref = 0.01 / (1.0 - 0.01)
        zeta = sigma / math.sqrt(2.0)
        z_func = 1j * math.sqrt(math.pi) * wofz(zeta)
        a = 1.0 + zeta * z_func
        c, dc = -sigma * a, -a - sigma * (z_func - 2.0 * zeta * a) / math.sqrt(2.0)
        want = 2.0 / sigma**3 - pref * (dc / sigma - c / sigma**2)
        value, slope = dispersion_value(maxwellian_params, std_maxwellian, sigma, True)
        assert value == dispersion_value(maxwellian_params, std_maxwellian, sigma)
        assert slope == pytest.approx(want, rel=1e-12)

    def test_reflection_symmetry(self, maxwellian_params, std_maxwellian):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sigma = complex(rng.uniform(0.2, 3.0), rng.uniform(1e-3, 0.2))
            a = dispersion_value(maxwellian_params, std_maxwellian, -np.conj(sigma))
            b = np.conj(dispersion_value(maxwellian_params, std_maxwellian, sigma))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-13)


class TestDispersionOnTheAxis:
    def test_imag_sign_from_slope(self, maxwellian_params, std_maxwellian):
        di_plus = dispersion_value(maxwellian_params, std_maxwellian, 1.0).imag
        di_minus = dispersion_value(maxwellian_params, std_maxwellian, -1.0).imag
        assert di_plus > 0.0          # f'(c0) < 0 on the decaying side
        assert di_minus == pytest.approx(-di_plus, rel=1e-12)

    def test_imag_vanishes_at_large_sigma(self, maxwellian_params, std_maxwellian):
        d_imag = dispersion_value(maxwellian_params, std_maxwellian, 12.0).imag
        assert abs(d_imag) <= 1e-12


class TestLandauDispersion:
    def test_depends_on_k_not_just_sigma(self, std_maxwellian, maxwellian_params):
        sigma = 1.2 + 0.08j
        d1 = landau_dispersion(std_maxwellian, 1.0, sigma * 1.0)
        d2 = landau_dispersion(std_maxwellian, 2.0, sigma * 2.0)
        assert abs(d1 - d2) > 1e-3
        s1 = dispersion_value(maxwellian_params, std_maxwellian, sigma)
        s2 = dispersion_value(maxwellian_params, std_maxwellian, sigma)
        assert s1 == s2

    def test_large_k_limit(self, std_maxwellian):
        sigma = 1.2 + 0.08j
        k = 100.0
        val = landau_dispersion(std_maxwellian, k, sigma * k)
        assert abs(val - 1.0) <= 5.0 / k**2

    def test_real_on_imaginary_frequency_axis(self, std_maxwellian):
        # even profile, omega = i t with k fixed: integrand symmetry gives a
        # real value; checked against the dense oracle
        k = 1.5
        omega = 0.7j
        val = landau_dispersion(std_maxwellian, k, omega)
        g = profile_integrand(std_maxwellian, "df")
        oracle = 1.0 - dense_line_integral(g, omega / k) / k**2
        assert abs(val.imag) < 1e-12
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_negative_k_is_plain_integral_below_axis(self, std_maxwellian):
        # for k < 0, Im omega > 0 puts sigma = omega/k in the lower half-plane,
        # where the continuation from Im omega > 0 is the plain line integral
        k, omega = -1.5, 0.3 + 0.7j
        val = landau_dispersion(std_maxwellian, k, omega)
        g = profile_integrand(std_maxwellian, "df")
        oracle = 1.0 - dense_line_integral(g, omega / k) / k**2
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_zero_k_rejected(self, std_maxwellian):
        with pytest.raises(ZeroSigma):
            landau_dispersion(std_maxwellian, 0.0, 1.0j)


class TestRootCounting:
    def test_single_acoustic_root(self, acoustic_params, std_maxwellian):
        region = SearchRegion(0.5, 1.5, -0.1, 0.1)
        assert count_roots(acoustic_params, std_maxwellian, region) == 1

    def test_both_acoustic_roots_with_pole_split(self, acoustic_params,
                                                 std_maxwellian):
        region = SearchRegion(-2.0, 2.0, -0.1, 0.1)
        assert count_roots(acoustic_params, std_maxwellian, region) == 2

    def test_no_upper_roots_for_maxwellian(self, maxwellian_params, std_maxwellian):
        region = SearchRegion(-5.0, 5.0, 1e-6, 0.2)
        assert count_roots(maxwellian_params, std_maxwellian, region) == 0

    def test_rayleigh_criterion_other_profiles(self):
        # any v f'(v) <= 0 profile has no upper-half roots
        wide = profiles.maxwellian(mass=2.0, width=2.0)
        params = make_params(wide, c0=1.5, rho0=2.0, kappa=0.05)
        region = SearchRegion(-6.0, 6.0, 1e-6, 0.4)
        assert count_roots(params, wide, region) == 0

    def test_region_across_a_bump_edge_below_the_axis_rejected(self, bump_params,
                                                              bump_profile):
        # a box whose contour crosses a support edge (4.5, 5.5) below the axis,
        # at any depth and however wide the sample spacing, is refused; a box
        # off the support column reaches any depth
        for box in (SearchRegion(4.0, 6.0, -0.3, 0.1), SearchRegion(4.0, 6.0, -0.2, 0.1),
                    SearchRegion(-46.05, 53.95, -0.5, 0.1),
                    SearchRegion(4.7, 30.0, -5.0, 0.1)):
            with pytest.raises(StripViolation):
                count_roots(bump_params, bump_profile, box)
        assert count_roots(bump_params, bump_profile,
                           SearchRegion(-1.0, 1.0, -2.0, 2.0)) == 0

    def test_box_across_the_axis_reaches_above_eta_over_2(self):
        # the bump eps = 0.05, eta = 0.5, c* = 4.6 at c0 = 5, kappa = 2.5e-3: a box
        # crossing the axis inside the support column counts its root whatever
        # its top (its bottom alone goes below the axis)
        profile = profiles.make_bump_on_tail(profiles.maxwellian(), 0.05, 0.5, 4.6)
        params = make_params(profile, c0=5.0, rho0=1.0, kappa=2.5e-3)
        for im_max in (0.2, 0.3, 1.0):
            box = SearchRegion(4.5, 5.0, -0.01, im_max)
            assert count_roots(params, profile, box) == 1

    def test_bump_root_from_a_box_reaching_below_eta_over_2(self, bump_params,
                                                            bump_profile):
        box = SearchRegion(4.7, 5.3, -0.5, 0.1)
        (root,) = find_roots(bump_params, bump_profile, box)
        assert root.sigma == pytest.approx(4.973115 + 0.060201j, abs=1e-6)

    def test_wide_box_below_the_axis_sees_every_residue(self):
        # two-stream parts 0.4 wide at c0 = 2: beyond R = 1024 feature scales
        # the uniform edge step exceeds the parts, whose residues below the
        # axis the support sampling still meets
        profile = profiles.profile_sum(profiles.maxwellian(0.5, -1.5, 0.4),
                                       profiles.maxwellian(0.5, 1.5, 0.4))
        params = make_params(profile, c0=2.0, rho0=1.0, kappa=0.05)
        for r in (10.0, 1000.0, 5000.0, 20000.0):
            assert count_roots(params, profile, SearchRegion(-r, r, -0.5, 0.5)) == 4
        deep = SearchRegion(-5050.0, 5050.0, -1.0, 0.5)
        assert count_roots(params, profile, deep) == 8
        # a support too long to sample at the feature scale refuses
        tiny = make_params(profile, c0=1e-6, rho0=1.0, kappa=0.05)
        with pytest.raises(BoundaryRoot):
            count_roots(tiny, profile, SearchRegion(-10.0, 10.0, -0.5, 0.5))

    def test_upper_box_takes_no_support_samples(self):
        # the support sampling and its evaluation cap serve boxes below the
        # axis only: a wide upper box at a tiny c0 counts as the walk alone does
        profile = profiles.profile_sum(profiles.maxwellian(0.5, -1.5, 0.4),
                                       profiles.maxwellian(0.5, 1.5, 0.4))
        tiny = make_params(profile, c0=1e-6, rho0=1.0, kappa=0.05)
        assert count_roots(tiny, profile, SearchRegion(-10.0, 10.0, 0.1, 0.5)) == 0
        # the verdict box of a narrow far bump spans 2.2e4 at a feature scale of
        # 2.5e-3, yet is an upper box
        far = profiles.make_bump_on_tail(profiles.maxwellian(), 0.1, 0.01, 100.0)
        params = make_params(far, c0=100.0, rho0=1.0, kappa=0.5)
        assert count_roots(params, far, dispersion.verdict_region(params, far)) == 1
        assert spectral_verdict(params, far) == "unstable"

    def test_seeded_square_below_the_axis_samples_the_support_edges(self):
        # a smooth func whose bump sum is weighted by 0 shows no jump at the
        # edges 4.1 and 5.1 that the square [3.5, 6.5] x [-4.5, -1.5] crosses;
        # its uniform samples miss the edge margins, the marks do not
        profile = profiles.make_bump_on_tail(profiles.maxwellian(), 0.05, 0.5, 4.6)
        z0 = 5.0 - 3.0j

        def func(z, derivative=False):
            value = (z - z0) + 0.0 * quadrature.cauchy_transform(profile, (1.0,), z)
            return (value, 1.0) if derivative else value

        assert dispersion._seeded_root(func, z0 + 0.05j, 1.0, ()).winding_evidence == 1
        with pytest.raises(StripViolation):
            dispersion._seeded_root(func, z0 + 0.05j, 1.0, profiles.bump_edges(profile))

    def test_wide_region_certifies_single_bump_root(self, bump_params, bump_profile):
        # large rectangle: boundary sampling must not alias the localized
        # phase swing near the root at Re sigma ~ 5
        wide = SearchRegion(-30.0, 30.0, 1e-6, 0.12)
        assert count_roots(bump_params, bump_profile, wide) == 1

    def test_upper_box_is_never_dilated_below_the_axis(self, acoustic_params,
                                                       std_maxwellian):
        # the root at 1 sits on the bottom edge of an upper box; the count is
        # never dilated below the axis, so it refuses the box with BoundaryRoot,
        # and a box the caller puts below the axis (deeper than half the width,
        # as a Gaussian part has no strip) counts the root
        for im_max in (0.4, 1.0):
            with pytest.raises(BoundaryRoot):
                count_roots(acoustic_params, std_maxwellian,
                            SearchRegion(0.5, 1.5, 0.0, im_max))
        assert count_roots(acoustic_params, std_maxwellian,
                           SearchRegion(0.5, 1.5, -0.6, 1.0)) == 1

    @pytest.mark.parametrize("box", [SearchRegion(0.5, 1.5, 0.0, 0.4),
                                     SearchRegion(0.5, 1.5, -0.1, 0.1)])
    def test_count_samples_its_own_rectangle_only(self, monkeypatch, maxwellian_params,
                                                  acoustic_params, std_maxwellian, box):
        # every sigma a count evaluates lies on the box's boundary, whether it
        # certifies a root inside (maxwellian) or refuses one on an edge (acoustic)
        seen, pole_free = [], dispersion._pole_free

        def spy(params, profile, sigma):
            seen.append(np.ravel(sigma))
            return pole_free(params, profile, sigma)

        monkeypatch.setattr(dispersion, "_pole_free", spy)
        if box.im_min < 0.0:
            assert count_roots(maxwellian_params, std_maxwellian, box) == 1
        else:
            with pytest.raises(BoundaryRoot):
                count_roots(acoustic_params, std_maxwellian, box)
        z, tol = np.concatenate(seen), 1e-12
        assert z.size >= 4 * 48
        assert np.all((box.re_min - tol <= z.real) & (z.real <= box.re_max + tol)
                      & (box.im_min - tol <= z.imag) & (z.imag <= box.im_max + tol))
        edge = np.abs(np.array([z.real - box.re_min, z.real - box.re_max,
                                z.imag - box.im_min, z.imag - box.im_max])).min(axis=0)
        assert edge.max() <= tol

    def test_box_beside_the_pole_counts_zero(self, acoustic_params, std_maxwellian):
        # a box within 1e-3 c0 of sigma = 0, where |D| ~ c0^2/|sigma|^2 is huge:
        # the counted sigma^2 D(sigma) is -c0^2 there
        region = SearchRegion(-5e-4, 5e-4, 1e-4, 5e-4)
        assert count_roots(acoustic_params, std_maxwellian, region) == 0

    def test_pole_respected_after_dilation(self, acoustic_params, std_maxwellian):
        # the left edge sits 1.1e-3 c0 right of sigma = 0 and the root at +c0 on
        # the right edge: no dilation carries the box across sigma = 0, the
        # count refuses the boundary root instead
        with pytest.raises(BoundaryRoot):
            count_roots(acoustic_params, std_maxwellian,
                        SearchRegion(1.1e-3, 1.0, -0.05, 0.05))


class TestFindRoots:
    def test_decoupled_exact_roots(self, acoustic_params, std_maxwellian):
        reports = find_roots(acoustic_params, std_maxwellian,
                             SearchRegion(-2.0, 2.0, -0.1, 0.1), tol=1e-12)
        sigmas = sorted(r.sigma.real for r in reports)
        assert len(reports) == 2
        assert abs(sigmas[0] + 1.0) <= 1e-10 and abs(sigmas[1] - 1.0) <= 1e-10
        assert all(abs(r.sigma.imag) <= 1e-10 for r in reports)
        assert all(r.winding_evidence >= 1 for r in reports)

    def test_small_kappa_damped_pair(self, maxwellian_params, std_maxwellian):
        reports = find_roots(maxwellian_params, std_maxwellian,
                             SearchRegion(-2.0, 2.0, -0.05, 0.02), tol=1e-11)
        assert len(reports) == 2
        assert all(r.sigma.imag < 0 for r in reports)
        assert all(r.branch is Branch.LOWER for r in reports)
        # conjugate-reflection pairing {sigma, -conj(sigma)}
        s1, s2 = reports[0].sigma, reports[1].sigma
        assert s1 == pytest.approx(-np.conj(s2), abs=1e-9)

    def test_bump_instability_root(self, bump_params, bump_profile):
        region = SearchRegion(-7.0, 7.0, 1e-6, 0.12)
        reports = find_roots(bump_params, bump_profile, region, tol=1e-10)
        assert len(reports) == 1
        assert reports[0].sigma.imag > 0
        assert reports[0].residual <= 1e-10

    def test_single_root_box_solved_without_bisection(self, bump_params, bump_profile,
                                                      monkeypatch):
        counts = []
        real_count = dispersion.count_roots
        monkeypatch.setattr(dispersion, "count_roots",
                            lambda *a, **k: counts.append(1) or real_count(*a, **k))
        (root,) = find_roots(bump_params, bump_profile, SearchRegion(4.0, 6.0, 1e-3, 0.12))
        assert len(counts) == 1
        assert root.winding_evidence == 1 and root.residual <= 1e-10
        (polished,) = find_roots(bump_params, bump_profile, SearchRegion(
            root.sigma.real - 0.02, root.sigma.real + 0.02,
            root.sigma.imag - 0.02, root.sigma.imag + 0.02))
        assert abs(root.sigma - polished.sigma) <= 1e-12

    def test_bisects_when_newton_leaves_the_box(self, maxwellian_params, std_maxwellian,
                                                monkeypatch):
        # one root, near the left edge: Newton from the centre 1.975 steps past
        # sigma = 0 toward the root at -c_star and leaves its trust radius
        region = SearchRegion(0.95, 3.0, -0.05, 0.02)
        calls = []
        real_newton = dispersion._newton

        def newton(func, z0, tol, **kw):
            try:
                z, iters, fz = real_newton(func, z0, tol, **kw)
            except Exception as err:
                calls.append((z0, type(err)))
                raise
            calls.append((z0, z))
            return z, iters, fz

        monkeypatch.setattr(dispersion, "_newton", newton)
        (root,) = find_roots(maxwellian_params, std_maxwellian, region)
        assert calls[0] == (region.center, NonConvergence)
        assert len(calls) > 1
        assert root.winding_evidence == 1
        want = 0.998583554016407 - 0.0038424677030629364j
        assert abs(root.sigma - want) <= 1e-12

    def test_newton_evaluates_once_per_step(self):
        calls = []

        def func(z):
            calls.append(z)
            return z * z - 2.0, 2.0 * z

        z, iters, fz = dispersion._newton(func, 1.0 + 0.1j, 1e-14)
        assert len(calls) == iters and fz == calls[-1] ** 2 - 2.0
        assert abs(z - math.sqrt(2.0)) <= 1e-14 and abs(fz) <= 1e-14

    def test_one_dispersion_value_per_newton_step(self, maxwellian_params,
                                                  std_maxwellian, monkeypatch):
        # the box holds one root: its Newton steps are all the D evaluations
        # (the counts walk the pole-free E), and no residual is recomputed
        calls = []
        value = dispersion.dispersion_value
        monkeypatch.setattr(dispersion, "dispersion_value",
                            lambda *args: calls.append(args) or value(*args))
        (root,) = find_roots(maxwellian_params, std_maxwellian,
                             SearchRegion(0.5, 1.5, -0.05, 0.02))
        assert len(calls) == root.newton_iters
        assert root.residual == abs(value(maxwellian_params, std_maxwellian, root.sigma))

    def test_residuals_below_tolerance(self, maxwellian_params, std_maxwellian):
        reports = find_roots(maxwellian_params, std_maxwellian,
                             SearchRegion(0.5, 1.5, -0.05, 0.02), tol=1e-11)
        assert all(r.residual <= 1e-11 for r in reports)


class TestThinSpray:
    def test_zero_kappa(self, acoustic_params, std_maxwellian):
        assert thin_spray_expansion(acoustic_params, std_maxwellian) == (1.0, 0.0)

    def test_maxwellian_damped(self, maxwellian_params, std_maxwellian):
        c_star, gamma = thin_spray_expansion(maxwellian_params, std_maxwellian)
        assert gamma < 0.0
        assert c_star == pytest.approx(1.0, abs=0.05)

    def test_warns_above_kappa_limit(self, std_maxwellian):
        params = make_params(std_maxwellian, c0=1.0, rho0=1.0, kappa=0.2)
        with pytest.warns(UserWarning):
            thin_spray_expansion(params, std_maxwellian)

    def test_symmetric_damping_rates(self, maxwellian_params, std_maxwellian):
        c_star, gamma_plus = thin_spray_expansion(maxwellian_params, std_maxwellian)
        gamma_minus = damping_rate_at(maxwellian_params, std_maxwellian, -c_star)
        assert gamma_minus == pytest.approx(gamma_plus, rel=1e-8)

    def test_pure_acoustics_not_flagged(self, acoustic_params, std_maxwellian):
        # r = c_ref dRe D/dsigma / 2 is 1 at c_ref = +-c0 for pure acoustics
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c_ref in (1.0, -1.0):
                assert damping_rate_at(acoustic_params, std_maxwellian, c_ref) == 0.0

    @pytest.mark.parametrize("kappa, flagged, count, gamma", [
        (1e-4, False, 0, -0.0239), (5e-4, True, 0, 0.1851), (1e-3, True, 0, 0.0829),
        (3e-3, True, 1, -0.0764)])
    def test_flags_unreliable_first_order_rate(self, kappa, flagged, count, gamma):
        # c* sits near the steep upper edge of the bump (support [4.1, 5.1]),
        # where r = c* dRe D/dsigma / 2 leaves [0.5, 2] and the sign of gamma
        # disagrees with the certified upper count; the flag changes no number
        profile = profiles.make_bump_on_tail(profiles.maxwellian(), 0.05, 0.5, 4.6)
        params = make_params(profile, c0=5.0, rho0=1.0, kappa=kappa)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, got = thin_spray_expansion(params, profile)
        assert any("unreliable" in str(w.message) for w in caught) == flagged
        assert got == pytest.approx(gamma, abs=1e-4)
        assert count_roots(params, profile,
                           dispersion.verdict_region(params, profile)) == count

    def test_root_path_continuity_in_kappa(self, bump_profile):
        # the amplified root leaves +c0 and moves continuously into the upper
        # half-plane as kappa ramps in sixteenths
        kappa_star = 1.5e-3
        previous = complex(5.0, 0.0)
        for j in range(1, 17):
            params = make_params(bump_profile, c0=5.0, rho0=1.0,
                                 kappa=kappa_star * j / 16.0)
            region = SearchRegion(previous.real - 0.6, previous.real + 0.6,
                                  1e-6, 0.12)
            reports = find_roots(params, bump_profile, region, tol=1e-9)
            root = min(reports, key=lambda r: abs(r.sigma - previous))
            assert abs(root.sigma - previous) <= 0.1
            previous = root.sigma
        assert previous.imag > 0.0


def _mode_matrix_sigmas(params, profile, nv=513, bound=10.0):
    """Phase velocities of the discrete single-mode system d/dt (tau, u, f_j) =
    i k A (tau, u, f_j) on nv Simpson nodes over [-bound, bound]: its solutions
    go as exp(-i k sigma t) with sigma = -eig(A), for every k."""
    v = np.linspace(-bound, bound, nv)
    w = np.ones(nv)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (v[1] - v[0]) / 3.0
    a = np.zeros((nv + 2, nv + 2))
    a[0, 1] = 1.0 / params.rho0
    alpha0 = 1.0 - params.kappa * profiles.moment(profile, 0)
    a[0, 2:] = params.kappa / (alpha0 * params.rho0) * w * v
    a[1, 0] = params.rho0 * params.c0**2
    a[2:, 0] = -params.c0**2 * params.rho0**2 * np.real(profiles.eval_df(profile, v))
    a[np.arange(2, nv + 2), np.arange(2, nv + 2)] = -v
    return -np.linalg.eigvals(a)


_BASE = profiles.maxwellian()
_TWO_STREAM = profiles.profile_sum(profiles.maxwellian(0.5, -2.0, 0.6),
                                   profiles.maxwellian(0.5, 2.0, 0.6))
# (profile, c0, kappa): the three unstable profiles whose roots lie above a
# quarter of the narrowest width or eta (ROADMAP defect 1), then the README
# bump, a stable Maxwellian and a two-stream pair whose roots are purely growing
VERDICT_CASES = {
    "bump_strong": (profiles.make_bump_on_tail(_BASE, 0.3, 0.5, 5.0), 5.0, 0.05),
    "bump_narrow": (profiles.make_bump_on_tail(_BASE, 0.05, 0.3, 5.0), 5.0, 0.2),
    "two_stream": (_TWO_STREAM, 1.5, 0.5),
    "bump_readme": (profiles.make_bump_on_tail(_BASE, 0.05, 0.5, 5.0), 5.0, 1.5e-3),
    "maxwellian": (_BASE, 1.0, 0.01),
    "purely_growing": (profiles.profile_sum(profiles.maxwellian(0.5, -1.0, 0.3),
                                            profiles.maxwellian(0.5, 1.0, 0.3)),
                       1.0, 0.95)}


class TestSpectralVerdict:
    def test_maxwellian_stable(self, maxwellian_params, std_maxwellian):
        assert spectral_verdict(maxwellian_params, std_maxwellian) == "stable"

    def test_bump_unstable(self, bump_params, bump_profile):
        assert spectral_verdict(bump_params, bump_profile) == "unstable"

    def test_decoupled_neutral(self, acoustic_params, std_maxwellian):
        assert spectral_verdict(acoustic_params, std_maxwellian) == "neutral"

    @pytest.mark.parametrize("case", ["bump_strong", "bump_narrow", "two_stream"])
    def test_roots_above_half_the_strip_unstable(self, case):
        # read 'stable', 'neutral' and 'neutral' on a box capped at half the strip
        profile, c0, kappa = VERDICT_CASES[case]
        params = make_params(profile, c0=c0, rho0=1.0, kappa=kappa)
        assert spectral_verdict(params, profile) == "unstable"

    @pytest.mark.parametrize("case", VERDICT_CASES)
    def test_count_matches_mode_matrix(self, case):
        profile, c0, kappa = VERDICT_CASES[case]
        params = make_params(profile, c0=c0, rho0=1.0, kappa=kappa)
        sigmas = _mode_matrix_sigmas(params, profile)
        unstable = int(np.sum(sigmas.imag > 1e-3))
        assert unstable == {"maxwellian": 0, "bump_strong": 1, "bump_narrow": 1,
                            "bump_readme": 1}.get(case, 2)
        assert count_roots(params, profile,
                           dispersion.verdict_region(params, profile)) == unstable

    @pytest.mark.parametrize("case", VERDICT_CASES)
    def test_no_zero_beyond_the_verdict_box(self, case):
        # the bounds of verdict_region: |D - 1| <= 1/2 beyond its sides (above
        # the floor, up to its top) and < 1 above its top
        profile, c0, kappa = VERDICT_CASES[case]
        params = make_params(profile, c0=c0, rho0=1.0, kappa=kappa)
        box = dispersion.verdict_region(params, profile)
        assert box.im_min == 1e-6 and box.re_min == -box.re_max
        ys = np.geomspace(box.im_min, box.im_max, 40)
        xs = box.re_max * np.linspace(1.0, 3.0, 30)
        side = (xs[:, None] * np.array([1.0, -1.0])).ravel()[:, None] + 1j * ys
        assert np.abs(dispersion_value(params, profile, side.ravel()) - 1.0).max() <= 0.5
        above = (np.linspace(-2.0, 2.0, 81) * box.re_max)[:, None] + 1j * box.im_max * (
            np.array([1.0, 1.5, 4.0]) / 1.05)
        assert np.abs(dispersion_value(params, profile, above.ravel()) - 1.0).max() < 1.0


class TestPurelyGrowingRoots:
    """Roots on the imaginary axis, above the sigma = 0 pole of D: the pole-free
    sigma^2 D(sigma) that the counts walk keeps them in view. Symmetric
    two-stream maxwellian(0.5, +-1, 0.3), c0 = 1, kappa = 0.95."""

    PARTS = [(0.5, -1.0, 0.3), (0.5, 1.0, 0.3)]
    KAPPA = 0.95
    BOX = SearchRegion(-3.0, 3.0, 1e-6, 1.5)

    @pytest.fixture(scope="class")
    def spray(self):
        profile = profiles.profile_sum(*(profiles.maxwellian(*part)
                                         for part in self.PARTS))
        return make_params(profile, c0=1.0, rho0=1.0, kappa=self.KAPPA), profile

    def closed_form(self, sigma, kappa=KAPPA):
        """D(sigma) = 1 - c0^2/sigma^2 + pref sum (m/w^2)(1 + zeta Z(zeta)), with
        zeta = (sigma - u)/(sqrt(2) w) and Z = i sqrt(pi) w from scipy."""
        pref = kappa / (1.0 - kappa)          # rho0 = c0 = m0 = 1
        total = 1.0 - 1.0 / sigma**2
        for mass, drift, width in self.PARTS:
            zeta = (sigma - drift) / (math.sqrt(2.0) * width)
            z_func = 1j * math.sqrt(math.pi) * wofz(zeta)
            total += pref * mass / width**2 * (1.0 + zeta * z_func)
        return total

    def oracle_root(self, z, kappa=KAPPA, h=1e-7):
        f = lambda s: self.closed_form(s, kappa)
        for _ in range(50):
            step = f(z) / ((f(z + h) - f(z - h)) / (2.0 * h))
            z -= step
            if abs(step) < 1e-14:
                return z
        raise AssertionError("oracle Newton did not converge")

    def test_counted(self, spray):
        assert count_roots(*spray, self.BOX) == 2

    def test_found_as_the_closed_form_roots(self, spray):
        found = [r.sigma for r in find_roots(*spray, self.BOX)]
        want = [self.oracle_root(z) for z in (0.25j, 0.63j)]
        assert want == pytest.approx([0.25211j, 0.63136j], abs=1e-5)
        assert len(found) == 2
        for got, root in zip(sorted(found, key=lambda z: z.imag), want):
            assert abs(got - root) < 1e-8

    def test_verdict_unstable(self, spray):
        assert spectral_verdict(*spray) == "unstable"

    @pytest.mark.parametrize("kappa,box", [
        (0.998, SearchRegion(-0.05, 0.05, -0.05, 0.05)),
        (0.999, SearchRegion(-0.05, 0.05, -0.05, 0.05)),
        (0.999, SearchRegion(-0.03, 0.04, -0.04, 0.03)),
        (0.999, SearchRegion(-0.0334, 0.0355, -0.0359, 0.033))])
    def test_small_box_around_the_pole(self, spray, kappa, box):
        # one root either side of sigma = 0: Newton from the centre of the
        # centred boxes starts on the pole, and from the others it reaches a
        # root outside a sub-box; such a box bisects, and each root is
        # reported once
        profile = spray[1]
        params = make_params(profile, c0=1.0, rho0=1.0, kappa=kappa)
        assert count_roots(params, profile, box) == 2
        found = sorted((r.sigma for r in find_roots(params, profile, box)),
                       key=lambda z: z.imag)
        assert len(found) == 2
        for got, seed in zip(found, (-0.03j, 0.03j)):
            assert abs(got - self.oracle_root(seed, kappa)) < 1e-12


class TestStrongBumpRoots:
    """The two bump profiles whose unstable roots lie above eta / 2: a box that
    reaches them counts and finds them."""

    # (eps, eta, kappa) of a bump at c* = c0 = 5, the box, the root to 3 digits
    CASES = {
        "strong": ((0.3, 0.5, 0.05), SearchRegion(4.0, 5.2, 0.3, 1.0), 4.567 + 0.756j),
        "narrow": ((0.05, 0.3, 0.2), SearchRegion(4.0, 5.5, 0.2, 1.0), 4.741 + 0.680j)}

    @staticmethod
    def oracle_root(params, profile, z, h=1e-6):
        """Newton on D(sigma) with the continued integral from `bump_oracle`."""
        def func(s):
            integral = bump_oracle(profile, (0.0, 1.0), s)
            pref = dispersion.coupling_prefactor(params, profile)
            return 1.0 - params.c0**2 / s**2 - pref * integral / s

        for _ in range(8):
            step = func(z) / ((func(z + h) - func(z - h)) / (2.0 * h))
            z -= step
            if abs(step) < 1e-12:
                break
        return z

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("case", CASES)
    def test_counted_and_found(self, case):
        (eps, eta, kappa), region, want = self.CASES[case]
        profile = profiles.make_bump_on_tail(profiles.maxwellian(), eps, eta, 5.0)
        params = make_params(profile, c0=5.0, rho0=1.0, kappa=kappa)
        assert region.im_max > 0.5 * eta
        assert count_roots(params, profile, region) == 1
        (root,) = find_roots(params, profile, region)
        assert abs(root.sigma.real - want.real) < 5e-4
        assert abs(root.sigma.imag - want.imag) < 5e-4
        assert abs(root.sigma - self.oracle_root(params, profile, root.sigma)) <= 1e-8


class TestArrayDispersion:
    def test_matches_scalar_on_all_branches(self, bump_params, bump_profile,
                                            maxwellian_params, std_maxwellian):
        for params, profile in ((maxwellian_params, std_maxwellian),
                                (bump_params, bump_profile)):
            sigma = np.array([complex(re, im) for re in np.linspace(-7.0, 7.0, 56)
                              for im in (0.1, 1e-3, 0.0, -1e-3, -0.1)])
            got = dispersion_value(params, profile, sigma)
            want = np.array([dispersion_value(params, profile, z) for z in sigma])
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_pole_and_overflow_refused_like_scalar(self, maxwellian_params,
                                                   std_maxwellian):
        sigma = np.array([0.5 + 0.01j, 1e-15, 2.0])
        with pytest.raises(ZeroSigma):
            dispersion_value(maxwellian_params, std_maxwellian, sigma)
        for huge in (np.array([1.0, 2.5e307]), 2.5e307):
            with pytest.raises(ArithmeticError):
                dispersion_value(maxwellian_params, std_maxwellian, huge)

    @pytest.mark.parametrize("k", [1.5, -1.5])
    def test_landau_matches_scalar(self, std_maxwellian, k):
        omega = k * np.array([0.4 + 0.05j, -1.2 + 0.05j, 2.0, 0.3 - 0.1j])
        got = landau_dispersion(std_maxwellian, k, omega)
        want = [landau_dispersion(std_maxwellian, k, z) for z in omega]
        np.testing.assert_allclose(got, want, rtol=1e-13)


def depth_first_winding(func, region, n0=48, feature_scale=None,
                        split=dispersion._SPLIT):
    """The one-point-at-a-time depth-first phase walk that `_winding_number`
    evaluates by levels, each unresolved segment cut into `split` equal pieces:
    (winding number, every point sampled, levels), where levels is one for the
    edge samples plus the deepest refinement."""
    corners = list(region.corners) + [region.corners[0]]
    pts = []
    for a, b in zip(corners[:-1], corners[1:]):
        n_edge = n0
        if feature_scale is not None and feature_scale > 0:
            n_edge = max(n0, min(1024, int(math.ceil(abs(b - a) / feature_scale))))
        pts.extend(a + (b - a) * np.linspace(0.0, 1.0, n_edge, endpoint=False))
    vals = [func(z) for z in pts]
    sampled = list(pts)
    pts.append(pts[0])
    vals.append(vals[0])
    pieces = np.arange(1, split) / split
    total, depth = 0.0, 0
    for i in range(len(pts) - 1):
        seg = [(pts[i], vals[i], pts[i + 1], vals[i + 1], 0)]
        while seg:
            z1, v1, z2, v2, level = seg.pop()
            dphi = np.angle(v2 / v1)
            ratio = abs(v2) / abs(v1)
            if (abs(dphi) <= 1.0 and 1.0 / math.e <= ratio <= math.e) \
                    or abs(z2 - z1) < 1e-13 * (1.0 + abs(z1)):
                total += dphi
                continue
            zs = [z1, *(z1 + (z2 - z1) * pieces), z2]
            vs = [v1, *(func(z) for z in zs[1:-1]), v2]
            sampled += zs[1:-1]
            depth = max(depth, level + 1)
            # pushed last to first, so the pieces are walked in order
            seg += [(zs[j], vs[j], zs[j + 1], vs[j + 1], level + 1)
                    for j in reversed(range(split))]
    return round(total / (2.0 * math.pi)), sampled, 1 + depth


class Recorder:
    """func wrapped to record each call and every point it is given."""

    def __init__(self, func):
        self.func, self.calls, self.points = func, 0, []

    def __call__(self, z):
        self.calls += 1
        self.points.extend(np.ravel(z).tolist())
        return self.func(z)


class TestWindingWalk:
    REGION = SearchRegion(0.0, 2.0, 0.0, 1.0)
    # one zero inside, two just outside the top and bottom edges
    ZEROS = (1.0 + 0.5j, 1.3 + 1.002j, 0.7 - 0.003j)

    def func(self, z):
        out = 1.0
        for r in self.ZEROS:
            out = out * (z - r)
        return out

    def test_refinement_near_edge_zeros_gives_known_count(self):
        walk = Recorder(self.func)
        assert dispersion._winding_number(walk, self.REGION) == 1
        count, sampled, levels = depth_first_winding(self.func, self.REGION)
        assert count == 1
        # the edge samples, then one call per refinement level
        assert walk.calls == levels > 1
        assert len(walk.points) > 4 * 48
        assert sorted(walk.points, key=lambda z: (z.real, z.imag)) == \
            sorted(sampled, key=lambda z: (z.real, z.imag))

    def test_same_samples_as_depth_first_on_a_dispersion_function(self, bump_params,
                                                                  bump_profile):
        region = SearchRegion(-7.0, 7.0, 1e-6, 0.12)
        func = lambda z: dispersion_value(bump_params, bump_profile, z)
        walk = Recorder(func)
        assert dispersion._winding_number(walk, region, feature_scale=0.06) == 1
        count, sampled, levels = depth_first_winding(func, region, feature_scale=0.06)
        assert count == 1
        assert walk.calls == levels > 1
        assert len(walk.points) == len(sampled)
        assert set(walk.points) == set(sampled)

    @staticmethod
    def split_at_pole(params, region):
        """The rectangles left of a region once the square |Re sigma|, |Im sigma|
        <= 1e-3 c0 around the pole of D is cut out (none, one, or up to four)."""
        gap, r = 1e-3 * params.c0, region
        if not (r.re_min < gap and r.re_max > -gap and r.im_min < gap and r.im_max > -gap):
            return [region]
        lo, hi = max(r.re_min, -gap), min(r.re_max, gap)
        parts = [(r.re_min, -gap, r.im_min, r.im_max), (gap, r.re_max, r.im_min, r.im_max),
                 (lo, hi, gap, r.im_max), (lo, hi, r.im_min, -gap)]
        return [SearchRegion(*p) for p in parts if p[0] < p[1] and p[2] < p[3]]

    def test_counts_match_walks_of_d_around_the_pole(self):
        # the count of sigma^2 D(sigma) over the whole box equals the summed
        # depth-first windings of D itself over the parts left by cutting the
        # pole square out: on random boxes around sigma = 0, on boxes with an
        # edge through it, and on a box inside the square (no parts, count 0)
        mx = profiles.maxwellian(drift=0.233843, width=1.01143)
        growing = profiles.profile_sum(*(profiles.maxwellian(0.5, d, 0.3)
                                         for d in (-1.0, 1.0)))
        sprays = [(make_params(mx, c0=1.22036, rho0=1.0, kappa=0.0193477), mx),
                  (make_params(growing, c0=1.0, rho0=1.0, kappa=0.95), growing)]
        rng = np.random.default_rng(19)
        boxes = [SearchRegion(*rng.uniform((-3.0, 0.5, -0.2, 0.01),
                                           (-0.5, 3.0, -0.01, 0.8))) for _ in range(3)]
        boxes += [SearchRegion(0.0, 2.0, -0.05, 0.05), SearchRegion(-2.0, 2.0, 0.0, 0.8),
                  SearchRegion(-2.0, 0.0, -0.1, 0.2), SearchRegion(-2.0, 2.0, -0.1, 0.0),
                  SearchRegion(-5e-4, 5e-4, -2e-4, 5e-4)]
        counts = []
        for params, profile in sprays:
            scale = 0.5 * min(params.c0, 0.5 * min(g.width for g in profile.gaussians))
            func = lambda z: dispersion_value(params, profile, z)
            for box in boxes:
                want = sum(depth_first_winding(func, part, feature_scale=scale)[0]
                           for part in self.split_at_pole(params, box))
                assert count_roots(params, profile, box) == want, box
                counts.append(want)
        # the Maxwellian pair below the axis, the two-stream pair on the
        # imaginary axis above it, and nothing in the pole square
        assert counts == [2, 2, 2, 1, 0, 1, 2, 0, 0, 1, 1, 0, 2, 0, 0, 0]

    def test_feature_scale_from_the_narrowest_part(self, monkeypatch):
        # the two-stream sum above has parts of width 0.3: the first call of the
        # walk spaces each edge of the verdict box at most 0.5 min(c0, 0.3 / 2)
        # apart, and the box holds the purely growing pair
        growing = profiles.profile_sum(*(profiles.maxwellian(0.5, d, 0.3)
                                         for d in (-1.0, 1.0)))
        params = make_params(growing, c0=1.0, rho0=1.0, kappa=0.95)
        region = dispersion.verdict_region(params, growing)
        pole_free, calls = dispersion._pole_free, []

        def recorded(params, profile, sigma):
            calls.append(sigma)
            return pole_free(params, profile, sigma)

        monkeypatch.setattr(dispersion, "_pole_free", recorded)
        assert count_roots(params, growing, region) == 2
        loop = np.append(calls[0], calls[0][0])
        assert np.abs(np.diff(loop)).max() <= 0.5 * min(1.0, 0.15) * (1.0 + 1e-12)

    def test_counts_match_two_way_walk_near_edges(self):
        # zeros within 1e-3 of an edge, inside or outside: the 2-way depth-first
        # walk needs many more levels to resolve them, and counts the same
        rng = np.random.default_rng(20)
        region = self.REGION
        for _ in range(20):
            zeros = []
            for _ in range(rng.integers(2, 6)):
                off = rng.uniform(-1e-3, 1e-3)
                t = rng.uniform(0.05, 0.95)
                zeros.append([complex(2.0 * t, off), complex(2.0 * t, 1.0 + off),
                              complex(off, t), complex(2.0 + off, t)][rng.integers(4)])

            def poly(z, zeros=zeros):
                out = 1.0
                for r in zeros:
                    out = out * (z - r)
                return out

            walk = Recorder(poly)
            count = dispersion._winding_number(walk, region)
            want, _, levels = depth_first_winding(poly, region, split=2)
            assert count == want == sum(region.contains(r) for r in zeros)
            assert walk.calls < levels

    def test_bump_neutral_verdict_box_in_few_calls(self, monkeypatch):
        # the bottom edge of the proven verdict box, Im sigma = 1e-6, passes
        # close to zeros near Re sigma = -5.63 and 6.31: bisecting segments,
        # the walk took 17 calls to resolve it
        profile = profiles.make_bump_on_tail(profiles.maxwellian(), 0.05, 0.3, 5.0)
        params = make_params(profile, c0=5.0, rho0=1.0, kappa=0.2)
        region = dispersion.verdict_region(params, profile)
        calls, pole_free = [], dispersion._pole_free
        monkeypatch.setattr(dispersion, "_pole_free",
                            lambda p, f, z: calls.append(z) or pole_free(p, f, z))
        assert count_roots(params, profile, region) == 1
        assert len(calls) <= 8

    def test_zero_on_the_contour_and_eval_cap(self, monkeypatch):
        on_edge = lambda z: (z - 1.0) * (z - (1.0 + 0.5j))
        with pytest.raises(BoundaryRoot):
            dispersion._winding_number(on_edge, self.REGION)
        walk = Recorder(self.func)
        dispersion._winding_number(walk, self.REGION)
        monkeypatch.setattr(dispersion, "_MAX_BOUNDARY_EVALS", len(walk.points) - 1)
        with pytest.raises(BoundaryRoot, match="did not resolve"):
            dispersion._winding_number(self.func, self.REGION)
