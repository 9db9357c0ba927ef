import numpy as np
import pytest

from conftest import profile_integrand, dense_line_integral
from spraywaves import profiles, quadrature
from spraywaves.dispersion import (SearchRegion, SprayParams, count_roots,
                                   damping_rate_at, dispersion_parts,
                                   dispersion_value, find_roots, landau_dispersion,
                                   make_params, spectral_verdict,
                                   thin_spray_expansion)
from spraywaves.errors import StripViolation, ZeroSigma
from spraywaves.quadrature import Branch

CFG = quadrature.DEFAULT_CONFIG


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

    def test_compatibility_enforced(self, std_maxwellian):
        bad = SprayParams(c0=1.0, rho0=1.0, kappa=0.01, alpha0=0.5)
        with pytest.raises(ValueError, match=r"alpha0=0.5 inconsistent with 1 - kappa\*m0"):
            dispersion_value(bad, std_maxwellian, 1.0)

    @pytest.mark.parametrize("field", ["c0", "rho0", "kappa"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_params_reject_non_finite(self, field, value):
        fields = {"c0": 1.0, "rho0": 1.0, "kappa": 0.01, "alpha0": 0.99}
        with pytest.raises(ValueError):
            SprayParams(**{**fields, field: value})

    def test_reflection_symmetry(self, maxwellian_params, std_maxwellian):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sigma = complex(rng.uniform(0.2, 3.0), rng.uniform(1e-3, 0.2))
            a = dispersion_value(maxwellian_params, std_maxwellian, -np.conj(sigma))
            b = np.conj(dispersion_value(maxwellian_params, std_maxwellian, sigma))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-13)


class TestDispersionParts:
    def test_axis_consistency(self, maxwellian_params, std_maxwellian):
        for sigma in (0.5, 1.0, -1.3, 2.5):
            d_real, d_imag = dispersion_parts(maxwellian_params, std_maxwellian, sigma)
            full = dispersion_value(maxwellian_params, std_maxwellian, sigma)
            assert complex(d_real, d_imag) == pytest.approx(full, abs=1e-12)

    def test_imag_sign_from_slope(self, maxwellian_params, std_maxwellian):
        _, di_plus = dispersion_parts(maxwellian_params, std_maxwellian, 1.0)
        _, di_minus = dispersion_parts(maxwellian_params, std_maxwellian, -1.0)
        assert di_plus > 0.0          # f'(c0) < 0 on the decaying side
        assert di_minus == pytest.approx(-di_plus, rel=1e-12)

    def test_imag_vanishes_at_large_sigma(self, maxwellian_params, std_maxwellian):
        _, d_imag = dispersion_parts(maxwellian_params, std_maxwellian, 12.0)
        assert abs(d_imag) <= 1e-12

    def test_rejects_complex_sigma(self, maxwellian_params, std_maxwellian):
        with pytest.raises(ValueError):
            dispersion_parts(maxwellian_params, std_maxwellian, 1.0 + 0.1j)


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
        region = SearchRegion(-5.0, 5.0, 1e-6, 0.4 * std_maxwellian.strip_halfwidth)
        assert count_roots(maxwellian_params, std_maxwellian, region) == 0

    def test_rayleigh_criterion_other_profiles(self):
        # any v f'(v) <= 0 profile has no upper-half roots
        wide = profiles.maxwellian(mass=2.0, width=2.0)
        params = make_params(wide, c0=1.5, rho0=2.0, kappa=0.05)
        region = SearchRegion(-6.0, 6.0, 1e-6, 0.4 * wide.strip_halfwidth)
        assert count_roots(params, wide, region) == 0

    def test_region_beyond_strip_rejected(self, maxwellian_params, std_maxwellian):
        with pytest.raises(StripViolation):
            count_roots(maxwellian_params, std_maxwellian,
                        SearchRegion(-1.0, 1.0, -2.0, 2.0))

    def test_wide_region_certifies_single_bump_root(self, bump_params, bump_profile):
        # large rectangle: boundary sampling must not alias the localized
        # phase swing near the root at Re sigma ~ 5
        wide = SearchRegion(-30.0, 30.0, 1e-6, 0.48 * bump_profile.strip_halfwidth)
        assert count_roots(bump_params, bump_profile, wide) == 1

    def test_pole_respected_after_dilation(self, acoustic_params, std_maxwellian):
        # the region edge sits just right of the pole gap; 1% dilations (from a
        # boundary root at +c0) must not cross sigma = 0
        region = SearchRegion(1.1e-3, 1.0, -0.05, 0.05)
        n = count_roots(acoustic_params, std_maxwellian, region)
        assert n in (0, 1)


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
        region = SearchRegion(-7.0, 7.0, 1e-6, 0.48 * bump_profile.strip_halfwidth)
        reports = find_roots(bump_params, bump_profile, region, tol=1e-10)
        assert len(reports) == 1
        assert reports[0].sigma.imag > 0
        assert reports[0].residual <= 1e-10

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


class TestSpectralVerdict:
    def test_maxwellian_stable(self, maxwellian_params, std_maxwellian):
        assert spectral_verdict(maxwellian_params, std_maxwellian) == "stable"

    def test_bump_unstable(self, bump_params, bump_profile):
        assert spectral_verdict(bump_params, bump_profile) == "unstable"

    def test_decoupled_neutral(self, acoustic_params, std_maxwellian):
        assert spectral_verdict(acoustic_params, std_maxwellian) == "neutral"
