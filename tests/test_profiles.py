import math

import numpy as np
import pytest

from spraywaves import profiles
from spraywaves.errors import InvalidBump, StripViolation, VacuumViolation
from spraywaves.profiles import (compatibility_alpha, eval_df, eval_f,
                                 make_bump_on_tail, maxwellian, moment,
                                 profile_sum)

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestMaxwellian:
    def test_peak_value(self, std_maxwellian):
        assert eval_f(std_maxwellian, 0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-14)

    def test_real_axis_gives_real_values(self, std_maxwellian):
        v = np.linspace(-4.0, 4.0, 17)
        assert np.all(np.imag(eval_f(std_maxwellian, v)) == 0.0)
        assert np.all(np.imag(eval_df(std_maxwellian, v)) == 0.0)

    def test_derivative_at_peak_and_slope(self, std_maxwellian):
        assert eval_df(std_maxwellian, 0.0) == pytest.approx(0.0, abs=1e-15)
        expected = -1.0 * eval_f(std_maxwellian, 1.0).real
        assert eval_df(std_maxwellian, 1.0).real == pytest.approx(expected, rel=1e-13)
        assert eval_df(std_maxwellian, 1.0).real == pytest.approx(-0.2419707, abs=1e-7)

    def test_complex_step_consistency(self, std_maxwellian):
        # complex-step differentiation is exact to O(h^2) with no cancellation
        h = 1e-20
        for v in np.linspace(-3.0, 3.0, 10):
            deriv = eval_df(std_maxwellian, v).real
            step = np.imag(eval_f(std_maxwellian, v + 1j * h)) / h
            assert abs(deriv - step) <= 1e-8

    def test_moments_closed_form(self, std_maxwellian):
        assert moment(std_maxwellian, 0) == pytest.approx(1.0, rel=1e-10)
        assert moment(std_maxwellian, 2) == pytest.approx(1.0, rel=1e-10)

    def test_moment_mass_width_drift(self):
        p = maxwellian(mass=2.0, width=3.0, drift=1.0)
        assert moment(p, 0) == pytest.approx(2.0, rel=1e-10)
        assert moment(p, 2) == pytest.approx(20.0, rel=1e-10)

    def test_moment_order_validation(self, std_maxwellian):
        with pytest.raises(ValueError):
            moment(std_maxwellian, 1)

    def test_strip_violation(self, std_maxwellian):
        with pytest.raises(StripViolation):
            eval_f(std_maxwellian, 0.0 + 1j)
        with pytest.raises(StripViolation):
            eval_df(std_maxwellian, 2.0 - 0.7j)


class TestSymmetryProperties:
    def test_evenness(self, std_maxwellian):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.1, 4.0, 25)
        np.testing.assert_allclose(eval_f(std_maxwellian, -v),
                                   eval_f(std_maxwellian, v), rtol=1e-14)
        np.testing.assert_allclose(eval_df(std_maxwellian, -v),
                                   -eval_df(std_maxwellian, v), rtol=1e-14)

    def test_rayleigh_monotonicity(self, std_maxwellian):
        v = np.linspace(-8.0, 8.0, 401)
        assert np.all(np.real(v * eval_df(std_maxwellian, v)) <= 1e-16)


class TestBumpOnTail:
    def test_mass_preserved(self, std_maxwellian, bump_profile):
        assert moment(bump_profile, 0) == pytest.approx(
            moment(std_maxwellian, 0), abs=1e-10)

    def test_positive_slope_at_center(self, bump_profile):
        assert eval_df(bump_profile, 5.0).real > 0.0

    def test_positivity_on_real_grid(self, bump_profile):
        v = np.linspace(-9.0, 9.0, 801)
        assert np.all(np.real(eval_f(bump_profile, v)) >= 0.0)

    def test_eps_limit_pointwise(self, std_maxwellian):
        eps = 1e-6
        small = make_bump_on_tail(std_maxwellian, eps=eps, eta=0.5, c_star=5.0)
        v = np.linspace(-4.0, 6.0, 41)
        diff = np.max(np.abs(eval_f(small, v) - eval_f(std_maxwellian, v)))
        assert diff <= 5.0 * eps

    def test_moment_additivity(self, std_maxwellian, bump_profile):
        # independent decomposition: (1-eps) * base moment + eps * m0 * bump part
        c, m1g, m2g = profiles._bump_constants()
        eps, eta, cs = 0.05, 0.5, 5.0
        m0_base = moment(std_maxwellian, 0)
        bump_m0 = eps * m0_base
        bump_m2 = eps * m0_base * (cs**2 + 2 * cs * eta * m1g + eta**2 * m2g)
        assert moment(bump_profile, 0) == pytest.approx(
            (1 - eps) * m0_base + bump_m0, rel=1e-8)
        assert moment(bump_profile, 2) == pytest.approx(
            (1 - eps) * moment(std_maxwellian, 2) + bump_m2, rel=1e-8)

    def test_invalid_parameters(self, std_maxwellian):
        with pytest.raises(InvalidBump):
            make_bump_on_tail(std_maxwellian, eps=1.5, eta=0.5, c_star=5.0)
        with pytest.raises(InvalidBump):
            make_bump_on_tail(std_maxwellian, eps=0.1, eta=-1.0, c_star=5.0)

    def test_complex_eval_inside_support(self, bump_profile):
        val = eval_f(bump_profile, 5.0 + 0.05j)
        assert np.isfinite(val)

    def test_edge_margin_raises_off_axis(self, bump_profile):
        # support edges at 4.5 and 5.5; within the margin complex eval refuses
        with pytest.raises(StripViolation):
            eval_f(bump_profile, 4.5 + 0.01j)
        # on the real axis the same point is fine
        assert np.isfinite(eval_f(bump_profile, 4.5))

    def test_scalar_kernel_matches_array_kernel(self, bump_profile):
        # the pure-Python bump derivative at one point, against the numpy
        # kernel, with the same refusals as the strip check
        rng = np.random.default_rng(5)
        pts = [complex(x, y) for x, y in zip(rng.uniform(4.0, 6.0, 400),
                                             rng.uniform(-0.3, 0.3, 400))]
        pts += [4.5, 5.5, 4.5 + 0.01j, 5.0, complex(5.0, 0.25), complex(5.0, -0.26)]
        for s in pts:
            try:
                profiles._check_strip(bump_profile, np.array([s]))
            except StripViolation:
                with pytest.raises(StripViolation):
                    profiles._bump_df_at(bump_profile, complex(s))
                continue
            ref = profiles._bump_df(bump_profile, np.array([s], dtype=complex))[0]
            val = profiles._bump_df_at(bump_profile, complex(s))
            assert abs(val - ref) <= 1e-14 * max(abs(ref), 1e-300)

    def test_bump_shape_constants(self):
        # normalization frozen against a 30-digit mpmath evaluation
        c, m1g, m2g = profiles._bump_constants()
        assert c == pytest.approx(1.9447863754628564, rel=1e-13)
        # g'(0) = 2 C / e > 0
        assert 2 * c / math.e > 0
        w = np.linspace(-0.999, 0.999, 501)
        g = np.real(profiles._bump_raw(w)) * c
        assert np.all(g >= 0.0)


class TestSumProfile:
    def test_two_stream_moments(self):
        left = maxwellian(mass=0.5, drift=-2.0, width=1.0)
        right = maxwellian(mass=0.5, drift=2.0, width=1.0)
        two = profile_sum(left, right)
        assert moment(two, 0) == pytest.approx(1.0, rel=1e-10)
        assert moment(two, 2) == pytest.approx(
            moment(left, 2) + moment(right, 2), rel=1e-10)

    def test_eval_is_superposition(self):
        left = maxwellian(mass=0.5, drift=-2.0)
        right = maxwellian(mass=0.5, drift=2.0)
        two = profile_sum(left, right)
        v = np.linspace(-5.0, 5.0, 21)
        np.testing.assert_allclose(
            eval_f(two, v), eval_f(left, v) + eval_f(right, v), rtol=1e-14)


class TestValidation:
    @pytest.mark.parametrize("field", ["mass", "drift", "width", "strip_halfwidth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_maxwellian_field(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            maxwellian(**{field: value})

    @pytest.mark.parametrize("field", ["eta", "c_star"])
    def test_non_finite_bump_field(self, std_maxwellian, field):
        kwargs = {"eps": 0.05, "eta": 0.5, "c_star": 5.0, field: math.nan}
        with pytest.raises(ValueError, match="finite"):
            make_bump_on_tail(std_maxwellian, **kwargs)

    def test_overflowing_support(self, std_maxwellian):
        with pytest.raises(ValueError, match="overflows"):
            maxwellian(width=1e308)
        with pytest.raises(ValueError, match="overflows"):
            make_bump_on_tail(std_maxwellian, eps=0.05, eta=1e308, c_star=5.0)
        with pytest.raises(ValueError, match="overflows"):
            profile_sum(maxwellian(drift=-1e308), maxwellian(drift=1e308))

    def test_cached_mass(self, bump_profile):
        assert bump_profile.m0 == moment(bump_profile, 0)


class TestCompatibility:
    def test_zero_kappa(self, std_maxwellian):
        assert compatibility_alpha(std_maxwellian, 0.0) == pytest.approx(1.0)

    def test_small_kappa(self, std_maxwellian):
        assert compatibility_alpha(std_maxwellian, 0.1) == pytest.approx(0.9, abs=1e-10)

    def test_vacuum_violation(self, std_maxwellian):
        with pytest.raises(VacuumViolation):
            compatibility_alpha(std_maxwellian, 1.5)

    def test_negative_kappa_rejected(self, std_maxwellian):
        with pytest.raises(ValueError):
            compatibility_alpha(std_maxwellian, -0.1)
