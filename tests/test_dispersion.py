import math

import numpy as np
import pytest
from scipy.special import wofz

from conftest import bump_oracle, dense_line_integral, profile_integrand
from spraywaves import dispersion, profiles
from spraywaves.dispersion import (SearchRegion, SprayParams, count_roots,
                                   damping_rate_at, dispersion_parts,
                                   dispersion_value, find_roots, landau_dispersion,
                                   make_params, spectral_verdict,
                                   thin_spray_expansion)
from spraywaves.errors import BoundaryRoot, StripViolation, ZeroSigma
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

    def test_upper_box_needs_no_strip_until_dilated_below_the_axis(self, acoustic_params,
                                                                  std_maxwellian):
        # the root at 1 on the bottom edge sets off a dilation that pushes the
        # bottom below the axis, where the strip (0.5) is checked again
        assert count_roots(acoustic_params, std_maxwellian,
                           SearchRegion(0.5, 1.5, 0.0, 0.4)) == 1
        with pytest.raises(BoundaryRoot):
            count_roots(acoustic_params, std_maxwellian, SearchRegion(0.5, 1.5, 0.0, 1.0))
        with pytest.raises(StripViolation):
            count_roots(acoustic_params, std_maxwellian,
                        SearchRegion(0.5, 1.5, -0.1, 1.0))

    def test_empty_split_counts_zero(self, acoustic_params, std_maxwellian):
        # a box inside the square cut out around the pole leaves no rectangle
        region = SearchRegion(-5e-4, 5e-4, 1e-4, 5e-4)
        assert dispersion._split_at_pole(acoustic_params, region) == []
        assert count_roots(acoustic_params, std_maxwellian, region) == 0

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


class TestPurelyGrowingRoots:
    """Roots on the imaginary axis: the sigma = 0 pole cut-out must not hide
    them. Symmetric two-stream maxwellian(0.5, +-1, 0.3), c0 = 1, kappa = 0.95."""

    PARTS = [(0.5, -1.0, 0.3), (0.5, 1.0, 0.3)]
    KAPPA = 0.95
    BOX = SearchRegion(-3.0, 3.0, 1e-6, 1.5)

    @pytest.fixture(scope="class")
    def spray(self):
        profile = profiles.profile_sum(*(profiles.maxwellian(*part, strip_halfwidth=4.0)
                                         for part in self.PARTS))
        return make_params(profile, c0=1.0, rho0=1.0, kappa=self.KAPPA), profile

    def closed_form(self, sigma):
        """D(sigma) = 1 - c0^2/sigma^2 + pref sum (m/w^2)(1 + zeta Z(zeta)), with
        zeta = (sigma - u)/(sqrt(2) w) and Z = i sqrt(pi) w from scipy."""
        pref = self.KAPPA / (1.0 - self.KAPPA)          # rho0 = c0 = m0 = 1
        total = 1.0 - 1.0 / sigma**2
        for mass, drift, width in self.PARTS:
            zeta = (sigma - drift) / (math.sqrt(2.0) * width)
            z_func = 1j * math.sqrt(math.pi) * wofz(zeta)
            total += pref * mass / width**2 * (1.0 + zeta * z_func)
        return total

    def oracle_root(self, z, h=1e-7):
        f = self.closed_form
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
        region = SearchRegion(-3.0, 3.0, -1.0, 1.5)
        assert spectral_verdict(*spray, region) == "unstable"


class TestStrongBumpRoots:
    """The two bump profiles whose unstable roots lie above half the strip
    (ROADMAP defect 1): an upper box needs no strip, so a box that reaches them
    counts and finds them."""

    # (eps, eta, kappa) of a bump at c* = c0 = 5, the box, the root to 3 digits
    CASES = {
        "strong": ((0.3, 0.5, 0.05), SearchRegion(4.0, 5.2, 0.3, 1.0), 4.567 + 0.756j),
        "narrow": ((0.05, 0.3, 0.2), SearchRegion(4.0, 5.5, 0.2, 1.0), 4.741 + 0.680j)}

    @staticmethod
    def oracle_root(params, profile, z, h=1e-6):
        """Newton on D(sigma) with the continued integral from `bump_oracle`."""
        def func(s):
            integral = bump_oracle(profile, (0.0, 1.0), s)
            return 1.0 - params.c0**2 / s**2 - params.coupling_prefactor * integral / s

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
        assert region.im_max > profile.strip_halfwidth
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


def depth_first_winding(func, region, n0=48, feature_scale=None):
    """The one-point-at-a-time depth-first phase walk that `_winding_numbers`
    evaluates by levels: (winding number, every point sampled)."""
    corners = list(region.corners) + [region.corners[0]]
    pts = []
    for a, b in zip(corners[:-1], corners[1:]):
        n_edge = n0
        if feature_scale is not None and feature_scale > 0:
            n_edge = max(n0, min(1024, int(math.ceil(abs(b - a) / feature_scale))))
        pts.extend(a + (b - a) * np.linspace(0.0, 1.0, n_edge, endpoint=False))
    pts.append(pts[0])
    vals = [func(z) for z in pts]
    sampled = list(pts)
    total = 0.0
    for i in range(len(pts) - 1):
        seg = [(pts[i], vals[i], pts[i + 1], vals[i + 1])]
        while seg:
            z1, v1, z2, v2 = seg.pop()
            dphi = np.angle(v2 / v1)
            ratio = abs(v2) / abs(v1)
            if (abs(dphi) <= 1.0 and 1.0 / math.e <= ratio <= math.e) \
                    or abs(z2 - z1) < 1e-13 * (1.0 + abs(z1)):
                total += dphi
                continue
            zm = 0.5 * (z1 + z2)
            vm = func(zm)
            sampled.append(zm)
            seg.append((zm, vm, z2, v2))
            seg.append((z1, v1, zm, vm))
    return round(total / (2.0 * math.pi)), sampled


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
        assert dispersion._winding_numbers(walk, [self.REGION]) == [1]
        # the edge samples, then one call per refinement level
        assert walk.calls > 3
        assert len(walk.points) > 4 * 48 + 1
        count, sampled = depth_first_winding(self.func, self.REGION)
        assert count == 1
        assert sorted(walk.points, key=lambda z: (z.real, z.imag)) == \
            sorted(sampled, key=lambda z: (z.real, z.imag))

    def test_same_samples_as_depth_first_on_a_dispersion_function(self, bump_params,
                                                                  bump_profile):
        region = SearchRegion(-7.0, 7.0, 1e-6, 0.12)
        func = lambda z: dispersion_value(bump_params, bump_profile, z)
        walk = Recorder(func)
        assert dispersion._winding_numbers(walk, [region], feature_scale=0.06) == [1]
        count, sampled = depth_first_winding(func, region, feature_scale=0.06)
        assert count == 1
        assert walk.calls > 1
        assert len(walk.points) == len(sampled)
        assert set(walk.points) == set(sampled)

    def test_pole_split_parts_walked_together(self):
        # a `roots.maxwellian`-type box straddles the pole: its four parts get
        # the samples and counts of their own depth-first walks, from one call
        # per refinement level (4 calls, against 10 for the parts one by one)
        profile = profiles.maxwellian(drift=0.233843, width=1.01143)
        params = make_params(profile, c0=1.22036, rho0=1.0, kappa=0.0193477)
        parts = dispersion._split_at_pole(params, SearchRegion(-2.254203, 2.254203,
                                                               -0.05, 0.02))
        scale = 0.5 * min(params.c0, profile.width, profile.strip_halfwidth)
        func = lambda z: dispersion_value(params, profile, z)
        walk = Recorder(func)
        counts = dispersion._winding_numbers(walk, parts, feature_scale=scale)
        assert len(parts) == 4 and sum(counts) == 2
        sampled, calls = [], []
        for part, count in zip(parts, counts):
            alone = Recorder(func)
            assert dispersion._winding_numbers(alone, [part],
                                               feature_scale=scale) == [count]
            want, points = depth_first_winding(func, part, feature_scale=scale)
            assert want == count
            assert sorted(alone.points, key=lambda z: (z.real, z.imag)) == \
                sorted(points, key=lambda z: (z.real, z.imag))
            sampled += points
            calls.append(alone.calls)
        assert sorted(walk.points, key=lambda z: (z.real, z.imag)) == \
            sorted(sampled, key=lambda z: (z.real, z.imag))
        assert walk.calls == max(calls) < sum(calls)

    def test_no_rectangles_no_calls(self):
        def refuse(z):
            raise AssertionError("called")

        assert dispersion._winding_numbers(refuse, []) == []

    def test_zero_on_the_contour_and_eval_cap(self, monkeypatch):
        on_edge = lambda z: (z - 1.0) * (z - (1.0 + 0.5j))
        with pytest.raises(BoundaryRoot):
            dispersion._winding_numbers(on_edge, [self.REGION])
        walk = Recorder(self.func)
        dispersion._winding_numbers(walk, [self.REGION])
        monkeypatch.setattr(dispersion, "_MAX_BOUNDARY_EVALS", len(walk.points) - 1)
        with pytest.raises(BoundaryRoot, match="did not resolve"):
            dispersion._winding_numbers(self.func, [self.REGION])
