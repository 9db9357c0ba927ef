import math

import numpy as np
import pytest

from conftest import (contour_deformed_integral, dawson_series,
                      dense_line_integral, profile_integrand)
from scipy import integrate as scipy_integrate
from scipy.special import wofz

from spraywaves import _gauss, profiles, quadrature
from spraywaves._faddeeva import _L, _coefficients, faddeeva
from spraywaves.errors import FaddeevaOverflow, StripViolation, ZeroSigma
from spraywaves.hyperbolic import ScalarCoupling, scalar_dispersion
from spraywaves.quadrature import (Branch, QuadratureConfig, cauchy_transform,
                                   classify_branch, pv_integral, resonance_asymptotic,
                                   resonance_integral, singular_integral)

CFG = QuadratureConfig()

# Dawson values frozen from the series oracle (cross-checked against mpmath)
DAWSON = {0.5: 0.42443638350202244, 1.0: 0.5380795069127684, 2.0: 0.30134038892379196}


def unit_gaussian(v):
    return np.exp(-np.asarray(v, dtype=complex) ** 2) / math.sqrt(math.pi)


def maxwellian_closed_form(sigma, mass=1.0, drift=0.0, width=1.0):
    """Continued int v f'(v)/(v - sigma) dv of a Maxwellian via the Faddeeva function.

    With zeta = (sigma - drift)/width and Z(z) = i sqrt(pi) w(z) this is
    -sigma (mass/width^2) (1 + zeta Z(zeta/sqrt 2)/sqrt 2); for the unit
    Maxwellian, -sigma - sigma^2 Z(sigma/sqrt 2)/sqrt 2. w is entire, so the
    same expression holds on all three branches.
    """
    zeta = (sigma - drift) / width
    z = 1j * math.sqrt(math.pi) * wofz(zeta / math.sqrt(2.0))
    return -sigma * mass / width**2 * (1.0 + zeta * z / math.sqrt(2.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=63)
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=65)
        with pytest.raises(ValueError):
            QuadratureConfig(axis_tolerance=1e-9)
        with pytest.raises(ValueError):
            QuadratureConfig(truncation_halfwidth=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("truncation_halfwidth", math.nan), ("truncation_halfwidth", math.inf),
        ("subtraction_window", math.nan), ("subtraction_window", math.inf),
        ("axis_tolerance", math.nan), ("nodes", 65538), ("nodes", 10**308)])
    def test_rejects_non_finite_and_oversized(self, field, value):
        with pytest.raises(ValueError):
            QuadratureConfig(**{field: value})


class TestClassifyBranch:
    @pytest.mark.parametrize("sigma,expected", [
        (1.0 + 0.1j, Branch.UPPER),
        (1.0 + 0.0j, Branch.REAL_AXIS),
        (1.0 - 1e-3j, Branch.LOWER),
        (1.0 + 5e-13j, Branch.REAL_AXIS),
    ])
    def test_examples(self, sigma, expected):
        assert classify_branch(sigma, CFG) is expected


class TestDawsonOracle:
    def test_series_matches_frozen_values(self):
        for x, expected in DAWSON.items():
            assert dawson_series(x) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
    def test_pv_of_unit_gaussian(self, x0):
        # P.V. int (e^{-v^2}/sqrt(pi)) / (v - x0) dv = -2 * Dawson(x0)
        val = pv_integral(unit_gaussian, x0, CFG, scale=0.7)
        assert val.real == pytest.approx(-2.0 * dawson_series(x0), rel=1e-8)
        assert abs(val.imag) < 1e-12


class TestPvIntegral:
    @pytest.mark.parametrize("even_g", [
        lambda v: np.exp(-np.asarray(v, dtype=complex) ** 2),
        lambda v: np.asarray(v) ** 2 * np.exp(-0.5 * np.asarray(v, dtype=complex) ** 2),
        lambda v: np.cos(np.asarray(v, dtype=complex)) * np.exp(
            -np.asarray(v, dtype=complex) ** 2),
    ])
    def test_even_g_makes_odd_integrand(self, even_g):
        # even g about x0 = 0 gives an odd g(v)/v: principal value vanishes
        val = pv_integral(even_g, 0.0, CFG, scale=0.7)
        assert abs(val) < 1e-10

    def test_constant_on_symmetric_truncation(self):
        g = lambda v: np.ones_like(np.asarray(v, dtype=complex))
        val = pv_integral(g, 0.0, CFG, bounds=(-12.0, 12.0))
        assert abs(val) < 1e-12

    def test_x0_outside_interval(self):
        with pytest.raises(ValueError):
            pv_integral(unit_gaussian, 20.0, CFG, bounds=(-5.0, 5.0))


class TestSingularIntegral:
    def test_upper_branch_against_dense_oracle(self, std_maxwellian):
        g = profile_integrand(std_maxwellian, "f")
        val = singular_integral(g, 1j, Branch.UPPER, CFG, scale=1.0)
        oracle = dense_line_integral(g, 1j)
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_real_axis_even_integrand(self, std_maxwellian):
        # odd P.V. part vanishes; only the residue i pi f(0) survives
        g = profile_integrand(std_maxwellian, "f")
        val = singular_integral(g, 0.0, Branch.REAL_AXIS, CFG, scale=1.0)
        assert abs(val.real) < 1e-12
        assert val.imag == pytest.approx(math.pi / math.sqrt(2 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_plemelj_continuity_from_above(self, std_maxwellian, eps):
        g = profile_integrand(std_maxwellian, "v_df")
        up = singular_integral(g, 1.0 + 1j * eps, Branch.UPPER, CFG, scale=1.0)
        ax = singular_integral(g, 1.0, Branch.REAL_AXIS, CFG, scale=1.0)
        assert abs(up - ax) <= 10.0 * eps

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_plemelj_continuity_from_below(self, std_maxwellian, eps):
        g = profile_integrand(std_maxwellian, "v_df")
        lo = singular_integral(g, 1.0 - 1j * eps, Branch.LOWER, CFG, scale=1.0)
        ax = singular_integral(g, 1.0, Branch.REAL_AXIS, CFG, scale=1.0)
        assert abs(lo - ax) <= 10.0 * eps

    def test_plemelj_linear_rate(self, std_maxwellian):
        rng = np.random.default_rng(3)
        g = profile_integrand(std_maxwellian, "v_df")
        for x0 in rng.uniform(-2.0, 2.0, 10):
            ax = singular_integral(g, complex(x0), Branch.REAL_AXIS, CFG, scale=1.0)
            diffs = []
            for eps in (1e-2, 1e-3, 1e-4):
                up = singular_integral(g, complex(x0, eps), Branch.UPPER, CFG,
                                       scale=1.0)
                diffs.append(abs(up - ax))
            slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(diffs), 1)[0]
            assert slope >= 0.9

    def test_lower_branch_against_contour_oracle(self, std_maxwellian):
        g = profile_integrand(std_maxwellian, "v_df")
        sigma = 0.8 - 0.1j
        val = singular_integral(g, sigma, Branch.LOWER, CFG, scale=1.0)
        # the residue form must equal the contour dipping below sigma
        oracle = contour_deformed_integral(g, sigma, -12.0, 12.0, dip=0.1)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_node_doubling_convergence(self, std_maxwellian):
        g = profile_integrand(std_maxwellian, "v_df")
        v1 = singular_integral(g, 0.7 + 0.2j, Branch.UPPER, CFG, scale=1.0)
        v2 = singular_integral(g, 0.7 + 0.2j, Branch.UPPER,
                               QuadratureConfig(nodes=512), scale=1.0)
        assert abs(v1 - v2) < 1e-9


class TestCauchyTransform:
    @pytest.mark.parametrize("profile_name,weight,sigma", [
        ("std_maxwellian", (0.5, 0.0, -1.0), -0.4 + 0.3j),
        ("bump_profile", (1.0, -0.5, 0.25), 4.8 + 0.1j),
    ])
    def test_upper_branch_against_dense_oracle(self, request, profile_name,
                                               weight, sigma):
        profile = request.getfixturevalue(profile_name)
        df = profile_integrand(profile, "df")
        g = lambda v: np.polynomial.polynomial.polyval(v, weight) * df(v)
        # split at the bump support edges so the adaptive oracle sees them
        edges = [-np.inf, 4.5, 5.5, np.inf]
        oracle = sum(dense_line_integral(g, sigma, lo, hi)
                     for lo, hi in zip(edges[:-1], edges[1:]))
        val = cauchy_transform(profile, weight, sigma, CFG)
        assert val == pytest.approx(oracle, abs=1e-9)


    @pytest.mark.parametrize("sigma", [0.4 + 0.3j, 2.0 + 1.5j, 1.1 - 0.2j])
    def test_drifted_maxwellian_quartic_weight(self, sigma):
        # the Gaussian moments of the closed form enter from degree 3 on
        profile = profiles.maxwellian(0.7, 1.3, 0.8)
        weight = (1.0, 0.2, -0.3, 0.1, -0.05)
        df = profile_integrand(profile, "df")
        g = lambda v: np.polynomial.polynomial.polyval(v, weight) * df(v)
        upper = complex(sigma.real, abs(sigma.imag))
        oracle = dense_line_integral(g, upper, epsabs=0.0, epsrel=1e-12)
        if sigma.imag < 0:
            # lower branch: the conjugate of the upper value plus the residue
            oracle = oracle.conjugate() + 2j * math.pi * g(np.array([sigma]))[0]
        val = cauchy_transform(profile, weight, sigma, CFG)
        assert val == pytest.approx(oracle, rel=1e-12)


class TestStripContract:
    """Only the lower branch needs the strip: beyond it StripViolation, above
    the axis a value at any height."""

    @pytest.mark.parametrize("sigma", [1.0 - 0.6j, -2.0 - 3.0j])
    def test_maxwellian_lower_branch_beyond_strip_raises(self, std_maxwellian, sigma):
        with pytest.raises(StripViolation):
            cauchy_transform(std_maxwellian, (0.0, 1.0), sigma, CFG)

    @pytest.mark.parametrize("sigma", [1.0 + 0.6j, -2.0 + 3.0j])
    def test_maxwellian_upper_branch_beyond_strip_returns(self, std_maxwellian, sigma):
        val = cauchy_transform(std_maxwellian, (0.0, 1.0), sigma, CFG)
        assert val == pytest.approx(maxwellian_closed_form(sigma), rel=1e-12)

    def test_sum_uses_the_narrowest_strip(self):
        profile = profiles.profile_sum(profiles.maxwellian(0.5, -2.0, 0.6),  # strip 0.3
                                       profiles.maxwellian(0.5, 2.0, 1.0))   # strip 0.5
        cauchy_transform(profile, (0.0, 1.0), 1.0 - 0.29j, CFG)
        with pytest.raises(StripViolation):
            cauchy_transform(profile, (0.0, 1.0), 1.0 - 0.31j, CFG)

    @pytest.mark.parametrize("sigma", [4.0 - 0.3j, 4.49 - 0.1j, 5.5 - 0.02j])
    def test_bump_lower_branch_raises(self, bump_profile, sigma):
        # beyond the bump strip (0.25), or in the edge margin away from the axis
        with pytest.raises(StripViolation):
            cauchy_transform(bump_profile, (0.0, 1.0), sigma, CFG)

    @pytest.mark.parametrize("sigma", [4.0 + 0.3j, 4.49 + 0.1j, 5.5 + 0.02j])
    def test_bump_upper_branch_returns(self, bump_profile, sigma):
        g = profile_integrand(bump_profile, "v_df")
        edges = sorted({-np.inf, 4.5, 5.5, sigma.real, np.inf})
        oracle = sum(dense_line_integral(g, sigma, lo, hi, epsabs=0.0, epsrel=1e-13,
                                         limit=2000)
                     for lo, hi in zip(edges[:-1], edges[1:]))
        assert cauchy_transform(bump_profile, (0.0, 1.0), sigma, CFG) == \
            pytest.approx(oracle, rel=1e-12)


class TestFaddeevaOracle:
    SIGMAS = [0.5 + 0.3j, -1.7 + 1.0j, 2.2 + 0.05j,            # upper branch
              0.2, 1.3, -0.7, 3.1,                            # real axis
              0.9 - 0.1j, -1.4 - 0.3j, 1.1 - 0.49j, -2.5 - 0.49j]  # lower branch

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_unit_maxwellian(self, std_maxwellian, sigma):
        val = cauchy_transform(std_maxwellian, (0.0, 1.0), sigma, CFG)
        expected = complex(-sigma - sigma**2 * 1j * math.sqrt(math.pi)
                           * wofz(sigma / math.sqrt(2.0)) / math.sqrt(2.0))
        assert val == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert expected == pytest.approx(maxwellian_closed_form(sigma), abs=1e-15)

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_two_maxwellian_sum(self, sigma):
        parts = [(0.4, -1.5, 1.0), (0.6, 2.0, 1.2)]
        profile = profiles.profile_sum(*(profiles.maxwellian(*p) for p in parts))
        val = cauchy_transform(profile, (0.0, 1.0), sigma, CFG)
        expected = sum(maxwellian_closed_form(sigma, *p) for p in parts)
        assert val == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestFaddeevaKernel:
    def test_against_scipy_wofz(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([
            rng.uniform(-50.0, 50.0, 2000) + 1j * rng.uniform(-4.0, 20.0, 2000),
            rng.uniform(-6.0, 6.0, 1000) + 1j * rng.uniform(-4.0, 4.0, 1000),
            rng.uniform(-50.0, 50.0, 400) + 0j,                      # real axis
            [0j, 1.0, -1.0, 1e-8, 1e-8j, -1e-8j]])
        expected = wofz(z)
        ours = np.array([faddeeva(x) for x in z])
        assert np.max(np.abs(ours - expected) / np.abs(expected)) <= 5e-14

    def test_overflow_deep_in_lower_half_plane(self):
        with pytest.raises(FaddeevaOverflow):
            faddeeva(0.5 - 30j)

    def test_coefficients_follow_weideman_recipe(self):
        # Weideman (1994): N = 36, M = 2N, L = sqrt(N / sqrt 2), a_n from the FFT
        # of exp(-t^2) (L^2 + t^2) sampled at t = L tan(k pi / 2M)
        n = 36
        m = 2 * n
        scale = math.sqrt(n / math.sqrt(2.0))
        t = scale * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
        f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
        a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
        assert _L == pytest.approx(scale, rel=1e-15)
        np.testing.assert_allclose(_coefficients(), a[n:0:-1], rtol=1e-15, atol=5e-15)


class TestBumpEdgeMargin:
    @pytest.mark.parametrize("sigma", [4.5 + 0.01j, 5.5 + 1e-4j, 5.52 + 0.01j])
    def test_upper_branch_against_split_oracle(self, bump_profile, sigma):
        # sigma inside the edge margin, where the bump refuses complex
        # evaluation and the subtraction falls back to the real-axis value
        g = profile_integrand(bump_profile, "v_df")
        edges = sorted({-np.inf, 4.5, 5.5, sigma.real, np.inf})
        oracle = sum(dense_line_integral(g, sigma, lo, hi, epsabs=0.0, epsrel=1e-13,
                                         limit=2000)
                     for lo, hi in zip(edges[:-1], edges[1:]))
        val = cauchy_transform(bump_profile, (0.0, 1.0), sigma, CFG)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)


BUMP_WEIGHTS = [(1.0,), (0.0, 1.0), (0.3, -1.0, 0.5, 0.2, -0.05)]
_TIGHT = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 2000}


def bump_oracle(profile, weight, sigma, edges=(4.5, 5.5), reach=0.1):
    """Continued int p(v) f'(v)/(v - sigma) dv by adaptive scipy quadrature,
    split at the bump support edges, with no subtraction at sigma.

    On the axis: the principal value folded about x0, int_0^r (g(x0 + t) -
    g(x0 - t))/t dt, plus plain integrals outside [x0 - r, x0 + r] and the
    residue i pi g(x0). Within 1e-6 of the axis: the real line with
    [x0 - reach, x0 + reach] replaced by a box dipping reach below sigma
    (`contour_deformed_integral`). Elsewhere: the real line split at Re sigma,
    plus 2 pi i g(sigma) below the axis.
    """
    df = profile_integrand(profile, "df")
    g = lambda v: np.polynomial.polynomial.polyval(v, weight) * df(v)
    x0 = sigma.real

    def line(cuts):
        return sum(dense_line_integral(g, sigma, lo, hi, **_TIGHT)
                   for lo, hi in zip(cuts[:-1], cuts[1:]))

    if sigma.imag == 0.0:
        r = 0.3
        cuts = sorted({-np.inf, *(e for e in edges if abs(e - x0) > r), x0 - r, np.inf})
        left = [c for c in cuts if c <= x0 - r]
        right = [x0 + r, *(c for c in cuts if c > x0 + r)]
        folded = lambda t: np.real(g(np.array([x0 + t]))[0] - g(np.array([x0 - t]))[0]) / t
        tcuts = sorted({0.0, *(abs(e - x0) for e in edges if 0.0 < abs(e - x0) < r), r})
        pv = line(left) + line(right) + sum(
            scipy_integrate.quad(folded, lo, hi, **_TIGHT)[0]
            for lo, hi in zip(tcuts[:-1], tcuts[1:]))
        return pv + 1j * math.pi * g(np.array([complex(x0)]))[0]
    if abs(sigma.imag) < 1e-6:
        lo, hi = x0 - reach, x0 + reach
        return (line([-np.inf, *(e for e in edges if e < lo), lo])
                + line([hi, *(e for e in edges if e > hi), np.inf])
                + contour_deformed_integral(g, sigma, lo, hi, reach))
    val = line(sorted({-np.inf, *edges, x0, np.inf}))
    if sigma.imag < 0.0:
        val += 2j * math.pi * g(np.array([sigma]))[0]
    return val


def bump_node(profile, weight, near):
    """The support node of the fused bump sum nearest to `near`, its weight."""
    cauchy_transform(profile, weight, near, CFG)
    vs, ws = profile.node_sets[weight, CFG.nodes][0][:2]
    j = int(np.argmin(np.abs(vs - near)))
    return float(vs[j]), float(ws[j])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestFusedBumpSum:
    """The bump term as one sum over support nodes fixed per profile; scipy's
    roundoff notes at epsrel 1e-13 are silenced, the bounds decide."""

    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    @pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-10, 1e-6, "2e-2 w", "0.3 w"])
    @pytest.mark.parametrize("im", [0.0, 1e-8, -1e-8])
    def test_near_a_node(self, bump_profile, weight, offset, im):
        # within 1e-2 w of a node the sum cancels; past it the sum must hold
        node, w = bump_node(bump_profile, weight, 5.2)
        if isinstance(offset, str):
            offset = float(offset.split()[0]) * w
        sigma = complex(node + offset, im)
        val = cauchy_transform(bump_profile, weight, sigma, CFG)
        oracle = bump_oracle(bump_profile, weight, sigma)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    @pytest.mark.parametrize("sigma", [4.5, 5.5, 4.8, 5.3 + 0.05j, 4.8 - 0.05j,
                                       5.2 - 0.1j, 4.2 - 0.05j, 6.0 + 0.01j])
    def test_against_oracle(self, bump_profile, weight, sigma):
        # support edges on the axis (g = 0 there, no log term), the lower
        # branch, and points outside the support
        sigma = complex(sigma)
        val = cauchy_transform(bump_profile, weight, sigma, CFG)
        oracle = bump_oracle(bump_profile, weight, sigma)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    def test_grid_parity_with_pinned_panels(self, bump_profile, weight, monkeypatch):
        # the same g through `singular_integral`, whose panels are pinned at
        # Re sigma, by refusing the scalar g(sigma); the edge margin takes
        # that path on both sides
        sigmas = [complex(re, im) for re in (*np.linspace(4.0, 6.0, 41), 4.5, 5.5)
                  for im in (0.2, 0.05, 1e-3, 1e-6, 0.0, -1e-6, -1e-3, -0.05, -0.2)]
        fused = []
        for sigma in sigmas:
            try:
                fused.append(cauchy_transform(bump_profile, weight, sigma, CFG))
            except StripViolation:
                fused.append(None)

        def refuse(profile, s):
            raise StripViolation("pinned panels requested")

        monkeypatch.setattr(profiles, "_bump_df_at", refuse)
        for sigma, val in zip(sigmas, fused):
            if val is None:
                with pytest.raises(StripViolation):
                    cauchy_transform(bump_profile, weight, sigma, CFG)
                continue
            pinned = cauchy_transform(bump_profile, weight, sigma, CFG)
            assert abs(val - pinned) <= 1e-13 * max(1.0, abs(pinned))

    def test_ordinary_points_skip_singular_integral(self, bump_profile, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("singular_integral called")

        monkeypatch.setattr(quadrature, "singular_integral", refuse)
        for sigma in (4.8 + 0.05j, 4.8, 4.8 - 0.05j, 5.2 + 1e-9j, 3.0, 7.0 - 0.1j):
            cauchy_transform(bump_profile, (0.0, 1.0), sigma, CFG)
        with pytest.raises(AssertionError):
            cauchy_transform(bump_profile, (0.0, 1.0), 4.51 + 0.01j, CFG)


class TestTailCheck:
    def test_exact_zero_by_symmetry_is_not_divergence(self):
        # v f'(v)/(v - 0) = f'(v) is odd for a symmetric profile, so the
        # principal value at 0 cancels to rounding level while g(0) = 0; that
        # zero must come back as a value, not as an error
        profile = profiles.profile_sum(profiles.maxwellian(0.4, -1.5, 1.0),
                                       profiles.maxwellian(0.4, 1.5, 1.0))
        assert abs(cauchy_transform(profile, (0.0, 1.0), 0.0, CFG)) <= 1e-15
        coupling = ScalarCoupling(lambda0=1.0, kappa=1e-3, profile=profile)
        assert scalar_dispersion(coupling, 0.0) == pytest.approx(-1.0, abs=1e-15)


class TestNodeCache:
    def test_values_independent_of_evaluation_order(self, std_maxwellian):
        # two bumps that differ only in eps share every breakpoint, bound and
        # panel; alternating them and the weights must not leak values
        def bump(eps):
            return profiles.make_bump_on_tail(std_maxwellian, eps=eps, eta=0.5,
                                              c_star=5.0)

        sigmas = (4.8 + 0.1j, 5.3, 4.2 - 0.05j, 5.6 + 0.02j)
        combos = [(eps, weight) for eps in (0.05, 0.2) for weight in ((1.0,), (0.0, 1.0))]
        alone = {}
        for eps, weight in combos:
            _gauss._cached_panels.cache_clear()
            profile = bump(eps)
            alone[eps, weight] = [cauchy_transform(profile, weight, s, CFG)
                                  for s in sigmas]
        shared = {eps: bump(eps) for eps in (0.05, 0.2)}
        for _ in range(2):
            for i, sigma in enumerate(sigmas):
                for eps, weight in combos:
                    val = cauchy_transform(shared[eps], weight, sigma, CFG)
                    assert val == alone[eps, weight][i]

    def test_cached_nodes_are_read_only(self):
        nodes, weights = _gauss.panel_nodes(-1.0, 2.0, 4, 12)
        assert nodes is _gauss.panel_nodes(-1.0, 2.0, 4, 12)[0]
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestResonanceIntegral:
    def test_large_sigma_matches_moment_expansion(self, std_maxwellian):
        # F(10) against the dense oracle; the moment expansion misses by the
        # next term 5*m4/sigma^6 = 1.5e-5 (m4 = 3 for the unit Gaussian)
        val = resonance_integral(std_maxwellian, 10.0, CFG)
        g = profile_integrand(std_maxwellian, "v_df")
        pv_oracle = dense_line_integral(g, 10.0 + 1e-9j).real
        assert val.real == pytest.approx(pv_oracle / 10.0, abs=1e-7)
        asym = resonance_asymptotic(std_maxwellian, 10.0, 4)
        assert asym.real == pytest.approx(0.0103, abs=1e-12)
        assert abs(val - asym) == pytest.approx(5 * 3 / 10.0**6, rel=0.15)

    def test_mirror_conjugate_symmetry(self, std_maxwellian):
        # even profile: value at the mirrored upper-branch point -conj(sigma)
        # is the conjugate of the value at sigma
        for sigma in (0.9 + 0.15j, 1.7 + 0.05j, 0.3 + 0.2j):
            upper = resonance_integral(std_maxwellian, sigma, CFG)
            mirrored = resonance_integral(std_maxwellian, -np.conj(sigma), CFG)
            assert mirrored == pytest.approx(np.conj(upper), abs=1e-12)

    def test_purely_imaginary_sigma_gives_real_value(self, std_maxwellian):
        val = resonance_integral(std_maxwellian, 10.0j, CFG)
        g = profile_integrand(std_maxwellian, "v_df")
        oracle = dense_line_integral(g, 10.0j) / 10.0j
        assert abs(val.imag) < 1e-12
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_zero_sigma_rejected(self, std_maxwellian):
        with pytest.raises(ZeroSigma):
            resonance_integral(std_maxwellian, 0.0, CFG)

    def test_remainder_order_four(self, std_maxwellian):
        r10 = abs(resonance_integral(std_maxwellian, 10.0, CFG)
                  - resonance_asymptotic(std_maxwellian, 10.0, 4))
        r20 = abs(resonance_integral(std_maxwellian, 20.0, CFG)
                  - resonance_asymptotic(std_maxwellian, 20.0, 4))
        assert 50.0 <= r10 / r20 <= 80.0

    def test_remainder_order_two(self, std_maxwellian):
        r10 = abs(resonance_integral(std_maxwellian, 10.0, CFG)
                  - resonance_asymptotic(std_maxwellian, 10.0, 2))
        r20 = abs(resonance_integral(std_maxwellian, 20.0, CFG)
                  - resonance_asymptotic(std_maxwellian, 20.0, 2))
        assert 12.0 <= r10 / r20 <= 20.0

    def test_asymptotic_order_validation(self, std_maxwellian):
        with pytest.raises(ValueError):
            resonance_asymptotic(std_maxwellian, 10.0, 3)
