import dataclasses
import math

import numpy as np
import pytest

from conftest import (bump_oracle, contour_deformed_integral, dawson_series,
                      dense_line_integral, mp_transform, mp_transform_derivative,
                      profile_integrand)
from scipy import integrate as scipy_integrate
from scipy.special import wofz

import spraywaves
from spraywaves import _gauss, profiles, quadrature
from spraywaves._faddeeva import _L, _coefficients, faddeeva
from spraywaves.dispersion import dispersion_value
from spraywaves.errors import FaddeevaOverflow, StripViolation, ZeroSigma
from spraywaves.hyperbolic import SystemCoupling, pole_free_secular, scalar_law
from spraywaves.quadrature import Branch, cauchy_transform, classify_branch

# Dawson values frozen from the series oracle (cross-checked against mpmath)
DAWSON = {0.5: 0.42443638350202244, 1.0: 0.5380795069127684, 2.0: 0.30134038892379196}


def unit_gaussian(v):
    return np.exp(-np.asarray(v, dtype=complex) ** 2) / math.sqrt(math.pi)


def g_at(g, sigma):
    return complex(g(np.array([complex(sigma)]))[0])


def pinned(g, sigma, nodes=quadrature.NODES, scale=1.0, bounds=None, c=None):
    """Continued int g(v)/(v - sigma) dv over ``bounds`` (default +-(12 + |x0|))
    by the pinned-panel subtraction of c (default g(sigma))."""
    sigma = complex(sigma)
    span = 12.0 + abs(sigma.real)
    return quadrature._pinned_part(
        g, g_at(g, sigma) if c is None else c, sigma,
        (-span, span) if bounds is None else bounds, (), scale, nodes)


def pv(g, x0, **kwargs):
    """Principal value of int g(v)/(v - x0) dv: the axis value less i pi g(x0)."""
    return pinned(g, x0, **kwargs) - 1j * math.pi * g_at(g, x0)


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


def test_public_names_resolve():
    for name in spraywaves.__all__:
        assert getattr(spraywaves, name) is not None, name


class TestClassifyBranch:
    @pytest.mark.parametrize("sigma,expected", [
        (1.0 + 0.1j, Branch.UPPER),
        (1.0 + 0.0j, Branch.REAL_AXIS),
        (1.0 - 1e-3j, Branch.LOWER),
        (1.0 + 5e-13j, Branch.REAL_AXIS),
    ])
    def test_examples(self, sigma, expected):
        assert classify_branch(sigma) is expected


class TestDawsonOracle:
    def test_series_matches_frozen_values(self):
        for x, expected in DAWSON.items():
            assert dawson_series(x) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
    def test_pv_of_unit_gaussian(self, x0):
        # P.V. int (e^{-v^2}/sqrt(pi)) / (v - x0) dv = -2 * Dawson(x0)
        val = pv(unit_gaussian, x0, scale=0.7)
        assert val.real == pytest.approx(-2.0 * dawson_series(x0), rel=1e-8)
        assert abs(val.imag) < 1e-12


class TestPvIntegral:
    """The axis value of the pinned-panel subtraction less its i pi g(x0)."""

    @pytest.mark.parametrize("even_g", [
        lambda v: np.exp(-np.asarray(v, dtype=complex) ** 2),
        lambda v: np.asarray(v) ** 2 * np.exp(-0.5 * np.asarray(v, dtype=complex) ** 2),
        lambda v: np.cos(np.asarray(v, dtype=complex)) * np.exp(
            -np.asarray(v, dtype=complex) ** 2),
    ])
    def test_even_g_makes_odd_integrand(self, even_g):
        # even g about x0 = 0 gives an odd g(v)/v: principal value vanishes
        val = pv(even_g, 0.0, scale=0.7)
        assert abs(val) < 1e-10

    def test_constant_on_symmetric_truncation(self):
        g = lambda v: np.ones_like(np.asarray(v, dtype=complex))
        val = pv(g, 0.0, bounds=(-12.0, 12.0))
        assert abs(val) < 1e-12

    def test_x0_outside_interval(self):
        # outside [a, b] with c = 0 nothing is subtracted: the plain integral
        val = pinned(unit_gaussian, 20.0, bounds=(-5.0, 5.0), c=0.0)
        oracle = dense_line_integral(unit_gaussian, 20.0, -5.0, 5.0)
        assert val == pytest.approx(oracle, abs=1e-15, rel=1e-12)


class TestSingularIntegral:
    """The pinned-panel subtraction on a raw callable, on all three branches."""

    def test_upper_branch_against_dense_oracle(self, std_maxwellian):
        g = profile_integrand(std_maxwellian, "f")
        val = pinned(g, 1j)
        oracle = dense_line_integral(g, 1j)
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_real_axis_even_integrand(self, std_maxwellian):
        # odd P.V. part vanishes; only the residue i pi f(0) survives
        g = profile_integrand(std_maxwellian, "f")
        val = pinned(g, 0.0)
        assert abs(val.real) < 1e-12
        assert val.imag == pytest.approx(math.pi / math.sqrt(2 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_plemelj_continuity_from_above(self, std_maxwellian, eps):
        g = profile_integrand(std_maxwellian, "v_df")
        up = pinned(g, 1.0 + 1j * eps)
        ax = pinned(g, 1.0)
        assert abs(up - ax) <= 10.0 * eps

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_plemelj_continuity_from_below(self, std_maxwellian, eps):
        g = profile_integrand(std_maxwellian, "v_df")
        lo = pinned(g, 1.0 - 1j * eps)
        ax = pinned(g, 1.0)
        assert abs(lo - ax) <= 10.0 * eps

    def test_plemelj_linear_rate(self, std_maxwellian):
        rng = np.random.default_rng(3)
        g = profile_integrand(std_maxwellian, "v_df")
        for x0 in rng.uniform(-2.0, 2.0, 10):
            ax = pinned(g, x0)
            diffs = [abs(pinned(g, complex(x0, eps)) - ax) for eps in (1e-2, 1e-3, 1e-4)]
            slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(diffs), 1)[0]
            assert slope >= 0.9

    def test_lower_branch_against_contour_oracle(self, std_maxwellian):
        g = profile_integrand(std_maxwellian, "v_df")
        sigma = 0.8 - 0.1j
        val = pinned(g, sigma)
        # the residue form must equal the contour dipping below sigma
        oracle = contour_deformed_integral(g, sigma, -12.0, 12.0, dip=0.1)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_node_doubling_convergence(self, std_maxwellian):
        g = profile_integrand(std_maxwellian, "v_df")
        v1 = pinned(g, 0.7 + 0.2j)
        v2 = pinned(g, 0.7 + 0.2j, nodes=512)
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
        val = cauchy_transform(profile, weight, sigma)
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
        val = cauchy_transform(profile, weight, sigma)
        assert val == pytest.approx(oracle, rel=1e-12)


class TestStripContract:
    """A bump term refuses only at its support edges below the axis
    (StripViolation), and above the axis has a value at any height. A Gaussian
    part is entire: its closed form holds on the whole lower branch, up to
    FaddeevaOverflow."""

    @pytest.mark.parametrize("sigma", [0.5 - 0.6j, 1.0 - 1.2j, 2.0 - 2.0j, -1.5 - 2.5j,
                                       0.3 - 2.9j, 3.0 - 0.4j, 8.0 - 2.0j])
    def test_maxwellian_lower_branch_has_no_strip(self, std_maxwellian, sigma):
        # -sigma (1 + zeta Z(zeta)), zeta = sigma / sqrt 2, Z = i sqrt(pi) w from
        # scipy; the last two lose up to 2e-14 to the far-field cancellation
        zeta = sigma / math.sqrt(2.0)
        want = -sigma * (1.0 + zeta * 1j * math.sqrt(math.pi) * wofz(zeta))
        val = cauchy_transform(std_maxwellian, (0.0, 1.0), sigma)
        assert abs(val - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("sigma", [1.0 + 0.6j, -2.0 + 3.0j])
    def test_maxwellian_upper_branch_returns(self, std_maxwellian, sigma):
        val = cauchy_transform(std_maxwellian, (0.0, 1.0), sigma)
        assert val == pytest.approx(maxwellian_closed_form(sigma), rel=1e-12)

    def test_maxwellian_sum_has_no_strip(self):
        parts = [(0.5, -2.0, 0.6), (0.5, 2.0, 1.0)]
        profile = profiles.profile_sum(*(profiles.maxwellian(*p) for p in parts))
        for sigma in (1.0 - 0.31j, 1.0 - 3.0j):
            want = sum(maxwellian_closed_form(sigma, *p) for p in parts)
            val = cauchy_transform(profile, (0.0, 1.0), sigma)
            assert abs(val - want) <= 1e-12 * max(1.0, abs(want))
        with pytest.raises(FaddeevaOverflow):
            cauchy_transform(profile, (0.0, 1.0), 1.0 - 40.0j)

    def test_bump_term_is_cut_at_its_own_edges_only(self, bump_profile):
        # a term's integrand is smooth at another term's edges
        on_a_bump = profiles.make_bump_on_tail(bump_profile, 0.1, 0.3, 3.0)
        for bump in on_a_bump.bumps:
            lo, hi = bump.support
            assert bump.breakpoints[0] == lo and bump.breakpoints[-1] == hi
            assert len(bump.breakpoints) == 18
        assert {f.name for f in dataclasses.fields(profiles.Bump)} == {
            "mass", "eta", "c_star"}

    @pytest.mark.parametrize("sigma", [4.52 - 3.0j, 4.49 - 0.1j, 5.5 - 0.02j])
    def test_bump_lower_branch_raises(self, bump_profile, sigma):
        # in the edge margin below the axis, at any depth
        with pytest.raises(StripViolation):
            cauchy_transform(bump_profile, (0.0, 1.0), sigma)

    @pytest.mark.parametrize("sigma", [4.0 + 0.3j, 4.49 + 0.1j, 5.5 + 0.02j])
    def test_bump_upper_branch_returns(self, bump_profile, sigma):
        g = profile_integrand(bump_profile, "v_df")
        edges = sorted({-np.inf, 4.5, 5.5, sigma.real, np.inf})
        oracle = sum(dense_line_integral(g, sigma, lo, hi, epsabs=0.0, epsrel=1e-13,
                                         limit=2000)
                     for lo, hi in zip(edges[:-1], edges[1:]))
        assert cauchy_transform(bump_profile, (0.0, 1.0), sigma) == \
            pytest.approx(oracle, rel=1e-12)


class TestBumpLowerBranchOracle:
    """A bump term's continuation below the axis is the plain integral plus
    2 i pi g(sigma) inside its support column, however deep, and the plain
    integral off it: against 30-digit mpmath, at a point and as an array."""

    # the bump term of the bump_profile fixture (eta = 0.5, column 4.5 < Re < 5.5):
    # in the column down to 2 eta and below, off the support, and above eta / 2
    SIGMAS = [5.0 - 0.4j, 4.8 - 0.7j, 5.3 - 0.9j, 5.0 - 1.0j, 4.6 - 1.0j, 5.0 - 10.0j,
              3.0 - 0.8j, 7.0 - 1.5j, 4.4 - 0.3j, 5.6 - 2.0j, 5.0 + 0.3j, 4.7 + 0.6j]

    @pytest.mark.parametrize("weight", [(0.0, 1.0), (1.0,)])
    def test_against_mpmath(self, bump_profile, weight):
        term = profiles.VelocityProfile((), bump_profile.bumps)
        want = np.array([mp_transform(term, weight, s) for s in self.SIGMAS])
        points = np.array([cauchy_transform(term, weight, s) for s in self.SIGMAS])
        array = cauchy_transform(term, weight, np.array(self.SIGMAS))
        for got in (points, array):
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


class TestFaddeevaOracle:
    SIGMAS = [0.5 + 0.3j, -1.7 + 1.0j, 2.2 + 0.05j,            # upper branch
              0.2, 1.3, -0.7, 3.1,                            # real axis
              0.9 - 0.1j, -1.4 - 0.3j, 1.1 - 0.49j, -2.5 - 0.49j]  # lower branch

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_unit_maxwellian(self, std_maxwellian, sigma):
        val = cauchy_transform(std_maxwellian, (0.0, 1.0), sigma)
        expected = complex(-sigma - sigma**2 * 1j * math.sqrt(math.pi)
                           * wofz(sigma / math.sqrt(2.0)) / math.sqrt(2.0))
        assert val == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert expected == pytest.approx(maxwellian_closed_form(sigma), abs=1e-15)

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_two_maxwellian_sum(self, sigma):
        parts = [(0.4, -1.5, 1.0), (0.6, 2.0, 1.2)]
        profile = profiles.profile_sum(*(profiles.maxwellian(*p) for p in parts))
        val = cauchy_transform(profile, (0.0, 1.0), sigma)
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
        val = cauchy_transform(bump_profile, (0.0, 1.0), sigma)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("eta,sigma", [
        (0.5, 4.515 + 0.2j), (0.5, 5.495 + 0.1j), (0.5, 5.0 + 0.26j), (0.5, 5.0 + 0.6j),
        (0.5, 5.1 + 1.0j), (5.0, 9.8 + 0.013j), (5.0, 9.95 + 0.1j)])
    def test_refused_upper_points_against_split_oracle(self, bump_profile, eta, sigma):
        # g(sigma) refused (edge margin, beyond the strip) above the axis:
        # g(Re sigma) is subtracted, which is exact there
        profile = bump_profile if eta == 0.5 else profiles.make_bump_on_tail(
            profiles.maxwellian(), eps=0.05, eta=eta, c_star=5.0)
        val = cauchy_transform(profile, (0.0, 1.0), sigma)
        oracle = bump_oracle(profile, (0.0, 1.0), sigma)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("sigma", [9.8 + 0.013j, 9.95 + 0.1j])
    def test_bump_term_on_a_narrow_base(self, sigma):
        # the bump term alone: on a base of width 0.2 the Maxwellian closed
        # form loses about 4e-12 to the cancellation in 1 + zeta Z(zeta) at
        # |zeta| ~ 35, which the bump quadrature must not be blamed for
        profile = profiles.make_bump_on_tail(profiles.maxwellian(width=0.2), eps=0.05,
                                             eta=5.0, c_star=5.0)
        base = profiles.maxwellian(mass=1.0 - 0.05, width=0.2)
        weight = (0.0, 1.0)
        val = (cauchy_transform(profile, weight, sigma)
               - cauchy_transform(base, weight, sigma))
        oracle = bump_oracle(profile, weight, sigma,
                             df=lambda v: profiles._bump_df(profile.bumps[0], v))
        assert abs(val - oracle) <= 1e-12 * abs(oracle)


BUMP_WEIGHTS = [(1.0,), (0.0, 1.0), (0.3, -1.0, 0.5, 0.2, -0.05)]
def bump_node(profile, weight, near):
    """The support node of the fused bump sum nearest to `near`, its weight."""
    cauchy_transform(profile, weight, near)
    vs, ws = profile.node_sets[weight][0][:2]
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
        val = cauchy_transform(bump_profile, weight, sigma)
        oracle = bump_oracle(bump_profile, weight, sigma)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    @pytest.mark.parametrize("sigma", [4.5, 5.5, 4.8, 5.3 + 0.05j, 4.8 - 0.05j,
                                       5.2 - 0.1j, 4.2 - 0.05j, 6.0 + 0.01j])
    def test_against_oracle(self, bump_profile, weight, sigma):
        # support edges on the axis (g = 0 there, no log term), the lower
        # branch, and points outside the support
        sigma = complex(sigma)
        val = cauchy_transform(bump_profile, weight, sigma)
        oracle = bump_oracle(bump_profile, weight, sigma)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    def test_grid_parity_with_pinned_panels(self, bump_profile, weight, monkeypatch):
        # the same g through `_pinned_part`, whose panels are pinned at Re
        # sigma, by taking every point for a near-node one; the edge margin
        # takes that path on both sides
        sigmas = [complex(re, im) for re in (*np.linspace(4.0, 6.0, 41), 4.5, 5.5)
                  for im in (0.2, 0.05, 1e-3, 1e-6, 0.0, -1e-6, -1e-3, -0.05, -0.2)]
        fused = []
        for sigma in sigmas:
            try:
                fused.append(cauchy_transform(bump_profile, weight, sigma))
            except StripViolation:
                fused.append(None)

        monkeypatch.setattr(quadrature, "_near_node", lambda *args: True)
        for sigma, val in zip(sigmas, fused):
            if val is None:
                with pytest.raises(StripViolation):
                    cauchy_transform(bump_profile, weight, sigma)
                continue
            pinned = cauchy_transform(bump_profile, weight, sigma)
            assert abs(val - pinned) <= 1e-13 * max(1.0, abs(pinned))

    def test_ordinary_points_skip_singular_integral(self, bump_profile, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_pinned_part called")

        monkeypatch.setattr(quadrature, "_pinned_part", refuse)
        for sigma in (4.8 + 0.05j, 4.8, 4.8 - 0.05j, 5.2 + 1e-9j, 3.0, 7.0 - 0.1j):
            cauchy_transform(bump_profile, (0.0, 1.0), sigma)
        with pytest.raises(AssertionError):
            cauchy_transform(bump_profile, (0.0, 1.0), 4.51 + 0.01j)


@pytest.fixture
def pinned_calls(monkeypatch):
    """The sigma of every `quadrature._pinned_part` call, in order."""
    calls = []
    pinned_part = quadrature._pinned_part

    def counted(*args):
        calls.append(args[2])
        return pinned_part(*args)

    monkeypatch.setattr(quadrature, "_pinned_part", counted)
    return calls


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestPlainSumAboveStrip:
    """Refused g(sigma) at least 10 node gaps above the axis: nothing is
    subtracted, the cached nodes sum g(v)/(v - sigma) as it stands."""

    @staticmethod
    def gate(profile, weight):
        cauchy_transform(profile, weight, 5.0 + 0.1j)
        return profile.node_sets[weight][0][-1]

    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    @pytest.mark.parametrize("sigma", [5.0 + 0.26j, 5.0 + 0.6j, 5.1 + 1.0j, 4.515 + 0.2j,
                                       "edge margin at the gate"])
    def test_against_split_oracle_without_pinned_panels(self, bump_profile, weight, sigma,
                                                        monkeypatch):
        if isinstance(sigma, str):
            sigma = complex(4.5075, self.gate(bump_profile, weight))
        oracle = bump_oracle(bump_profile, weight, sigma)

        def refuse(*args):
            raise AssertionError("_pinned_part called")

        monkeypatch.setattr(quadrature, "_pinned_part", refuse)
        val = cauchy_transform(bump_profile, weight, sigma)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)
        arr = cauchy_transform(bump_profile, weight, np.array([4.8 + 0.05j, sigma]))
        assert abs(arr[1] - val) <= 5e-14 * max(1.0, abs(val))

    def test_just_under_the_gate_takes_pinned_panels(self, bump_profile, pinned_calls):
        weight = (0.0, 1.0)
        sigma = complex(4.5075, 0.99 * self.gate(bump_profile, weight))
        val = cauchy_transform(bump_profile, weight, sigma)
        arr = cauchy_transform(bump_profile, weight, np.array([4.8 + 0.05j, sigma]))
        assert pinned_calls == [sigma, sigma]
        assert abs(arr[1] - val) <= 5e-14 * max(1.0, abs(val))
        oracle = bump_oracle(bump_profile, weight, sigma)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)


def far_points(r):
    """Points r from the bump's centre 5 on all three branches (the support has
    half-width 0.5): above the axis, on it, and 0.1 below it outside the
    support."""
    x = math.sqrt(r * r - 0.01)
    upper = [5.0 + r * complex(math.cos(a), math.sin(a)) for a in (0.4, math.pi / 2, 2.5)]
    return upper + [complex(5.0 - r), complex(5.0 + r), complex(5.0 - x, -0.1),
                    complex(5.0 + x, -0.1)]


class TestFarField:
    """At least rho = 3 half-widths from the bump's centre, where the continued
    value is the plain node sum, the moments give it (`_far_sum`)."""
    RHO_H = quadrature._FAR_RHO * 0.5

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    def test_route_against_subtracted_sum_and_oracle(self, bump_profile, weight,
                                                     monkeypatch):
        far, near = far_points(1.01 * self.RHO_H), far_points(0.99 * self.RHO_H)
        routed = [cauchy_transform(bump_profile, weight, z) for z in far]
        arr = cauchy_transform(bump_profile, weight, np.array(far + near))
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_far",
                      lambda sigma, *args: np.zeros(np.shape(sigma), dtype=bool))
            summed = [cauchy_transform(bump_profile, weight, z) for z in far + near]
        for z, val, ref in zip(far, routed, summed):
            assert abs(val - ref) <= 1e-14 * max(1.0, abs(ref))
            assert abs(val - bump_oracle(bump_profile, weight, z)) <= 1e-12 * abs(val)
        assert np.all(np.abs(arr - summed) <= 5e-14 * np.maximum(1.0, np.abs(summed)))

        def refuse(*args):
            raise AssertionError("summed over the nodes")

        monkeypatch.setattr(quadrature, "_subtracted_sums", refuse)
        assert [cauchy_transform(bump_profile, weight, z) for z in far] == routed
        cauchy_transform(bump_profile, weight, np.array(far))
        for z in near:
            with pytest.raises(AssertionError):
                cauchy_transform(bump_profile, weight, z)

    def test_lower_points_over_the_support_are_not_far(self):
        # there the continued value adds 2 i pi g(sigma) to the plain sum
        field = (5.0, 0.5, ())
        assert quadrature._far(5.2 + 2.0j, field)
        assert not quadrature._far(5.2 - 2.0j, field)
        assert quadrature._far(5.6 - 2.0j, field)
        assert not quadrature._far(5.0 + 1.49j, field)

    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    def test_tail_bound(self, bump_profile, weight):
        # moments taken to 2K: the terms from K on stay under the bound the
        # number of terms K was derived from
        cauchy_transform(bump_profile, weight, 5.0 + 0.1j)
        vs, ws, _, gvs, (centre, half, moments) = bump_profile.node_sets[weight][0][:5]
        rho, k = quadrature._FAR_RHO, quadrature._FAR_TERMS
        mu = (gvs * ws) @ np.vander((vs - centre) / half, 2 * k, increasing=True)
        np.testing.assert_allclose(mu[:k], moments[::-1], rtol=0.0,
                                   atol=1e-15 * np.abs(mu[0]).max(initial=1.0))
        factor = rho**-k / (1.0 - 1.0 / rho)
        assert factor < 2.0**-53 <= rho**(1 - k) / (1.0 - 1.0 / rho)
        scale = np.sum(np.abs(gvs * ws))
        for t in np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 13)) / rho:
            remainder = abs(t / half * t**k * np.polyval(mu[k:][::-1], t))
            assert remainder <= scale * abs(t) / half * factor


class TestTailCheck:
    def test_exact_zero_by_symmetry_is_not_divergence(self):
        # v f'(v)/(v - 0) = f'(v) is odd for a symmetric profile, so the
        # principal value at 0 cancels to rounding level while g(0) = 0; that
        # zero must come back as a value, not as an error
        profile = profiles.profile_sum(profiles.maxwellian(0.4, -1.5, 1.0),
                                       profiles.maxwellian(0.4, 1.5, 1.0))
        assert abs(cauchy_transform(profile, (0.0, 1.0), 0.0)) <= 1e-15
        # P_0 of the scalar law is -G(0) = lambda0 - kappa C[v f'](0)
        value = pole_free_secular(scalar_law(1.0, 1e-3, profile), 0, 1e-3, 0.0)
        assert value == pytest.approx(1.0, abs=1e-15)


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
            alone[eps, weight] = [cauchy_transform(profile, weight, s)
                                  for s in sigmas]
        shared = {eps: bump(eps) for eps in (0.05, 0.2)}
        for _ in range(2):
            for i, sigma in enumerate(sigmas):
                for eps, weight in combos:
                    val = cauchy_transform(shared[eps], weight, sigma)
                    assert val == alone[eps, weight][i]

    def test_cached_nodes_are_read_only(self):
        nodes, weights = _gauss.panel_nodes(-1.0, 2.0, 4, 12)
        assert nodes is _gauss.panel_nodes(-1.0, 2.0, 4, 12)[0]
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def resonance_integral(profile, sigma):
    """(1/sigma) C[v f'](sigma), the velocity-resonance term of the dispersion
    function; for large |sigma| it behaves like m0/sigma^2 + 2 m1/sigma^3 +
    3 m2/sigma^4, with m_n the velocity moments of f."""
    return cauchy_transform(profile, (0.0, 1.0), sigma) / sigma


def centred_expansion(profile, sigma, order):
    """Large-|sigma| expansion of `resonance_integral` for a centred profile
    (first moment 0): m0/sigma^2, plus 3 m2/sigma^4 at order 4."""
    out = profiles.moment(profile, 0) / sigma**2
    if order == 4:
        out += 3.0 * profiles.moment(profile, 2) / sigma**4
    return out


class TestVdfNorm:
    @pytest.mark.parametrize("profile", [
        profiles.maxwellian(), profiles.maxwellian(2.0, -0.7, 0.4),
        profiles.make_bump_on_tail(profiles.maxwellian(), 0.3, 0.5, 5.0),
        profiles.profile_sum(profiles.maxwellian(0.5, -2.0, 0.6),
                             profiles.make_bump_on_tail(profiles.maxwellian(0.5, 2.0, 0.6),
                                                        0.1, 0.3, 3.5))])
    def test_bounds_the_norm(self, profile):
        # int |v f'| dv by a fine trapezoid rule: the bound holds, and is
        # within a factor 2 of it (a Gaussian part gives m (1 + |d| sqrt(2/pi)/w))
        v = np.linspace(-20.0, 20.0, 400001)
        norm = np.trapezoid(np.abs(v * np.real(profiles.eval_df(profile, v))), v)
        assert norm * (1.0 - 1e-9) <= quadrature.vdf_norm(profile) <= 2.0 * norm

    def test_maxwellian_exact_when_centred(self):
        assert quadrature.vdf_norm(profiles.maxwellian(3.0, 0.0, 0.2)) == 3.0


class TestResonanceIntegral:
    def test_large_sigma_matches_moment_expansion(self, std_maxwellian):
        # F(10) against the dense oracle; the moment expansion misses by the
        # next term 5*m4/sigma^6 = 1.5e-5 (m4 = 3 for the unit Gaussian)
        val = resonance_integral(std_maxwellian, 10.0)
        g = profile_integrand(std_maxwellian, "v_df")
        pv_oracle = dense_line_integral(g, 10.0 + 1e-9j).real
        assert val.real == pytest.approx(pv_oracle / 10.0, abs=1e-7)
        asym = centred_expansion(std_maxwellian, 10.0, 4)
        assert asym.real == pytest.approx(0.0103, abs=1e-12)
        assert abs(val - asym) == pytest.approx(5 * 3 / 10.0**6, rel=0.15)

    def test_mirror_conjugate_symmetry(self, std_maxwellian):
        # even profile: value at the mirrored upper-branch point -conj(sigma)
        # is the conjugate of the value at sigma
        for sigma in (0.9 + 0.15j, 1.7 + 0.05j, 0.3 + 0.2j):
            upper = resonance_integral(std_maxwellian, sigma)
            mirrored = resonance_integral(std_maxwellian, -np.conj(sigma))
            assert mirrored == pytest.approx(np.conj(upper), abs=1e-12)

    def test_purely_imaginary_sigma_gives_real_value(self, std_maxwellian):
        val = resonance_integral(std_maxwellian, 10.0j)
        g = profile_integrand(std_maxwellian, "v_df")
        oracle = dense_line_integral(g, 10.0j) / 10.0j
        assert abs(val.imag) < 1e-12
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_zero_sigma_rejected(self, maxwellian_params, std_maxwellian):
        with pytest.raises(ZeroSigma):
            dispersion_value(maxwellian_params, std_maxwellian, 0.0)

    def test_remainder_order_four(self, std_maxwellian):
        r10 = abs(resonance_integral(std_maxwellian, 10.0)
                  - centred_expansion(std_maxwellian, 10.0, 4))
        r20 = abs(resonance_integral(std_maxwellian, 20.0)
                  - centred_expansion(std_maxwellian, 20.0, 4))
        assert 50.0 <= r10 / r20 <= 80.0

    def test_remainder_order_two(self, std_maxwellian):
        r10 = abs(resonance_integral(std_maxwellian, 10.0)
                  - centred_expansion(std_maxwellian, 10.0, 2))
        r20 = abs(resonance_integral(std_maxwellian, 20.0)
                  - centred_expansion(std_maxwellian, 20.0, 2))
        assert 12.0 <= r10 / r20 <= 20.0


TWO_STREAM = profiles.profile_sum(profiles.maxwellian(0.5, -2.0, 0.6),
                                  profiles.maxwellian(0.5, 2.0, 0.6))
ARRAY_WEIGHTS = [(1.0,), (0.0, 1.0), (1.0, 0.0, 1.0)]


def branch_points(profile, weight):
    """Points on all three branches: a grid over Re sigma in [-8, 8] at nine
    heights within h (the axis and 1e-13 off it among them), h half the
    narrowest width or eta, the bump edge margin above the axis, and points
    near a node of the fused bump sum."""
    strip = 0.5 * profiles.narrowest_width(profile)
    heights = [0.99 * strip, 0.3 * strip, 1e-3, 1e-13, 0.0, -1e-13, -1e-3,
               -0.3 * strip, -0.99 * strip]
    pts = [complex(re, im) for im in heights for re in np.linspace(-8.0, 8.0, 97)]
    if profile.bumps:
        node, w = bump_node(profile, weight, 5.2)
        pts += [4.5 + 0.01j, 5.5 + 1e-4j, 5.52 + 0.01j, 4.48 + 0.2j]
        pts += [complex(node + off, im) for off in (0.0, 1e-14, 1e-10, 0.02 * w, 0.3 * w)
                for im in (0.0, 1e-8, -1e-8)]
    return pts


def scalar_values(func, pts):
    """func at each point on its own, None where it raises StripViolation."""
    out = []
    for z in pts:
        try:
            out.append(func(z))
        except StripViolation:
            out.append(None)
    return out


class TestArrayPath:
    """An ndarray sigma gives the scalar values elementwise. Values are
    compared relative to max(1, |value|): below 1 the Maxwellian closed form
    cancels in 1 + zeta Z(zeta) at large |zeta|, so a one-ulp difference of w
    between the array and the scalar arithmetic shows in the terms, not the sum.
    A point's bump terms go through the same array sums, as a one-element
    array, so the bump comparisons check the Gaussian point arithmetic and the
    block boundaries of those sums."""

    @pytest.mark.parametrize("weight", ARRAY_WEIGHTS)
    @pytest.mark.parametrize("name", ["std_maxwellian", "two_stream", "bump_profile"])
    def test_cauchy_transform_matches_scalar(self, request, name, weight):
        profile = TWO_STREAM if name == "two_stream" else request.getfixturevalue(name)
        pts = branch_points(profile, weight)
        scalar = scalar_values(lambda z: cauchy_transform(profile, weight, z), pts)
        kept = [(z, s) for z, s in zip(pts, scalar) if s is not None]
        assert len(kept) >= 0.9 * len(pts)
        sigma = np.array([z for z, _ in kept]).reshape(-1, 1)
        want = np.array([s for _, s in kept]).reshape(-1, 1)
        got = cauchy_transform(profile, weight, sigma)
        assert got.shape == sigma.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("weight", ARRAY_WEIGHTS)
    def test_deep_lower_branch_matches_scalar(self, std_maxwellian, weight):
        # Gaussian parts have no strip: deep lower points as an array give the
        # scalar values, and one point where exp(-zeta^2) overflows refuses the
        # whole array, as it refuses alone
        for profile in (std_maxwellian, TWO_STREAM):
            deep = [0.5 - 0.6j, 1.0 - 0.26j, 0.3 - 2.9j, -1.5 - 2.5j, 0.7]
            want = np.array([cauchy_transform(profile, weight, z) for z in deep])
            got = cauchy_transform(profile, weight, np.array(deep))
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
            with pytest.raises(FaddeevaOverflow):
                cauchy_transform(profile, weight, 1.0 - 40.0j)
            with pytest.raises(FaddeevaOverflow):
                cauchy_transform(profile, weight, np.append(deep, 1.0 - 40.0j))

    @pytest.mark.parametrize("weight", ARRAY_WEIGHTS)
    def test_bump_refusals_match_scalar(self, bump_profile, weight):
        # the edge margin below the axis refuses; one such point among
        # ordinary ones refuses the whole array
        pts = branch_points(bump_profile, weight) + [4.52 - 0.1j, 5.49 - 0.2j, 4.8 - 0.3j]
        scalar = scalar_values(lambda z: cauchy_transform(bump_profile, weight, z),
                               pts)
        refused = [z for z, s in zip(pts, scalar) if s is None]
        assert refused
        fine = np.array([z for z, s in zip(pts, scalar) if s is not None][:5])
        for z in refused:
            with pytest.raises(StripViolation):
                cauchy_transform(bump_profile, weight, np.append(fine, z))

    @pytest.mark.parametrize("weight", BUMP_WEIGHTS)
    def test_bump_blocks_match_scalar(self, bump_profile, weight):
        # all three branches over Re sigma within 2 of the support (farther out
        # the Maxwellian closed form's own array/scalar ulps dominate), exact
        # node hits and points 1e-10 from a node, the edge margin, outside the
        # support and above eta / 2; then runs of ordinary points one short
        # of, on and one past block boundaries, and an empty array
        node, w = bump_node(bump_profile, weight, 5.2)
        strip = 0.25                # eta / 2
        pts = [complex(re, im) for re in np.linspace(3.0, 7.0, 81)
               for im in (0.99 * strip, 0.3 * strip, 1e-3, 1e-13, 0.0, -1e-13, -1e-3,
                          -0.3 * strip, -0.99 * strip)] + [
            complex(node + off, im) for off in (0.0, 1e-10, -1e-10)
            for im in (0.0, 1e-10, -1e-10)] + [
            4.515 + 0.2j, 5.0 + 0.26j, 5.0 + 0.6j, 5.51 - 0.01j, 3.0 - 0.1j, 7.0 + 0.05j]
        rows = quadrature._BLOCK // bump_profile.node_sets[weight][0][0].size
        ordinary = list(np.linspace(4.55, 5.45, 3 * rows + 1) + 0.05j)
        scalar = scalar_values(lambda z: cauchy_transform(bump_profile, weight, z),
                               pts + ordinary)
        kept = [(z, s) for z, s in zip(pts, scalar) if s is not None]
        assert len(kept) >= 0.9 * len(pts)
        runs = [kept] + [list(zip(ordinary, scalar[len(pts):]))[:n] for n in (
            0, rows - 1, rows, rows + 1, 3 * rows - 1, 3 * rows, 3 * rows + 1)]
        for run in runs:
            sigma = np.array([z for z, _ in run], dtype=complex)
            want = np.array([s for _, s in run], dtype=complex)
            got = cauchy_transform(bump_profile, weight, sigma)
            assert got.shape == sigma.shape
            assert np.all(np.abs(got - want) <= 5e-14 * np.maximum(1.0, np.abs(want)))

    def test_deep_lower_bump_point_refuses_before_any_sum(self, bump_profile,
                                                           monkeypatch):
        def refuse(*args):
            raise AssertionError("summed before refusing")

        monkeypatch.setattr(quadrature, "_subtracted_sums", refuse)
        monkeypatch.setattr(quadrature, "_pinned_part", refuse)
        monkeypatch.setattr(quadrature, "_far_sum", refuse)
        for deep in (4.52 - 0.1j, 5.49 - 3.0j):
            mixed = np.array([4.8 + 0.05j, 4.8, 8.0 + 0.05j, deep, 4.8 - 0.05j])
            with pytest.raises(StripViolation):
                cauchy_transform(bump_profile, (0.0, 1.0), mixed)
            with pytest.raises(StripViolation):
                cauchy_transform(bump_profile, (0.0, 1.0), deep)

    def test_near_node_points_take_pinned_panels(self, bump_profile, pinned_calls):
        weight = (0.0, 1.0)
        node, _ = bump_node(bump_profile, weight, 5.2)
        near = [complex(node + off, im) for off in (0.0, 1e-14, 1e-10)
                for im in (0.0, 1e-8, -1e-8)]
        ordinary = [4.8 + 0.05j, 4.8, 4.8 - 0.05j, 5.2 + 1e-9j, 3.0, 7.0 - 0.1j]
        points = ordinary[:3] + near + ordinary[3:]
        cauchy_transform(bump_profile, weight, np.array(points))
        for z in points:
            cauchy_transform(bump_profile, weight, z)
        assert pinned_calls == near + near

    def test_faddeeva_against_scipy_wofz(self):
        rng = np.random.default_rng(12)
        z = np.concatenate([
            rng.uniform(-50.0, 50.0, 2000) + 1j * rng.uniform(-4.0, 20.0, 2000),
            rng.uniform(-6.0, 6.0, 1000) + 1j * rng.uniform(-4.0, 4.0, 1000),
            rng.uniform(-50.0, 50.0, 400) + 0j,
            [0j, 1.0, -1.0, 1e-8, -1e-8, 1e-8j, -1e-8j, 30.0 - 29.9j]]).reshape(2, -1)
        got = faddeeva(z)
        want = wofz(z)
        assert got.shape == z.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-14
        scalar = np.array([faddeeva(x) for x in z.ravel()]).reshape(z.shape)
        assert np.max(np.abs(got - scalar) / np.abs(scalar)) <= 1e-15

    def test_faddeeva_overflow_refused(self):
        z = np.array([1.0 + 1j, 0.5 - 30j, 2.0 - 1j])
        with pytest.raises(FaddeevaOverflow):
            faddeeva(z)
        faddeeva(z[[0, 2]])

    def test_resonance_integral_and_zero_sigma(self, maxwellian_params, std_maxwellian):
        sigma = np.array([0.5 + 0.1j, -2.0, 1.5 - 0.2j])
        got = resonance_integral(std_maxwellian, sigma)
        want = [resonance_integral(std_maxwellian, z) for z in sigma]
        np.testing.assert_allclose(got, want, rtol=1e-13)
        with pytest.raises(ZeroSigma):
            dispersion_value(maxwellian_params, std_maxwellian, np.append(sigma, 0.0))

    def test_classify_branch_elementwise(self):
        sigma = np.array([1.0 + 0.1j, 1.0, 1.0 - 1e-3j, 1.0 + 5e-13j])
        assert list(classify_branch(sigma)) == [
            classify_branch(z) for z in sigma]

    def test_pole_free_secular_matches_scalar(self, bump_profile):
        # P_j of a 3 x 3 system with a constant and a linear feedback row
        a = np.array([[4.5, 0.1, 0.0], [0.1, 5.0, 0.2], [0.0, 0.2, 5.4]])
        system = SystemCoupling(a, np.array([0.8, -0.3, 0.5]),
                                ((0.2, 0.1, -0.4), (0.5, 0.0, 0.3)), 1e-3, bump_profile)
        omega = np.array([4.8 + 0.05j, 4.8, 5.2 - 0.05j, 3.0 + 1j])
        for j in range(3):
            got = pole_free_secular(system, j, system.kappa, omega)
            want = [pole_free_secular(system, j, system.kappa, z) for z in omega]
            assert got.shape == omega.shape
            np.testing.assert_allclose(got, want, rtol=1e-13)


class TestTransformDerivative:
    """dC/dsigma, returned with C by one kernel call, against `mpmath.diff` of the
    30-digit transform on all three branches, and the array form against the
    point form. Gaussian parts differentiate their closed form; a bump term is
    the transform of g' = (p f_bump')' over its own node set, on every route of
    `_bump_array`."""

    GAUSSIAN_SIGMAS = [0.5 + 0.3j, -1.7 + 1.0j, 1.3, -0.7, 0.9 - 0.1j, -1.4 - 0.3j]
    # the bump term of the bump_profile fixture (support [4.5, 5.5]): the node sum
    # above, on and below the axis; the far field above, on and below the axis
    # off the support; refused at the edge margin under the plain-sum height
    # (pinned panels); the residue deep in the support column
    BUMP_SIGMAS = [5.2 + 0.3j, 4.8, 5.2 - 0.1j, 5.0 + 2.0j, 7.0, 7.0 - 0.1j,
                   4.51 + 0.01j, 5.3 - 0.9j, 5.0 - 1.0j]

    @staticmethod
    def check(profile, weight, sigmas):
        for sigma in sigmas:
            value, slope = cauchy_transform(profile, weight, sigma, derivative=True)
            assert value == cauchy_transform(profile, weight, sigma)
            want = mp_transform_derivative(profile, weight, sigma)
            assert abs(slope - want) <= 1e-10 * abs(want), sigma

    @pytest.mark.parametrize("weight", [(0.0, 1.0), (0.3, -1.0, 0.5, 0.2)])
    @pytest.mark.parametrize("name", ["std_maxwellian", "two_stream"])
    def test_gaussian_parts_against_mpmath(self, request, name, weight):
        profile = TWO_STREAM if name == "two_stream" else request.getfixturevalue(name)
        self.check(profile, weight, self.GAUSSIAN_SIGMAS)

    @pytest.mark.parametrize("weight", [(0.0, 1.0), (1.0,)])
    def test_bump_term_routes_against_mpmath(self, bump_profile, weight, pinned_calls):
        term = profiles.VelocityProfile((), bump_profile.bumps)
        node, _ = bump_node(term, weight, 5.2)
        self.check(term, weight, self.BUMP_SIGMAS + [node + 1e-10])
        # the edge-margin point and the near-node point took the pinned panels,
        # for the value and the derivative, then for the value alone
        assert pinned_calls == [4.51 + 0.01j] * 3 + [complex(node + 1e-10)] * 3
        field = term.node_sets[(weight, "d")][0][4]
        assert quadrature._far(np.array([5.0 + 2.0j, 7.0, 7.0 - 0.1j]), field).all()

    @pytest.mark.parametrize("weight", ARRAY_WEIGHTS)
    @pytest.mark.parametrize("name", ["std_maxwellian", "two_stream", "bump_profile"])
    def test_array_matches_point(self, request, name, weight):
        profile = TWO_STREAM if name == "two_stream" else request.getfixturevalue(name)
        pts = branch_points(profile, weight)
        point = scalar_values(lambda z: cauchy_transform(profile, weight, z, True), pts)
        kept = [(z, v) for z, v in zip(pts, point) if v is not None]
        sigma = np.array([z for z, _ in kept]).reshape(-1, 1)
        got = cauchy_transform(profile, weight, sigma, derivative=True)
        assert got[0].shape == got[1].shape == sigma.shape
        assert np.array_equal(got[0], cauchy_transform(profile, weight, sigma))
        # Z - 2 zeta A cancels as 1 + zeta Z does, one power of zeta further:
        # far from a Gaussian part's drift an ulp of w shows 10 times larger
        for part, i, tol in ((got[0], 0, 1e-13), (got[1], 1, 1e-12)):
            want = np.array([v[i] for _, v in kept]).reshape(-1, 1)
            assert np.all(np.abs(part - want) <= tol * np.maximum(1.0, np.abs(want)))
