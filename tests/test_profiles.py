import cmath
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from spraywaves import profiles
from spraywaves.errors import (FaddeevaOverflow, InvalidBump, StripViolation,
                               VacuumViolation)
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
        assert eval_df(std_maxwellian, 1.0).real == pytest.approx(expected, rel=1e-13,
                                                                  abs=0.0)
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

    @pytest.mark.parametrize("order", [-1, 1.5, 2.0, "2"])
    def test_moment_order_validation(self, std_maxwellian, order):
        # any whole number >= 0, as a Python int
        with pytest.raises(ValueError):
            moment(std_maxwellian, order)

    def test_moments_of_any_order(self):
        # E[v^n] of N(1, 3^2) times the mass 2: 1, 1, 10, 28, 298, 1306, 14716
        p = maxwellian(mass=2.0, width=3.0, drift=1.0)
        for n, raw in enumerate((1, 1, 10, 28, 298, 1306, 14716)):
            assert moment(p, n) == pytest.approx(2.0 * raw, rel=1e-14, abs=0.0)

    def test_no_strip_until_the_exponential_overflows(self, std_maxwellian):
        # a Gaussian part is entire: off the axis f is the plain exponential
        # (cmath here), refused only where exp(-v^2/2) overflows
        for v in (1j, 2.0 - 0.7j, 3.0 + 5.0j, -4.0 - 30.0j):
            ref = cmath.exp(-0.5 * v * v) / SQRT_2PI
            assert abs(eval_f(std_maxwellian, v) - ref) <= 1e-13 * abs(ref)
            assert abs(eval_df(std_maxwellian, v) + v * ref) <= 1e-13 * abs(v * ref)
        for func in (eval_f, eval_df):
            for v in (40j, np.array([1.0, 2.0 - 40.0j])):
                with pytest.raises(FaddeevaOverflow):
                    func(std_maxwellian, v)


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

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("order", range(7))
    def test_moments_against_quadrature(self, bump_profile, order):
        # every order of a bump on a drifted base: int v^n f dv by scipy's
        # adaptive quadrature, split at the bump edges (its roundoff notes are
        # silenced, the bound decides)
        profile = make_bump_on_tail(maxwellian(1.5, -0.4, 0.8), 0.1, 0.5, 3.0)
        for prof in (bump_profile, profile):
            lo, hi = profiles.support_bounds(prof)
            want = sum(integrate.quad(lambda v: v**order * eval_f(prof, v).real, a, b,
                                      epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                       for a, b in zip((lo, *profiles.bump_edges(prof)),
                                       (*profiles.bump_edges(prof), hi)))
            assert moment(prof, order) == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_inner_bump_mass_scaled(self):
        # a bump on a bump: the inner term keeps (1 - eps2) of its mass eps1 M
        base = maxwellian(mass=2.0)
        nested = make_bump_on_tail(make_bump_on_tail(base, 0.05, 0.5, 5.0), 0.1, 0.3, 3.0)
        assert [b.mass for b in nested.bumps] == pytest.approx(
            [(1 - 0.1) * 0.05 * 2.0, 0.1 * 2.0], rel=1e-15, abs=0.0)
        assert [(b.eta, b.c_star) for b in nested.bumps] == [(0.5, 5.0), (0.3, 3.0)]

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
        # the refusals of the bump derivative at one point and elementwise over
        # an array are those of the edge check
        rng = np.random.default_rng(5)
        pts = [complex(x, y) for x, y in zip(rng.uniform(4.0, 6.0, 400),
                                             rng.uniform(-0.3, 0.3, 400))]
        pts += [4.5, 5.5, 4.5 + 0.01j, 5.0, complex(5.0, 0.25), complex(5.0, -0.26)]
        bump = bump_profile.bumps[0]
        refused = []
        for s in pts:
            try:
                profiles._check_edges(bump_profile, np.array([s]))
            except StripViolation:
                refused.append(True)
            else:
                refused.append(False)
            assert profiles._bump_df_refused(bump, complex(s)) is refused[-1]
        assert any(refused) and not all(refused)
        assert profiles._bump_df_refused(bump, np.array(pts)).tolist() == refused

    def test_bump_shape_constants(self):
        # normalization frozen against a 30-digit mpmath evaluation
        c, m1g, m2g = profiles._bump_constants()
        assert c == pytest.approx(1.9447863754628564, rel=1e-13, abs=0.0)
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
    @pytest.mark.parametrize("field", ["mass", "drift", "width"])
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
        # derivative scales mass / width**2 and eps * mass / eta**2
        for kwargs in ({"width": 1e-300}, {"mass": 1e300, "width": 1e-5}):
            with pytest.raises(ValueError, match="overflows"):
                maxwellian(**kwargs)
        with pytest.raises(ValueError, match="overflows"):
            make_bump_on_tail(std_maxwellian, eps=0.05, eta=1e-300, c_star=5.0)

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


# ---------------------------------------------------------------------------
# reference: the recursive profile tree that the flat mixture replaced, a
# 'maxwellian', 'bump_on_tail' (base, eps, eta, c_star) or 'sum' (parts) node
# ---------------------------------------------------------------------------

def tree_maxwellian(mass=1.0, drift=0.0, width=1.0):
    return SimpleNamespace(kind="maxwellian", mass=mass, drift=drift, width=width,
                           strip=math.inf)


def tree_bump(base, eps, eta, c_star):
    return SimpleNamespace(kind="bump_on_tail", base=base, eps=eps, eta=eta,
                           c_star=c_star, strip=min(base.strip, 0.5 * eta))


def tree_sum(*parts):
    return SimpleNamespace(kind="sum", parts=parts, strip=min(p.strip for p in parts))


def tree_f(t, v):
    if t.kind == "maxwellian":
        z = (v - t.drift) / t.width
        return t.mass / (SQRT_2PI * t.width) * np.exp(-0.5 * z * z)
    if t.kind == "bump_on_tail":
        c, _, _ = profiles._bump_constants()
        amp = t.eps * tree_moment(t.base, 0) / t.eta
        return ((1.0 - t.eps) * tree_f(t.base, v)
                + amp * c * profiles._bump_raw((v - t.c_star) / t.eta))
    return sum(tree_f(p, v) for p in t.parts)


def tree_df(t, v):
    if t.kind == "maxwellian":
        return -(v - t.drift) / t.width**2 * tree_f(t, v)
    if t.kind == "bump_on_tail":
        c, _, _ = profiles._bump_constants()
        scale = t.eps * tree_moment(t.base, 0) / t.eta**2 * c
        return ((1.0 - t.eps) * tree_df(t.base, v)
                + scale * profiles._inside(profiles._bump_shape_deriv,
                                           (v - t.c_star) / t.eta))
    return sum(tree_df(p, v) for p in t.parts)


def tree_moment(t, order):
    if t.kind == "maxwellian":
        return t.mass * (1.0 if order == 0 else t.width**2 + t.drift**2)
    if t.kind == "bump_on_tail":
        _, m1, m2 = profiles._bump_constants()
        c, eta = t.c_star, t.eta
        bump = 1.0 if order == 0 else c * c + 2.0 * c * eta * m1 + eta * eta * m2
        return ((1.0 - t.eps) * tree_moment(t.base, order)
                + t.eps * tree_moment(t.base, 0) * bump)
    return sum(tree_moment(p, order) for p in t.parts)


def tree_support(t):
    if t.kind == "maxwellian":
        return (t.drift - 10.0 * t.width, t.drift + 10.0 * t.width)
    if t.kind == "bump_on_tail":
        lo, hi = tree_support(t.base)
        return (min(lo, t.c_star - 5.0 * t.eta), max(hi, t.c_star + 5.0 * t.eta))
    los, his = zip(*(tree_support(p) for p in t.parts))
    return (min(los), max(his))


def tree_scale(t):
    if t.kind == "maxwellian":
        return t.width
    if t.kind == "bump_on_tail":
        return min(tree_scale(t.base), 0.5 * t.eta)
    return min(tree_scale(p) for p in t.parts)


def tree_breakpoints(t):
    if t.kind == "maxwellian":
        return ()
    if t.kind == "bump_on_tail":
        lo, hi = t.c_star - t.eta, t.c_star + t.eta
        hs = [t.eta * 2.0 ** (-j) for j in range(1, 9)]
        own = tuple(sorted([lo, hi, *(lo + h for h in hs), *(hi - h for h in hs)]))
        return own + tree_breakpoints(t.base)
    return sum((tree_breakpoints(p) for p in t.parts), ())


# name: (single-level, the profile from constructors mx, bump and add)
TREE_CASES = {
    "maxwellian": (True, lambda mx, bump, add: mx()),
    "drifting maxwellian": (True, lambda mx, bump, add: mx(0.7, 0.4, 0.8)),
    "two-stream": (True, lambda mx, bump, add: add(mx(0.5, -2.0, 0.6),
                                                   mx(0.5, 2.0, 0.6))),
    "bump": (True, lambda mx, bump, add: bump(mx(), 0.05, 0.5, 5.0)),
    "narrow-base bump": (True, lambda mx, bump, add: bump(mx(width=0.2), 0.05, 5.0,
                                                          5.0)),
    "bump on two-stream": (False, lambda mx, bump, add: bump(
        add(mx(0.5, -2.0, 0.6), mx(0.5, 2.0, 0.6)), 0.05, 0.5, 4.0)),
    "bump on a bump": (False, lambda mx, bump, add: bump(bump(mx(), 0.05, 0.5, 5.0),
                                                         0.1, 0.3, 3.0)),
    "sum holding a bump": (False, lambda mx, bump, add: add(
        bump(mx(0.6), 0.05, 0.5, 5.0), mx(0.4, -1.0, 0.7))),
}


class TestAgainstTree:
    def test_two_fields(self):
        # the parts only: the total mass (m0) is derived
        assert len(dataclasses.fields(profiles.VelocityProfile)) == 2

    def test_bump_fields(self):
        # a bump term is its mass, half-width and centre
        assert [f.name for f in dataclasses.fields(profiles.Bump)] == [
            "mass", "eta", "c_star"]

    @pytest.mark.parametrize("name", TREE_CASES)
    def test_flat_mixture_matches_tree(self, name):
        single, build = TREE_CASES[name]
        flat = build(maxwellian, make_bump_on_tail, profile_sum)
        tree = build(tree_maxwellian, tree_bump, tree_sum)
        assert profiles.support_bounds(flat) == tree_support(tree)
        assert profiles.resolution_scale(flat) == tree_scale(tree)
        # each bump term is cut at its own edges only
        breakpoints = tuple(x for b in flat.bumps for x in b.breakpoints)
        if single:
            assert breakpoints == tree_breakpoints(tree)
        else:
            assert sorted(set(breakpoints)) == sorted(set(tree_breakpoints(tree)))

        def agree(new, old):
            if single:
                return np.array_equal(new, old)
            return np.max(np.abs(new - old)) <= 1e-15 * np.max(np.abs(old))

        for order in (0, 2):
            assert agree(moment(flat, order), tree_moment(tree, order))
        # the public kernels on the real axis, the raw ones at most 0.5 and, on
        # a bump, eta / 2 off the axis (the tree's strip)
        x = np.linspace(-8.0, 8.0, 161)
        z = np.concatenate([x + 1j * f * min(tree.strip, 0.5)
                            for f in (0.9, 0.3, -0.3, -0.9)])
        assert agree(eval_f(flat, x), tree_f(tree, x.astype(complex)))
        assert agree(eval_df(flat, x), tree_df(tree, x.astype(complex)))
        assert agree(profiles._eval_raw(flat, z, df=False), tree_f(tree, z))
        assert agree(profiles._eval_raw(flat, z, df=True), tree_df(tree, z))
