"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math

import numpy as np

from conftest import dawson_series
from spraywaves import hyperbolic, modesim, profiles, quadrature
from spraywaves.dispersion import (SearchRegion, count_roots, coupling_prefactor,
                                   dispersion_value, find_roots, make_params,
                                   spectral_verdict, thin_spray_expansion,
                                   verdict_region)
from spraywaves.hyperbolic import (SystemCoupling, scalar_law, scalar_root,
                                   stability_necessary_condition, track_secular_root)
from spraywaves.modesim import (default_sim_config, growth_rate, init_eigenmode,
                                integrate, sobolev_scaling_experiment)
from spraywaves.quadrature import _pinned_part


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


class TestAcceptance:
    def test_01_decoupled_limit(self, acoustic_params, std_maxwellian):
        reports = find_roots(acoustic_params, std_maxwellian,
                             SearchRegion(-2.0, 2.0, -0.1, 0.1), tol=1e-12)
        sigmas = sorted((r.sigma for r in reports), key=lambda z: z.real)
        ok = (len(sigmas) == 2
              and abs(sigmas[0] - (-1.0)) <= 1e-10
              and abs(sigmas[1] - 1.0) <= 1e-10)
        report("criterion 1 (decoupled limit)", ok,
               f"roots {sigmas} vs exact -c0, +c0")

    def test_02_plemelj_continuity(self, maxwellian_params, std_maxwellian):
        rng = np.random.default_rng(2)
        eps_list = (1e-2, 1e-3, 1e-4)
        slopes = []
        bound_ok = True
        for x0 in rng.uniform(-2.2, 2.2, 10):
            if abs(x0) < 0.3:
                x0 += math.copysign(0.3, x0)
            ax = dispersion_value(maxwellian_params, std_maxwellian, complex(x0))
            # natural linear constant C = |D'(x0)| by central difference
            h = 1e-5
            dprime = abs(dispersion_value(maxwellian_params, std_maxwellian,
                                          complex(x0 + h))
                         - dispersion_value(maxwellian_params, std_maxwellian,
                                            complex(x0 - h))) / (2 * h)
            diffs = []
            for eps in eps_list:
                up = dispersion_value(maxwellian_params, std_maxwellian,
                                      complex(x0, eps))
                diffs.append(abs(up - ax))
            bound_ok &= all(d <= 3.0 * dprime * e for d, e in zip(diffs, eps_list))
            slopes.append(np.polyfit(np.log(eps_list), np.log(diffs), 1)[0])
        ok = bound_ok and all(s >= 0.9 for s in slopes)
        report("criterion 2 (Plemelj continuity)", ok,
               f"min slope {min(slopes):.3f} (need >= 0.9), linear bound C=|D'| "
               f"{'holds' if bound_ok else 'fails'}")

    def test_03_rayleigh_stability(self, maxwellian_params, std_maxwellian):
        region = SearchRegion(-5.0, 5.0, 1e-6, 0.2)
        n_upper = count_roots(maxwellian_params, std_maxwellian, region)
        verdict = spectral_verdict(maxwellian_params, std_maxwellian)
        ok = n_upper == 0 and verdict == "stable"
        report("criterion 3 (Rayleigh stability)", ok,
               f"upper-half count {n_upper} (need 0), verdict {verdict!r}")

    def test_04_thin_spray_order(self, std_maxwellian):
        errors = []
        for kappa in (4e-3, 2e-3, 1e-3):
            params = make_params(std_maxwellian, c0=1.0, rho0=1.0, kappa=kappa)
            c_star, gamma = thin_spray_expansion(params, std_maxwellian)
            roots = find_roots(params, std_maxwellian,
                               SearchRegion(0.5, 1.5, -0.05, 0.02), tol=1e-12)
            root = min(roots, key=lambda r: abs(r.sigma - params.c0))
            errors.append(abs(root.sigma - complex(c_star, gamma)))
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        ok = all(3.5 <= r <= 4.5 for r in ratios)
        report("criterion 4 (thin-spray order)", ok,
               f"error ratios {ratios[0]:.3f}, {ratios[1]:.3f} (need in [3.5, 4.5])")

    def test_05_asymptotic_remainder(self, maxwellian_params, std_maxwellian):
        pref = coupling_prefactor(maxwellian_params, std_maxwellian)
        m0 = profiles.moment(std_maxwellian, 0)
        m2 = profiles.moment(std_maxwellian, 2)

        def remainder(sigma):
            d_real = dispersion_value(maxwellian_params, std_maxwellian, sigma).real
            four_term = (1.0 - maxwellian_params.c0**2 / sigma**2
                         - pref * (m0 / sigma**2 + 3.0 * m2 / sigma**4))
            return abs(d_real - four_term)

        width = std_maxwellian.gaussians[0].width
        ratio = remainder(10.0 * width) / remainder(20.0 * width)
        ok = 50.0 <= ratio <= 80.0
        report("criterion 5 (asymptotic remainder)", ok,
               f"remainder ratio {ratio:.2f} (need in [50, 80])")

    def test_06_instability_cross_validation(self, bump_params, bump_profile):
        region = SearchRegion(-7.0, 7.0, 1e-6, 0.12)
        roots = [r for r in find_roots(bump_params, bump_profile, region, tol=1e-10)
                 if r.sigma.imag > 0]
        assert roots, "no unstable root found"
        sigma = max(roots, key=lambda r: r.sigma.imag).sigma
        k = 8.0
        t_final = 6.0 / (k * sigma.imag)
        config = default_sim_config(bump_params, bump_profile, k,
                                    t_final=t_final, nv=2048)
        state = init_eigenmode(bump_params, bump_profile, sigma, k, config)
        traj = integrate(bump_params, bump_profile, state, config)
        fit = growth_rate(traj, config.fit_window)
        rel = abs(fit.rate - k * sigma.imag) / (k * sigma.imag)
        ok = sigma.imag > 0 and rel <= 0.02
        report("criterion 6 (instability cross-validation)", ok,
               f"Im sigma {sigma.imag:.5f} > 0, gamma_sim {fit.rate:.5f} vs "
               f"k Im sigma {k * sigma.imag:.5f} (rel err {rel:.4f}, need <= 0.02)")

    def test_07_illposedness_scaling(self, bump_params, bump_profile):
        region = verdict_region(bump_params, bump_profile)
        rep = sobolev_scaling_experiment(bump_params, bump_profile, region, s=1.0,
                                         n_exponent=2.0, k_list=[8.0, 16.0, 32.0],
                                         nv=2048)
        rates = [r.fitted_rate for r in rep.rows]
        doubling = [rates[1] / rates[0], rates[2] / rates[1]]
        inits = [r.init_hs_norm for r in rep.rows]
        ok = (all(abs(d - 2.0) <= 0.1 for d in doubling)
              and all(b < a for a, b in zip(inits, inits[1:]))
              and rep.theta0 > 0.0)
        report("criterion 7 (ill-posedness scaling)", ok,
               f"rate doubling {doubling[0]:.4f}, {doubling[1]:.4f} (need 2 +- 5%), "
               f"initial H^s column strictly decreasing: "
               f"{all(b < a for a, b in zip(inits, inits[1:]))}, "
               f"theta0 {rep.theta0:.4g} > 0")

    def test_08_scalar_coupling(self, std_maxwellian):
        details = []
        ok = True
        for kappa in (1e-3, -1e-3):
            c = scalar_law(1.0, kappa, std_maxwellian)
            # leading order: kappa times the imag_rate of the N = 1 system's mode
            lead = kappa * stability_necessary_condition(c)[0].imag_rate
            root = scalar_root(c)
            slope = profiles.eval_df(std_maxwellian, 1.0).real
            sign_ok = (math.copysign(1.0, root.sigma.imag)
                       == math.copysign(1.0, -kappa * 1.0 * slope))
            mag_ok = abs(root.sigma.imag - lead) <= 0.05 * abs(lead)
            ok &= sign_ok and mag_ok
            details.append(f"kappa={kappa:+g}: Im={root.sigma.imag:.4e} "
                           f"lead={lead:.4e}")
        report("criterion 8 (scalar coupling)", ok, "; ".join(details))

    def test_09_necessary_condition_consistency(self, std_maxwellian):
        a2 = np.array([[1.0, 0.3], [0.3, 2.0]])
        gp2 = np.array([1.0, 0.4])
        fixtures = [
            SystemCoupling(a2, gp2, ((-1.0, -0.4),), 1e-4, std_maxwellian),
            SystemCoupling(a2, gp2, ((1.0, 0.4),), 1e-4, std_maxwellian),
            SystemCoupling(np.array([[0.5, 0.1, 0.0], [0.1, 1.3, 0.2],
                                     [0.0, 0.2, 2.2]]),
                           np.array([0.8, -0.3, 0.5]),
                           ((0.2, 0.1, -0.4), (0.5, 0.0, 0.3)),
                           1e-4, std_maxwellian),
        ]
        ok = True
        n_checked = 0
        n_negative = 0
        for system in fixtures:
            for verdict in stability_necessary_condition(system):
                if verdict.verdict == hyperbolic.DECOUPLED:
                    continue
                kappa = 1e-4
                tracked = track_secular_root(system, verdict.j, kappa)
                rate = tracked.imag / kappa
                ok &= abs(rate - verdict.imag_rate) <= 0.1 * abs(verdict.imag_rate)
                n_checked += 1
                if verdict.q_j < 0:
                    n_negative += 1
                    ok &= tracked.imag > 0.0
        ok &= n_negative >= 1
        report("criterion 9 (necessary-condition consistency)", ok,
               f"{n_checked} modes tracked across 3 fixtures, {n_negative} with "
               f"q_j < 0 all amplified, rates within 10%")

    def test_10_quadrature_oracle(self):
        gaussian = lambda v: np.exp(-np.asarray(v, dtype=complex) ** 2) \
            / math.sqrt(math.pi)
        worst = 0.0
        for x0 in (0.5, 1.0, 2.0):
            # principal value: the real part of the axis value over +-(12 + x0)
            span = 12.0 + x0
            c = gaussian(np.array([x0]))[0]
            val = _pinned_part(gaussian, c, complex(x0), (-span, span), (), 0.7,
                               quadrature.NODES).real
            oracle = -2.0 * dawson_series(x0)
            worst = max(worst, abs(val - oracle) / abs(oracle))
        ok = worst <= 1e-8
        report("criterion 10 (quadrature oracle)", ok,
               f"max relative deviation from Dawson series {worst:.2e} "
               f"(need <= 1e-8)")

    def test_11_neutral_acoustics(self, acoustic_params, std_maxwellian):
        k = 1.0
        t_final = 10.0 * 2.0 * math.pi / (k * acoustic_params.c0)
        config = default_sim_config(acoustic_params, std_maxwellian, k,
                                    t_final=t_final, nv=256)
        state = modesim.acoustic_state(acoustic_params, k, config)
        traj = integrate(acoustic_params, std_maxwellian, state, config)
        energy = np.abs(traj.u_hat) ** 2 + (acoustic_params.rho0
                                            * acoustic_params.c0) ** 2 \
            * np.abs(traj.tau_hat) ** 2
        drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
        ok = drift <= 1e-6
        report("criterion 11 (neutral acoustics)", ok,
               f"energy drift {drift:.2e} over 10 periods (need <= 1e-6)")
