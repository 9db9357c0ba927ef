"""Tests of the benchmark's own oracles (they must be right before they judge).

    python3 -m pytest perfbench/test_oracles.py

The closed forms are checked against dense adaptive quadrature, the mode
matrix and the bump quadrature D(sigma) against the bundled bump root, and
the stored root table against a fresh mode-matrix solve. None of these
import spraywaves.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import oracles

HERE = Path(__file__).resolve().parent
STD = {"kind": "maxwellian", "mass": 1.0, "drift": 0.0, "width": 1.0}
DRIFTING = {"kind": "maxwellian", "mass": 0.7, "drift": 0.4, "width": 0.8}
TWO_STREAM = {"kind": "sum", "parts": [
    {"kind": "maxwellian", "mass": 0.5, "drift": -1.5, "width": 0.5},
    {"kind": "maxwellian", "mass": 0.5, "drift": 1.5, "width": 0.5}]}
BUMP = {"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5, "c_star": 5.0, "base": STD}
BUMP_PARAMS = {"c0": 5.0, "rho0": 1.0, "kappa": 1.5e-3}
# root of the bundled bump-unstable scenario (BUMP, BUMP_PARAMS), as the
# package's tests pin it
BUNDLED_BUMP_ROOT = 4.973114775529999 + 0.06020144833923488j


def quad_cauchy(profile, sigma: complex, points=()) -> complex:
    """int f'(v) / (v - sigma) dv for Im sigma > 0 by dense adaptive quadrature."""
    def part(fn):
        return integrate.quad(fn, -40.0, 40.0, points=[sigma.real, *points], limit=400,
                              epsabs=1e-13, epsrel=1e-12)[0]
    g = lambda v: float(oracles.df_profile(profile, np.array([v]))[0])
    return complex(part(lambda v: (g(v) / (v - sigma)).real),
                   part(lambda v: (g(v) / (v - sigma)).imag))


@pytest.mark.parametrize("profile", [STD, DRIFTING, TWO_STREAM])
@pytest.mark.parametrize("sigma", [0.7 + 0.3j, -1.2 + 0.05j, 2.5 + 1.0j])
def test_closed_form_matches_quadrature_above_axis(profile, sigma):
    assert abs(oracles.cauchy_df(profile, sigma) - quad_cauchy(profile, sigma)) < 1e-9


@pytest.mark.parametrize("x", [0.3, 1.1, 2.4])
def test_closed_form_on_axis_is_pv_plus_residue(x):
    g = lambda v: float(oracles.df_real(STD, v))
    pv = integrate.quad(g, -40.0, 40.0, weight="cauchy", wvar=x, epsabs=1e-13,
                        limit=400)[0]
    want = pv + 1j * math.pi * g(x)
    assert abs(oracles.cauchy_df(STD, x) - want) < 1e-9


def test_closed_form_is_continuous_across_the_axis():
    for x in (0.4, 1.7):
        above = oracles.cauchy_df(STD, complex(x, 1e-7))
        below = oracles.cauchy_df(STD, complex(x, -1e-7))
        assert abs(above - below) < 1e-6


def test_dispersion_derivative_matches_difference():
    params = {"c0": 1.2, "rho0": 1.0, "kappa": 0.02}
    z, h = 0.9 - 0.05j, 1e-6
    diff = (oracles.dispersion(params, TWO_STREAM, z + h)
            - oracles.dispersion(params, TWO_STREAM, z - h)) / (2 * h)
    assert abs(oracles.dispersion_derivative(params, TWO_STREAM, z) - diff) < 1e-7


def test_kinetic_vector_polynomial_weights():
    phi = [[1.0, 0.0], [0.0, 1.0], [0.5, -0.2]]
    sigma = 0.6 + 0.4j
    got = oracles.kinetic_vector(phi, DRIFTING, sigma)
    for i in range(2):
        weight = lambda v: sum(c[i] * v**p for p, c in enumerate(phi))
        g = lambda v: weight(v) * float(oracles.df_real(DRIFTING, v)) / (v - sigma)
        want = complex(*(integrate.quad(lambda v: f(g(v)), -40, 40, limit=400,
                                        epsabs=1e-13)[0]
                         for f in (np.real, np.imag)))
        assert abs(got[i] - want) < 1e-9


def test_winding_count_counts_zeros_and_poles():
    f = lambda z: (z - 0.5j) * (z + 1.0) / z**2
    assert oracles.winding_count(f, -2.0, 2.0, -1.0, 1.0) == 0
    assert oracles.winding_count(f, -0.5, 0.5, 0.1, 1.0) == 1
    assert oracles.winding_count(f, -2.0, -0.1, -1.0, 1.0) == 1


def test_bump_normalisation_gives_unit_mass():
    w = np.linspace(-1, 1, 200001)[1:-1]
    shape = (1 + w) ** 2 * np.exp(-1 / (1 - w * w))
    assert oracles.bump_normalisation() * np.trapezoid(shape, w) == pytest.approx(1.0, abs=1e-9)


def test_mode_matrix_reproduces_bundled_bump_root():
    roots = oracles.unstable_sigmas(BUMP_PARAMS, BUMP, nv=1025)
    assert len(roots) == 1
    assert abs(roots[0] - BUNDLED_BUMP_ROOT) < 1e-4


@pytest.mark.parametrize("sigma", [4.9 + 0.05j, 5.3 + 0.2j, 3.0 + 0.1j])
def test_bump_dispersion_matches_whole_line_quadrature(sigma):
    edges = (BUMP["c_star"] - BUMP["eta"], BUMP["c_star"] + BUMP["eta"])
    want = 1.0 - BUMP_PARAMS["c0"] ** 2 / sigma**2 \
        - oracles.coupling_prefactor(BUMP_PARAMS, BUMP) * quad_cauchy(BUMP, sigma, edges)
    assert abs(oracles.bump_dispersion(BUMP_PARAMS, BUMP, sigma) - want) < 1e-10


def test_bump_dispersion_reproduces_bundled_bump_root():
    z = oracles.bump_dispersion_root(BUMP_PARAMS, BUMP, BUNDLED_BUMP_ROOT + 1e-3)
    assert abs(z - BUNDLED_BUMP_ROOT) < 1e-9


def test_mode_matrix_acoustic_limit():
    params = {"c0": 1.3, "rho0": 1.0, "kappa": 0.0}
    sig = oracles.mode_matrix_sigmas(params, STD, nv=257)
    for c in (1.3, -1.3):
        assert np.min(np.abs(sig - c)) < 1e-12


def test_stored_table_matches_a_fresh_solve():
    table = json.loads((HERE / "bump_roots.json").read_text())
    entry = table["seeded"][len(table["seeded"]) // 2]
    fresh = oracles.unstable_sigmas(entry["params"], entry["profile"], nv=1025)
    stored = [complex(*r) for r in entry["roots"]]
    assert len(fresh) == len(stored)
    assert all(abs(a - b) < max(1e-5, 10 * entry["err"]) for a, b in zip(fresh, stored))
    assert all(table["growth_band"][0] <= s.imag <= table["growth_band"][1]
               for e in table["seeded"] for s in (complex(*r) for r in e["roots"]))
