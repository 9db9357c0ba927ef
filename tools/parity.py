"""Numerical parity of two source trees of spraywaves.

    python3 tools/parity.py OLD/src NEW/src

Runs the same fixed inputs in a fresh interpreter per tree and prints how far
the NEW results lie from the OLD ones:

- D(sigma): three profiles (Maxwellian, bump-on-tail, two-stream) on a grid
  that crosses every branch, including the bump edges, at heights scaled by a
  fixed h per profile (0.5, 0.25 and 0.3); exceptions must match by type, and
  values within D_TOL max(1, |D|), or where a value moved further, within
  1e-3 of OLD's own distance from a 30-digit D at that point (conftest's
  mpmath `mp_transform`, run on the OLD tree), so that a rounding where OLD is
  itself inexact passes and a real change does not. The points are checked
  from the largest move down, and the first that fails ends the check. The
  bump edge margin (within 0.05 eta of c* +- eta) is reported apart. The grid
  is evaluated point by point and again as one array per profile and height,
  so the array path (blocked bump sums, far-field series) is compared with the
  old array path too.
- Rates and verdicts: `thin_spray_expansion` (c* and gamma),
  `damping_rate_at(-c*)` and `spectral_verdict` for the three profiles of the
  D(sigma) grid; verdicts (or exception types) must match exactly and the
  rates within RATE_TOL relative (a tree that took D's slope by a central
  difference, before the analytic D', is off by up to about 1e-10 relative
  on these profiles). The bundled thin-spray scenarios are Maxwellian
  only, so the bump and two-stream rates appear in no artifact.
- Trajectories of modesim.integrate: a bump eigenmode at k = 4 and k = 9
  (6 growth spans, 16,611 steps) and at k = 6 (2 spans, 5,537 steps),
  Maxwellian acoustic runs at kappa = 0 and 0.01 (7,680 steps), a seeded
  generic complex state on the Maxwellian at kappa = 0.01 with dt at the CFL
  bound (the largest |k| dt max|v|) over 4,005 steps (8 m + 5), the k = 4
  bump eigenmode over 5 steps, and four overflow runs (the first step, seeds
  whose max|f| starts at 1e150 / 3 and 1e150 / 1.5, stopping at steps 3,042
  and 1,123, and the first of these cut to 3,045 steps, so that it stops
  inside its last block of 5): runs that finish and runs that overflow each
  come in odd and even step counts. Times, the final state's time, the
  overflow flag and a fit's exception type must match exactly; tau, u,
  kinetic L^2 and the final state's f must lie within TRAJ_TOL max |old| of
  OLD's, and the fitted rate within max(TRAJ_TOL |rate|, 1e-15, r), r the
  rounding of OLD's fit in its window, eps sum |s_i l_i| / sum s_i^2 / (hi -
  lo) for l = log|tau| before centring and s the centred window time (the
  window of `overflow_odd` keeps 57 samples at log|tau| near 341, where r is
  1.1e-11 of the rate; elsewhere r is at most 3.5e-13 of it). The rate of
  `acoustic_kappa0` is RK4's own dissipation, log|P(i dt)| / dt at k = c0 = 1,
  known in closed form: a move past that bound passes there when NEW lies no
  further from it than OLD, and both distances are printed.
- Profiles: seven profiles built by the public constructors (a Maxwellian, a
  two-stream sum, a bump, a bump on a narrow base, a bump on a two-stream sum,
  a bump on a bump, and a sum holding a bump): f and f' on a real grid (one
  array call) and off it (point by point, at +-0.3 and +-0.9 of a fixed height
  per profile), moments 0 and 2, support bounds, resolution scale, the set of
  the bump terms' breakpoints and each bump term's (mass, eta, c_star), its
  mass read as coef * eps * m0 in a tree whose bump terms store those three.
  The single-level ones must match exactly, exceptions by type; for the nested
  three the support, scale and breakpoints must match exactly, and the largest
  differences |new - old| / max |old| of f, f', the moments and the bump
  masses are printed and must lie within PROFILE_TOL, with the number of
  points that only one tree refuses.
- Root counts: `count_roots` on the verdict box of each of the three
  profiles, on boxes with a Maxwellian or bump root within 1e-3 of an edge
  (inside and outside), on boxes that straddle sigma = 0, on one with an edge
  through sigma = 0 and on one inside the square |Re sigma|, |Im sigma| <=
  1e-3 c0. The counts (or the
  exception type) must match exactly; the number of sigma samples of each
  count (the points passed to quadrature.cauchy_transform, which every
  evaluation goes through, read after the profile, or after the polynomial
  weight in a tree whose kernel takes one) is printed for OLD and NEW.
- Scalar laws: `scalar_root` on 40 cases (each law built by `scalar_law`),
  three profiles (the Maxwellian, bump-on-tail and two-stream of the D(sigma)
  grid) with three lambda0 each, and the Maxwellian at lambda0 = 600 (whose
  count square at kappa = 0 reaches below half its width), each with kappa in
  {0, 1e-3, -5e-3, 0.05}; the winding evidence (or the exception type) and
  the Python types of sigma and residual must match exactly, sigma within
  TRACK_TOL relative (Newton's derivative moves the last bits of the iterate),
  and both residuals must lie within Newton's tolerance 1e-12; the largest
  drift and the number of roots that match bit for bit are printed. The Newton counts are printed where they differ: a tree whose
  `scalar_root` polishes `track_secular_root`'s root counts only the polish,
  where an older one counted Newton from the first-order seed. The leading
  Im omega of `stability-check` is compared with the artifacts, on the bundled
  scalar law (lambda0 = 1) and on three more.
- Tracked roots: `stability_necessary_condition` and `track_secular_root` on
  every mode of the seeded N = 2 to 7 systems of the benchmark's coupling
  workload (seeds 1 to 3), of the weak and near-rounding systems of the CLI
  tests (A = diag(1, 2), grad_psi = (1, 0.03) and (1, 1e-3)), of the
  thick-spray embedding (acoustics with a zero phi row), of a 3 x 3 system on
  the bump-on-tail profile with eigenvalues across the bump, and of the
  tests' seeded 3 x 3 system with a quadratic phi row (seed 25, kappa = 0.3);
  each profile is built from a config, as the benchmark's worker builds it.
  q_j, imag_rate and the verdict (or the exception type) must match exactly,
  the tracked root within TRACK_TOL relative; the largest relative drift and
  the number of roots that match bit for bit are printed.
- Artifacts of the 11 bundled command x scenario pairs, of two bump runs
  without a region (`roots` and the eigenmode `simulate` with
  {"region": null}), of `roots` on the Maxwellian without a region, of
  `thin-spray` on the bump with c* = 4.6 at kappa = 5e-4, whose plus seed is
  no root, and of `stability-check` on the scalar laws (lambda0, kappa) =
  (2.5, 0.05), (-3, -5e-3) and (600, 0), each run by the CLI in a fresh
  interpreter: the exit
  codes, the file lists, each artifact's bytes and manifest.json without its
  timestamp are compared exactly (a failed run is reported with its exit
  code, and its files are not compared). For each
  differing artifact the script also prints how far its numbers moved: the
  largest relative difference |new - old| / max(|old|, |new|) and the largest
  |new - old| / max(1, |old|), each with the line and the two values where it
  occurs, or "non-numeric difference" where the text around the numbers differs.
  These differences are printed; they are not counted as mismatches.

Each thing that must match exactly and does not is printed as a MISMATCH line
and recorded, and a section that raises is recorded as one mismatch; every
section still runs, and the script then lists the mismatches and exits 1.
"""

import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

D_CASES = r'''
from spraywaves import dispersion as d, profiles as p
mx = p.maxwellian()
bump = p.make_bump_on_tail(mx, 0.05, 0.5, 5.0)
ts = p.profile_sum(p.maxwellian(0.5, -2.0, 0.6), p.maxwellian(0.5, 2.0, 0.6))
# h: a fixed height scale per profile, the same in both trees
cases = {name: (prof, d.make_params(prof, c0=c0, rho0=1.0, kappa=kappa), h)
         for name, prof, c0, kappa, h in (("mx", mx, 1.0, 0.01, 0.5),
                                          ("bump", bump, 5.0, 1.5e-3, 0.25),
                                          ("ts", ts, 1.5, 0.02, 0.3))}
'''

D_GRID = "import json, numpy as np" + D_CASES + r'''
out, arrays = [], []
for name, (prof, prm, h) in cases.items():
    res = [*np.linspace(-7, 7, 57), 4.5, 4.49, 4.51, 5.5, 5.52, 4.8, 5.2, 0.0]
    for im in (0.4, 0.12, 0.01, 1e-4, 0.0, -1e-4, -0.01, -0.1, -0.45 * h, -0.9 * h, -0.3):
        for re in res:
            try:
                v = d.dispersion_value(prm, prof, complex(re, im))
                out.append([name, re, im, v.real, v.imag])
            except Exception as e:
                out.append([name, re, im, type(e).__name__])
        try:
            v = d.dispersion_value(prm, prof, np.array(res) + 1j * im)
            arrays.append([name, im, v.real.tolist(), v.imag.tolist()])
        except Exception as e:
            arrays.append([name, im, type(e).__name__])
print(json.dumps([out, arrays]))
'''

# D at (name, Re sigma, Im sigma) points from conftest's 30-digit transform
D_REFERENCE = "import json, sys" + D_CASES + r'''
sys.path.insert(0, sys.argv[2])
from conftest import mp_transform
out = []
for name, re, im in json.loads(sys.argv[1]):
    prof, prm, _ = cases[name]
    s = complex(re, im)
    c = mp_transform(prof, (1,), s) if prm.kappa else 0.0
    v = 1.0 - prm.c0**2 / s**2 - d.coupling_prefactor(prm, prof) * c
    out.append([v.real, v.imag])
print(json.dumps(out))
'''

PROFILES = r'''
import json, numpy as np
from spraywaves import profiles as p
mx, bump, add = p.maxwellian, p.make_bump_on_tail, p.profile_sum
# (name, single-level, profile, a fixed height scale of the section)
cases = [("maxwellian", True, mx(), 0.5),
         ("two-stream", True, add(mx(0.5, -2.0, 0.6), mx(0.5, 2.0, 0.6)), 0.3),
         ("bump", True, bump(mx(), 0.05, 0.5, 5.0), 0.25),
         ("narrow-base bump", True, bump(mx(width=0.2), 0.05, 5.0, 5.0), 0.1),
         ("bump on two-stream", False,
          bump(add(mx(0.5, -2.0, 0.6), mx(0.5, 2.0, 0.6)), 0.05, 0.5, 4.0), 0.25),
         ("bump on a bump", False, bump(bump(mx(), 0.05, 0.5, 5.0), 0.1, 0.3, 3.0), 0.15),
         ("sum holding a bump", False, add(bump(mx(0.6), 0.05, 0.5, 5.0),
                                           mx(0.4, -1.0, 0.7)), 0.25)]
x = np.linspace(-8.0, 8.0, 161)
out = []
for name, single, prof, h in cases:
    values = {}
    for label, func in (("f", p.eval_f), ("df", p.eval_df)):
        axis = func(prof, x)
        values[label] = [[v.real, v.imag] for v in axis.tolist()]
        for frac in (0.9, 0.3, -0.3, -0.9):
            for re in x.tolist():
                try:
                    v = func(prof, complex(re, frac * h))
                    values[label].append([v.real, v.imag])
                except Exception as e:
                    values[label].append(type(e).__name__)
    # each bump term as (mass, eta, c_star); a tree whose terms store coef, eps
    # and the base mass m0 has mass coef * eps * m0
    terms = [[b.mass if hasattr(b, "mass") else b.coef * b.eps * b.m0, b.eta, b.c_star]
             for b in prof.bumps]
    out.append([name, single, values, [p.moment(prof, 0), p.moment(prof, 2)], terms,
                list(p.support_bounds(prof)), p.resolution_scale(prof),
                sorted({x for b in prof.bumps for x in b.breakpoints})])
print(json.dumps(out))
'''

COUNTS = r'''
import json
import numpy as np
from spraywaves import dispersion as d, profiles as p, quadrature as q
from spraywaves.dispersion import SearchRegion as Box
mx = p.maxwellian()
bump = p.make_bump_on_tail(mx, 0.05, 0.5, 5.0)
ts = p.profile_sum(p.maxwellian(0.5, -2.0, 0.6), p.maxwellian(0.5, 2.0, 0.6))
sprays = [("mx", mx, 1.0, 0.01), ("bump", bump, 5.0, 1.5e-3), ("ts", ts, 1.5, 0.02)]
prm = {name: (prof, d.make_params(prof, c0=c0, rho0=1.0, kappa=kappa))
       for name, prof, c0, kappa in sprays}
# roots of the mx and bump dispersion functions, the same in both trees
mxr = 0.998583554016409 - 0.003842467703066575j
bumpr = 4.9731147755318865 + 0.06020144834611017j
boxes = [(f"{name} verdict box", name, d.verdict_region(params, prof))
         for name, (prof, params) in prm.items()]
boxes += [("mx root 7e-4 in from the left, 4e-4 up from the bottom", "mx",
           Box(mxr.real - 7e-4, 1.5, mxr.imag - 4e-4, 0.02)),
          ("mx root 6e-4 right of the box", "mx",
           Box(0.5, mxr.real - 6e-4, -0.05, 0.02)),
          ("bump root 3e-4 below the top edge", "bump",
           Box(4.5, 5.5, 0.01, bumpr.imag + 3e-4)),
          ("bump root 9e-4 above the box", "bump",
           Box(4.5, 5.5, 0.01, bumpr.imag - 9e-4)),
          ("mx box around the pole", "mx", Box(-2.0, 2.0, -0.05, 0.02)),
          ("ts box around the pole", "ts", Box(-1.0, 1.0, -0.1, 0.1)),
          ("mx box with an edge through 0", "mx", Box(0.0, 2.0, -0.05, 0.02)),
          ("mx box inside the pole square", "mx", Box(-5e-4, 5e-4, -2e-4, 5e-4))]
transform, samples, out = q.cauchy_transform, [0], []
def counted(profile, *args):
    # (profile, sigma, ...), or (profile, weight, sigma, ...) in a tree whose
    # kernel takes a polynomial weight
    samples[0] += np.size(args[1] if isinstance(args[0], tuple) else args[0])
    return transform(profile, *args)
q.cauchy_transform = counted
for label, name, box in boxes:
    prof, params = prm[name]
    samples[0] = 0
    try:
        result = d.count_roots(params, prof, box)
    except Exception as e:
        result = type(e).__name__
    out.append([label, result, samples[0]])
print(json.dumps(out))
'''

RATES = r'''
import json
from spraywaves import dispersion as d, profiles as p
mx = p.maxwellian()
bump = p.make_bump_on_tail(mx, 0.05, 0.5, 5.0)
ts = p.profile_sum(p.maxwellian(0.5, -2.0, 0.6), p.maxwellian(0.5, 2.0, 0.6))
out = []
for name, prof, c0, kappa in (("mx", mx, 1.0, 0.01), ("bump", bump, 5.0, 1.5e-3),
                              ("ts", ts, 1.5, 0.02)):
    prm = d.make_params(prof, c0=c0, rho0=1.0, kappa=kappa)
    try:
        c_star, gamma = d.thin_spray_expansion(prm, prof)
        out.append([name, c_star, gamma, d.damping_rate_at(prm, prof, -c_star),
                    d.spectral_verdict(prm, prof)])
    except Exception as e:
        out.append([name, type(e).__name__])
print(json.dumps(out))
'''

TRAJECTORIES = r'''
import math, pickle, sys
import numpy as np
from spraywaves import dispersion as d, modesim as m, profiles as p
mx = p.maxwellian()
bump = p.make_bump_on_tail(mx, 0.05, 0.5, 5.0)
bp = d.make_params(bump, c0=5.0, rho0=1.0, kappa=1.5e-3)
sigma = 4.9731147755318865 + 0.06020144834611017j   # the bump root, the same in both trees
runs = {}
for k, spans in ((4.0, 6.0), (9.0, 6.0), (6.0, 2.0)):
    cfg = m.default_sim_config(bp, bump, k, t_final=spans / (k * sigma.imag), nv=2048)
    runs[f"bump_k{k:g}"] = (bp, bump, m.init_eigenmode(bp, bump, sigma, k, cfg), cfg)
for kappa in (0.0, 0.01):
    prm = d.make_params(mx, c0=1.0, rho0=1.0, kappa=kappa)
    cfg = m.default_sim_config(prm, mx, 1.0, t_final=10 * 2 * math.pi, nv=2048)
    runs[f"acoustic_kappa{kappa:g}"] = (prm, mx, m.acoustic_state(prm, 1.0, cfg), cfg)
prm = d.make_params(mx, c0=1.0, rho0=1.0, kappa=0.01)
dt = m.cfl_limit(prm, m.default_sim_config(prm, mx, 1.0, t_final=1.0, nv=2048), 1.0)
cfg = m.default_sim_config(prm, mx, 1.0, t_final=4005 * dt, nv=2048, dt=dt)
rng = np.random.default_rng(5)
tau, u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
f = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
runs["cfl_limit_generic"] = (prm, mx, m.ModeState(k=1.0, tau_hat=tau, u_hat=u, f_hat=f),
                             cfg)
prm, prof, state, cfg = runs["bump_k4"]
runs["bump_k4_5steps"] = (prm, prof, state, m.default_sim_config(
    prm, prof, 4.0, t_final=5 * cfg.dt, nv=2048, dt=cfg.dt))
cfg = m.default_sim_config(bp, bump, 8.0, t_final=4.0, nv=2048)
seed = m.init_eigenmode(bp, bump, sigma, 8.0, cfg)
runs["overflow_step1"] = (bp, bump, seed.scaled(3e148), cfg)
for name, share in (("overflow_mid", 3.0), ("overflow_odd", 1.5)):
    runs[name] = (bp, bump, seed.scaled(1e150 / (share * np.max(np.abs(seed.f_hat)))),
                  cfg)
dt = cfg.t_final / math.ceil(cfg.t_final / cfg.dt)
runs["overflow_last_block"] = runs["overflow_mid"][:3] + (m.default_sim_config(
    bp, bump, 8.0, t_final=3045 * dt, nv=2048, dt=dt),)
res = {}
for name, (prm, prof, state, cfg) in runs.items():
    tr = m.integrate(prm, prof, state, cfg)
    try:
        rate = m.growth_rate(tr, cfg.fit_window).rate
    except Exception as e:
        rate = type(e).__name__
    res[name] = dict(times=tr.times, tau=tr.tau_hat, u=tr.u_hat, kin=tr.kinetic_l2,
                     f=tr.final_state.f_hat, overflow=tr.overflow, rate=rate,
                     final_time=tr.final_state.time, window=cfg.fit_window)
sys.stdout.buffer.write(pickle.dumps(res))
'''

SCALAR = r'''
import json
from spraywaves import profiles as p
from spraywaves.hyperbolic import scalar_law, scalar_root
mx = p.maxwellian()
bump = p.make_bump_on_tail(mx, 0.05, 0.5, 5.0)
ts = p.profile_sum(p.maxwellian(0.5, -2.0, 0.6), p.maxwellian(0.5, 2.0, 0.6))
out = []
for name, prof, lambdas in (("mx", mx, (0.5, 1.0, 2.0, 600.0)),
                            ("bump", bump, (4.6, 5.0, 5.3)), ("ts", ts, (-2.0, 0.5, 2.5))):
    for lambda0 in lambdas:
        for kappa in (0.0, 1e-3, -5e-3, 0.05):
            try:
                r = scalar_root(scalar_law(lambda0, kappa, prof))
                out.append([name, lambda0, kappa, r.sigma.real, r.sigma.imag, r.residual,
                            r.winding_evidence, r.newton_iters,
                            type(r.sigma).__name__, type(r.residual).__name__])
            except Exception as e:
                out.append([name, lambda0, kappa, type(e).__name__])
print(json.dumps(out))
'''


TRACKED = r'''
import json, sys
import numpy as np
from spraywaves import hyperbolic as h, profiles as p
def profile(d):
    if d["kind"] == "maxwellian":
        return p.maxwellian(d["mass"], d["drift"], d["width"])
    if d["kind"] == "bump_on_tail":
        return p.make_bump_on_tail(profile(d["base"]), d["eps"], d["eta"], d["c_star"])
    return p.profile_sum(*map(profile, d["parts"]))
out = []
for label, prof, system in json.loads(sys.argv[1]):
    s = h.SystemCoupling(np.array(system["A"]), np.array(system["grad_psi"]),
                         tuple(map(tuple, system["phi_coeffs"])), system["kappa"],
                         profile(prof))
    for v in h.stability_necessary_condition(s):
        try:
            z = h.track_secular_root(s, v.j, s.kappa)
            root = [z.real, z.imag]
        except Exception as e:
            root = type(e).__name__
        out.append([label, v.j, v.q_j, v.imag_rate, v.verdict, root])
print(json.dumps(out))
'''


def tracked_cases() -> list:
    """(label, profile, system) of every tracked-root case, as plain configs."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads
    unit = workloads.maxwellian()
    cases = [[f"seed {seed} {op['id'].split('.')[1]}", cfg["profile"], cfg["system"]]
             for seed in (1, 2, 3) for op in workloads.build("coupling", seed)
             for cfg in [op.get("config") or op["args"]] if "system" in cfg]
    cases += [["near-rounding", unit, {"A": [[1.0, 0.0], [0.0, 2.0]],
                                       "grad_psi": [1.0, 1e-3],
                                       "phi_coeffs": [[1.0, 1.0]], "kappa": 1e-4}],
              # the spray (c0 = rho0 = 1, kappa = 0.01) as symmetrized acoustics
              ["thick-spray embedding", unit, {
                  "A": [[0.0, -1.0], [-1.0, 0.0]], "grad_psi": [1.0, 0.0],
                  "phi_coeffs": [[0.0, 0.0], [-1.0 / 0.99, 0.0]], "kappa": 0.01}],
              ["bump", {"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5, "c_star": 5.0,
                        "base": unit}, {
                  "A": [[4.7, 0.1, 0.0], [0.1, 5.1, 0.1], [0.0, 0.1, 5.4]],
                  "grad_psi": [1.0, -0.5, 0.8],
                  "phi_coeffs": [[0.3, 0.2, -0.4], [0.1, -0.2, 0.3]], "kappa": 1e-3}]]
    # the tests' seeded system whose phi has a quadratic row
    rng = np.random.default_rng(25)
    raw = rng.normal(size=(3, 3))
    cases.append(["quadratic phi", unit, {
        "A": (0.75 * (raw + raw.T)).tolist(), "grad_psi": rng.normal(size=3).tolist(),
        "phi_coeffs": rng.normal(size=(3, 3)).tolist(), "kappa": 0.3}])
    unique = {}            # the first label of each system
    for case in cases:
        unique.setdefault(json.dumps(case[1:]), case)
    return list(unique.values())


# (command, scenario, config merged over the scenario): the 11 bundled pairs,
# the bump runs without a region, the Maxwellian one, the failing seed and
# three scalar laws off lambda0 = 1
RUNS = [(command, scenario, None) for command, scenario in (
    ("dispersion-scan", "maxwellian-stable"), ("roots", "maxwellian-stable"),
    ("roots", "bump-unstable"), ("thin-spray", "thin-spray-sweep"),
    ("thin-spray", "maxwellian-stable"), ("landau-compare", "maxwellian-stable"),
    ("simulate", "maxwellian-stable"), ("simulate", "bump-unstable"),
    ("illposed-demo", "bump-unstable"), ("stability-check", "scalar-coupling"),
    ("stability-check", "system-prop1"))] + [
    ("roots", "bump-unstable", {"region": None}),
    ("simulate", "bump-unstable", {"region": None}),
    ("roots", "maxwellian-stable", {"region": None}),
    ("thin-spray", "bump-unstable",
     {"profile": {"c_star": 4.6}, "params": {"kappa": 5e-4}})] + [
    ("stability-check", "scalar-coupling", {"scalar": scalar}) for scalar in (
        {"lambda0": 2.5, "kappa": 0.05}, {"lambda0": -3.0, "kappa": -5e-3},
        {"lambda0": 600.0, "kappa": 0.0})]
D_TOL = 1e-15          # |dD| / max(1, |D|)
RATE_TOL = 1e-9        # relative, for c*, gamma and gamma(-c*)
TRACK_TOL = 1e-14      # relative, for a tracked secular root and a scalar root
PROFILE_TOL = 1e-15    # relative, for f, f', moments and bump masses of nested profiles
TRAJ_TOL = 1e-12       # of OLD's largest value, for tau, u, kinetic L^2, final f and rate


class Mismatches(list):
    """What must match exactly and does not, one "section: detail" each."""

    def expect(self, ok: bool, section: str, detail) -> bool:
        """Record (and print) a mismatch of ``section`` unless ``ok``; returns ``ok``."""
        if not ok:
            self.append(f"{section}: {detail}")
            print(f"MISMATCH {section}: {detail}")
        return ok

    def guarded(self, section, *args) -> None:
        """Run one section; one that raises is recorded as a mismatch."""
        try:
            section(*args)
        except Exception as err:
            traceback.print_exc()
            self.expect(False, section.__name__, f"raised {type(err).__name__}: {err}")


def run(code: str, src: str, *args: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, check=True).stdout


def d_parity(old_src: str, new_src: str, found: Mismatches) -> None:
    (old, old_arrays), (new, new_arrays) = (json.loads(run(D_GRID, src))
                                            for src in (old_src, new_src))
    grid = {}                                    # (name, Im sigma) -> the Re sigma
    for name, re, im, *_ in old:
        grid.setdefault((name, im), []).append(re)
    moved = []                # (|dD| / max(1, |D|), name, Re sigma, Im sigma, OLD, NEW)
    worst = worst_edge = worst_array = 0.0
    for a, b in zip(old_arrays, new_arrays):
        if len(a) == 3 or len(b) == 3:
            found.expect(a == b, "D(sigma) arrays", (a, b))   # identical exceptions
            continue
        va, vb = (np.array(x[2]) + 1j * np.array(x[3]) for x in (a, b))
        errs = np.abs(va - vb) / np.maximum(1.0, np.abs(va))
        worst_array = max(worst_array, float(errs.max()))
        moved += [(err, a[0], re, a[1], u, v) for err, re, u, v in
                  zip(errs.tolist(), grid[a[0], a[1]], va.tolist(), vb.tolist())
                  if err > D_TOL]
    for a, b in zip(old, new):
        name, re, im = a[:3]
        if len(a) == 4 or len(b) == 4:
            found.expect(a == b, "D(sigma)", (a, b))          # identical exceptions
            continue
        va, vb = complex(*a[3:]), complex(*b[3:])
        err = abs(va - vb) / max(1.0, abs(va))
        if err > D_TOL:
            moved.append((err, name, re, im, va, vb))
        if name == "bump" and min(abs(re - 4.5), abs(re - 5.5)) <= 0.05 * 0.5:
            worst_edge = max(worst_edge, err)
        else:
            worst = max(worst, err)
    print(f"D(sigma): {len(old)} points; max |dD|/max(1,|D|) {worst:.1e} off the "
          f"bump edge margin, {worst_edge:.1e} in it; as {len(old_arrays)} arrays "
          f"{worst_array:.1e}; {len(moved)} evaluations moved beyond D_TOL")
    found.expect(moved_within_old_error(old_src, moved), "D(sigma)", "moved")


def moved_within_old_error(old_src: str, moved: list) -> bool:
    """Whether each move beyond D_TOL lies within 1e-3 of OLD's distance from
    the 30-digit D there, checked from the largest move down, eight points per
    fresh interpreter, up to the first that does not."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    moved = sorted(moved, key=lambda m: -m[0])
    for first in range(0, len(moved), 8):
        batch = moved[first:first + 8]
        points = json.dumps([m[1:4] for m in batch])
        for (err, name, re, im, va, vb), ref in zip(batch, json.loads(
                run(D_REFERENCE, old_src, points, tests))):
            off = abs(va - complex(*ref))
            if abs(vb - va) > max(D_TOL * max(1.0, abs(va)), 1e-3 * off):
                print(f"D(sigma) {name} at {complex(re, im)}: moved by "
                      f"{abs(vb - va):.1e} ({err:.1e} of max(1, |D|)), where OLD is "
                      f"{off:.1e} from the 30-digit D")
                return False
            print(f"D(sigma) {name} at {complex(re, im)}: moved by {abs(vb - va):.1e}, "
                  f"where OLD is {off:.1e} from the 30-digit D")
    return True


def profile_parity(old_src: str, new_src: str, found: Mismatches) -> None:
    old, new = (json.loads(run(PROFILES, src)) for src in (old_src, new_src))
    for a, b in zip(old, new):
        name, single = a[:2]
        if single:
            # bit for bit
            if found.expect(json.dumps(a) == json.dumps(b), "profiles", name):
                print(f"profile {name:18s} identical")
            continue
        # support, scale, breakpoints and each bump term's eta and c_star
        found.expect(a[5:] == b[5:] and [t[1:] for t in a[4]] == [t[1:] for t in b[4]],
                     "profiles", f"{name}: {a[4:]} -> {b[4:]}")
        sizes, refused = [], 0
        for label in ("f", "df"):
            pairs = list(zip(a[2][label], b[2][label]))
            refused += sum(isinstance(u, str) != isinstance(v, str) for u, v in pairs)
            both = [(complex(*u), complex(*v)) for u, v in pairs
                    if not isinstance(u, str) and not isinstance(v, str)]
            top = max(abs(u) for u, _ in both)
            sizes.append(max(abs(v - u) for u, v in both) / top)
        sizes += [abs(v - u) / abs(u) for u, v in zip(a[3], b[3])]
        sizes.append(max(abs(v[0] - u[0]) / abs(u[0]) for u, v in zip(a[4], b[4])))
        print(f"profile {name:18s} f {sizes[0]:.1e} df {sizes[1]:.1e} moment 0 "
              f"{sizes[2]:.1e} moment 2 {sizes[3]:.1e} bump mass {sizes[4]:.1e}; "
              f"{refused} points refused by one tree only")
        found.expect(max(sizes) <= PROFILE_TOL, "profiles", f"{name} moved")


def count_parity(old_src: str, new_src: str, found: Mismatches) -> None:
    old, new = (json.loads(run(COUNTS, src)) for src in (old_src, new_src))
    for (label, a, samples_a), (_, b, samples_b) in zip(old, new):
        found.expect(a == b, "counts", (label, a, b))  # identical counts or exceptions
        print(f"count {a!s:>2} on {label}: sigma samples {samples_a} -> {samples_b}")
    moved = [a[0] for a, b in zip(old, new) if a[2] != b[2]]
    print(f"counts: {len(old)} compared, sigma samples moved on {moved or 'none'}")


def rate_parity(old_src: str, new_src: str, found: Mismatches) -> None:
    old, new = (json.loads(run(RATES, src)) for src in (old_src, new_src))
    for a, b in zip(old, new):
        if len(a) == 2 or len(b) == 2:
            if found.expect(a == b, "rates", (a, b)):  # identical exceptions
                print(f"rates {a[0]:4s} {a[1]} on both")
            continue
        found.expect(a[4] == b[4], "rates", (a, b))    # identical verdicts
        moved = [abs(y - x) / abs(x) if x else abs(y) for x, y in zip(a[1:4], b[1:4])]
        found.expect(max(moved) <= RATE_TOL, "rates", (a, b))
        print(f"rates {a[0]:4s} c*, gamma, gamma(-c*) {a[1:4]}, verdict {a[4]}; "
              f"relative moves {', '.join(f'{m:.1e}' for m in moved)}")


def fit_rounding(traj: dict) -> float:
    """eps sum |s_i l_i| / sum s_i^2 / (hi - lo) over the fit window, l = log|tau|
    before centring and s the centred window time: the size of the rounding of
    the rate that `growth_rate` fits to ``traj``."""
    lo, hi = traj["window"]
    inside = (traj["times"] >= lo) & (traj["times"] <= hi)
    s = (traj["times"][inside] - lo) / (hi - lo)
    s -= s.mean()
    log_tau = np.log(np.abs(traj["tau"][inside]))
    return float(np.finfo(float).eps * np.abs(s * log_tau).sum() / (s @ s) / (hi - lo))


def rk4_acoustic_rate(dt: float) -> float:
    """log|P(i x)| / dt, x = k c0 dt = dt: the rate at which RK4 damps the
    acoustic mode at kappa = 0, from |P(i x)|^2 = 1 - x^6/72 + x^8/576."""
    return float(0.5 * np.log1p(-dt**6 / 72 + dt**8 / 576) / dt)


def trajectory_parity(old_src: str, new_src: str, found: Mismatches) -> None:
    old, new = (pickle.loads(run(TRAJECTORIES, src)) for src in (old_src, new_src))
    for name in old:
        a, b = old[name], new[name]
        for key in ("times", "final_time", "overflow"):
            found.expect(np.array_equal(a[key], b[key]), "trajectories", f"{name} {key}")
        if len(a["times"]) != len(b["times"]):
            continue
        moves = {key: float(np.max(np.abs(a[key] - b[key])) / np.max(np.abs(a[key])))
                 for key in ("tau", "u", "kin", "f")}
        for key in moves:
            move = np.max(np.abs(a[key] - b[key]))
            found.expect(move <= TRAJ_TOL * np.max(np.abs(a[key])), "trajectories",
                         f"{name} {key} moved {moves[key]:.1e} of OLD's largest")
        ra, rb = a["rate"], b["rate"]
        if isinstance(ra, float) and isinstance(rb, float):
            ok = abs(ra - rb) <= max(TRAJ_TOL * abs(ra), 1e-15, fit_rounding(a))
            drate = f"{ra:.6g}, rel {abs(ra - rb) / abs(ra):.1e}, abs {abs(ra - rb):.1e}"
            if name == "acoustic_kappa0":
                exact = rk4_acoustic_rate(a["times"][1])
                ok = ok or abs(rb - exact) <= abs(ra - exact)
                drate += (f", from exact {exact:.6g}: OLD {abs(ra - exact):.1e}, "
                          f"NEW {abs(rb - exact):.1e}")
        else:
            ok, drate = ra == rb, f"{ra} -> {rb}"
        found.expect(ok, "trajectories", f"{name} rate {ra!r} -> {rb!r}")
        print(f"{name:19s} steps {len(a['times']) - 1:6d} overflow {a['overflow']!s:5s} "
              + " ".join(f"{key} {move:.1e}" for key, move in moves.items())
              + f" rate {drate}")


def scalar_parity(old_src: str, new_src: str, found: Mismatches) -> None:
    old, new = (json.loads(run(SCALAR, src)) for src in (old_src, new_src))
    roots = exceptions = identical = 0
    worst, iters = 0.0, []
    for a, b in zip(old, new):
        if len(a) == 4 or len(b) == 4:
            exceptions += found.expect(a == b, "scalar laws", f"{a} -> {b}")
            continue
        # the case, winding evidence and Python types exactly (the Newton
        # count, index 7, apart); sigma within TRACK_TOL and residuals within 1e-12
        drift = abs(complex(*b[3:5]) - complex(*a[3:5])) / abs(complex(*a[3:5]))
        worst = max(worst, drift)
        roots += found.expect(a[:3] + a[6:7] + a[8:] == b[:3] + b[6:7] + b[8:]
                              and drift <= TRACK_TOL and max(a[5], b[5]) <= 1e-12,
                              "scalar laws", f"{a} -> {b}")
        identical += a[:7] == b[:7]
        if a[7] != b[7]:
            iters.append(f"{a[:3]} {a[7]} -> {b[7]}")
    print(f"scalar laws: {len(old)} cases, {roots} roots within TRACK_TOL ({identical} "
          f"bit for bit, max relative drift {worst:.1e}) and {exceptions} exceptions "
          f"identical")
    print(f"scalar laws: Newton counts differ on {len(iters)} roots (expected where "
          f"NEW counts only the polish of the tracked root):", *iters, sep="\n    ")


def tracked_parity(old_src: str, new_src: str, found: Mismatches) -> None:
    cases = json.dumps(tracked_cases())
    old, new = (json.loads(run(TRACKED, src, cases)) for src in (old_src, new_src))
    worst, where, identical = 0.0, "none", 0
    for a, b in zip(old, new):
        # q_j, imag_rate and verdict
        found.expect(a[:5] == b[:5], "tracked roots", (a, b))
        identical += a == b
        if isinstance(a[5], str) or isinstance(b[5], str):
            found.expect(a[5] == b[5], "tracked roots", (a, b))  # the same exception
            continue
        za, zb = complex(*a[5]), complex(*b[5])
        if abs(zb - za) / abs(za) > worst:
            worst, where = abs(zb - za) / abs(za), f"{a[0]} mode {a[1]}"
    print(f"tracked roots: {len(old)} modes on {len(json.loads(cases))} systems; "
          f"{identical} identical; max relative drift {worst:.1e} ({where})")
    found.expect(len(old) == len(new) and worst <= TRACK_TOL, "tracked roots", "moved")


def artifact_bytes(out: Path, name: str) -> bytes:
    data = (out / name).read_bytes()
    if name != "manifest.json":
        return data
    manifest = json.loads(data)
    del manifest["timestamp"]
    return json.dumps(manifest, sort_keys=True).encode()


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def numeric_drift(old: bytes, new: bytes) -> str:
    """How far the numbers of a text moved: the largest relative difference
    |new - old| / max(|old|, |new|) and the largest |new - old| / max(1, |old|),
    each with its line and values; "non-numeric difference" when the texts
    differ outside their numbers."""
    old_text, new_text = old.decode(), new.decode()
    if NUMBER.sub("#", old_text) != NUMBER.sub("#", new_text):
        return "non-numeric difference"
    worst = {"rel": (0.0, ""), "|d|/max(1,|old|)": (0.0, "")}
    for line, (a_line, b_line) in enumerate(zip(old_text.splitlines(),
                                                new_text.splitlines()), 1):
        for a, b in zip(NUMBER.findall(a_line), NUMBER.findall(b_line)):
            x, y = float(a), float(b)
            if x == y or (x != x and y != y):
                continue
            for key, size in (("rel", abs(y - x) / max(abs(x), abs(y))),
                              ("|d|/max(1,|old|)", abs(y - x) / max(1.0, abs(x)))):
                if not size <= worst[key][0]:
                    worst[key] = (size, f"line {line}: {a} -> {b}")
    return "; ".join(f"max {key} {size:.1e} ({where})"
                     for key, (size, where) in worst.items())


def artifact_parity(old_src: str, new_src: str) -> None:
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for run_id, (command, scenario, override) in enumerate(RUNS):
            outs = [Path(tmp, side, str(run_id)) for side in ("old", "new")]
            args = [sys.executable, "-m", "spraywaves.cli", command,
                    "--scenario", scenario, "--quiet"]
            if override is not None:
                config = Path(tmp, f"config{run_id}.json")
                config.write_text(json.dumps(override))
                args += ["--config", str(config)]
            codes = [subprocess.run(args + ["--out", str(out)],
                                    env={**os.environ, "PYTHONPATH": src},
                                    capture_output=True).returncode
                     for src, out in zip((old_src, new_src), outs)]
            label = f"{command:16s} {scenario:18s}"
            if override is not None:
                label += f" with {json.dumps(override)}"
            if codes != [0, 0]:
                differing += codes[0] != codes[1]
                print(f"{label}: exit {codes[0]} -> {codes[1]}")
                continue
            old_names, new_names = (sorted(p.name for p in out.iterdir()) for out in outs)
            diff = [] if old_names == new_names else ["file list"]
            drift = {}
            for name in sorted(set(old_names) & set(new_names)):
                old_bytes, new_bytes = (artifact_bytes(out, name) for out in outs)
                if old_bytes != new_bytes:
                    diff.append(name)
                    drift[name] = numeric_drift(old_bytes, new_bytes)
            differing += bool(diff)
            print(f"{label} {len(old_names)} files: "
                  f"{'differ: ' + ', '.join(diff) if diff else 'identical'}")
            for name, size in drift.items():
                print(f"    {name}: {size}")
    print(f"artifacts: {len(RUNS)} runs, {differing} differing")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    found = Mismatches()
    for section in (d_parity, profile_parity, count_parity, rate_parity,
                    trajectory_parity, scalar_parity, tracked_parity):
        found.guarded(section, *sys.argv[1:3], found)
    found.guarded(artifact_parity, *sys.argv[1:3])
    if found:
        print(f"{len(found)} mismatches:", *found, sep="\n  ")
        sys.exit(1)
