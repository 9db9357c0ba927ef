"""Numerical parity of two source trees of spraywaves.

    python3 tools/parity.py OLD/src NEW/src

Runs the same fixed inputs in a fresh interpreter per tree and prints how far
the NEW results lie from the OLD ones:

- D(sigma): three profiles (Maxwellian, bump-on-tail, two-stream) on a grid
  that crosses every branch, including the bump edges; exceptions must match
  by type. The bump edge margin (within 0.05 eta of c* +- eta) is reported apart.
  The grid is evaluated point by point and again as one array per profile and
  height, so the array path (blocked bump sums, far-field series) is compared
  with the old array path too.
- Trajectories of modesim.integrate: a bump eigenmode at k = 4 and k = 9,
  Maxwellian acoustic runs at kappa = 0 and 0.01, and two overflow runs (the
  first step, and a seed whose max|f| starts at 1e150 / 3). Times, snapshot
  times and the overflow flag must match exactly; tau, u, kinetic L^2 and the
  final f are reported as max |new - old| / max |old|, the fitted rate as a
  relative difference.
- Artifacts of the 11 bundled command x scenario pairs, each run by the CLI
  in a fresh interpreter: the file lists, each artifact's bytes and
  manifest.json without its timestamp must be the same.

An assertion fails when something that must match exactly does not.
"""

import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

D_GRID = r'''
import json, numpy as np
from spraywaves import dispersion as d, profiles as p
mx = p.maxwellian()
bump = p.make_bump_on_tail(mx, 0.05, 0.5, 5.0)
ts = p.profile_sum(p.maxwellian(0.5, -2.0, 0.6), p.maxwellian(0.5, 2.0, 0.6))
out, arrays = [], []
for name, prof, c0, kappa in (("mx", mx, 1.0, 0.01), ("bump", bump, 5.0, 1.5e-3),
                              ("ts", ts, 1.5, 0.02)):
    prm = d.make_params(prof, c0=c0, rho0=1.0, kappa=kappa)
    h = prof.strip_halfwidth
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

TRAJECTORIES = r'''
import math, pickle, sys
import numpy as np
from spraywaves import dispersion as d, modesim as m, profiles as p
mx = p.maxwellian()
bump = p.make_bump_on_tail(mx, 0.05, 0.5, 5.0)
bp = d.make_params(bump, c0=5.0, rho0=1.0, kappa=1.5e-3)
sigma = d.find_roots(bp, bump, d.SearchRegion(4.0, 6.0, 1e-3, 0.12), tol=1e-11)[0].sigma
runs = {}
for k in (4.0, 9.0):
    cfg = m.default_sim_config(bp, bump, k, t_final=6.0 / (k * sigma.imag), nv=2048)
    runs[f"bump_k{k:g}"] = (bp, bump, m.init_eigenmode(bp, bump, sigma, k, cfg), cfg)
for kappa in (0.0, 0.01):
    prm = d.make_params(mx, c0=1.0, rho0=1.0, kappa=kappa)
    cfg = m.default_sim_config(prm, mx, 1.0, t_final=10 * 2 * math.pi, nv=2048)
    runs[f"acoustic_kappa{kappa:g}"] = (prm, mx, m.acoustic_state(prm, 1.0, cfg), cfg)
cfg = m.default_sim_config(bp, bump, 8.0, t_final=4.0, nv=2048)
seed = m.init_eigenmode(bp, bump, sigma, 8.0, cfg)
runs["overflow_step1"] = (bp, bump, seed.scaled(3e148), cfg)
runs["overflow_mid"] = (bp, bump, seed.scaled(1e150 / (3 * np.max(np.abs(seed.f_hat)))),
                        cfg)
res = {}
for name, (prm, prof, state, cfg) in runs.items():
    tr = m.integrate(prm, prof, state, cfg)
    try:
        rate = m.growth_rate(tr, cfg.fit_window).rate
    except Exception as e:
        rate = type(e).__name__
    res[name] = dict(times=tr.times, tau=tr.tau_hat, u=tr.u_hat, kin=tr.kinetic_l2,
                     f=tr.final_state.f_hat, overflow=tr.overflow, rate=rate,
                     snaps=[s.time for s in tr.snapshots])
sys.stdout.buffer.write(pickle.dumps(res))
'''


PAIRS = [("dispersion-scan", "maxwellian-stable"), ("roots", "maxwellian-stable"),
         ("roots", "bump-unstable"), ("thin-spray", "thin-spray-sweep"),
         ("thin-spray", "maxwellian-stable"), ("landau-compare", "maxwellian-stable"),
         ("simulate", "maxwellian-stable"), ("simulate", "bump-unstable"),
         ("illposed-demo", "bump-unstable"), ("stability-check", "scalar-coupling"),
         ("stability-check", "system-prop1")]


def run(code: str, src: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True).stdout


def d_parity(old_src: str, new_src: str) -> None:
    (old, old_arrays), (new, new_arrays) = (json.loads(run(D_GRID, src))
                                            for src in (old_src, new_src))
    worst = worst_edge = worst_array = 0.0
    for a, b in zip(old_arrays, new_arrays):
        if len(a) == 3 or len(b) == 3:
            assert a == b, (a, b)                 # identical exceptions
            continue
        va, vb = (np.array(x[2]) + 1j * np.array(x[3]) for x in (a, b))
        worst_array = max(worst_array,
                          float(np.max(np.abs(va - vb) / np.maximum(1.0, np.abs(va)))))
    for a, b in zip(old, new):
        name, re, im = a[:3]
        if len(a) == 4 or len(b) == 4:
            assert a == b, (a, b)                 # identical exceptions
            continue
        va, vb = complex(*a[3:]), complex(*b[3:])
        err = abs(va - vb) / max(1.0, abs(va))
        if name == "bump" and min(abs(re - 4.5), abs(re - 5.5)) <= 0.05 * 0.5:
            worst_edge = max(worst_edge, err)
        else:
            worst = max(worst, err)
    print(f"D(sigma): {len(old)} points; max |dD|/max(1,|D|) {worst:.1e} off the "
          f"bump edge margin, {worst_edge:.1e} in it; as {len(old_arrays)} arrays "
          f"{worst_array:.1e}")


def trajectory_parity(old_src: str, new_src: str) -> None:
    old, new = (pickle.loads(run(TRAJECTORIES, src)) for src in (old_src, new_src))

    def rel(a, b):
        return float(np.max(np.abs(a - b)) / np.max(np.abs(a)))

    for name in old:
        a, b = old[name], new[name]
        assert np.array_equal(a["times"], b["times"]) and a["snaps"] == b["snaps"], name
        assert a["overflow"] == b["overflow"], name
        ra, rb = a["rate"], b["rate"]
        drate = (f"{ra:.6g}, rel {abs(ra - rb) / abs(ra):.1e}, abs {abs(ra - rb):.1e}"
                 if isinstance(ra, float) else f"{ra} on both: {ra == rb}")
        print(f"{name:18s} steps {len(a['times']) - 1:6d} overflow {a['overflow']!s:5s} "
              f"tau {rel(a['tau'], b['tau']):.1e} u {rel(a['u'], b['u']):.1e} "
              f"kin {rel(a['kin'], b['kin']):.1e} f {rel(a['f'], b['f']):.1e} "
              f"rate {drate}")


def artifact_bytes(out: Path, name: str) -> bytes:
    data = (out / name).read_bytes()
    if name != "manifest.json":
        return data
    manifest = json.loads(data)
    del manifest["timestamp"]
    return json.dumps(manifest, sort_keys=True).encode()


def artifact_parity(old_src: str, new_src: str) -> None:
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for command, scenario in PAIRS:
            outs = [Path(tmp, side, command, scenario) for side in ("old", "new")]
            for src, out in zip((old_src, new_src), outs):
                subprocess.run([sys.executable, "-m", "spraywaves.cli", command,
                                "--scenario", scenario, "--out", str(out), "--quiet"],
                               env={**os.environ, "PYTHONPATH": src}, check=True)
            old_names, new_names = (sorted(p.name for p in out.iterdir()) for out in outs)
            diff = [] if old_names == new_names else ["file list"]
            diff += [name for name in sorted(set(old_names) & set(new_names))
                     if artifact_bytes(outs[0], name) != artifact_bytes(outs[1], name)]
            differing += bool(diff)
            print(f"{command:16s} {scenario:18s} {len(old_names)} files: "
                  f"{'differ: ' + ', '.join(diff) if diff else 'identical'}")
    print(f"artifacts: {len(PAIRS)} command x scenario pairs, {differing} differing")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    d_parity(*sys.argv[1:3])
    trajectory_parity(*sys.argv[1:3])
    artifact_parity(*sys.argv[1:3])
