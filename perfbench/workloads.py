"""Seeded operation lists for the three benchmark workloads.

An operation is a plain dict:

- ``kind``: ``"cli"`` (run ``spraywaves.cli.main`` with a config file) or
  ``"lib"`` (call a library function with no CLI command behind it);
- ``command`` and ``config`` (cli) or ``func`` and ``args`` (lib);
- ``fault``: the name of the known program fault that makes this operation
  fail on every run, or None;
- ``expect``: whatever the output check needs beyond the inputs.

Only numpy is used here: the benchmark imports this module while it times
set-up, and the program receives nothing but the generated inputs. The same
seed gives the same operations; the count and kinds of operations do not
depend on the seed, so every pass is the same round of work.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("spectrum", "modes", "coupling")
NV = 2048
# Weakly coupled modes (kappa * pi * |q_j| below about 1.2e-6) trip the known
# secular-Newton fault on some seeds only, which would make the failure count
# depend on the seed; seeded systems keep every mode ten times clear of it and
# the fault is measured on a fixed system instead.
MIN_MODE_SHIFT = 1e-5
BUMP_TABLE = Path(__file__).with_name("bump_roots.json")

QUAD = {"L": 12.0, "nodes": 256, "axis_tolerance": 1e-12, "window": 1.0}


def maxwellian(mass=1.0, drift=0.0, width=1.0) -> dict:
    return {"kind": "maxwellian", "mass": mass, "drift": drift, "width": width}


def _f(x) -> float:
    # short decimal inputs keep configs readable and exactly reproducible
    return float(f"{float(x):.6g}")


def cli_op(name, command, config, fault=None, **expect) -> dict:
    return {"id": name, "kind": "cli", "command": command,
            "config": {"quadrature": QUAD, **config}, "fault": fault,
            "expect": expect}


def lib_op(name, func, args, fault=None, **expect) -> dict:
    return {"id": name, "kind": "lib", "func": func, "args": args, "fault": fault,
            "expect": expect}


def load_bump_table() -> dict:
    return json.loads(BUMP_TABLE.read_text(encoding="utf-8"))


def _bump_pick(rng, table) -> dict:
    return table["seeded"][int(rng.integers(len(table["seeded"])))]


def _tight_region(root, half=0.01) -> dict:
    re, im = root
    return {"re_min": re - half, "re_max": re + half,
            "im_min": im - half, "im_max": im + half}


# ---------------------------------------------------------------------------
# spectrum: root location and verdicts (quadrature + dispersion)
# ---------------------------------------------------------------------------

def spectrum_ops(rng, table) -> list[dict]:
    ops = []
    prof = maxwellian(drift=_f(rng.uniform(-0.3, 0.3)), width=_f(rng.uniform(0.9, 1.1)))
    c0 = _f(rng.uniform(0.9, 1.3))
    span = c0 + 0.8 + abs(prof["drift"])
    ops.append(cli_op("roots.maxwellian", "roots", {
        "profile": prof,
        "params": {"c0": c0, "rho0": 1.0, "kappa": _f(rng.uniform(0.005, 0.02))},
        "region": {"re_min": -span, "re_max": span, "im_min": -0.05, "im_max": 0.02}}))
    width = _f(rng.uniform(0.45, 0.55))
    drift = _f(rng.uniform(1.3, 1.7))
    two_stream = {"kind": "sum", "parts": [maxwellian(0.5, -drift, width),
                                           maxwellian(0.5, drift, width)]}
    ts_params = {"c0": _f(rng.uniform(0.9, 1.1)), "rho0": 1.0,
                 "kappa": _f(rng.uniform(0.03, 0.06))}
    ops.append(cli_op("roots.two_stream", "roots", {
        "profile": two_stream, "params": ts_params,
        "region": {"re_min": 0.3, "re_max": 2.0, "im_min": -0.1, "im_max": 0.1}}))
    entry = _bump_pick(rng, table)
    c0 = entry["params"]["c0"]
    ops.append(cli_op("roots.bump", "roots", {
        "profile": entry["profile"], "params": entry["params"],
        "region": {"re_min": c0 - 0.5, "re_max": c0 + 0.5, "im_min": 0.02,
                   "im_max": 0.1}},
        roots=entry["roots"], err=entry["err"]))
    k0 = _f(rng.uniform(0.8e-3, 1.2e-3))
    ops.append(cli_op("thin-spray.sweep", "thin-spray", {
        "profile": maxwellian(width=_f(rng.uniform(0.9, 1.1))),
        "params": {"c0": _f(rng.uniform(0.9, 1.2)), "rho0": 1.0, "kappa": k0},
        "sweep": {"kappa_values": [2.0 * k0, k0]}}))
    ops.append(cli_op("dispersion-scan.two_stream", "dispersion-scan", {
        "profile": two_stream, "params": ts_params,
        "scan": {"re": [-3.0, 3.0, 40], "im": [-0.16, 0.16, 9]}}))
    c0 = _f(rng.uniform(0.9, 1.3))
    k1 = _f(rng.uniform(0.8, 1.2))
    ops.append(cli_op("landau-compare.maxwellian", "landau-compare", {
        "profile": maxwellian(drift=_f(rng.uniform(-0.3, 0.3)),
                              width=_f(rng.uniform(0.9, 1.1))),
        "params": {"c0": c0, "rho0": 1.0, "kappa": _f(rng.uniform(0.005, 0.02))},
        "landau": {"k_values": [k1, 2.0 * k1],
                   "im_sigma": _f(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.1)),
                   "re": [-3.0 * c0, 3.0 * c0, 40]}}))
    ops.append(lib_op("verdict.maxwellian", "spectral_verdict", {
        "profile": maxwellian(drift=_f(rng.uniform(-0.3, 0.3)),
                              width=_f(rng.uniform(0.9, 1.1))),
        "params": {"c0": _f(rng.uniform(0.9, 1.3)), "rho0": 1.0,
                   "kappa": _f(rng.uniform(0.005, 0.02))}}))
    for name in ("verdict_stable", "verdict_neutral"):
        fixed = table["fixed"][name]
        ops.append(lib_op(f"verdict.bump_{name.split('_')[1]}", "spectral_verdict",
                          {"profile": fixed["profile"], "params": fixed["params"]},
                          fault="verdict-misses-strong-instability",
                          roots=fixed["roots"]))
    return ops


# ---------------------------------------------------------------------------
# modes: RK4 single-mode runs at nv = 2048 (modesim + cli)
# ---------------------------------------------------------------------------

# RK4 steps per eigenmode run: growth_spans is scaled with the table growth
# rate so that every seed integrates about the same number of steps
EIGENMODE_STEPS = 8000
ACOUSTIC_STEPS = 6000


def _acoustic_op(name, rng, kappa):
    prof = maxwellian(width=_f(rng.uniform(0.9, 1.1)))
    c0 = _f(rng.uniform(0.8, 1.5))
    k = _f(rng.uniform(0.5, 2.0))
    vmax = 10.0 * prof["width"]
    # steps = periods * 2 pi (vmax + c0) / (0.09 c0) under the CFL rule
    periods = _f(ACOUSTIC_STEPS * 0.09 * c0 / (2.0 * math.pi * (vmax + c0)))
    return cli_op(name, "simulate", {
        "profile": prof, "params": {"c0": c0, "rho0": 1.0, "kappa": kappa},
        "sim": {"nv": NV, "k": k, "periods": periods,
                "init": {"type": "acoustic"}}})


def modes_ops(rng, table) -> list[dict]:
    ops = []
    for i in range(3):
        entry = _bump_pick(rng, table)
        root = entry["roots"][0]
        vmax = 10.0
        spans = _f(EIGENMODE_STEPS * 0.09 * root[1] / (vmax + entry["params"]["c0"]))
        ops.append(cli_op(f"simulate.eigenmode_{i}", "simulate", {
            "profile": entry["profile"], "params": entry["params"],
            "region": _tight_region(root),
            "sim": {"nv": NV, "k": _f(rng.uniform(4.0, 12.0)), "growth_spans": spans,
                    "init": {"type": "eigenmode"}}},
            roots=entry["roots"], err=entry["err"]))
    ops.append(_acoustic_op("simulate.acoustic_free", rng, 0.0))
    ops.append(_acoustic_op("simulate.acoustic_damped", rng,
                            _f(rng.uniform(0.005, 0.02))))
    entry = _bump_pick(rng, table)
    k0 = _f(rng.uniform(6.0, 10.0))
    ops.append(cli_op("illposed-demo.bump", "illposed-demo", {
        "profile": entry["profile"], "params": entry["params"],
        "region": _tight_region(entry["roots"][0]),
        "illposed": {"s": 1.0, "n_exponent": 2.0, "k_list": [k0, 2.0 * k0, 4.0 * k0],
                     "nv": NV}},
        roots=entry["roots"], err=entry["err"]))
    return ops


# ---------------------------------------------------------------------------
# coupling: hyperbolic systems and scalar laws over Maxwellians
# ---------------------------------------------------------------------------

def _df(v, width, drift):
    z = (v - drift) / width
    return -z / width * np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * width)


def _system(rng, n, profile) -> dict:
    """Seeded symmetric system whose every mode clears the weak-coupling fault."""
    kappa = _f(rng.uniform(5e-4, 1e-3))
    while True:
        m = rng.normal(size=(n, n))
        a = np.round(0.75 * (m + m.T) / math.sqrt(n), 6)
        psi = np.round(rng.normal(size=n), 6)
        phi = np.round(rng.normal(size=(2, n)), 6)
        vals, vecs = np.linalg.eigh(a)
        if n > 1 and np.min(np.diff(vals)) < 0.05:
            continue
        q = [(psi @ vecs[:, j]) * ((phi[0] + vals[j] * phi[1]) @ vecs[:, j])
             * _df(vals[j], profile["width"], profile["drift"]) for j in range(n)]
        if min(kappa * math.pi * abs(x) for x in q) >= MIN_MODE_SHIFT:
            return {"A": a.tolist(), "grad_psi": psi.tolist(),
                    "phi_coeffs": phi.tolist(), "kappa": kappa}


def coupling_ops(rng, table) -> list[dict]:
    ops = []
    for n in (3, 7):
        prof = maxwellian(drift=_f(rng.uniform(-0.2, 0.2)), width=_f(rng.uniform(0.8, 1.2)))
        ops.append(cli_op(f"stability-check.system_{n}", "stability-check",
                          {"profile": prof, "system": _system(rng, n, prof)}))
    for n in (2, 4, 5):
        prof = maxwellian(drift=_f(rng.uniform(-0.2, 0.2)), width=_f(rng.uniform(0.8, 1.2)))
        system = _system(rng, n, prof)
        for j in range(n):
            ops.append(lib_op(f"track.system_{n}.mode_{j}", "track_secular_root",
                              {"profile": prof, "system": system, "j": j}))
    for i in range(2):
        sign = 1.0 if i == 0 else -1.0
        ops.append(cli_op(f"stability-check.scalar_{i}", "stability-check", {
            "profile": maxwellian(width=_f(rng.uniform(0.8, 1.2))),
            "scalar": {"lambda0": _f(rng.uniform(0.6, 1.6)),
                       "kappa": _f(sign * rng.uniform(5e-4, 2e-3))}}))
    weak = {"A": [[1.0, 0.0], [0.0, 2.0]], "grad_psi": [1.0, 0.03],
            "phi_coeffs": [[1.0, 1.0]], "kappa": 1e-4}
    prof = maxwellian()
    ops.append(cli_op("stability-check.weak_mode", "stability-check",
                      {"profile": prof, "system": weak},
                      fault="secular-newton-weak-mode"))
    for j in range(2):
        ops.append(lib_op(f"track.weak.mode_{j}", "track_secular_root",
                          {"profile": prof, "system": weak, "j": j},
                          fault="secular-newton-weak-mode" if j == 1 else None))
    return ops


def build(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # negative seeds map to their two's complement; seeds in [0, 2**64) are kept
    rng = np.random.default_rng([WORKLOADS.index(workload), seed % 2**64])
    table = load_bump_table()
    return {"spectrum": spectrum_ops, "modes": modes_ops,
            "coupling": coupling_ops}[workload](rng, table)
