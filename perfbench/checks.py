"""Output checks: each operation's result against `oracles`, never against spraywaves.

`check(op, value, out_dir)` returns a list of problems (empty when the output
is right). `value` is the library return value for library operations; CLI
operations are checked from the artifacts in `out_dir`.

Tolerances sit two or more orders of magnitude above the worst deviation
seen on working code (noted per constant), so a loss of accuracy shows
without flagging float noise.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

TOL_D = 1e-10            # |D_program - D_closed| / max(1, |D|); seen 1e-15
TOL_ROOT = 1e-8          # closed-form or quadrature root vs program root; seen 9e-12
TOL_TRACK = 1e-9         # tracked secular root vs closed form; seen 3e-16
TOL_THIN = 1e-7          # c_star, gamma vs closed form (relative); seen 1.1e-10
TOL_RATE = 0.02          # fitted growth/decay vs k Im sigma (relative)
TOL_DRIFT = 1e-6         # kappa = 0 acoustic energy drift (relative)
TOL_Q = 1e-8             # first-order mode rates vs eigh + closed form; seen 2e-14
THIN_RATIO = (3.5, 4.5)  # thin-spray error ratio for halved kappa
DOUBLING = (1.9, 2.1)    # ill-posedness rate ratio for doubled k


def _branch(im: float) -> str:
    return "upper" if im > 1e-12 else "lower" if im < -1e-12 else "real_axis"


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _table_tol(op) -> float:
    return max(1e-5, 10.0 * op["expect"]["err"])


def _match_table(found: list[complex], op, problems: list[str], what: str) -> None:
    """Bump roots: count and place against the mode matrix, then pinned tightly
    by Newton on the quadrature D(sigma) from each reported root."""
    table = [complex(*r) for r in op["expect"]["roots"]]
    if len(found) != len(table):
        problems.append(f"{what}: {len(found)} roots, mode matrix has {len(table)}")
        return
    tol = _table_tol(op)
    params, prof = op["config"]["params"], op["config"]["profile"]
    for z, ref in zip(sorted(found, key=lambda s: s.real), table):
        if not oracles.close(z, ref, tol):
            problems.append(f"{what}: root {z:.8g} vs mode matrix {ref:.8g} (tol {tol:.1e})")
            continue
        polished = oracles.bump_dispersion_root(params, prof, z)
        if not oracles.close(z, polished, TOL_ROOT):
            problems.append(f"{what}: root {z:.12g} vs quadrature D root {polished:.12g}")


def check_roots(op, out: Path) -> list[str]:
    cfg, problems = op["config"], []
    roots = _json(out / "roots.json")
    found = [complex(r["re_sigma"], r["im_sigma"]) for r in roots]
    for r, z in zip(roots, found):
        if r["branch"] != _branch(z.imag):
            problems.append(f"root {z}: branch {r['branch']!r}")
        if r["interpretation"] != ("decay_rate" if z.imag < -1e-12 else "eigenvalue"):
            problems.append(f"root {z}: interpretation {r['interpretation']!r}")
    if cfg["profile"]["kind"] == "bump_on_tail":
        _match_table(found, op, problems, "roots")
        return problems
    reg, params, prof = cfg["region"], cfg["params"], cfg["profile"]
    for z in found:
        ref = oracles.dispersion_root(params, prof, z)
        if not oracles.close(z, ref, TOL_ROOT):
            problems.append(f"root {z:.12g} vs closed form {ref:.12g}")
    count = oracles.winding_count(lambda s: oracles.dispersion(params, prof, s),
                                  reg["re_min"], reg["re_max"], reg["im_min"],
                                  reg["im_max"])
    if reg["re_min"] < 0 < reg["re_max"] and reg["im_min"] < 0 < reg["im_max"]:
        count += 2                       # the double pole of c0^2/sigma^2
    if count != len(found):
        problems.append(f"{len(found)} roots reported, closed form has {count}")
    return problems


def check_thin_spray(op, out: Path) -> list[str]:
    cfg, problems = op["config"], []
    prof = cfg["profile"]
    sweep = _json(out / "thin_spray.json")["sweep"]
    errors = []
    for entry in sweep:
        params = {**cfg["params"], "kappa": entry["kappa"]}
        c_star, gamma = oracles.thin_spray(params, prof)
        if abs(entry["c_star"] - c_star) > TOL_THIN * abs(c_star) or \
                abs(entry["gamma"] - gamma) > TOL_THIN * abs(gamma):
            problems.append(f"kappa {entry['kappa']}: (c*, gamma) = "
                            f"({entry['c_star']}, {entry['gamma']}) vs ({c_star}, {gamma})")
        rc = entry["root_check"]
        z = complex(rc["re_sigma"], rc["im_sigma"])
        ref = oracles.dispersion_root(params, prof, complex(c_star, gamma))
        if not oracles.close(z, ref, TOL_ROOT):
            problems.append(f"kappa {entry['kappa']}: root {z} vs closed form {ref}")
        errors.append(abs(ref - complex(c_star, gamma)))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    if not all(THIN_RATIO[0] <= r <= THIN_RATIO[1] for r in ratios):
        problems.append(f"thin-spray error ratios {ratios} outside {THIN_RATIO}")
    for name, sign in (("plus", 1.0), ("minus", -1.0)):
        rows = np.loadtxt(out / f"root_locus_{name}.dat", ndmin=2)
        for kappa, re, im in rows:
            params = {**cfg["params"], "kappa": kappa}
            ref = oracles.dispersion_root(params, prof, complex(re, im))
            if abs(ref - complex(re, im)) > TOL_ROOT or sign * re <= 0:
                problems.append(f"locus {name} kappa {kappa}: {re}+{im}j vs {ref}")
    return problems


def check_scan(op, out: Path) -> list[str]:
    cfg, problems = op["config"], []
    rows = _read_csv(out / "dispersion_scan.csv")
    scan = cfg["scan"]
    if len(rows) != scan["re"][2] * scan["im"][2]:
        problems.append(f"{len(rows)} scan rows")
    sig = np.array([complex(float(r["re_sigma"]), float(r["im_sigma"])) for r in rows])
    val = np.array([complex(float(r["re_D"]), float(r["im_D"])) for r in rows])
    ref = oracles.dispersion(cfg["params"], cfg["profile"], sig)
    dev = np.abs(val - ref) / np.maximum(1.0, np.abs(ref))
    if not np.all(dev <= TOL_D):
        problems.append(f"scan: max deviation {np.nanmax(dev):.3g} from closed form")
    if any(r["branch"] != _branch(s.imag) for r, s in zip(rows, sig)):
        problems.append("scan: wrong branch labels")
    return problems


def check_landau(op, out: Path) -> list[str]:
    cfg, problems = op["config"], []
    rows = _read_csv(out / "landau_compare.csv")
    k1, k2 = cfg["landau"]["k_values"]
    worst = 0.0
    for r in rows:
        s = complex(float(r["re_sigma"]), float(r["im_sigma"]))
        got = [complex(float(r["re_D"]), float(r["im_D"])),
               complex(float(r[f"re_DL_k{k1:g}"]), float(r[f"im_DL_k{k1:g}"])),
               complex(float(r[f"re_DL_k{k2:g}"]), float(r[f"im_DL_k{k2:g}"]))]
        ref = [complex(oracles.dispersion(cfg["params"], cfg["profile"], s)),
               oracles.landau(cfg["profile"], k1, s * k1),
               oracles.landau(cfg["profile"], k2, s * k2)]
        worst = max([worst] + [abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, ref)])
    if len(rows) != cfg["landau"]["re"][2] or worst > TOL_D:
        problems.append(f"landau: {len(rows)} rows, max deviation {worst:.3g}")
    return problems


def check_simulate(op, out: Path) -> list[str]:
    cfg, problems = op["config"], []
    params, prof = cfg["params"], cfg["profile"]
    summary = _json(out / "manifest.json")["summary"]
    if summary["overflow"]:
        problems.append("simulate overflowed")
    if cfg["sim"]["init"]["type"] == "eigenmode":
        sigma = complex(*summary["seed_sigma"])
        _match_table([sigma], op, problems, "seed root")
    elif params["kappa"] == 0.0:
        rows = np.loadtxt(out / "simulate.csv", delimiter=",", skiprows=1, ndmin=2)
        energy = rows[:, 4] ** 2 + (params["rho0"] * params["c0"] * rows[:, 3]) ** 2
        drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
        if drift > TOL_DRIFT:
            problems.append(f"kappa = 0 energy drift {drift:.3g}")
        return problems
    else:
        sigma = oracles.dispersion_root(params, prof,
                                        complex(*oracles.thin_spray(params, prof)))
    target = cfg["sim"]["k"] * sigma.imag
    rate = summary.get("fitted_rate")
    if rate is None or abs(rate - target) > TOL_RATE * abs(target):
        problems.append(f"fitted rate {rate} vs k Im sigma {target:.6g}")
    return problems


def check_illposed(op, out: Path) -> list[str]:
    cfg, problems = op["config"], []
    rows = _read_csv(out / "illposed_demo.csv")
    summary = _json(out / "illposed_summary.json")
    ks = [float(r["k"]) for r in rows]
    rates = [float(r["fitted_rate"]) for r in rows]
    inits = [float(r["init_hs_norm"]) for r in rows]
    finals = [float(r["final_l2_norm"]) for r in rows]
    _match_table([complex(*summary["sigma"])], op, problems, "seed root")
    if ks != cfg["illposed"]["k_list"]:
        problems.append(f"k column {ks}")
    doubling = [b / a for a, b in zip(rates, rates[1:])]
    if not all(DOUBLING[0] <= d <= DOUBLING[1] for d in doubling):
        problems.append(f"rate doubling {doubling} outside {DOUBLING}")
    if not all(b < a for a, b in zip(inits, inits[1:])):
        problems.append(f"initial H^s column not decreasing: {inits}")
    if not (summary["theta0"] > 0.0 and summary["theta0"] == min(finals)):
        problems.append(f"theta0 {summary['theta0']} vs final norms {finals}")
    return problems


def _check_tracked(system, prof, j, z: complex, what: str) -> list[str]:
    """z must be the closed-form secular root continued from eigenvalue j."""
    mode = oracles.mode_rates(system, prof)[j]
    ref = oracles.secular_root(system, prof, z)
    problems = []
    if not oracles.close(z, ref, TOL_TRACK):
        problems.append(f"{what}: tracked {z!r} vs closed-form secular root {ref!r}")
    # first-order continuation: the root sits within a few shifts of sigma_j
    shift = oracles.first_order_shift(system, prof, j)
    if abs(z - mode["sigma_j"]) > 3.0 * abs(system["kappa"] * shift):
        problems.append(f"{what}: tracked {z!r} is not the continuation of "
                        f"sigma_j = {mode['sigma_j']}")
    return problems


def check_stability(op, out: Path) -> list[str]:
    cfg, problems = op["config"], []
    payload = _json(out / "stability_check.json")
    prof = cfg["profile"]
    if "system" in cfg:
        system = cfg["system"]
    else:
        sc = cfg["scalar"]
        system = {"A": [[sc["lambda0"]]], "grad_psi": [1.0],
                  "phi_coeffs": [[0.0], [1.0]], "kappa": sc["kappa"]}
        root = payload["scalar"]["root"]
        z = complex(root["re_omega"], root["im_omega"])
        ref = oracles.scalar_root(sc["lambda0"], sc["kappa"], prof)
        lead = -math.pi * sc["kappa"] * sc["lambda0"] * float(
            oracles.df_real(prof, sc["lambda0"]))
        if not oracles.close(z, ref, TOL_ROOT):
            problems.append(f"scalar root {z!r} vs closed form {ref!r}")
        if abs(payload["scalar"]["leading_imag"] - lead) > TOL_Q * abs(lead):
            problems.append(f"leading Im {payload['scalar']['leading_imag']} vs {lead}")
        if root["winding_evidence"] != 1:
            problems.append(f"scalar winding evidence {root['winding_evidence']}")
    modes = oracles.mode_rates(system, prof)
    if len(payload["modes"]) != len(modes):
        problems.append(f"{len(payload['modes'])} modes reported, A has {len(modes)}")
        return problems
    unstable = False
    for entry, ref in zip(payload["modes"], modes):
        j = entry["j"]
        if abs(entry["sigma_j"] - ref["sigma_j"]) > 1e-10 * max(1.0, abs(ref["sigma_j"])):
            problems.append(f"mode {j}: sigma_j {entry['sigma_j']} vs eigh {ref['sigma_j']}")
        for key in ("q_j", "imag_rate"):
            if abs(entry[key] - ref[key]) > TOL_Q * abs(ref[key]) + 1e-15:
                problems.append(f"mode {j}: {key} {entry[key]} vs closed form {ref[key]}")
        want = "unstable_mode" if ref["q_j"] < -1e-12 else "stable_mode"
        if entry["verdict"] != want:
            problems.append(f"mode {j}: verdict {entry['verdict']!r}, expected {want!r}")
        unstable |= want == "unstable_mode"
        z = complex(*entry["tracked_sigma"])
        problems += _check_tracked(system, prof, j, z, f"mode {j}")
    if payload["fails_necessary_condition"] != unstable:
        problems.append("fails_necessary_condition disagrees with the mode rates")
    return problems


def expected_verdict(params, prof) -> str:
    """Closed-form spectral verdict for a Maxwellian-family profile."""
    c0 = float(params["c0"])
    span = 5.0 * (c0 + max(abs(d) + w for _, d, w in oracles.components(prof)))
    upper = oracles.winding_count(lambda s: oracles.dispersion(params, prof, s),
                                  -span, span, 1e-3, 5.0)
    if upper:
        return "unstable"
    c_star, gamma_plus = oracles.thin_spray(params, prof)
    gamma_minus = oracles.axis_damping(params, prof, -c_star)
    return "stable" if gamma_plus < -1e-12 and gamma_minus < -1e-12 else "neutral"


def check_library(op, value) -> list[str]:
    args = op["args"]
    if op["func"] == "spectral_verdict":
        if args["profile"]["kind"] == "bump_on_tail":
            want = "unstable" if op["expect"]["roots"] else "stable or neutral"
        else:
            want = expected_verdict(args["params"], args["profile"])
        return [] if value == want else [f"verdict {value!r}, expected {want!r}"]
    return _check_tracked(args["system"], args["profile"], args["j"], complex(*value),
                          f"mode {args['j']}")


CLI_CHECKS = {"roots": check_roots, "thin-spray": check_thin_spray,
              "dispersion-scan": check_scan, "landau-compare": check_landau,
              "simulate": check_simulate, "illposed-demo": check_illposed,
              "stability-check": check_stability}


def check(op, value=None, out_dir: Path | None = None) -> list[str]:
    try:
        if op["kind"] == "cli":
            return CLI_CHECKS[op["command"]](op, out_dir)
        return check_library(op, value)
    except (OSError, KeyError, ValueError, ArithmeticError) as err:
        return [f"output unreadable or oracle failed: {type(err).__name__}: {err}"]
