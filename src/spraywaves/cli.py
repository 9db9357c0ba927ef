"""Command-line front end: JSON configs in, CSV/JSON artifacts + manifest out.

Exit codes: 0 success, 2 config validation failure, 3 numerical failure.
Machine-readable error JSON goes to stderr in both failure cases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, dispersion, hyperbolic, modesim, profiles, quadrature
from .dispersion import SearchRegion, SprayParams
from .errors import InvalidBump, SprayWaveError, VacuumViolation, ZeroSigma
from .hyperbolic import ScalarCoupling, SystemCoupling
from .profiles import VelocityProfile
from .quadrature import QuadratureConfig
from .scenarios import SCENARIOS

COMMANDS = ("dispersion-scan", "roots", "thin-spray", "landau-compare",
            "simulate", "illposed-demo", "stability-check")

DEFAULTS_TABLE = {
    "root_tolerance": dispersion._ROOT_TOL,
    "axis_tolerance": quadrature.DEFAULT_CONFIG.axis_tolerance,
    "winding_defect_max": dispersion._MAX_WINDING_DEFECT,
    "boundary_min_modulus": dispersion._MIN_BOUNDARY_MOD,
    "eigen_gap_min": hyperbolic._GAP_TOL,
    "eigen_residual_max": hyperbolic._EIGEN_RESIDUAL,
    "compatibility_tolerance": dispersion._COMPAT_TOL,
    "cfl_fraction": modesim._CFL_FRACTION,
    "eigenmode_residual_max": modesim._EIGENMODE_RESIDUAL,
    "grid_resolution_multiple": modesim._GRID_MULTIPLE,
}


class ConfigError(Exception):
    """Invalid or incomplete run configuration (exit code 2)."""


def _fmt(x: float) -> str:
    return "%.17g" % x


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def build_profile(d: dict) -> VelocityProfile:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("profile config must be an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "maxwellian":
            return profiles.maxwellian(
                mass=float(d.get("mass", 1.0)), drift=float(d.get("drift", 0.0)),
                width=float(d.get("width", 1.0)),
                strip_halfwidth=float(d.get("strip_halfwidth", 0.0)))
        if kind == "bump_on_tail":
            for key in ("eps", "eta", "c_star", "base"):
                if key not in d:
                    raise ConfigError(f"bump_on_tail profile missing '{key}'")
            return profiles.make_bump_on_tail(
                build_profile(d["base"]), eps=float(d["eps"]), eta=float(d["eta"]),
                c_star=float(d["c_star"]))
        if kind == "sum":
            return profiles.profile_sum(*(build_profile(p) for p in d["parts"]))
    except (ValueError, KeyError, TypeError, InvalidBump) as err:
        raise ConfigError(f"invalid profile config: {err}") from err
    raise ConfigError(f"unknown profile kind {kind!r}")


def build_params(d: dict, profile: VelocityProfile) -> SprayParams:
    if not isinstance(d, dict):
        raise ConfigError("params config must be an object")
    try:
        kappa = float(d.get("kappa", 0.0))
        if "alpha0" in d:
            params = SprayParams(c0=float(d["c0"]), rho0=float(d["rho0"]),
                                 kappa=kappa, alpha0=float(d["alpha0"]),
                                 u0=float(d.get("u0", 0.0)))
            dispersion.check_compatibility(params, profile)
            return params
        return dispersion.make_params(profile, c0=float(d["c0"]),
                                      rho0=float(d["rho0"]), kappa=kappa,
                                      u0=float(d.get("u0", 0.0)))
    except (KeyError, ValueError, TypeError, VacuumViolation) as err:
        raise ConfigError(f"invalid params config: {err}") from err


def build_qconfig(d: dict | None) -> QuadratureConfig:
    if not d:
        return quadrature.DEFAULT_CONFIG
    try:
        return QuadratureConfig(
            truncation_halfwidth=float(d.get("L", 12.0)),
            nodes=int(d.get("nodes", 256)),
            axis_tolerance=float(d.get("axis_tolerance", 1e-12)),
            subtraction_window=float(d.get("window", 1.0)))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid quadrature config: {err}") from err


def build_region(d: dict | None, params: SprayParams,
                 profile: VelocityProfile) -> SearchRegion:
    if not d:
        return dispersion.default_region(params, profile)
    try:
        region = SearchRegion(re_min=float(d["re_min"]), re_max=float(d["re_max"]),
                              im_min=float(d["im_min"]), im_max=float(d["im_max"]))
    except (KeyError, ValueError, TypeError) as err:
        raise ConfigError(f"invalid region config: {err}") from err
    if region.im_reach > profile.strip_halfwidth:
        raise ConfigError(f"region reaches |Im sigma| = {region.im_reach:.3g}, beyond "
                          f"the profile analyticity strip {profile.strip_halfwidth:.3g}")
    return region


def build_system(d: dict, profile: VelocityProfile | None) -> SystemCoupling:
    if "profile" in d:
        profile = build_profile(d["profile"])
    if profile is None:
        raise ConfigError("system config needs a profile (embedded or top-level)")
    try:
        return SystemCoupling(
            a_matrix=np.array(d["A"], dtype=float),
            grad_psi=np.array(d["grad_psi"], dtype=float),
            phi_coeffs=tuple(tuple(float(x) for x in row) for row in d["phi_coeffs"]),
            kappa=float(d["kappa"]), profile=profile)
    except (KeyError, ValueError, TypeError) as err:
        raise ConfigError(f"invalid system config: {err}") from err


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")


def _write_columns(path: Path, comment: str, columns: list[np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        for values in zip(*columns):
            fh.write(" ".join(_fmt(float(v)) for v in values) + "\n")


def _write_heatmap(out_dir: Path, rows: list[list]) -> str:
    path = out_dir / "scan_heatmap.dat"
    _write_columns(path, "re_sigma im_sigma re_D im_D abs_D",
                   [np.array(c) for c in zip(*rows)])
    return path.name


def _write_root_locus(out_dir: Path, locus: dict[str, list[tuple]]) -> list[str]:
    files = []
    for name, branch_rows in locus.items():
        path = out_dir / f"root_locus_{name}.dat"
        _write_columns(path, "kappa re_sigma im_sigma",
                       [np.array(c) for c in zip(*branch_rows)])
        files.append(path.name)
    return files


def _write_growth_curves(out_dir: Path, trajectories) -> list[str]:
    files = []
    for traj in trajectories:
        path = out_dir / f"growth_k{traj.k:g}.dat"
        _write_columns(path, "t abs_tau", [traj.times, np.abs(traj.tau_hat)])
        files.append(path.name)
    return files


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

_GRID_MAX_POINTS = 1000      # per grid axis; bundled grids use at most 61


def _grid_axis(spec, default) -> np.ndarray:
    if spec is None:
        spec = default
    if not isinstance(spec, (list, tuple)) or len(spec) != 3:
        raise ConfigError(f"grid axis must be [lo, hi, n], got {spec!r}")
    try:
        lo, hi, n = float(spec[0]), float(spec[1]), int(spec[2])
    except (ValueError, TypeError, OverflowError) as err:
        raise ConfigError(f"invalid grid axis {spec!r}: {err}") from err
    if not (math.isfinite(lo) and math.isfinite(hi) and 1 <= n <= _GRID_MAX_POINTS):
        raise ConfigError(f"grid axis {spec!r} needs finite bounds and 1 to "
                          f"{_GRID_MAX_POINTS} points")
    return np.linspace(lo, hi, n)


def run_dispersion_scan(cfg: dict, out_dir: Path) -> dict:
    profile = build_profile(cfg["profile"])
    params = build_params(cfg["params"], profile)
    qconfig = build_qconfig(cfg.get("quadrature"))
    scan = cfg.get("scan", {})
    re_axis = _grid_axis(scan.get("re"), (-3.0 * params.c0, 3.0 * params.c0, 61))
    im_axis = _grid_axis(scan.get("im"), (-0.4 * profile.strip_halfwidth,
                                          0.4 * profile.strip_halfwidth, 21))

    rows = []
    for im_val in im_axis:
        for re_val in re_axis:
            sigma = complex(re_val, im_val)
            branch = quadrature.classify_branch(sigma, qconfig)
            try:
                val = dispersion.dispersion_value(params, profile, sigma, qconfig)
                rows.append([re_val, im_val, val.real, val.imag, branch.value])
            except ZeroSigma:
                rows.append([re_val, im_val, "nan", "nan", branch.value])
    _write_csv(out_dir / "dispersion_scan.csv",
               ["re_sigma", "im_sigma", "re_D", "im_D", "branch"], rows)
    heat = [[*r[:4], math.hypot(r[2], r[3])] for r in rows if not isinstance(r[2], str)]
    return {"outputs": ["dispersion_scan.csv", _write_heatmap(out_dir, heat)],
            "summary": {"n_points": len(rows)}}


def run_roots(cfg: dict, out_dir: Path) -> dict:
    profile = build_profile(cfg["profile"])
    params = build_params(cfg["params"], profile)
    qconfig = build_qconfig(cfg.get("quadrature"))
    region = build_region(cfg.get("region"), params, profile)
    try:
        tol = float(cfg.get("root_tolerance", DEFAULTS_TABLE["root_tolerance"]))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid root_tolerance: {err}") from err
    reports = dispersion.find_roots(params, profile, region, tol=tol, config=qconfig)
    _write_json(out_dir / "roots.json", [r.as_dict() for r in reports])
    return {"outputs": ["roots.json"],
            "summary": {"count": len(reports),
                        "n_unstable": sum(1 for r in reports if r.sigma.imag > 0),
                        "region": {"re_min": region.re_min, "re_max": region.re_max,
                                   "im_min": region.im_min,
                                   "im_max": region.im_max}}}


def _root_near(params, profile, center: float, qconfig, halfwidth: float = 0.5,
               tol: float = 1e-12):
    span = halfwidth * params.c0
    region = SearchRegion(center - span, center + span,
                          -0.4 * profile.strip_halfwidth,
                          0.4 * profile.strip_halfwidth)
    reports = dispersion.find_roots(params, profile, region, tol=tol, config=qconfig)
    if not reports:
        return None
    return min(reports, key=lambda r: abs(r.sigma - center))


def run_thin_spray(cfg: dict, out_dir: Path) -> dict:
    profile = build_profile(cfg["profile"])
    qconfig = build_qconfig(cfg.get("quadrature"))
    sweep = cfg.get("sweep", {}).get("kappa_values")
    base_params = cfg["params"]
    try:
        kappas = [float(k) for k in sweep or [base_params.get("kappa", 0.0)]]
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid kappa value: {err}") from err
    outputs = []

    def analyze(kappa: float) -> tuple[dict, dict]:
        params = build_params({**base_params, "kappa": kappa}, profile)
        c_star, gamma = dispersion.thin_spray_expansion(params, profile, qconfig)
        entry = {"kappa": kappa, "c_star": c_star, "gamma": gamma}
        locus = {}
        for name, center in (("plus", params.c0), ("minus", -params.c0)):
            root = _root_near(params, profile, center, qconfig)
            if root is None:
                continue
            locus[name] = (kappa, root.sigma.real, root.sigma.imag)
            if name == "plus":
                entry["root_check"] = {
                    "re_sigma": root.sigma.real, "im_sigma": root.sigma.imag,
                    "residual": root.residual,
                    "expansion_error": abs(root.sigma - complex(c_star, gamma))}
        return entry, locus

    if sweep:
        results = [analyze(k) for k in kappas]
        payload = {"sweep": [entry for entry, _ in results]}
        locus = {"plus": [], "minus": []}
        for _, points in results:
            for name, row in points.items():
                locus[name].append(row)
        outputs += _write_root_locus(out_dir, locus)
    else:
        payload, _ = analyze(kappas[0])
    _write_json(out_dir / "thin_spray.json", payload)
    outputs.insert(0, "thin_spray.json")
    return {"outputs": outputs, "summary": payload if not sweep else
            {"n_kappa": len(payload["sweep"])}}


def run_landau_compare(cfg: dict, out_dir: Path) -> dict:
    profile = build_profile(cfg["profile"])
    params = build_params(cfg["params"], profile)
    qconfig = build_qconfig(cfg.get("quadrature"))
    spec = cfg.get("landau", {})
    try:
        k_values = [float(k) for k in spec.get("k_values", [1.0, 2.0])]
        im_sigma = float(spec.get("im_sigma", 0.05))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid landau config: {err}") from err
    if len(k_values) != 2:
        raise ConfigError("landau.k_values must hold exactly two wavenumbers")
    re_axis = _grid_axis(spec.get("re"), (-3.0 * params.c0, 3.0 * params.c0, 61))
    rows = []
    contrast = 0.0
    for re_val in re_axis:
        sigma = complex(re_val, im_sigma)
        try:
            d_spray = dispersion.dispersion_value(params, profile, sigma, qconfig)
        except ZeroSigma:
            continue
        d1 = dispersion.landau_dispersion(profile, k_values[0], sigma * k_values[0],
                                          qconfig)
        d2 = dispersion.landau_dispersion(profile, k_values[1], sigma * k_values[1],
                                          qconfig)
        contrast = max(contrast, abs(d1 - d2))
        rows.append([re_val, im_sigma, d_spray.real, d_spray.imag,
                     d1.real, d1.imag, d2.real, d2.imag])
    _write_csv(out_dir / "landau_compare.csv",
               ["re_sigma", "im_sigma", "re_D", "im_D",
                f"re_DL_k{k_values[0]:g}", f"im_DL_k{k_values[0]:g}",
                f"re_DL_k{k_values[1]:g}", f"im_DL_k{k_values[1]:g}"], rows)
    return {"outputs": ["landau_compare.csv"],
            "summary": {"k_values": k_values, "max_k_contrast": contrast}}


def _build_sim(cfg: dict, params: SprayParams, profile: VelocityProfile,
               qconfig: QuadratureConfig):
    sim = cfg.get("sim", {})
    init_spec = sim.get("init", {"type": "acoustic"})
    init_type = init_spec.get("type", "acoustic")
    sigma = None
    try:
        k = float(sim.get("k", 1.0))
        if k == 0.0 or not math.isfinite(k):
            raise ValueError(f"k must be a nonzero finite number, got {k}")
        if init_type == "eigenmode" and "sigma" in init_spec:
            re_sigma, im_sigma = init_spec["sigma"]
            sigma = complex(float(re_sigma), float(im_sigma))
        t_final = float(sim["t_final"]) if "t_final" in sim else None
        growth_spans = float(sim.get("growth_spans", 6.0))
        periods = float(sim.get("periods", 10.0))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid sim config: {err}") from err
    if init_type == "eigenmode":
        if sigma is None:
            region = build_region(cfg.get("region"), params, profile)
            reports = dispersion.find_roots(params, profile, region, config=qconfig)
            if not reports:
                raise SprayWaveError("no dispersion root found to seed the eigenmode")
            sigma = max(reports, key=lambda r: r.sigma.imag).sigma
        if t_final is None:
            t_final = (growth_spans / (k * sigma.imag) if sigma.imag > 0
                       else 10.0 * 2.0 * math.pi / (k * params.c0))
    elif t_final is None:
        t_final = periods * 2.0 * math.pi / (k * params.c0)
    try:
        config = modesim.default_sim_config(params, profile, k, t_final=t_final,
                                            nv=int(sim.get("nv", 2048)))
        if "dt" in sim:
            config = modesim.SimConfig(nv=config.nv, v_bounds=config.v_bounds,
                                       dt=float(sim["dt"]), t_final=config.t_final,
                                       fit_window=config.fit_window)
        if init_type == "acoustic":
            state = modesim.acoustic_state(params, k, config,
                                           direction=init_spec.get("direction", 1))
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid sim config: {err}") from err
    if init_type == "eigenmode":
        state = modesim.init_eigenmode(params, profile, sigma, k, config, qconfig)
    elif init_type != "acoustic":
        raise ConfigError(f"unknown sim init type {init_type!r}")
    return config, state, sigma


def run_simulate(cfg: dict, out_dir: Path) -> dict:
    profile = build_profile(cfg["profile"])
    params = build_params(cfg["params"], profile)
    qconfig = build_qconfig(cfg.get("quadrature"))
    config, state, sigma = _build_sim(cfg, params, profile, qconfig)
    traj = modesim.integrate(params, profile, state, config)
    rows = [[t, tau.real, tau.imag, abs(tau), abs(u), kin]
            for t, tau, u, kin in zip(traj.times, traj.tau_hat, traj.u_hat,
                                      traj.kinetic_l2)]
    _write_csv(out_dir / "simulate.csv",
               ["t", "re_tau", "im_tau", "abs_tau", "abs_u", "kinetic_l2"], rows)
    summary = {"k": traj.k, "steps": len(traj.times) - 1, "overflow": traj.overflow}
    try:
        fit = modesim.growth_rate(traj, config.fit_window)
        summary["fitted_rate"] = fit.rate
        summary["fit_residual"] = fit.residual
    except (SprayWaveError, ValueError):
        pass
    if sigma is not None:
        summary["seed_sigma"] = [sigma.real, sigma.imag]
    return {"outputs": ["simulate.csv"], "summary": summary}


def run_illposed_demo(cfg: dict, out_dir: Path) -> dict:
    profile = build_profile(cfg["profile"])
    params = build_params(cfg["params"], profile)
    qconfig = build_qconfig(cfg.get("quadrature"))
    spec = cfg.get("illposed", {})
    region = build_region(cfg.get("region"), params, profile) \
        if cfg.get("region") else None
    try:
        s = float(spec.get("s", 1.0))
        n_exponent = float(spec.get("n_exponent", 2.0))
        k_list = [float(k) for k in spec.get("k_list", [8.0, 16.0, 32.0])]
        nv = int(spec.get("nv", 2048))
        modesim.check_scaling_inputs(s, n_exponent, k_list, nv)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid illposed config: {err}") from err
    report = modesim.sobolev_scaling_experiment(
        params, profile, s=s, n_exponent=n_exponent, k_list=k_list, nv=nv,
        qconfig=qconfig, region=region)
    rows = [[r.k, r.t_k, r.init_hs_norm, r.final_l2_norm, r.fitted_rate]
            for r in report.rows]
    _write_csv(out_dir / "illposed_demo.csv",
               ["k", "t_k", "init_hs_norm", "final_l2_norm", "fitted_rate"], rows)
    plot_files = _write_growth_curves(out_dir, report.trajectories)
    summary = {"theta0": report.theta0,
               "final_norm_nondecreasing": report.final_norm_nondecreasing,
               "sigma": [report.sigma.real, report.sigma.imag]}
    _write_json(out_dir / "illposed_summary.json", summary)
    return {"outputs": ["illposed_demo.csv", "illposed_summary.json", *plot_files],
            "summary": summary}


def run_stability_check(cfg: dict, out_dir: Path) -> dict:
    profile = build_profile(cfg["profile"]) if "profile" in cfg else None
    qconfig = build_qconfig(cfg.get("quadrature"))
    scalar = None
    if "system" in cfg:
        system = build_system(cfg["system"], profile)
    elif "scalar" in cfg:
        spec = cfg["scalar"]
        try:
            scalar = ScalarCoupling(lambda0=float(spec["lambda0"]),
                                    kappa=float(spec["kappa"]), profile=profile)
        except (KeyError, ValueError, TypeError) as err:
            raise ConfigError(f"invalid scalar config: {err}") from err
        if abs(scalar.kappa) > hyperbolic.SCALAR_KAPPA_MAX:
            raise ConfigError(f"scalar.kappa must satisfy |kappa| <= "
                              f"{hyperbolic.SCALAR_KAPPA_MAX} for the first-order seed")
        system = hyperbolic.scalar_as_system(scalar)
    else:
        raise ConfigError("stability-check needs a 'system' or 'scalar' config block")
    verdicts = hyperbolic.stability_necessary_condition(system, qconfig)
    entries = []
    for v in verdicts:
        entry = v.as_dict()
        if v.verdict != hyperbolic.DECOUPLED and system.kappa != 0.0:
            tracked = hyperbolic.track_secular_root(system, v.j, system.kappa,
                                                    config=qconfig)
            entry["tracked_sigma"] = [tracked.real, tracked.imag]
            entry["tracked_imag_per_kappa"] = tracked.imag / system.kappa
        entries.append(entry)
    payload = {"modes": entries,
               "fails_necessary_condition":
                   hyperbolic.fails_necessary_condition(verdicts),
               "kappa": system.kappa}
    if scalar is not None:
        root = hyperbolic.scalar_root(scalar, config=qconfig)
        payload["scalar"] = {
            "lambda0": scalar.lambda0, "kappa": scalar.kappa,
            "leading_imag": hyperbolic.scalar_imag_leading(scalar),
            "root": {"re_omega": root.sigma.real, "im_omega": root.sigma.imag,
                     "residual": root.residual,
                     "winding_evidence": root.winding_evidence}}
    _write_json(out_dir / "stability_check.json", payload)
    return {"outputs": ["stability_check.json"],
            "summary": {"fails_necessary_condition":
                        payload["fails_necessary_condition"],
                        "n_modes": len(entries)}}


_HANDLERS = {
    "dispersion-scan": run_dispersion_scan,
    "roots": run_roots,
    "thin-spray": run_thin_spray,
    "landau-compare": run_landau_compare,
    "simulate": run_simulate,
    "illposed-demo": run_illposed_demo,
    "stability-check": run_stability_check,
}


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _config_notes(cfg: dict) -> list[str]:
    notes = ["analytic continuation term carries the 1/alpha0 prefactor of the "
             "principal-value term"]
    profile_cfg = cfg.get("profile", {})
    if profile_cfg.get("kind") == "bump_on_tail":
        notes.append("bump profile: off-axis values use the closed form inside the "
                     "support interior; an edge margin raises StripViolation and "
                     "near-axis evaluations fall back to real-axis values")
    return notes


def load_config(command: str, scenario: str | None, config_path: str | None,
                out_dir: str | None) -> dict:
    cfg: dict = {}
    if scenario is not None:
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}; choose from "
                              f"{sorted(SCENARIOS)}")
        cfg = _deep_merge(cfg, SCENARIOS[scenario])
        cfg["seed_scenario"] = scenario
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file {config_path} does not exist")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        if "command" in file_cfg and file_cfg["command"] != command:
            raise ConfigError(
                f"config file requests command {file_cfg['command']!r} but "
                f"{command!r} was invoked")
        cfg = _deep_merge(cfg, file_cfg)
    cfg["command"] = command
    if out_dir is not None:
        cfg["output_dir"] = out_dir
    if "output_dir" not in cfg:
        cfg["output_dir"] = "out"
    embedded = (command == "stability-check"
                and isinstance(cfg.get("system"), dict)
                and "profile" in cfg["system"])
    if "profile" not in cfg and not embedded:
        raise ConfigError("no profile configured (use --scenario or --config)")
    if command != "stability-check" and "params" not in cfg:
        raise ConfigError("no params configured (use --scenario or --config)")
    return cfg


def run(cfg: dict, quiet: bool = False) -> int:
    """Execute one command described by a merged config; returns the exit code."""
    command = cfg.get("command")
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    captured: list[str] = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        result = _HANDLERS[command](cfg, out_dir)
        captured = [str(w.message) for w in wlist]
    manifest = {
        "command": command,
        "scenario": cfg.get("seed_scenario"),
        "config": {k: v for k, v in sorted(cfg.items()) if k != "output_dir"},
        "config_sha256": hashlib.sha256(
            json.dumps({k: v for k, v in cfg.items() if k != "output_dir"},
                       sort_keys=True).encode()).hexdigest(),
        "versions": {"spraywaves": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "defaults": DEFAULTS_TABLE,
        "warnings": _config_notes(cfg) + captured,
        "outputs": result["outputs"],
        "summary": result.get("summary", {}),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write_json(out_dir / "manifest.json", manifest)
    if not quiet:
        print(f"{command}: wrote {', '.join(result['outputs'])} "
              f"and manifest.json to {out_dir}")
    return 0


def _error_json(code: int, err: Exception) -> None:
    print(json.dumps({"error": {"type": type(err).__name__, "message": str(err),
                                "exit_code": code}}, sort_keys=True),
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spraywaves",
        description="Wave-stability analysis for kinetic-fluid (thick spray) models.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="JSON run configuration")
        cmd.add_argument("--scenario", metavar="NAME", default=None,
                         help=f"bundled scenario, one of {sorted(SCENARIOS)}")
        cmd.add_argument("--out", metavar="DIR", default=None,
                         help="output directory (default: 'out')")
        cmd.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.command, args.scenario, args.config, args.out)
    except ConfigError as err:
        _error_json(2, err)
        return 2
    try:
        return run(cfg, quiet=args.quiet)
    except ConfigError as err:
        _error_json(2, err)
        return 2
    except (SprayWaveError, ArithmeticError) as err:
        _error_json(3, err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
