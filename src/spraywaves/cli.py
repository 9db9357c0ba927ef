"""Command-line front end: JSON configs in, CSV/JSON artifacts + manifest out.

`load_config` merges the scenario and the config file (whose integers must fit
a double) and checks the shape of the result: every block (and `sim.init`) is
a JSON object, `null` stands for an absent `quadrature` or `region` only, and
`output_dir` is a string. Each handler then reads its whole config inside one
`_reading` block before it evaluates anything. `_reading` turns the validation
errors of the library constructors (KeyError, IndexError, TypeError,
ValueError, InvalidBump, VacuumViolation) into `ConfigError`; the value rules
themselves live in those constructors, not in a schema table here. An error
raised while computing is therefore never reported as a config error.

Exit codes: 0 success, 2 config validation failure, 3 numerical failure.
Machine-readable error JSON goes to stderr in both failure cases.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, dispersion, hyperbolic, modesim, profiles, quadrature
from .dispersion import SearchRegion, SprayParams
from .errors import InvalidBump, SprayWaveError, VacuumViolation
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

# config blocks that must be JSON objects; null means absent only where listed
_BLOCKS = ("profile", "params", "quadrature", "region", "scan", "landau", "sweep",
           "sim", "illposed", "scalar", "system")
_NULLABLE_BLOCKS = ("quadrature", "region")
_CONFIG_ERRORS = (KeyError, IndexError, TypeError, ValueError, InvalidBump,
                  VacuumViolation)


class ConfigError(Exception):
    """Invalid or incomplete run configuration (exit code 2)."""


@contextmanager
def _reading(what: str):
    """Report a validation error raised while reading ``what`` as a ConfigError;
    also usable as a decorator."""
    try:
        yield
    except _CONFIG_ERRORS as err:
        detail = f"missing key {err}" if isinstance(err, KeyError) else err
        raise ConfigError(f"invalid {what}: {detail}") from err


def _json_int(text: str) -> int:
    """A JSON integer that fits a double, since config numbers are read as floats."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} digits does not fit a double")
    return value


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

@_reading("profile config")
def build_profile(d: dict) -> VelocityProfile:
    kind = d["kind"]
    if kind == "maxwellian":
        return profiles.maxwellian(**{key: float(d[key]) for key in (
            "mass", "drift", "width", "strip_halfwidth") if key in d})
    if kind == "bump_on_tail":
        return profiles.make_bump_on_tail(
            build_profile(d["base"]), eps=float(d["eps"]), eta=float(d["eta"]),
            c_star=float(d["c_star"]))
    if kind == "sum":
        return profiles.profile_sum(*(build_profile(p) for p in d["parts"]))
    raise ConfigError(f"unknown profile kind {kind!r}")


def build_params(d: dict, profile: VelocityProfile) -> SprayParams:
    c0, rho0 = float(d["c0"]), float(d["rho0"])
    kappa, u0 = float(d.get("kappa", 0.0)), float(d.get("u0", 0.0))
    if "alpha0" not in d:
        return dispersion.make_params(profile, c0=c0, rho0=rho0, kappa=kappa, u0=u0)
    params = SprayParams(c0=c0, rho0=rho0, kappa=kappa, alpha0=float(d["alpha0"]),
                         u0=u0)
    dispersion.check_compatibility(params, profile)
    return params


def build_qconfig(d: dict | None) -> QuadratureConfig:
    q = quadrature.DEFAULT_CONFIG
    if not d:
        return q
    for key in ("L", "window"):          # keys of older configs: checked, then ignored
        if not 0.0 < float(d.get(key, 1.0)) < math.inf:
            raise ValueError(f"quadrature.{key} must be positive and finite")
    return QuadratureConfig(nodes=int(d.get("nodes", q.nodes)),
                            axis_tolerance=float(d.get("axis_tolerance",
                                                       q.axis_tolerance)))


def build_region(d: dict | None, params: SprayParams,
                 profile: VelocityProfile) -> SearchRegion:
    if not d:
        return dispersion.default_region(params, profile)
    region = SearchRegion(*(float(d[key]) for key in ("re_min", "re_max", "im_min",
                                                      "im_max")))
    if region.im_reach > profile.strip_halfwidth:
        raise ConfigError(f"region reaches |Im sigma| = {region.im_reach:.3g}, beyond "
                          f"the profile analyticity strip {profile.strip_halfwidth:.3g}")
    return region


def build_system(d: dict, profile: VelocityProfile | None) -> SystemCoupling:
    if "profile" in d:
        profile = build_profile(d["profile"])
    if profile is None:
        raise ConfigError("system config needs a profile (embedded or top-level)")
    return SystemCoupling(
        a_matrix=np.array(d["A"], dtype=float),
        grad_psi=np.array(d["grad_psi"], dtype=float),
        phi_coeffs=tuple(tuple(float(x) for x in row) for row in d["phi_coeffs"]),
        kappa=float(d["kappa"]), profile=profile)


def _read_spray(cfg: dict) -> tuple[VelocityProfile, SprayParams, QuadratureConfig]:
    profile = build_profile(cfg["profile"])
    return (profile, build_params(cfg["params"], profile),
            build_qconfig(cfg.get("quadrature")))


_GRID_MAX_POINTS = 1000      # per grid axis; bundled grids use at most 61


def _grid_axis(spec, default) -> np.ndarray:
    if spec is None:
        spec = default
    if not isinstance(spec, (list, tuple)) or len(spec) != 3:
        raise ConfigError(f"grid axis must be [lo, hi, n], got {spec!r}")
    lo, hi, n = (float(x) for x in spec)
    if not (math.isfinite(lo) and math.isfinite(hi) and 1 <= n <= _GRID_MAX_POINTS):
        raise ConfigError(f"grid axis {spec!r} needs finite bounds and 1 to "
                          f"{_GRID_MAX_POINTS} points")
    return np.linspace(lo, hi, int(spec[2]))


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path.name


def _write_table(path: Path, head: list[str], rows, sep: str) -> str:
    """The header ``sep.join(head)`` (a leading "#" makes it a gnuplot comment),
    then one line per row: numbers as %.17g, strings as they are. Returns the
    file name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(sep.join(head) + "\n")
        for row in rows:
            fh.write(sep.join(x if isinstance(x, str) else "%.17g" % x
                              for x in row) + "\n")
    return path.name


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def run_dispersion_scan(cfg: dict, out_dir: Path) -> dict:
    with _reading("dispersion-scan config"):
        profile, params, qconfig = _read_spray(cfg)
        scan = cfg.get("scan", {})
        re_axis = _grid_axis(scan.get("re"), (-3.0 * params.c0, 3.0 * params.c0, 61))
        im_axis = _grid_axis(scan.get("im"), (-0.4 * profile.strip_halfwidth,
                                              0.4 * profile.strip_halfwidth, 21))
    grid = np.empty((im_axis.size, re_axis.size), dtype=complex)
    grid.real, grid.imag = re_axis, im_axis[:, None]
    sigma = grid.ravel()
    # points at the sigma = 0 pole get "nan" rows
    live = np.abs(sigma) >= dispersion.POLE_RADIUS * params.c0
    values = np.zeros(sigma.size, dtype=complex)
    values[live] = dispersion.dispersion_value(params, profile, sigma[live], qconfig)
    rows = [[s.real, s.imag, *((v.real, v.imag) if ok else ("nan", "nan")), branch.value]
            for s, v, ok, branch in zip(sigma.tolist(), values.tolist(), live,
                                        quadrature.classify_branch(sigma, qconfig))]
    heat = [[*r[:4], math.hypot(r[2], r[3])] for r in rows if not isinstance(r[2], str)]
    return {"outputs": [
        _write_table(out_dir / "dispersion_scan.csv",
                     ["re_sigma", "im_sigma", "re_D", "im_D", "branch"], rows, ","),
        _write_table(out_dir / "scan_heatmap.dat",
                     ["#", "re_sigma", "im_sigma", "re_D", "im_D", "abs_D"], heat, " ")],
        "summary": {"n_points": len(rows)}}


def run_roots(cfg: dict, out_dir: Path) -> dict:
    with _reading("roots config"):
        profile, params, qconfig = _read_spray(cfg)
        region = build_region(cfg.get("region"), params, profile)
        tol = float(cfg.get("root_tolerance", DEFAULTS_TABLE["root_tolerance"]))
    reports = dispersion.find_roots(params, profile, region, tol=tol, config=qconfig)
    return {"outputs": [_write_json(out_dir / "roots.json",
                                    [r.as_dict() for r in reports])],
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
    with _reading("thin-spray config"):
        profile = build_profile(cfg["profile"])
        qconfig = build_qconfig(cfg.get("quadrature"))
        sweep = cfg.get("sweep", {}).get("kappa_values")
        kappas = [float(k) for k in sweep or [cfg["params"].get("kappa", 0.0)]]
        sprays = [build_params({**cfg["params"], "kappa": k}, profile) for k in kappas]

    def analyze(params: SprayParams) -> tuple[dict, dict]:
        c_star, gamma = dispersion.thin_spray_expansion(params, profile, qconfig)
        entry = {"kappa": params.kappa, "c_star": c_star, "gamma": gamma}
        locus = {}
        for name, center in (("plus", params.c0), ("minus", -params.c0)):
            root = _root_near(params, profile, center, qconfig)
            if root is None:
                continue
            locus[name] = (params.kappa, root.sigma.real, root.sigma.imag)
            if name == "plus":
                entry["root_check"] = {
                    "re_sigma": root.sigma.real, "im_sigma": root.sigma.imag,
                    "residual": root.residual,
                    "expansion_error": abs(root.sigma - complex(c_star, gamma))}
        return entry, locus

    results = [analyze(params) for params in sprays]
    payload = {"sweep": [entry for entry, _ in results]} if sweep else results[0][0]
    outputs = [_write_json(out_dir / "thin_spray.json", payload)]
    if sweep:
        outputs += [_write_table(out_dir / f"root_locus_{name}.dat",
                                 ["#", "kappa", "re_sigma", "im_sigma"],
                                 [locus[name] for _, locus in results if name in locus],
                                 " ")
                    for name in ("plus", "minus")]
    return {"outputs": outputs,
            "summary": {"n_kappa": len(results)} if sweep else payload}


def run_landau_compare(cfg: dict, out_dir: Path) -> dict:
    with _reading("landau-compare config"):
        profile, params, qconfig = _read_spray(cfg)
        spec = cfg.get("landau", {})
        k1, k2 = (float(k) for k in spec.get("k_values", [1.0, 2.0]))
        if not all(k != 0.0 and math.isfinite(k) for k in (k1, k2)):
            raise ConfigError(f"landau.k_values must be nonzero finite numbers, "
                              f"got {[k1, k2]}")
        im_sigma = float(spec.get("im_sigma", 0.05))
        re_axis = _grid_axis(spec.get("re"), (-3.0 * params.c0, 3.0 * params.c0, 61))
    sigma = np.empty(re_axis.size, dtype=complex)
    sigma.real, sigma.imag = re_axis, im_sigma
    # points at the sigma = 0 pole are left out
    sigma = sigma[np.abs(sigma) >= dispersion.POLE_RADIUS * params.c0]
    d_spray = dispersion.dispersion_value(params, profile, sigma, qconfig)
    d1 = dispersion.landau_dispersion(profile, k1, sigma * k1, qconfig)
    d2 = dispersion.landau_dispersion(profile, k2, sigma * k2, qconfig)
    contrast = float(np.abs(d1 - d2).max(initial=0.0))
    rows = [[s.real, s.imag, d.real, d.imag, a.real, a.imag, b.real, b.imag]
            for s, d, a, b in zip(*(x.tolist() for x in (sigma, d_spray, d1, d2)))]
    head = ["re_sigma", "im_sigma", "re_D", "im_D"]
    head += [f"{part}_DL_k{k:g}" for k in (k1, k2) for part in ("re", "im")]
    return {"outputs": [_write_table(out_dir / "landau_compare.csv", head, rows, ",")],
            "summary": {"k_values": [k1, k2], "max_k_contrast": contrast}}


def run_simulate(cfg: dict, out_dir: Path) -> dict:
    with _reading("sim config"):
        profile, params, qconfig = _read_spray(cfg)
        sim = cfg.get("sim", {})
        init = sim.get("init", {})
        init_type = init.get("type", "acoustic")
        if init_type not in ("acoustic", "eigenmode"):
            raise ConfigError(f"unknown sim init type {init_type!r}")
        eigenmode = init_type == "eigenmode"
        k = float(sim.get("k", 1.0))
        if k == 0.0 or not math.isfinite(k):
            raise ConfigError(f"sim.k must be a nonzero finite number, got {k}")
        sigma = None
        if eigenmode and "sigma" in init:
            re_sigma, im_sigma = init["sigma"]
            sigma = complex(float(re_sigma), float(im_sigma))
        t_final = float(sim["t_final"]) if "t_final" in sim else None
        growth_spans = float(sim.get("growth_spans", 6.0))
        periods = float(sim.get("periods", 10.0))
        nv = int(sim.get("nv", modesim.DEFAULT_NV))
        dt = float(sim["dt"]) if "dt" in sim else None
        region = build_region(cfg.get("region"), params, profile) \
            if eigenmode and sigma is None else None
    if region is not None:
        reports = dispersion.find_roots(params, profile, region, config=qconfig)
        if not reports:
            raise SprayWaveError("no dispersion root found to seed the eigenmode")
        sigma = max(reports, key=lambda r: r.sigma.imag).sigma
    if t_final is None and eigenmode and sigma.imag > 0:
        t_final = growth_spans / (k * sigma.imag)
    elif t_final is None:
        t_final = (10.0 if eigenmode else periods) * 2.0 * math.pi / (k * params.c0)
    with _reading("sim config"):
        config = modesim.default_sim_config(params, profile, k, t_final=t_final, nv=nv)
        if dt is not None:
            config = dataclasses.replace(config, dt=dt)
        state = None if eigenmode else modesim.acoustic_state(
            params, k, config, direction=init.get("direction", 1))
    if eigenmode:
        state = modesim.init_eigenmode(params, profile, sigma, k, config, qconfig)
    traj = modesim.integrate(params, profile, state, config)
    rows = [[t, tau.real, tau.imag, abs(tau), abs(u), kin]
            for t, tau, u, kin in zip(traj.times, traj.tau_hat, traj.u_hat,
                                      traj.kinetic_l2)]
    outputs = [_write_table(out_dir / "simulate.csv", ["t", "re_tau", "im_tau",
                                                       "abs_tau", "abs_u", "kinetic_l2"],
                            rows, ",")]
    summary = {"k": traj.k, "steps": len(traj.times) - 1, "overflow": traj.overflow}
    try:
        fit = modesim.growth_rate(traj, config.fit_window)
        summary["fitted_rate"] = fit.rate
        summary["fit_residual"] = fit.residual
    except (SprayWaveError, ValueError):
        pass
    if sigma is not None:
        summary["seed_sigma"] = [sigma.real, sigma.imag]
    return {"outputs": outputs, "summary": summary}


def run_illposed_demo(cfg: dict, out_dir: Path) -> dict:
    with _reading("illposed config"):
        profile, params, qconfig = _read_spray(cfg)
        spec = cfg.get("illposed", {})
        region = build_region(cfg.get("region"), params, profile) \
            if cfg.get("region") else None
        s = float(spec.get("s", 1.0))
        n_exponent = float(spec.get("n_exponent", 2.0))
        k_list = [float(k) for k in spec.get("k_list", [8.0, 16.0, 32.0])]
        nv = int(spec.get("nv", modesim.DEFAULT_NV))
        modesim.check_scaling_inputs(params, profile, s, n_exponent, k_list, nv)
    report = modesim.sobolev_scaling_experiment(
        params, profile, s=s, n_exponent=n_exponent, k_list=k_list, nv=nv,
        qconfig=qconfig, region=region)
    rows = [[r.k, r.t_k, r.init_hs_norm, r.final_l2_norm, r.fitted_rate]
            for r in report.rows]
    summary = {"theta0": report.theta0,
               "final_norm_nondecreasing": report.final_norm_nondecreasing,
               "sigma": [report.sigma.real, report.sigma.imag]}
    outputs = [_write_table(out_dir / "illposed_demo.csv",
                            ["k", "t_k", "init_hs_norm", "final_l2_norm", "fitted_rate"],
                            rows, ","),
               _write_json(out_dir / "illposed_summary.json", summary)]
    outputs += [_write_table(out_dir / f"growth_k{traj.k:g}.dat", ["#", "t", "abs_tau"],
                             zip(traj.times, np.abs(traj.tau_hat)), " ")
                for traj in report.trajectories]
    return {"outputs": outputs, "summary": summary}


def run_stability_check(cfg: dict, out_dir: Path) -> dict:
    scalar = None
    with _reading("stability-check config"):
        profile = build_profile(cfg["profile"]) if "profile" in cfg else None
        qconfig = build_qconfig(cfg.get("quadrature"))
        if "system" in cfg:
            system = build_system(cfg["system"], profile)
        elif "scalar" in cfg:
            spec = cfg["scalar"]
            scalar = ScalarCoupling(lambda0=float(spec["lambda0"]),
                                    kappa=float(spec["kappa"]), profile=profile)
            if abs(scalar.kappa) > hyperbolic.SCALAR_KAPPA_MAX:
                raise ConfigError(f"scalar.kappa must satisfy |kappa| <= "
                                  f"{hyperbolic.SCALAR_KAPPA_MAX} for the first-order "
                                  f"seed")
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
    return {"outputs": [_write_json(out_dir / "stability_check.json", payload)],
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
    if cfg.get("profile", {}).get("kind") == "bump_on_tail":
        notes.append("bump profile: off-axis values use the closed form inside the "
                     "support interior; an edge margin raises StripViolation and "
                     "near-axis evaluations fall back to real-axis values")
    ignored = [key for key in ("L", "window") if key in (cfg.get("quadrature") or {})]
    if ignored:
        notes.append(f"quadrature keys {', '.join(ignored)} are ignored: bump terms are "
                     f"integrated over their own support with a fixed pinned window")
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
        if path.is_dir():
            raise ConfigError(f"config file {config_path} is a directory")
        with _reading("config file"):
            file_cfg = json.loads(path.read_text(encoding="utf-8"), parse_int=_json_int)
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
    cfg.setdefault("output_dir", "out")
    for key in _BLOCKS:
        if key in cfg and not (isinstance(cfg[key], dict)
                               or cfg[key] is None and key in _NULLABLE_BLOCKS):
            raise ConfigError(f"config block {key!r} must be an object")
    if not isinstance(cfg.get("sim", {}).get("init", {}), dict):
        raise ConfigError("config block 'sim.init' must be an object")
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError("output_dir must be a string")
    embedded = command == "stability-check" and "profile" in cfg.get("system", {})
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


def _fail(code: int, err: Exception) -> int:
    print(json.dumps({"error": {"type": type(err).__name__, "message": str(err),
                                "exit_code": code}}, sort_keys=True),
          file=sys.stderr)
    return code


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` keeps no state
    between calls, so every `main` call shares it."""
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
    args = build_parser().parse_args(argv)
    try:
        return run(load_config(args.command, args.scenario, args.config, args.out),
                   quiet=args.quiet)
    except ConfigError as err:
        return _fail(2, err)
    except (SprayWaveError, ArithmeticError) as err:
        return _fail(3, err)


if __name__ == "__main__":
    sys.exit(main())
