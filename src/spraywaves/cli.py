"""Command-line front end: JSON configs in, CSV/JSON artifacts + manifest out.

`load_config` merges the scenario and the config file and checks the shape of
the result: every number of the file is a finite double (NaN, Infinity and
literals that overflow are refused as the file is parsed, and integers stay
ints), every block (and `sim.init`) is a JSON object, `null` stands for an
absent `quadrature` or `region` only, `output_dir` is a string, and `quadrature`
restates the fixed quadrature. Each handler then reads its whole config inside
one `_reading` block before it evaluates anything, each number through `_num`,
which takes a JSON number only (an int or float: not a bool, nor a string such
as "2.5" or "inf"). `_reading` turns the validation errors of the library
constructors (KeyError, IndexError, TypeError, ValueError, InvalidBump,
VacuumViolation), and an OSError, into `ConfigError`; the value rules
themselves live in those constructors, not in a schema table here.
An error raised while computing is therefore never reported as a config error,
but for one case: an eigenmode asked of a box (given or default) that holds no root.
The spray's `params` are c0, rho0 and kappa: the volume fraction
alpha0 = 1 - kappa m0 follows from the profile, so a `params.alpha0` is
refused, as is a nonzero `u0`.

Exit codes: 0 success, 2 config validation failure (an unreadable config file
and an unusable output directory included), 3 numerical failure.
Machine-readable error JSON goes to stderr in both failure cases.
"""

from __future__ import annotations

import argparse
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
from .errors import InvalidBump, NoUnstableRoot, SprayWaveError, VacuumViolation
from .hyperbolic import SystemCoupling
from .profiles import VelocityProfile
from .scenarios import SCENARIOS

DEFAULTS_TABLE = {
    "root_tolerance": dispersion._ROOT_TOL,
    "axis_tolerance": quadrature.AXIS_TOLERANCE,
    "winding_defect_max": dispersion._MAX_WINDING_DEFECT,
    "boundary_min_modulus": dispersion._MIN_BOUNDARY_MOD,
    "eigen_gap_min": hyperbolic._GAP_TOL,
    "eigen_residual_max": hyperbolic._EIGEN_RESIDUAL,
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
    """Report a validation error raised while reading ``what`` as a ConfigError,
    and an OSError (the I/O inside one is the config file's read and the output
    directory's creation) by its reason in lower case; also a decorator."""
    try:
        yield
    except OSError as err:
        reason = (err.strerror or str(err)).lower()
        raise ConfigError(f"invalid {what}: {reason}") from err
    except _CONFIG_ERRORS as err:
        detail = f"missing key {err}" if isinstance(err, KeyError) else err
        raise ConfigError(f"invalid {what}: {detail}") from err


def _num(value, kind=float):
    """A config number as ``kind``: a JSON number (int or float, not a bool) that
    is a finite double, and for int a whole one (40.0 reads as 40). The file's
    numbers meet the same rule as it is parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"config number must be a JSON number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"config number {str(value)[:24]} is not a finite double")
    if kind is int and value % 1:
        raise ValueError(f"config count must be a whole number, got {value!r}")
    return kind(value)


def _nums(value):
    """`_num` of each number of a nested list (a number stands for itself)."""
    return list(map(_nums, value)) if isinstance(value, list) else _num(value)


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
        if "strip_halfwidth" in d:
            raise ValueError("strip_halfwidth is not an input: a Gaussian has no strip")
        return profiles.maxwellian(**{key: _num(d[key]) for key in (
            "mass", "drift", "width") if key in d})
    if kind == "bump_on_tail":
        return profiles.make_bump_on_tail(
            build_profile(d["base"]), eps=_num(d["eps"]), eta=_num(d["eta"]),
            c_star=_num(d["c_star"]))
    if kind == "sum":
        return profiles.profile_sum(*(build_profile(p) for p in d["parts"]))
    raise ConfigError(f"unknown profile kind {kind!r}")


def build_params(d: dict, profile: VelocityProfile) -> SprayParams:
    # the model is linearized in the fluid's rest frame: a drift goes in the profile
    if _num(d.get("u0", 0.0)) != 0.0:
        raise ValueError(f"u0 must be 0 (drift the profile instead), got {d['u0']!r}")
    if "alpha0" in d:
        raise ValueError(f"alpha0 is not an input: alpha0 = 1 - kappa * m0 follows "
                         f"from the profile, got {d['alpha0']!r}")
    return dispersion.make_params(profile, c0=_num(d["c0"]), rho0=_num(d["rho0"]),
                                  kappa=_num(d.get("kappa", 0.0)))


def check_quadrature(d: dict | None) -> None:
    """The velocity quadrature is fixed: a ``quadrature`` block may only restate
    `quadrature.NODES` and `quadrature.AXIS_TOLERANCE`, since running the fixed
    one for a config that asked for another would misreport the run."""
    d = d or {}
    for key in ("L", "window"):          # keys of older configs: checked, then ignored
        if not 0.0 < _num(d.get(key, 1.0)):
            raise ValueError(f"quadrature.{key} must be positive")
    for key, fixed in (("nodes", quadrature.NODES),
                       ("axis_tolerance", quadrature.AXIS_TOLERANCE)):
        if _num(d.get(key, fixed)) != fixed:
            raise ValueError(f"quadrature.{key} is fixed at {fixed:g}, got {d[key]!r}")


def build_region(d: dict | None, params: SprayParams,
                 profile: VelocityProfile) -> SearchRegion:
    if not d:
        return dispersion.verdict_region(params, profile)
    keys = ("re_min", "re_max", "im_min", "im_max")
    return SearchRegion(*(_num(d[key]) for key in keys))


def build_system(d: dict, profile: VelocityProfile | None) -> SystemCoupling:
    if "profile" in d:
        profile = build_profile(d["profile"])
    if profile is None:
        raise ConfigError("system config needs a profile (embedded or top-level)")
    return SystemCoupling(
        a_matrix=np.array(_nums(d["A"])), grad_psi=np.array(_nums(d["grad_psi"])),
        phi_coeffs=tuple(map(tuple, _nums(d["phi_coeffs"]))),
        kappa=_num(d["kappa"]), profile=profile)


def _read_spray(cfg: dict) -> tuple[VelocityProfile, SprayParams]:
    profile = build_profile(cfg["profile"])
    return profile, build_params(cfg["params"], profile)


_GRID_MAX_POINTS = 1000      # per grid axis; bundled grids use at most 61


def _grid_axis(spec, default) -> np.ndarray:
    if spec is None:
        spec = default
    if not isinstance(spec, (list, tuple)) or len(spec) != 3:
        raise ConfigError(f"grid axis must be [lo, hi, n], got {spec!r}")
    lo, hi, n = _num(spec[0]), _num(spec[1]), _num(spec[2], int)
    if not 1 <= n <= _GRID_MAX_POINTS:
        raise ConfigError(f"grid axis {spec!r} needs 1 to {_GRID_MAX_POINTS} points")
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _create(path: Path):
    """``path``, in the output directory `run` made, opened for writing as a new
    file. An old file there is unlinked first: truncating a written file in
    place can stall its close for tens of milliseconds (ext4 flushes replaced
    data on close, auto_da_alloc)."""
    path.unlink(missing_ok=True)
    return path.open("w", encoding="utf-8")


def _write_json(path: Path, payload) -> str:
    with _create(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path.name


_CHUNK_ROWS = 1024


def _write_table(path: Path, head: list[str], columns, sep: str) -> str:
    """The header ``sep.join(head)`` (a leading "#" makes it a gnuplot comment),
    then one line per row of the equal-length columns: a str column as it is,
    any other as %.17g (a float NaN prints nan), through one line format per
    table. Rows go out _CHUNK_ROWS at a time from ``.tolist()`` slices, which
    keeps the Python objects of a long table few. Returns the file name."""
    columns = [np.asarray(c) for c in columns]
    line = sep.join("%s" if c.dtype.kind == "U" else "%.17g" for c in columns) + "\n"
    with _create(path) as fh:
        fh.write(sep.join(head) + "\n")
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = (c[lo:lo + _CHUNK_ROWS].tolist() for c in columns)
            fh.writelines(map(line.__mod__, zip(*chunk)))
    return path.name


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def run_dispersion_scan(cfg: dict, out_dir: Path) -> dict:
    with _reading("dispersion-scan config"):
        profile, params = _read_spray(cfg)
        scan = cfg.get("scan", {})
        re_axis = _grid_axis(scan.get("re"), (-3.0 * params.c0, 3.0 * params.c0, 61))
        band = 0.2 * profiles.narrowest_width(profile)
        im_axis = _grid_axis(scan.get("im"), (-band, band, 21))
    grid = np.empty((im_axis.size, re_axis.size), dtype=complex)
    grid.real, grid.imag = re_axis, im_axis[:, None]
    sigma = grid.ravel()
    # points at the sigma = 0 pole get nan values and no heatmap row
    live = np.abs(sigma) >= dispersion.POLE_RADIUS * params.c0
    values = np.full(sigma.size, complex(math.nan, math.nan))
    values[live] = dispersion.dispersion_value(params, profile, sigma[live])
    columns = [sigma.real, sigma.imag, values.real, values.imag]
    heat = [c[live] for c in columns]
    heat.append(np.hypot(heat[2], heat[3]))
    return {"outputs": [
        _write_table(out_dir / "dispersion_scan.csv",
                     ["re_sigma", "im_sigma", "re_D", "im_D", "branch"],
                     [*columns, [b.value for b in quadrature.classify_branch(sigma)]],
                     ","),
        _write_table(out_dir / "scan_heatmap.dat",
                     ["#", "re_sigma", "im_sigma", "re_D", "im_D", "abs_D"], heat, " ")],
        "summary": {"n_points": sigma.size}}


def run_roots(cfg: dict, out_dir: Path) -> dict:
    with _reading("roots config"):
        profile, params = _read_spray(cfg)
        region = build_region(cfg.get("region"), params, profile)
        tol = _num(cfg.get("root_tolerance", DEFAULTS_TABLE["root_tolerance"]))
        if not 0.0 < tol <= 1e-3:
            raise ConfigError(f"root_tolerance must lie in (0, 1e-3], got {tol}")
    reports = dispersion.find_roots(params, profile, region, tol=tol)
    return {"outputs": [_write_json(out_dir / "roots.json",
                                    [r.as_dict() for r in reports])],
            "summary": {"count": len(reports),
                        "n_unstable": sum(1 for r in reports if r.sigma.imag > 0),
                        "region": {"re_min": region.re_min, "re_max": region.re_max,
                                   "im_min": region.im_min,
                                   "im_max": region.im_max}}}


def _root_near(params, profile, center: float, seed):
    """The root of the thin-spray branch at center = +-c0: `_seeded_root` from
    seed() at the scale c0, kept if its count is 1 and |Re sigma - center| <
    c0/2 (set by center: the seed can change sign at large kappa); else None."""
    func = functools.partial(dispersion.dispersion_value, params, profile)
    try:
        root = dispersion._seeded_root(func, seed(), params.c0,
                                       profiles.bump_edges(profile))
        if root.winding_evidence == 1 and abs(root.sigma.real - center) < 0.5 * params.c0:
            return root
    except SprayWaveError:
        pass           # a failed seed gives no root; no box is searched
    warnings.warn(f"no certified root near the {'+' if center > 0 else '-'}c* seed "
                  f"at kappa = {params.kappa:g}", stacklevel=2)
    return None


def run_thin_spray(cfg: dict, out_dir: Path) -> dict:
    with _reading("thin-spray config"):
        profile = build_profile(cfg["profile"])
        sweep = cfg.get("sweep", {}).get("kappa_values")
        if sweep is not None and not sweep:
            raise ConfigError(f"sweep.kappa_values must list a kappa, got {sweep!r}")
        kappas = [_num(k) for k in sweep or [cfg["params"].get("kappa", 0.0)]]
        sprays = [build_params({**cfg["params"], "kappa": k}, profile) for k in kappas]

    def analyze(params: SprayParams) -> tuple[dict, dict]:
        c_star, gamma = dispersion.thin_spray_expansion(params, profile)
        entry = {"kappa": params.kappa, "c_star": c_star, "gamma": gamma}
        locus = {}
        seeds = (("plus", params.c0, lambda: complex(c_star, gamma)),
                 ("minus", -params.c0, lambda: complex(
                     -c_star, dispersion.damping_rate_at(params, profile, -c_star))))
        # only the locus files of a sweep read the minus root
        for name, center, seed in seeds[:2 if sweep else 1]:
            root = _root_near(params, profile, center, seed)
            if root is None:
                continue
            locus[name] = (params.kappa, root.sigma.real, root.sigma.imag)
            if name == "plus":
                error = abs(root.sigma - complex(c_star, gamma))
                entry["root_check"] = {
                    "re_sigma": root.sigma.real, "im_sigma": root.sigma.imag,
                    "residual": root.residual, "expansion_error": error}
                if 0.0 < error >= abs(gamma):      # both are 0 at kappa = 0
                    warnings.warn(f"first-order rate gamma = {gamma:.3g} is no guide at "
                                  f"kappa = {params.kappa:g}: the certified root "
                                  f"{root.sigma:.6g} lies {error:.3g} from c* + i gamma")
        return entry, locus

    results = [analyze(params) for params in sprays]
    payload = {"sweep": [entry for entry, _ in results]} if sweep else results[0][0]
    outputs = [_write_json(out_dir / "thin_spray.json", payload)]
    if sweep:
        outputs += [_write_table(out_dir / f"root_locus_{name}.dat",
                                 ["#", "kappa", "re_sigma", "im_sigma"],
                                 np.array([locus[name] for _, locus in results
                                           if name in locus]).reshape(-1, 3).T,
                                 " ")
                    for name in ("plus", "minus")]
    return {"outputs": outputs,
            "summary": {"n_kappa": len(results)} if sweep else payload}


def run_landau_compare(cfg: dict, out_dir: Path) -> dict:
    with _reading("landau-compare config"):
        profile, params = _read_spray(cfg)
        spec = cfg.get("landau", {})
        k1, k2 = (_num(k) for k in spec.get("k_values", [1.0, 2.0]))
        if 0.0 in (k1, k2):
            raise ConfigError(f"landau.k_values must be nonzero, got {[k1, k2]}")
        im_sigma = _num(spec.get("im_sigma", 0.05))
        re_axis = _grid_axis(spec.get("re"), (-3.0 * params.c0, 3.0 * params.c0, 61))
    sigma = np.empty(re_axis.size, dtype=complex)
    sigma.real, sigma.imag = re_axis, im_sigma
    # points at the sigma = 0 pole are left out
    sigma = sigma[np.abs(sigma) >= dispersion.POLE_RADIUS * params.c0]
    d_spray = dispersion.dispersion_value(params, profile, sigma)
    d1 = dispersion.landau_dispersion(profile, k1, sigma * k1)
    d2 = dispersion.landau_dispersion(profile, k2, sigma * k2)
    contrast = float(np.abs(d1 - d2).max(initial=0.0))
    columns = [part for x in (sigma, d_spray, d1, d2) for part in (x.real, x.imag)]
    head = ["re_sigma", "im_sigma", "re_D", "im_D"]
    head += [f"{part}_DL_k{k:g}" for k in (k1, k2) for part in ("re", "im")]
    return {"outputs": [_write_table(out_dir / "landau_compare.csv", head, columns, ",")],
            "summary": {"k_values": [k1, k2], "max_k_contrast": contrast}}


def run_simulate(cfg: dict, out_dir: Path) -> dict:
    with _reading("sim config"):
        profile, params = _read_spray(cfg)
        sim = cfg.get("sim", {})
        init = sim.get("init", {})
        init_type = init.get("type", "acoustic")
        if init_type not in ("acoustic", "eigenmode"):
            raise ConfigError(f"unknown sim init type {init_type!r}")
        eigenmode = init_type == "eigenmode"
        k = _num(sim.get("k", 1.0))
        if k == 0.0:
            raise ConfigError(f"sim.k must be nonzero, got {k}")
        sigma = None
        if eigenmode and "sigma" in init:
            re_sigma, im_sigma = init["sigma"]
            sigma = complex(_num(re_sigma), _num(im_sigma))
        t_final = _num(sim["t_final"]) if "t_final" in sim else None
        growth_spans = _num(sim.get("growth_spans", 6.0))
        periods = _num(sim.get("periods", 10.0))
        nv = _num(sim.get("nv", modesim.DEFAULT_NV), int)
        dt = _num(sim["dt"]) if "dt" in sim else None
        direction = _num(init.get("direction", 1))
        region = build_region(cfg.get("region"), params, profile) \
            if eigenmode and sigma is None else None
    if region is not None:
        reports = dispersion.find_roots(params, profile, region)
        if not reports:
            raise ConfigError(f"no dispersion root to seed the eigenmode in {region}")
        sigma = max(reports, key=lambda r: r.sigma.imag).sigma
    # a growing run spans growth_spans e-folds, any other a number of periods
    if t_final is None and eigenmode and k * sigma.imag > 0:
        t_final = growth_spans / (k * sigma.imag)
    elif t_final is None:
        t_final = (10.0 if eigenmode else periods) * 2.0 * math.pi / (abs(k) * params.c0)
    with _reading("sim config"):
        config = modesim.default_sim_config(params, profile, k, t_final=t_final, nv=nv,
                                            dt=dt)
        state = None if eigenmode else modesim.acoustic_state(
            params, k, config, direction=direction)
    if eigenmode:
        state = modesim.init_eigenmode(params, profile, sigma, k, config)
    traj = modesim.integrate(params, profile, state, config)
    # np.hypot is the libm hypot of Python's abs(complex); np.abs differs in the last bit
    tau, u = traj.tau_hat, traj.u_hat
    columns = [traj.times, tau.real, tau.imag, np.hypot(tau.real, tau.imag),
               np.hypot(u.real, u.imag), traj.kinetic_l2]
    outputs = [_write_table(out_dir / "simulate.csv", ["t", "re_tau", "im_tau",
                                                       "abs_tau", "abs_u", "kinetic_l2"],
                            columns, ",")]
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
        profile, params = _read_spray(cfg)
        spec = cfg.get("illposed", {})
        region = build_region(cfg.get("region"), params, profile)
        s = _num(spec.get("s", 1.0))
        n_exponent = _num(spec.get("n_exponent", 2.0))
        k_list = [_num(k) for k in spec.get("k_list", [8.0, 16.0, 32.0])]
        nv = _num(spec.get("nv", modesim.DEFAULT_NV), int)
        modesim.check_scaling_inputs(params, profile, s, n_exponent, k_list, nv)
    try:
        report = modesim.sobolev_scaling_experiment(params, profile, region=region, s=s,
                                                    n_exponent=n_exponent, k_list=k_list,
                                                    nv=nv)
    except NoUnstableRoot as err:
        raise ConfigError(f"{err}: {region}") from err
    head = ["k", "t_k", "init_hs_norm", "final_l2_norm", "fitted_rate"]
    columns = [[getattr(r, name) for r in report.rows] for name in head]
    summary = {"theta0": report.theta0,
               "final_norm_nondecreasing": report.final_norm_nondecreasing,
               "sigma": [report.sigma.real, report.sigma.imag]}
    outputs = [_write_table(out_dir / "illposed_demo.csv", head, columns, ","),
               _write_json(out_dir / "illposed_summary.json", summary)]
    outputs += [_write_table(out_dir / f"growth_k{t.k:g}.dat", ["#", "t", "abs_tau"],
                             [t.times, np.hypot(t.tau_hat.real, t.tau_hat.imag)], " ")
                for t in report.trajectories]
    return {"outputs": outputs, "summary": summary}


def run_stability_check(cfg: dict, out_dir: Path) -> dict:
    lambda0 = None
    with _reading("stability-check config"):
        profile = build_profile(cfg["profile"]) if "profile" in cfg else None
        if ("system" in cfg) == ("scalar" in cfg):
            raise ConfigError("stability-check needs one of the 'system' and 'scalar' "
                              "config blocks, not both or neither")
        if "system" in cfg:
            system = build_system(cfg["system"], profile)
        else:
            lambda0 = _num(cfg["scalar"]["lambda0"])
            system = hyperbolic.scalar_law(lambda0, _num(cfg["scalar"]["kappa"]), profile)
    verdicts = hyperbolic.stability_necessary_condition(system)
    # a scalar law's one root is also its mode 0's tracked root
    root = hyperbolic.scalar_root(system) if lambda0 is not None else None
    entries = []
    for v in verdicts:
        entry = v.as_dict()
        if v.verdict != hyperbolic.DECOUPLED and system.kappa != 0.0:
            tracked = (root.sigma if root else
                       hyperbolic.track_secular_root(system, v.j, system.kappa))
            entry["tracked_sigma"] = [tracked.real, tracked.imag]
            entry["tracked_imag_per_kappa"] = tracked.imag / system.kappa
        entries.append(entry)
    payload = {"modes": entries,
               "fails_necessary_condition":
                   hyperbolic.fails_necessary_condition(verdicts),
               "kappa": system.kappa}
    if root is not None:
        payload["scalar"] = {
            "lambda0": lambda0, "kappa": system.kappa,
            "leading_imag": system.kappa * verdicts[0].imag_rate,
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
COMMANDS = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _holds_bump(d: dict) -> bool:
    """Whether a profile config holds a bump term, at its top or in a sum."""
    return d.get("kind") == "bump_on_tail" or any(map(_holds_bump, d.get("parts", ())))


def _config_notes(cfg: dict) -> list[str]:
    notes = ["analytic continuation term carries the 1/alpha0 prefactor of the "
             "principal-value term"]
    # stability-check reads the system's own profile where it has one
    system = cfg.get("system", {}) if cfg.get("command") == "stability-check" else {}
    if _holds_bump(system.get("profile") or cfg.get("profile") or {}):
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
        with _reading(f"config file {config_path}"):
            file_cfg = json.loads(Path(config_path).read_text(encoding="utf-8"),
                                  parse_int=lambda text: _num(int(text), int),
                                  parse_float=lambda text: _num(float(text)),
                                  parse_constant=lambda text: _num(float(text)))
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
    with _reading("quadrature config"):
        check_quadrature(cfg.get("quadrature"))
    return cfg


def run(cfg: dict, quiet: bool = False) -> int:
    """Execute one command described by a merged config; returns the exit code."""
    command = cfg.get("command")
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    out_dir = Path(cfg["output_dir"])
    with _reading(f"output_dir {out_dir}"):
        out_dir.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        result = _HANDLERS[command](cfg, out_dir)
        captured = [str(w.message) for w in wlist]
    echo = {k: v for k, v in cfg.items() if k != "output_dir"}
    manifest = {
        "command": command,
        "scenario": cfg.get("seed_scenario"),
        "config": echo,
        "config_sha256": hashlib.sha256(
            json.dumps(echo, sort_keys=True).encode()).hexdigest(),
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
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--scenario", metavar="NAME",
                        help=f"bundled scenario, one of {sorted(SCENARIOS)}")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: 'out')")
    parser.add_argument("--quiet", action="store_true")
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
