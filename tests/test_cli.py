import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import wofz

from conftest import mp_transform, system_mode_sigmas
from spraywaves import cli, dispersion, hyperbolic, modesim, profiles
from spraywaves.dispersion import SearchRegion
from spraywaves.errors import SprayWaveError, StripViolation
from spraywaves.cli import (DEFAULTS_TABLE, ConfigError, _config_notes, _write_table,
                            build_profile, check_quadrature, main)
from spraywaves.scenarios import SCENARIOS


BUMP = SCENARIOS["bump-unstable"]["profile"]
MAXWELLIAN = SCENARIOS["maxwellian-stable"]["profile"]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestConfigBuilders:
    def test_profile_round_trip(self):
        p = build_profile({"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5,
                           "c_star": 5.0,
                           "base": {"kind": "maxwellian", "width": 1.0}})
        assert [(g.coef, g.width) for g in p.gaussians] == [(0.95, 1.0)]
        assert [(b.mass, b.eta, b.c_star) for b in p.bumps] == [(0.05, 0.5, 5.0)]

    def test_profile_errors(self):
        with pytest.raises(ConfigError):
            build_profile({"kind": "nope"})
        with pytest.raises(ConfigError):
            build_profile({"kind": "bump_on_tail", "eps": 0.1})
        with pytest.raises(ConfigError):
            build_profile({"kind": "maxwellian", "width": -1.0})

    def test_quadrature_keys(self, tmp_path):
        # the block may restate the fixed quadrature; L and window of older
        # configs are checked, noted, then ignored
        quad = {"L": 14.0, "nodes": 256, "axis_tolerance": 1e-12, "window": 0.5}
        for block in (None, {}, quad, {"nodes": 256.0}):
            check_quadrature(block)
        for key in ("L", "window"):
            with pytest.raises(ValueError):
                check_quadrature({key: -1.0})
        for key, value, fixed in (("nodes", 128, "256"), ("nodes", 512, "256"),
                                  ("axis_tolerance", 1e-13, "1e-12")):
            with pytest.raises(ValueError, match=f"quadrature.{key} is fixed at {fixed}"):
                check_quadrature({**quad, key: value})
        # load_config makes the one check, for every command
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"quadrature": {"nodes": 128}}))
        for command in cli.COMMANDS:
            with pytest.raises(ConfigError, match="quadrature.nodes is fixed at 256"):
                cli.load_config(command, "maxwellian-stable", str(cfgfile), None)
        note = "quadrature keys L, window are ignored"
        assert any(n.startswith(note) for n in _config_notes({"quadrature": quad}))
        assert not any("ignored" in n for n in _config_notes(SCENARIOS["bump-unstable"]))

    @pytest.mark.parametrize("command,scenario,override,notes", [
        # a bump term in a sum, and a sum without one
        ("roots", "maxwellian-stable", {"profile": {"kind": "sum", "parts": [BUMP]}}, 1),
        ("roots", "maxwellian-stable",
         {"profile": {"kind": "sum", "parts": [MAXWELLIAN, MAXWELLIAN]}}, 0),
        # a bump on a base that holds a bump, in a sum: one note
        ("roots", "maxwellian-stable", {"profile": {"kind": "sum", "parts": [
            {**BUMP, "c_star": 3.0,
             "base": {"kind": "sum", "parts": [MAXWELLIAN, BUMP]}}]}}, 1),
        # stability-check reads the system's own profile over the top-level one
        ("stability-check", "system-prop1", {"system": {"profile": BUMP}}, 1),
        ("stability-check", "system-prop1",
         {"profile": BUMP, "system": {"profile": MAXWELLIAN}}, 0),
        ("stability-check", "scalar-coupling", {"profile": BUMP}, 1),
    ])
    def test_bump_note_follows_the_run_profile(self, tmp_path, command, scenario,
                                               override, notes):
        if command == "roots":
            override = {**override, "params": SCENARIOS["bump-unstable"]["params"],
                        "region": SCENARIOS["bump-unstable"]["region"]}
        cfgfile, out = tmp_path / "c.json", tmp_path / "out"
        cfgfile.write_text(json.dumps(override))
        assert main([command, "--scenario", scenario, "--config", str(cfgfile),
                     "--out", str(out), "--quiet"]) == 0
        warnings = read_json(out / "manifest.json")["warnings"]
        assert sum(w.startswith("bump profile: off-axis") for w in warnings) == notes


class TestExitCodes:
    def test_missing_config_exits_2(self, capsys):
        assert main(["roots"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 2

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["roots", "--scenario", "nope"]) == 2

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["roots", "--config", str(bad)]) == 2

    def test_directory_config_exits_2(self, tmp_path, capsys):
        assert main(["roots", "--config", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "is a directory" in err["error"]["message"]

    def test_unreadable_config_exits_2(self, tmp_path, capsys, monkeypatch):
        # the config file's read is its only check; a missing file, and files
        # that exist but fail to read (root reads a mode-000 file, so the
        # kernel's /proc/self/mem and a patched read_text stand in)
        cfgfile = tmp_path / "c.json"
        for path in (tmp_path / "missing.json", "/proc/self/mem"):
            assert main(["roots", "--config", str(path)]) == 2
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["exit_code"] == 2 and err["type"] == "ConfigError"
            assert err["message"].startswith(f"invalid config file {path}: ")
        assert err["message"].endswith("input/output error")

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        cfgfile.write_text("{}")
        monkeypatch.setattr(Path, "read_text", denied)
        assert main(["roots", "--config", str(cfgfile)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == f"invalid config file {cfgfile}: permission denied"

    @pytest.mark.parametrize("under", [False, True])
    def test_output_path_not_a_directory_exits_2(self, tmp_path, capsys, under):
        # --out naming a regular file, or a path under one, is a config error
        # raised before anything is computed, and the file is left as it was
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "sub" if under else blocker
        assert main(["roots", "--scenario", "maxwellian-stable", "--out", str(out),
                     "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["exit_code"] == 2 and err["type"] == "ConfigError"
        assert err["message"].startswith(f"invalid output_dir {out}: ")
        assert err["message"] == err["message"].lower()
        assert blocker.read_text() == "kept"

    def test_command_mismatch_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "simulate"}))
        assert main(["roots", "--config", str(cfgfile)]) == 2

    def test_alpha0_exits_2(self, tmp_path, capsys):
        # alpha0 follows from kappa and the profile, even where it would agree
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"params": {"alpha0": 0.99}}))
        code = main(["simulate", "--scenario", "maxwellian-stable", "--config",
                     str(cfgfile), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "alpha0 = 1 - kappa * m0" in err["error"]["message"]

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # the eigenmode's box has the Maxwellian root on its right edge, so its
        # root count cannot be certified
        cfg = {
            "profile": {"kind": "maxwellian"},
            "params": {"c0": 1.0, "rho0": 1.0, "kappa": 0.01},
            "region": {"re_min": 0.5, "re_max": 0.998583554016409, "im_min": -0.05,
                       "im_max": 0.02},
            "sim": {"nv": 512, "k": 2.0, "init": {"type": "eigenmode"}},
        }
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 3
        assert err["error"]["type"] == "BoundaryRoot"

    @pytest.mark.parametrize("command,override", [
        ("simulate", {"sim": {"init": {"type": "eigenmode"}}, "region": None}),
        ("illposed-demo", {"region": None}),
        ("simulate", {"region": {"re_min": -2.0, "re_max": 2.0, "im_min": 1e-6,
                                 "im_max": 0.2},
                      "sim": {"nv": 512, "k": 2.0, "init": {"type": "eigenmode"}}}),
    ])
    def test_eigenmode_of_a_box_without_root_exits_2(self, tmp_path, capsys, command,
                                                     override):
        # a stable spray has no root in the verdict box, nor in an upper box: the
        # config asks for an eigenmode that does not exist
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(override))
        code = main([command, "--scenario", "maxwellian-stable", "--config",
                     str(cfgfile), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        cfg = cli._deep_merge(SCENARIOS["maxwellian-stable"], override)
        profile = build_profile(cfg["profile"])
        params = cli.build_params(cfg["params"], profile)
        assert str(cli.build_region(cfg["region"], params, profile)) in err["message"]

    @pytest.mark.parametrize("command,scenario,override", [
        ("dispersion-scan", "maxwellian-stable", {"scan": {"re": [0.2, 2.0]}}),
        ("simulate", "maxwellian-stable", {"sim": {"nv": 128}}),
        ("illposed-demo", "bump-unstable", {"illposed": {"k_list": [8.0, 16.0]}}),
        ("illposed-demo", "bump-unstable", {"illposed": {"nv": 128}}),
        ("thin-spray", "thin-spray-sweep", {"sweep": {"kappa_values": [4e-3, "x"]}}),
        ("landau-compare", "maxwellian-stable", {"landau": {"im_sigma": "x"}}),
        ("roots", "maxwellian-stable", {"root_tolerance": "x"}),
        ("simulate", "maxwellian-stable", {"sim": {"k": 0}}),
        ("simulate", "bump-unstable", {"sim": {"init": {"sigma": [4.5]}}}),
        ("simulate", "maxwellian-stable", {"sim": {"periods": "x"}}),
        ("simulate", "maxwellian-stable", {"sim": {"t_final": "x"}}),
        ("simulate", "bump-unstable", {"sim": {"growth_spans": "x"}}),
        ("simulate", "maxwellian-stable", {"sim": {"init": {"direction": "x"}}}),
        ("simulate", "maxwellian-stable", {"sim": {"init": {"direction": 0}}}),
        ("simulate", "maxwellian-stable", {"sim": {"init": {"direction": 1.5}}}),
        ("roots", "maxwellian-stable", {"quadrature": {"nodes": 1e308}}),
        ("roots", "maxwellian-stable", {"quadrature": {"nodes": 512}}),
        ("roots", "maxwellian-stable", {"quadrature": {"axis_tolerance": 1e-13}}),
        ("roots", "maxwellian-stable", {"quadrature": {"L": math.nan}}),
        ("roots", "maxwellian-stable", {"quadrature": {"window": math.nan}}),
        ("roots", "maxwellian-stable",
         {"params": {"c0": math.nan, "rho0": 1.0, "kappa": 0.01}}),
        ("roots", "maxwellian-stable", {"profile": {"width": 1e308}}),
        ("roots", "bump-unstable", {"profile": {"eta": 1e308}}),
        ("roots", "bump-unstable", {"profile": {"c_star": math.nan}}),
        ("roots", "bump-unstable", {"profile": {"eps": 1.5}}),
        ("stability-check", "system-prop1", {"system": {"kappa": math.nan}}),
        ("stability-check", "system-prop1", {"system": {"A": [[1.0, math.nan],
                                                              [math.nan, 2.0]]}}),
        ("stability-check", "system-prop1", {"system": {"A": [[1.0, 0.3], [0.0, 2.0]]}}),
        ("stability-check", "system-prop1", {"system": {"grad_psi": [1.0, math.inf]}}),
        ("stability-check", "system-prop1", {"system": {"phi_coeffs": [[math.nan, 0.4]]}}),
        ("stability-check", "scalar-coupling", {"scalar": {"lambda0": math.nan}}),
        ("dispersion-scan", "maxwellian-stable", {"scan": {"re": [-3, 3, 1e9]}}),
        ("dispersion-scan", "maxwellian-stable", {"scan": {"im": [-0.2, math.inf, 5]}}),
        ("landau-compare", "maxwellian-stable", {"landau": {"re": [-3, 3, 0]}}),
        ("roots", "maxwellian-stable", {"profile": {"mass": 1e300}}),
        ("roots", "maxwellian-stable", {"profile": {"width": 1e-300}}),
        ("roots", "maxwellian-stable",
         {"profile": {"kind": "bump_on_tail", "eps": 0.05, "eta": 1e-300,
                      "c_star": 1.5, "base": {"kind": "maxwellian"}}}),
        ("simulate", "maxwellian-stable", {"sim": {"dt": 0.5}}),   # above the CFL bound
        ("simulate", "maxwellian-stable", {"profile": {"width": 1e-300}}),
        ("simulate", "maxwellian-stable", {"params": {"c0": 1e-300}}),
        ("roots", "maxwellian-stable", {"params": {"c0": 10**400}}),
        ("dispersion-scan", "maxwellian-stable", {"scan": {"re": [-3, 10**400, 5]}}),
        ("landau-compare", "maxwellian-stable", {"landau": {"re": [-3, 3, 10**400]}}),
        ("illposed-demo", "bump-unstable", {"illposed": {"k_list": [8, 16, 1e300]}}),
        ("illposed-demo", "bump-unstable", {"illposed": {"k_list": [1, 16, 32]}}),
        # bump breakpoints c* +- eta 2^-j that round together are refused
        ("roots", "bump-unstable", {"profile": {"c_star": 1e308}}),
        ("landau-compare", "maxwellian-stable", {"landau": {"k_values": [0, 1]}}),
        ("roots", "bump-unstable", {"profile": {"c_star": 1e16}}),   # the same
        ("simulate", "maxwellian-stable", {"sim": {"dt": math.nan}}),
        # non-finite numbers, and a root tolerance that is not in (0, 1e-3]
        ("roots", "maxwellian-stable", {"region": {"re_max": math.inf}}),
        ("roots", "bump-unstable", {"region": {"im_max": math.inf}}),
        ("simulate", "bump-unstable", {"region": {"re_min": -math.inf}}),
        ("illposed-demo", "bump-unstable", {"region": {"re_max": math.inf}}),
        ("simulate", "bump-unstable", {"sim": {"init": {"sigma": [math.nan, 0.06]}}}),
        ("illposed-demo", "bump-unstable", {"illposed": {"s": math.nan}}),
        ("landau-compare", "maxwellian-stable", {"landau": {"im_sigma": math.nan}}),
        ("roots", "maxwellian-stable", {"root_tolerance": math.nan}),
        ("roots", "maxwellian-stable", {"root_tolerance": -1}),
        ("roots", "maxwellian-stable", {"root_tolerance": 1e300}),
        ("roots", "maxwellian-stable", {"root_tolerance": 0.01}),
        # the model is linearized in the fluid's rest frame: no background drift
        ("roots", "maxwellian-stable", {"params": {"u0": 0.5}}),
        # counts are whole numbers, not truncated
        ("dispersion-scan", "maxwellian-stable",
         {"scan": {"re": [-3, 3, 40.5], "im": [-0.2, 0.2, 2.9]}}),
        ("simulate", "maxwellian-stable", {"sim": {"nv": 300.9}}),
        ("illposed-demo", "bump-unstable", {"illposed": {"nv": 2048.5}}),
        # non-finite numbers are refused as the file is parsed; a string is
        # written as it stands (json.dumps writes no literal that overflows)
        ("simulate", "maxwellian-stable", {"sim": {"dt": math.inf}}),
        ("simulate", "maxwellian-stable", '{"sim": {"dt": 1e999}}'),
        # a number written as a string is read through the same finiteness rule
        ("roots", "maxwellian-stable", {"region": {"re_max": "inf"}}),
        ("landau-compare", "maxwellian-stable", {"landau": {"im_sigma": "nan"}}),
        ("dispersion-scan", "maxwellian-stable", {"scan": {"re": [-3, "inf", 5]}}),
        ("simulate", "maxwellian-stable", {"sim": {"dt": "1e999"}}),
        ("simulate", "bump-unstable", {"sim": {"init": {"sigma": ["nan", 0.06]}}}),
        # a number must be a JSON number: no string, no boolean
        ("simulate", "maxwellian-stable", {"sim": {"k": "2.5"}}),
        ("simulate", "maxwellian-stable", {"sim": {"k": True}}),
        ("simulate", "maxwellian-stable", {"sim": {"init": {"direction": True}}}),
        ("roots", "maxwellian-stable", {"root_tolerance": "1e-9"}),
        ("dispersion-scan", "maxwellian-stable", {"scan": {"re": [-3, 3, "40"]}}),
        ("stability-check", "system-prop1",
         {"system": {"A": [["1.0", 0.3], [0.3, True]]}}),
        # an empty sweep is refused, not run as the single kappa of params
        ("thin-spray", "thin-spray-sweep", {"sweep": {"kappa_values": []}}),
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, command, scenario, override):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(override if isinstance(override, str) else json.dumps(override))
        code = main([command, "--scenario", scenario, "--config", str(cfgfile),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 2
        assert err["error"]["type"] == "ConfigError"


    @pytest.mark.parametrize("command,scenario,override", [
        ("simulate", "maxwellian-stable", {"sim": {"nv": modesim.MAX_NV + 2}}),
        ("simulate", "maxwellian-stable", {"sim": {"nv": 10**12}}),
        ("simulate", "maxwellian-stable", {"sim": {"dt": 1e-9}}),
        ("simulate", "bump-unstable", {"sim": {"t_final": 1e12}}),
        ("illposed-demo", "bump-unstable", {"illposed": {"nv": 10**9}}),
    ])
    def test_work_cap_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch,
                                                command, scenario, override):
        # the refusal must come at the config read, before any state or
        # trajectory array is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("allocating call reached")

        monkeypatch.setattr(modesim, "integrate", refuse)
        monkeypatch.setattr(modesim, "init_eigenmode", refuse)
        monkeypatch.setattr(modesim, "acoustic_state", refuse)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(override))
        code = main([command, "--scenario", scenario, "--config", str(cfgfile),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("command,scenario,override", [
        ("roots", "maxwellian-stable", {"region": {"re_max": 1e308}}),
        ("thin-spray", "maxwellian-stable", {"params": {"c0": 1e308}}),
        ("dispersion-scan", "maxwellian-stable", {"scan": {"re": [-3, 1e308, 5]}}),
        ("simulate", "maxwellian-stable", {"params": {"rho0": 1e308}}),
        # a huge finite value is a numerical failure while computing, not a bad config
        ("simulate", "bump-unstable", {"sim": {"init": {"sigma": [4.97, 1e300]}}}),
        ("landau-compare", "maxwellian-stable", {"landau": {"im_sigma": 1e300}}),
        ("roots", "bump-unstable", {"region": {"im_max": 1e300}}),
        ("dispersion-scan", "maxwellian-stable", {"scan": {"im": [-1e300, 0.2, 5]}}),
    ])
    def test_overflow_exits_3(self, tmp_path, capsys, command, scenario, override):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(override))
        code = main([command, "--scenario", scenario, "--config", str(cfgfile),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 3


def _leaves(node, path=()):
    """Key paths of the scalar leaves of a nested config (list entries included)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    out = list(node) if isinstance(node, list) else dict(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


class TestExitCodeSweep:
    """Every single-leaf corruption of a bundled scenario, every replacement of a
    whole block and every bad output_dir exits 0, 2 or 3, and a failed run leaves
    one JSON error object on stderr.

    Only the blocks the command reads are swept; the whole sweep runs in-process
    in a few seconds.
    """

    SWEEPS = [("roots", "maxwellian-stable", ("profile", "params", "quadrature",
                                               "region")),
              ("stability-check", "scalar-coupling", ("profile", "quadrature",
                                                      "scalar")),
              ("stability-check", "system-prop1", ("profile", "quadrature",
                                                   "system")),
              ("simulate", "maxwellian-stable", ("profile", "params", "sim")),
              ("dispersion-scan", "maxwellian-stable", ("scan",)),
              ("landau-compare", "maxwellian-stable", ("landau",))]
    VALUES = ["x", math.nan, 1e308, -1, None, 0, [], {}, [1, 2], True, 1e-300]
    # scalar leaves each sweep must reach (the bundled scenarios have 10 to 17
    # in the swept blocks of roots, simulate and stability-check, 6 in scan and
    # landau)
    MIN_LEAVES = {"roots": 9, "stability-check": 9, "simulate": 9,
                  "dispersion-scan": 6, "landau-compare": 6}

    @pytest.mark.parametrize("command,scenario,blocks", SWEEPS)
    def test_single_leaf_replacements(self, tmp_path, capsys, monkeypatch, command,
                                      scenario, blocks):
        monkeypatch.chdir(tmp_path)      # output_dir = "x" writes to ./x
        base = {**SCENARIOS[scenario], "output_dir": str(tmp_path / "out")}
        if "quadrature" in blocks:
            # the keys of older configs, still checked before they are ignored
            base["quadrature"] = {**base["quadrature"], "L": 12.0, "window": 1.0}
        cfgfile = tmp_path / "c.json"
        leaves = list(_leaves({key: base[key] for key in blocks}))
        assert len(leaves) >= self.MIN_LEAVES[command]
        runs = 0
        # the leaves of the swept blocks, each whole block, then output_dir
        for path in [*leaves, *((key,) for key in blocks), ("output_dir",)]:
            for value in self.VALUES:
                cfgfile.write_text(json.dumps(_replaced(base, path, value)))
                capsys.readouterr()
                code = main([command, "--config", str(cfgfile), "--quiet"])
                where = f"{'.'.join(map(str, path))} = {value!r}: exit {code}"
                assert code in (0, 2, 3), where
                if code:
                    err = json.loads(capsys.readouterr().err)
                    assert err["error"]["exit_code"] == code, where
                runs += 1
        assert runs == len(self.VALUES) * (len(leaves) + len(blocks) + 1)


def test_defaults_table_is_unchanged():
    # the manifest's defaults block is read from library constants; pin its bytes
    assert json.dumps(DEFAULTS_TABLE, sort_keys=True) == json.dumps({
        "root_tolerance": 1e-10, "axis_tolerance": 1e-12, "winding_defect_max": 0.25,
        "boundary_min_modulus": 1e-9, "eigen_gap_min": 1e-8,
        "eigen_residual_max": 1e-10, "cfl_fraction": 0.1, "eigenmode_residual_max": 1e-8,
        "grid_resolution_multiple": 3.0}, sort_keys=True)


TABLES = {
    "dispersion_scan.csv": (["re_sigma", "im_sigma", "re_D", "im_D", "branch"], ","),
    "scan_heatmap.dat": (["#", "re_sigma", "im_sigma", "re_D", "im_D", "abs_D"], " "),
    "landau_compare.csv": (["re_sigma", "im_sigma", "re_D", "im_D", "re_DL_k1",
                            "im_DL_k1", "re_DL_k2", "im_DL_k2"], ","),
    "root_locus_plus.dat": (["#", "kappa", "re_sigma", "im_sigma"], " "),
    "root_locus_minus.dat": (["#", "kappa", "re_sigma", "im_sigma"], " "),
    "simulate.csv": (["t", "re_tau", "im_tau", "abs_tau", "abs_u", "kinetic_l2"], ","),
    "illposed_demo.csv": (["k", "t_k", "init_hs_norm", "final_l2_norm",
                           "fitted_rate"], ","),
    "growth_k8.dat": (["#", "t", "abs_tau"], " "),
    "growth_k16.dat": (["#", "t", "abs_tau"], " "),
}


def _read_table(path, head, sep):
    """Rows of a written table after checking its header, separator, column
    count and that every number is printed as %.17g of the double it parses to."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == sep.join(head)
    rows = [line.split(sep) for line in lines[1:]]
    for cells in rows:
        assert len(cells) == len(head) - (head[0] == "#"), (path.name, cells)
        for cell in cells:
            if cell not in ("upper", "real_axis", "lower"):
                assert "%.17g" % float(cell) == cell, (path.name, cell)
    return rows


def _fake_scaling_experiment(params, profile, **kwargs):
    trajectories = tuple(modesim.Trajectory(
        k=k, times=np.linspace(0.0, 1.0, 7), tau_hat=np.exp((0.3 + 1j) * k * np.arange(7)),
        u_hat=np.zeros(7, complex), kinetic_l2=np.zeros(7), overflow=False,
        final_state=modesim.ModeState(k=k, tau_hat=0j, u_hat=0j, f_hat=np.zeros(4)))
        for k in kwargs["k_list"][:2])
    rows = tuple(modesim.ScalingRow(k=t.k, t_k=1.0, init_hs_norm=1.0 / 3.0,
                                    final_l2_norm=abs(t.tau_hat[-1]), fitted_rate=0.1)
                 for t in trajectories)
    return modesim.ScalingReport(rows=rows, sigma=4.9 + 0.01j, theta0=1.0,
                                 final_norm_nondecreasing=True,
                                 trajectories=trajectories)


class TestTableWriter:
    def test_values_round_trip(self, tmp_path):
        values = [0.1, -0.0, 2.0 / 3.0, 1e-300, 5e-324, 1.7976931348623157e308,
                  np.float64(-1e-17), np.float64(math.pi), 7]
        for sep, head in ((",", [f"c{i}" for i in range(10)]),
                          (" ", ["#", *(f"c{i}" for i in range(10))])):
            path = tmp_path / "t.txt"
            columns = [*zip(values, values[::-1]), ["nan", "x"]]
            assert _write_table(path, head, columns, sep) == "t.txt"
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == sep.join(head) and len(lines) == 3
            for line, expected, text in zip(lines[1:], (values, values[::-1]),
                                            ("nan", "x")):
                cells = line.split(sep)
                assert len(cells) == 10 and cells[-1] == text
                assert [float(c) for c in cells[:-1]] == expected
                assert [math.copysign(1.0, float(c)) for c in cells[:-1]] == \
                    [math.copysign(1.0, v) for v in expected]

    @pytest.mark.parametrize("sep", [",", " "])
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_bytes_match_per_cell_formatting(self, tmp_path, sep, n):
        # rows go out in chunks of 1,024: counts on each side of a chunk edge,
        # with float NaN and inf cells, strided views, ints, bools and a str
        # column, must come out as cell-by-cell %.17g / %s formatting writes them
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[::7], x[3::11], x[5::13] = math.nan, -0.0, -math.inf
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        columns = [x, z.real, z.imag, list(range(-3, n - 3)),
                   [("upper", "real_axis", "lower")[i % 3] for i in range(n)],
                   np.arange(n) % 2 == 0]
        head = [f"c{j}" for j in range(len(columns))]
        path = tmp_path / "t.txt"
        assert _write_table(path, head, columns, sep) == "t.txt"
        want = "".join(sep.join(c if isinstance(c, str) else "%.17g" % c for c in row)
                       + "\n" for row in [head, *zip(*columns)])
        assert path.read_bytes() == want.encode("utf-8")
        assert n == 0 or f"\nnan{sep}" in want

    def test_rerun_replaces_every_artifact(self, tmp_path):
        # a rerun with another config into the same directory leaves only the
        # new bytes, in new files: a hard link to an old artifact keeps the old
        # bytes, so no artifact was truncated in place
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for periods, dest in ((2.0, out), (1.0, out), (1.0, fresh)):
            cfgfile = tmp_path / "c.json"
            cfgfile.write_text(json.dumps({"sim": {"periods": periods}}))
            if dest is out and periods == 1.0:
                old = {name: (out / name).read_bytes() for name in
                       ("simulate.csv", "manifest.json")}
                for name in old:
                    os.link(out / name, tmp_path / f"old_{name}")
            assert main(["simulate", "--scenario", "maxwellian-stable", "--config",
                         str(cfgfile), "--out", str(dest), "--quiet"]) == 0
        new = (out / "simulate.csv").read_bytes()
        assert new == (fresh / "simulate.csv").read_bytes()
        assert len(new) < len(old["simulate.csv"])
        manifests = [read_json(d / "manifest.json") for d in (out, fresh)]
        for m in manifests:
            m.pop("timestamp")
        assert manifests[0] == manifests[1]
        for name, data in old.items():
            assert (tmp_path / f"old_{name}").read_bytes() == data

    @pytest.mark.parametrize("command,scenario,override", [
        ("dispersion-scan", "maxwellian-stable",
         {"scan": {"re": [-1.0, 1.0, 101], "im": [-0.1, 0.1, 11]}}),
        ("landau-compare", "maxwellian-stable", {"landau": {"re": [-1.0, 1.0, 9]}}),
        ("thin-spray", "thin-spray-sweep", {"sweep": {"kappa_values": [2e-3, 1e-3]}}),
        ("simulate", "maxwellian-stable", {"sim": {"periods": 2.0}}),
        ("illposed-demo", "bump-unstable", {}),
    ])
    def test_every_table_artifact(self, tmp_path, monkeypatch, command, scenario,
                                  override):
        monkeypatch.setattr(modesim, "sobolev_scaling_experiment",
                            _fake_scaling_experiment)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(override))
        out = tmp_path / "out"
        assert main([command, "--scenario", scenario, "--config", str(cfgfile),
                     "--out", str(out), "--quiet"]) == 0
        tables = [name for name in read_json(out / "manifest.json")["outputs"]
                  if not name.endswith(".json")]
        assert tables and set(tables) <= set(TABLES)
        for name in tables:
            rows = _read_table(out / name, *TABLES[name])
            assert rows or name == "root_locus_minus.dat"
        if command == "dispersion-scan":
            # |D| is Python's abs(complex) of the printed parts, to the last bit
            rows = _read_table(out / "scan_heatmap.dat", *TABLES["scan_heatmap.dat"])
            assert [float(r[4]) for r in rows] == [
                abs(complex(float(r[2]), float(r[3]))) for r in rows]
        if command == "illposed-demo":
            # |tau| is Python's abs(complex), as in final_l2_norm, to the last bit
            rows = _read_table(out / "growth_k16.dat", *TABLES["growth_k16.dat"])
            traj = _fake_scaling_experiment(None, None, k_list=[8.0, 16.0])
            assert [[float(c) for c in row] for row in rows] == [
                [t, abs(z)] for t, z in zip(traj.trajectories[1].times,
                                            traj.trajectories[1].tau_hat.tolist())]
            demo = _read_table(out / "illposed_demo.csv", *TABLES["illposed_demo.csv"])
            assert rows[-1][1] == demo[1][3]


class TestRootsCommand:
    def test_maxwellian_stable_scenario(self, tmp_path):
        out = tmp_path / "mx"
        assert main(["roots", "--scenario", "maxwellian-stable",
                     "--out", str(out), "--quiet"]) == 0
        roots = read_json(out / "roots.json")
        assert isinstance(roots, list) and len(roots) == 2
        assert all(r["im_sigma"] < 0 for r in roots)
        assert all(r["interpretation"] == "decay_rate" for r in roots)
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "roots"
        assert manifest["outputs"] == ["roots.json"]
        assert manifest["summary"]["count"] == 2
        assert any("alpha0" in w for w in manifest["warnings"])

    @pytest.mark.slow
    def test_bump_unstable_scenario(self, tmp_path):
        out = tmp_path / "bu"
        assert main(["roots", "--scenario", "bump-unstable",
                     "--out", str(out), "--quiet"]) == 0
        roots = read_json(out / "roots.json")
        assert len(roots) >= 1
        assert any(r["im_sigma"] > 0 for r in roots)

    def test_upper_box_above_half_eta_accepted(self, tmp_path, capsys):
        # a box may reach any height above the axis and any depth below it
        # inside the support column (4.5, 5.5); one that crosses a support edge
        # below the axis is refused
        cfg = {"profile": {"kind": "bump_on_tail", "eps": 0.3, "eta": 0.5, "c_star": 5.0,
                           "base": {"kind": "maxwellian"}},
               "params": {"c0": 5.0, "rho0": 1.0, "kappa": 0.05},
               "region": {"re_min": 4.0, "re_max": 5.2, "im_min": 0.3, "im_max": 1.0}}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        out = tmp_path / "up"
        assert main(["roots", "--config", str(cfgfile), "--out", str(out),
                     "--quiet"]) == 0
        (root,) = read_json(out / "roots.json")
        assert (root["re_sigma"], root["im_sigma"]) == pytest.approx((4.567, 0.756),
                                                                     abs=5e-4)
        cfg["region"]["im_min"] = -0.3
        cfgfile.write_text(json.dumps(cfg))
        assert main(["roots", "--config", str(cfgfile), "--out", str(out),
                     "--quiet"]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "StripViolation"
        cfg["region"]["re_min"] = 4.53
        cfgfile.write_text(json.dumps(cfg))
        assert main(["roots", "--config", str(cfgfile), "--out", str(out),
                     "--quiet"]) == 0
        (again,) = read_json(out / "roots.json")
        assert complex(again["re_sigma"], again["im_sigma"]) == pytest.approx(
            complex(root["re_sigma"], root["im_sigma"]), abs=1e-12)

    @pytest.mark.parametrize("im_min", [-0.2, -0.3])
    def test_box_across_a_bump_edge_below_the_axis_exits_3(self, tmp_path, capsys,
                                                           im_min):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"region": {
            "re_min": 4.0, "re_max": 6.0, "im_min": im_min, "im_max": 0.1}}))
        assert main(["roots", "--scenario", "bump-unstable", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["exit_code"]) == ("StripViolation", 3)
        assert err["message"] == ("complex evaluation of the bump term refused at "
                                  f"{complex(4.5, im_min)}")

    @pytest.mark.parametrize("region", [
        {"re_min": 4.7, "re_max": 5.3, "im_min": -0.5, "im_max": 0.1},
        {"re_min": 4.5, "re_max": 5.0, "im_min": -0.01, "im_max": 0.3}])
    def test_bump_root_from_boxes_past_half_eta(self, tmp_path, region):
        # below the axis inside the support column, and across the axis with a
        # top above eta / 2: both boxes hold the bump-unstable root
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"region": region}))
        out = tmp_path / "out"
        assert main(["roots", "--scenario", "bump-unstable", "--config", str(cfgfile),
                     "--out", str(out), "--quiet"]) == 0
        (root,) = read_json(out / "roots.json")
        assert complex(root["re_sigma"], root["im_sigma"]) == pytest.approx(
            4.973115 + 0.060201j, abs=1e-6)

    def test_wide_upper_box_at_a_tiny_c0_counts(self, tmp_path):
        # an upper box takes no support samples, so their evaluation cap does
        # not refuse it however fine the feature scale
        cfg = {"profile": MAXWELLIAN, "params": {"c0": 1e-3, "rho0": 1.0, "kappa": 0.5},
               "region": {"re_min": -12.0, "re_max": 12.0, "im_min": 0.1, "im_max": 1.0}}
        assert self.run_roots(tmp_path, cfg) == 0
        assert read_json(tmp_path / "out" / "roots.json") == []

    def run_roots(self, tmp_path, cfg):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        return main(["roots", "--config", str(cfgfile), "--out", str(tmp_path / "out"),
                     "--quiet"])

    # the unit Maxwellian at c0 = 1, kappa = 0.05, and a box reaching deep below
    # the axis, far past half the width
    LOWER = {"profile": {"kind": "maxwellian"},
             "params": {"c0": 1.0, "rho0": 1.0, "kappa": 0.05},
             "region": {"re_min": -3.0, "re_max": 3.0, "im_min": -2.5, "im_max": -0.01}}

    @staticmethod
    def wofz_root(z, kappa=0.05):
        """Newton on D(sigma) = 1 - 1/sigma^2 + pref (1 + zeta Z(zeta)), zeta =
        sigma / sqrt 2, Z = i sqrt(pi) w from scipy, pref = kappa / (1 - kappa),
        with Z' = -2 (1 + zeta Z)."""
        pref = kappa / (1.0 - kappa)
        for _ in range(50):
            zeta = z / math.sqrt(2.0)
            zz = 1j * math.sqrt(math.pi) * wofz(zeta)
            f = 1.0 - 1.0 / z**2 + pref * (1.0 + zeta * zz)
            dzz = (zz - 2.0 * zeta * (1.0 + zeta * zz)) / math.sqrt(2.0)
            df = 2.0 / z**3 + pref * dzz
            z -= f / df
            if abs(f / df) < 1e-15:
                return z
        raise AssertionError("oracle Newton did not converge")

    def test_maxwellian_lower_spectrum_has_no_strip(self, tmp_path):
        assert self.run_roots(tmp_path, self.LOWER) == 0
        roots = read_json(tmp_path / "out" / "roots.json")
        assert [r["winding_evidence"] for r in roots] == [1, 1, 1, 1]
        seeds = (-1.21854 - 2.00568j, -0.99202 - 0.02007j, 0.99202 - 0.02007j,
                 1.21854 - 2.00568j)
        for root, seed in zip(roots, seeds):
            want = self.wofz_root(seed)
            assert abs(want - seed) < 1e-5
            assert abs(complex(root["re_sigma"], root["im_sigma"]) - want) <= 1e-10

    def test_strip_halfwidth_is_no_input(self, tmp_path, capsys):
        cfg = {**self.LOWER, "profile": {"kind": "maxwellian", "strip_halfwidth": 3.0}}
        assert self.run_roots(tmp_path, cfg) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError" and "no strip" in err["message"]

    def test_box_where_the_exponential_overflows_exits_3(self, tmp_path, capsys):
        cfg = {**self.LOWER, "region": {**self.LOWER["region"], "im_min": -40.0}}
        assert self.run_roots(tmp_path, cfg) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "FaddeevaOverflow"

    def test_small_box_centred_on_the_pole(self, tmp_path):
        # two-stream spray with one root either side of sigma = 0 in a box of
        # 0.1 c0 whose centre is the pole; u0 = 0 restates the rest frame
        part = {"kind": "maxwellian", "mass": 0.5, "width": 0.3}
        cfg = {"profile": {"kind": "sum", "parts": [{**part, "drift": -1.0},
                                                    {**part, "drift": 1.0}]},
               "params": {"c0": 1.0, "rho0": 1.0, "kappa": 0.998, "u0": 0.0},
               "region": {"re_min": -0.05, "re_max": 0.05, "im_min": -0.05,
                          "im_max": 0.05}}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        out = tmp_path / "pole"
        assert main(["roots", "--config", str(cfgfile), "--out", str(out),
                     "--quiet"]) == 0
        roots = read_json(out / "roots.json")
        assert sorted(r["im_sigma"] for r in roots) == pytest.approx(
            [-0.0357633, 0.0373658], abs=1e-7)

    def test_restated_quadrature_block_changes_nothing(self, tmp_path):
        # the block the benchmark sends: the fixed values plus ignored L, window
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"quadrature": {
            "L": 12.0, "nodes": 256, "axis_tolerance": 1e-12, "window": 1.0}}))
        bare, restated = tmp_path / "bare", tmp_path / "restated"
        assert main(["roots", "--scenario", "maxwellian-stable", "--out", str(bare),
                     "--quiet"]) == 0
        assert main(["roots", "--scenario", "maxwellian-stable", "--config",
                     str(cfgfile), "--out", str(restated), "--quiet"]) == 0
        assert (restated / "roots.json").read_bytes() == \
            (bare / "roots.json").read_bytes()

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "rt"
        main(["roots", "--scenario", "maxwellian-stable", "--out", str(out),
              "--quiet"])
        payload = read_json(out / "roots.json")
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload

    def test_system_profile_embedded(self, tmp_path):
        cfg = {"system": {"A": [[1.0, 0.0], [0.0, 2.0]], "grad_psi": [1.0, 1.0],
                          "phi_coeffs": [[1.0, 1.0]], "kappa": 0.0,
                          "profile": {"kind": "maxwellian"}}}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        out = tmp_path / "emb"
        assert main(["stability-check", "--config", str(cfgfile),
                     "--out", str(out), "--quiet"]) == 0
        payload = read_json(out / "stability_check.json")
        assert len(payload["modes"]) == 2

    def test_maxwellian_without_region_searches_the_verdict_box(self, tmp_path):
        # no heuristic band below the axis: the Maxwellian's damped pair
        # +-0.99858 - 0.00384i lies outside the box searched
        cfgfile, out = tmp_path / "c.json", tmp_path / "roots"
        cfgfile.write_text(json.dumps({"region": None}))
        assert main(["roots", "--scenario", "maxwellian-stable", "--config",
                     str(cfgfile), "--out", str(out), "--quiet"]) == 0
        profile = build_profile(SCENARIOS["maxwellian-stable"]["profile"])
        params = dispersion.make_params(profile, c0=1.0, rho0=1.0, kappa=0.01)
        box = dispersion.verdict_region(params, profile)
        assert read_json(out / "manifest.json")["summary"]["region"] == {
            "re_min": box.re_min, "re_max": box.re_max, "im_min": box.im_min,
            "im_max": box.im_max}
        assert read_json(out / "roots.json") == []


class TestBumpWithoutRegion:
    @pytest.mark.parametrize("command", ["roots", "simulate"])
    def test_searches_the_verdict_box(self, tmp_path, command):
        # the default box of a bump profile is the verdict box, not a band
        # below the axis that crosses the bump's support-edge margin
        cfgfile, out = tmp_path / "c.json", tmp_path / command
        cfgfile.write_text(json.dumps({"region": None}))
        assert main([command, "--scenario", "bump-unstable", "--config", str(cfgfile),
                     "--out", str(out), "--quiet"]) == 0
        if command == "roots":
            (root,) = read_json(out / "roots.json")
            sigma = complex(root["re_sigma"], root["im_sigma"])
        else:
            sigma = complex(*read_json(out / "manifest.json")["summary"]["seed_sigma"])
        assert sigma == pytest.approx(4.973115 + 0.060201j, abs=1e-6)


class TestDeterminism:
    def test_manifests_identical_modulo_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["roots", "--scenario", "maxwellian-stable", "--out", str(out1),
              "--quiet"])
        main(["roots", "--scenario", "maxwellian-stable", "--out", str(out2),
              "--quiet"])
        m1, m2 = read_json(out1 / "manifest.json"), read_json(out2 / "manifest.json")
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2
        assert (out1 / "roots.json").read_bytes() == (out2 / "roots.json").read_bytes()

    def test_scan_csv_bit_identical(self, tmp_path):
        cfg = {"scan": {"re": [0.2, 2.0, 13], "im": [-0.1, 0.1, 5]}}
        cfgfile = tmp_path / "scan.json"
        cfgfile.write_text(json.dumps(cfg))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["dispersion-scan", "--scenario", "maxwellian-stable",
                  "--config", str(cfgfile), "--out", str(out), "--quiet"])
            outs.append((out / "dispersion_scan.csv").read_bytes())
        assert outs[0] == outs[1]


class TestScanCommand:
    def test_grid_shape_and_columns(self, tmp_path):
        cfg = {"scan": {"re": [0.2, 2.0, 13], "im": [-0.1, 0.1, 5]}}
        cfgfile = tmp_path / "scan.json"
        cfgfile.write_text(json.dumps(cfg))
        out = tmp_path / "scan"
        assert main(["dispersion-scan", "--scenario", "maxwellian-stable",
                     "--config", str(cfgfile), "--out", str(out), "--quiet"]) == 0
        lines = (out / "dispersion_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "re_sigma,im_sigma,re_D,im_D,branch"
        assert len(lines) == 1 + 13 * 5
        branches = {line.split(",")[-1] for line in lines[1:]}
        assert branches <= {"upper", "real_axis", "lower"}
        assert (out / "scan_heatmap.dat").exists()

    def test_whole_float_counts_accepted(self, tmp_path):
        cfgfile, out = tmp_path / "scan.json", tmp_path / "scan"
        cfgfile.write_text(json.dumps({"scan": {"re": [0.2, 2.0, 13.0],
                                                "im": [-0.1, 0.1, 5.0]}}))
        assert main(["dispersion-scan", "--scenario", "maxwellian-stable", "--config",
                     str(cfgfile), "--out", str(out), "--quiet"]) == 0
        assert read_json(out / "manifest.json")["summary"]["n_points"] == 13 * 5

    def test_pole_points_write_nan_rows(self, tmp_path):
        # the grid passes through sigma = 0; landau-compare leaves that point out
        cfg = {"scan": {"re": [-1.0, 1.0, 5], "im": [-0.1, 0.1, 3]},
               "landau": {"re": [-1.0, 1.0, 5], "im_sigma": 0.0}}
        cfgfile = tmp_path / "grid.json"
        cfgfile.write_text(json.dumps(cfg))
        for command in ("dispersion-scan", "landau-compare"):
            assert main([command, "--scenario", "maxwellian-stable", "--config",
                         str(cfgfile), "--out", str(tmp_path / command),
                         "--quiet"]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "dispersion-scan" / "dispersion_scan.csv").read_text()
                .strip().splitlines()[1:]]
        assert [r[2:] for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0] == \
            [["nan", "nan", "real_axis"]]
        assert sum(r[2] == "nan" for r in rows) == 1
        heat = (tmp_path / "dispersion-scan" / "scan_heatmap.dat").read_text()
        assert len(heat.strip().splitlines()) == 1 + 14
        landau = (tmp_path / "landau-compare" / "landau_compare.csv").read_text()
        assert [float(line.split(",")[0]) for line in landau.strip().splitlines()[1:]] \
            == [-1.0, -0.5, 0.5, 1.0]


class TestThinSprayCommand:
    def test_sweep_and_locus_files(self, tmp_path):
        out = tmp_path / "ts"
        assert main(["thin-spray", "--scenario", "thin-spray-sweep",
                     "--out", str(out), "--quiet"]) == 0
        payload = read_json(out / "thin_spray.json")
        assert len(payload["sweep"]) == 3
        for entry in payload["sweep"]:
            assert entry["gamma"] < 0.0
            assert entry["root_check"]["expansion_error"] < 1e-4
        locus = (out / "root_locus_plus.dat").read_text().strip().splitlines()
        assert locus[0].startswith("#")
        assert len(locus) == 1 + 3
        assert (out / "root_locus_minus.dat").exists()

    @pytest.mark.parametrize("scenario, centres", [
        ("maxwellian-stable", [1.0]), ("thin-spray-sweep", [1.0, -1.0] * 3)])
    def test_minus_root_only_for_the_locus_files(self, tmp_path, monkeypatch,
                                                  scenario, centres):
        seen, root_near = [], cli._root_near

        def counted(params, profile, center, seed):
            seen.append(center)
            return root_near(params, profile, center, seed)

        monkeypatch.setattr(cli, "_root_near", counted)
        assert main(["thin-spray", "--scenario", scenario, "--out", str(tmp_path),
                     "--quiet"]) == 0
        assert seen == centres

    def test_unreliable_rate_flagged_in_the_manifest(self, tmp_path):
        # c* = 5.0176 near the bump's steep upper edge: r = -1.96
        bump = {"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5, "c_star": 4.6,
                "base": {"kind": "maxwellian"}}
        path = tmp_path / "bump.json"
        path.write_text(json.dumps({"profile": bump,
                                    "params": {"c0": 5.0, "rho0": 1.0, "kappa": 1e-3}}))
        assert main(["thin-spray", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"]) == 0
        manifest = read_json(tmp_path / "manifest.json")
        assert any("unreliable" in w for w in manifest["warnings"])
        assert manifest["summary"]["gamma"] == pytest.approx(0.0829, abs=1e-4)
        main(["thin-spray", "--scenario", "maxwellian-stable", "--out", str(tmp_path),
              "--quiet"])
        assert not any("unreliable" in w
                       for w in read_json(tmp_path / "manifest.json")["warnings"])

    @pytest.mark.parametrize("scenario,override,warned", [
        # three bumps at kappa = 0.05 whose plus root lies 1.197, 0.666 and 0.421
        # from c* + i gamma, with |gamma| = 0.0058, 0.0059 and 6.5e-7
        ("bump-unstable", {"params": {"kappa": 0.05}}, True),
        ("bump-unstable", {"profile": {"eps": 0.04, "c_star": 4.5},
                           "params": {"c0": 4.5, "kappa": 0.05}}, True),
        ("bump-unstable", {"profile": {"c_star": 4.6}, "params": {"kappa": 0.05}}, True),
        ("thin-spray-sweep", {}, False), ("maxwellian-stable", {}, False),
        # at kappa = 0 the root is c* + i gamma = c0
        ("maxwellian-stable", {"params": {"kappa": 0.0}}, False)])
    def test_rate_far_from_the_certified_root_warns(self, tmp_path, scenario, override,
                                                    warned):
        path, out = tmp_path / "c.json", tmp_path / "ts"
        path.write_text(json.dumps(override))
        assert main(["thin-spray", "--scenario", scenario, "--config", str(path),
                     "--out", str(out), "--quiet"]) == 0
        payload = read_json(out / "thin_spray.json")
        for entry in payload.get("sweep", [payload]):
            error = entry["root_check"]["expansion_error"]
            assert (0.0 < error >= abs(entry["gamma"])) == warned
        assert any("is no guide" in w
                   for w in read_json(out / "manifest.json")["warnings"]) == warned

    @pytest.mark.parametrize("kappa", [1e-4, 5e-4, 1e-3, 3e-3])
    def test_failed_seed_gives_no_root_check(self, tmp_path, kappa):
        # at kappa = 5e-4 the plus seed 5.0088 + 0.185i is no root (the certified
        # upper count is 0): the run warns and writes no root_check
        bump = {"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5, "c_star": 4.6,
                "base": {"kind": "maxwellian"}}
        path = tmp_path / "bump.json"
        path.write_text(json.dumps({"profile": bump,
                                    "params": {"c0": 5.0, "rho0": 1.0, "kappa": kappa}}))
        assert main(["thin-spray", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"]) == 0
        manifest = read_json(tmp_path / "manifest.json")
        failed = kappa == 5e-4
        assert any("no certified root near the +c* seed" in w
                   for w in manifest["warnings"]) == failed
        assert ("root_check" in read_json(tmp_path / "thin_spray.json")) != failed

    @pytest.mark.parametrize("kappa,approx", [(0.25, 0.926113 - 0.114786j),
                                              (0.3, 0.894014 - 0.139315j),
                                              (0.35, 0.854660 - 0.159459j)])
    def test_certified_lower_root_is_kept(self, tmp_path, kappa, approx):
        # the bump scenario at c0 = 1: the plus root lies below 0.4 of the bump
        # strip (0.25) and within it, where the box search finds the same root
        path, out = tmp_path / "c.json", tmp_path / "ts"
        path.write_text(json.dumps({"params": {"c0": 1.0, "rho0": 1.0, "kappa": kappa}}))
        assert main(["thin-spray", "--scenario", "bump-unstable", "--config", str(path),
                     "--out", str(out), "--quiet"]) == 0
        check = read_json(out / "thin_spray.json")["root_check"]
        z = complex(check["re_sigma"], check["im_sigma"])
        assert z == pytest.approx(approx, abs=1e-6)
        profile = build_profile(SCENARIOS["bump-unstable"]["profile"])
        params = dispersion.make_params(profile, c0=1.0, rho0=1.0, kappa=kappa)
        reports = dispersion.find_roots(params, profile,
                                        SearchRegion(0.6, 1.4, -0.24, -0.01))
        assert min(abs(z - r.sigma) for r in reports) <= 1e-10

    def test_readme_bump_roots_above_the_box(self, tmp_path):
        # at kappa = 1e-2 the certified plus root lies above 0.4 strip = 0.1;
        # a box search reaching as far below the axis meets the bump's edge
        # margin (StripViolation at 4.479 - 0.1i), and an upper root needs none
        bump = {"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5, "c_star": 5.0,
                "base": {"kind": "maxwellian"}}
        path, out = tmp_path / "bump.json", tmp_path / "ts"
        path.write_text(json.dumps({"profile": bump, "params": {"c0": 5.0, "rho0": 1.0},
                                    "sweep": {"kappa_values": [1e-3, 1e-2]}}))
        assert main(["thin-spray", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        profile = build_profile(bump)
        got = [complex(entry["root_check"]["re_sigma"], entry["root_check"]["im_sigma"])
               for entry in read_json(out / "thin_spray.json")["sweep"]]
        for kappa, z, approx in zip((1e-3, 1e-2), got, (4.98044 + 0.04391j,
                                                         4.91336 + 0.19723j)):
            params = dispersion.make_params(profile, c0=5.0, rho0=1.0, kappa=kappa)
            (want,) = dispersion.find_roots(params, profile,
                                            SearchRegion(4.0, 6.0, 1e-3, 0.5))
            assert abs(z - want.sigma) <= 1e-10
            assert z == pytest.approx(approx, abs=1e-5)


class TestThinSprayRoots:
    """Seeded roots (Newton from the expansion, a count of 1 on a small square)
    against the box search they replace; a seed that fails gives no root."""

    MX = profiles.maxwellian()
    PROFILES = {"maxwellian": (MX, 1.0), "drift": (profiles.maxwellian(drift=0.3), 1.0),
                "bump": (profiles.make_bump_on_tail(MX, 0.05, 0.5, 5.0), 5.0),
                "two_stream": (profiles.profile_sum(profiles.maxwellian(0.5, -1.5, 0.5),
                                                   profiles.maxwellian(0.5, 1.5, 0.5)),
                               1.0)}

    @staticmethod
    def seeds(params, profile):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c_star, gamma = dispersion.thin_spray_expansion(params, profile)
        return {1.0: lambda: complex(c_star, gamma),
                -1.0: lambda: complex(-c_star,
                                      dispersion.damping_rate_at(params, profile, -c_star))}

    @staticmethod
    def cap(profile):
        """0.2 times the narrowest width or eta: within every bump strip."""
        return 0.2 * min([g.width for g in profile.gaussians]
                         + [b.eta for b in profile.bumps])

    @staticmethod
    def box_search(params, profile, center, above=False):
        """The nearest root to center that find_roots certifies in the box
        |Re sigma - center| <= c0/2, |Im sigma| <= `cap`, or (above) in the box
        on top of it that reaches the verdict box's ceiling."""
        cap = TestThinSprayRoots.cap(profile)
        low, high = ((cap, dispersion.verdict_region(params, profile).im_max) if above
                     else (-cap, cap))
        region = SearchRegion(center - 0.5 * params.c0, center + 0.5 * params.c0,
                              low, high)
        reports = dispersion.find_roots(params, profile, region, tol=1e-12)
        return min(reports, key=lambda r: abs(r.sigma - center), default=None)

    @pytest.mark.parametrize("kappa", [0.0, 1e-3, 0.01, 0.05, 0.1, 0.3])
    @pytest.mark.parametrize("name", PROFILES)
    def test_match_box_search(self, name, kappa):
        profile, c0 = self.PROFILES[name]
        params = dispersion.make_params(profile, c0=c0, rho0=1.0, kappa=kappa)
        for sign, seed in self.seeds(params, profile).items():
            try:
                want = self.box_search(params, profile, sign * c0)
            except SprayWaveError:
                continue               # no root of the box search to compare with
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = cli._root_near(params, profile, sign * c0, seed)
            messages = [str(w.message) for w in caught]
            if got is None:
                assert any("no certified root" in m for m in messages)
                # the box holds a root the seed misses only where the
                # first-order rate the seed starts from is flagged
                assert want is None or any("unreliable" in m for m in messages)
                continue
            if got.sigma.imag > self.cap(profile):
                # a certified upper root above the box needs no strip
                want = self.box_search(params, profile, sign * c0, above=True)
            assert abs(got.sigma - want.sigma) <= 1e-10
            assert got.residual <= 1e-12 and got.winding_evidence == 1

    def test_seed_of_the_wrong_sign_gives_no_root(self):
        # bump at kappa = 0.3: Newton from the plus seed converges near -6.03,
        # outside the plus box, so no root is kept (the box search raises)
        profile, c0 = self.PROFILES["bump"]
        params = dispersion.make_params(profile, c0=c0, rho0=1.0, kappa=0.3)
        seed = self.seeds(params, profile)[1.0]
        func = functools.partial(dispersion.dispersion_value, params, profile)
        stray = dispersion._seeded_root(func, seed(), c0, profiles.bump_edges(profile))
        assert stray.sigma.real == pytest.approx(-6.03, abs=0.01)
        with pytest.raises(StripViolation):
            self.box_search(params, profile, c0)
        with pytest.warns(UserWarning, match=r"no certified root near the \+c\* seed"):
            assert cli._root_near(params, profile, c0, seed) is None

    def test_certified_where_the_box_search_raises(self):
        # the box search's lower edge crosses the bump's edge margin; the
        # seeded root needs no box reaching that far
        profile, c0 = self.PROFILES["bump"]
        params = dispersion.make_params(profile, c0=c0, rho0=1.0, kappa=1e-3)
        with pytest.raises(StripViolation):
            self.box_search(params, profile, c0)
        root = cli._root_near(params, profile, c0, self.seeds(params, profile)[1.0])
        assert root.sigma == pytest.approx(4.98044 + 0.04391j, abs=1e-5)
        assert root.winding_evidence == 1 and root.residual <= 1e-12


class TestSimulateCommand:
    def test_acoustic_csv_shows_damping(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", "maxwellian-stable",
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "simulate.csv").read_text().strip().splitlines()
        assert lines[0] == "t,re_tau,im_tau,abs_tau,abs_u,kinetic_l2"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[3] == 1.0
        # kappa = 0.01 scenario: the acoustic wave is Landau damped
        last = [float(x) for x in lines[-1].split(",")]
        assert 0.5 < last[3] < 1.0
        # abs_tau is Python's abs(complex) of the row's tau to the last bit
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert all(r[3] == abs(complex(r[1], r[2])) for r in rows)

    def test_negative_k_takes_the_period_default(self, tmp_path):
        # 10 periods 2 pi / (|k| c0), and the same |tau| as at k = 1
        rows = {}
        for k in (-1.0, 1.0):
            cfgfile = tmp_path / "c.json"
            cfgfile.write_text(json.dumps({"sim": {"k": k}}))
            out = tmp_path / f"k{k:g}"
            assert main(["simulate", "--scenario", "maxwellian-stable", "--config",
                         str(cfgfile), "--out", str(out), "--quiet"]) == 0
            rows[k] = (out / "simulate.csv").read_text().strip().splitlines()[1:]
        times, abs_tau = ([[float(r.split(",")[col]) for r in rows[k]] for k in rows]
                          for col in (0, 3))
        assert times[0] == times[1] and times[0][-1] == pytest.approx(20.0 * math.pi)
        assert abs_tau[0] == pytest.approx(abs_tau[1], rel=1e-12, abs=0.0)

    def test_negative_k_eigenmode_decays(self, tmp_path):
        # k Im sigma < 0: the eigenmode decays at k Im sigma = -8 x 0.0602, and the
        # run spans 10 periods rather than growth spans
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"sim": {"k": -8.0}}))
        out = tmp_path / "bump"
        assert main(["simulate", "--scenario", "bump-unstable", "--config",
                     str(cfgfile), "--out", str(out), "--quiet"]) == 0
        summary = read_json(out / "manifest.json")["summary"]
        rate = -8.0 * summary["seed_sigma"][1]
        assert rate == pytest.approx(-0.4816, abs=1e-4)
        assert summary["fitted_rate"] == pytest.approx(rate, rel=0.02)

    def test_pure_acoustics_conserved(self, tmp_path):
        cfg = {
            "profile": {"kind": "maxwellian"},
            "params": {"c0": 1.0, "rho0": 1.0, "kappa": 0.0},
            "sim": {"nv": 256, "k": 1.0, "periods": 10.0,
                    "init": {"type": "acoustic"}},
        }
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        out = tmp_path / "sim0"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "simulate.csv").read_text().strip().splitlines()
        last = [float(x) for x in lines[-1].split(",")]
        assert last[3] == pytest.approx(1.0, abs=1e-5)


class TestStabilityCheckCommand:
    def test_scalar_root_unchanged(self, tmp_path):
        # the scalar-coupling root bit for bit: scalar_root's seeded Newton
        # solve and count share `dispersion._seeded_root` with thin-spray
        out = tmp_path / "sc"
        assert main(["stability-check", "--scenario", "scalar-coupling",
                     "--out", str(out), "--quiet"]) == 0
        root = read_json(out / "stability_check.json")["scalar"]["root"]
        assert (root["re_omega"], root["im_omega"]) == (1.0002744457307529,
                                                        0.0007598314258060526)

    def test_scalar_root_against_mpmath(self, tmp_path):
        # the same root as a zero of G(omega) = omega - 1 + 1e-3 C[v f'](omega)
        # for the unit Maxwellian, C = -omega - omega^2 Z(omega/sqrt 2)/sqrt 2 with
        # Z(z) = i sqrt(pi) exp(-z^2) erfc(-i z), found by mpmath at 30 digits
        out = tmp_path / "sc"
        assert main(["stability-check", "--scenario", "scalar-coupling",
                     "--out", str(out), "--quiet"]) == 0
        root = read_json(out / "stability_check.json")["scalar"]["root"]
        got = complex(root["re_omega"], root["im_omega"])
        with mp.workdps(30):
            def g(w):
                z = w / mp.sqrt(2)
                zf = 1j * mp.sqrt(mp.pi) * mp.exp(-z * z) * mp.erfc(-1j * z)
                return w - 1 + mp.mpf("1e-3") * (-w - w * w * zf / mp.sqrt(2))
            want = complex(mp.findroot(g, mp.mpc(1.0, 1e-3)))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_one_system_build_per_scalar_run(self, tmp_path, monkeypatch):
        # the scalar law's 1 x 1 system is built once: its one eigensolve serves
        # the mode verdict, the tracked root and scalar_root
        calls, eigen = [], hyperbolic.symmetric_eigen
        monkeypatch.setattr(hyperbolic, "symmetric_eigen",
                            lambda a: calls.append(a) or eigen(a))
        assert main(["stability-check", "--scenario", "scalar-coupling",
                     "--out", str(tmp_path / "sc"), "--quiet"]) == 0
        assert len(calls) == 1

    def test_scalar_block(self, tmp_path):
        out = tmp_path / "sc"
        assert main(["stability-check", "--scenario", "scalar-coupling",
                     "--out", str(out), "--quiet"]) == 0
        payload = read_json(out / "stability_check.json")
        assert payload["fails_necessary_condition"] is True
        scalar = payload["scalar"]
        assert scalar["root"]["im_omega"] == pytest.approx(
            scalar["leading_imag"], rel=0.05)

    def test_system_block(self, tmp_path):
        out = tmp_path / "sp"
        assert main(["stability-check", "--scenario", "system-prop1",
                     "--out", str(out), "--quiet"]) == 0
        payload = read_json(out / "stability_check.json")
        assert len(payload["modes"]) == 2
        for mode in payload["modes"]:
            assert mode["tracked_imag_per_kappa"] == pytest.approx(
                mode["imag_rate"], rel=0.1)

    def test_weak_mode_tracks(self, tmp_path):
        # the second mode's root lies 1.3e-6 from its eigenvalue
        cfg = {"profile": {"kind": "maxwellian"},
               "system": {"A": [[1.0, 0.0], [0.0, 2.0]], "grad_psi": [1.0, 0.03],
                          "phi_coeffs": [[1.0, 1.0]], "kappa": 1e-4}}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        out = tmp_path / "weak"
        assert main(["stability-check", "--config", str(cfgfile),
                     "--out", str(out), "--quiet"]) == 0
        modes = read_json(out / "stability_check.json")["modes"]
        assert modes[1]["tracked_sigma"] == pytest.approx([1.99999916006, 1.0176e-6],
                                                          abs=1e-10)

    def test_mode_within_rounding_of_eigenvalue_tracks(self, tmp_path):
        # the second mode's root lies 4.4e-8 from its eigenvalue (exit 3 before
        # track_secular_root had a rounding floor)
        cfg = {"profile": {"kind": "maxwellian"},
               "system": {"A": [[1.0, 0.0], [0.0, 2.0]], "grad_psi": [1.0, 1e-3],
                          "phi_coeffs": [[1.0, 1.0]], "kappa": 1e-4}}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        out = tmp_path / "near"
        assert main(["stability-check", "--config", str(cfgfile),
                     "--out", str(out), "--quiet"]) == 0
        modes = read_json(out / "stability_check.json")["modes"]
        assert modes[1]["tracked_sigma"] == pytest.approx([1.99999997200202,
                                                           3.3921626e-8], abs=1e-13)

    def test_degenerate_matrix_exits_3(self, tmp_path, capsys):
        # A is solved as the system is built, inside the config read: a degenerate
        # spectrum is still a numerical failure, not a bad config
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"system": {"A": [[1.0, 0.0], [0.0, 1.0]]}}))
        assert main(["stability-check", "--scenario", "system-prop1", "--config",
                     str(cfgfile), "--out", str(tmp_path / "out"), "--quiet"]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["exit_code"]) == ("DegenerateSpectrum", 3)

    def test_requires_block(self, tmp_path, capsys):
        cfg = {"profile": {"kind": "maxwellian"}}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        assert main(["stability-check", "--config", str(cfgfile), "--quiet"]) == 2

    @pytest.mark.parametrize("scenario,override", [
        ("system-prop1", {"scalar": {"lambda0": 1.0, "kappa": 1e-3}}),
        ("scalar-coupling", {"system": SCENARIOS["system-prop1"]["system"]})])
    def test_both_blocks_exit_2(self, tmp_path, capsys, scenario, override):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(override))
        assert main(["stability-check", "--scenario", scenario, "--config", str(cfgfile),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert "'system'" in err["message"] and "'scalar'" in err["message"]

    def run_scalar(self, tmp_path, override) -> dict:
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(override))
        assert main(["stability-check", "--scenario", "scalar-coupling", "--config",
                     str(cfgfile), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        return read_json(tmp_path / "out" / "stability_check.json")

    @pytest.mark.parametrize("profile,lambda0", [
        ({"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5, "c_star": 5.0,
          "base": {"kind": "maxwellian"}}, 5.3),
        ({"kind": "sum", "parts": [
            {"kind": "maxwellian", "mass": 0.5, "drift": d, "width": 0.6}
            for d in (-2.0, 2.0)]}, 2.5)], ids=["bump", "two-stream"])
    def test_upper_root_square_needs_no_strip(self, tmp_path, profile, lambda0):
        # the roots lie 0.155 and 0.108 above the axis: a count square of
        # half-width 4 |Im omega| reached below the strip, one of half-width
        # |Im omega| / 2 stays above the axis
        payload = self.run_scalar(tmp_path, {"profile": profile,
                                             "scalar": {"lambda0": lambda0,
                                                        "kappa": 0.05}})
        root = payload["scalar"]["root"]
        assert root["winding_evidence"] == 1 and root["im_omega"] > 0.1

    def test_large_kappa_root_matches_the_mode_matrix(self, tmp_path):
        root = self.run_scalar(tmp_path, {"scalar": {"kappa": 0.5}})["scalar"]["root"]
        omega = complex(root["re_omega"], root["im_omega"])
        sigmas = system_mode_sigmas(
            hyperbolic.scalar_law(1.0, 0.5, profiles.maxwellian()), 1025)
        assert np.min(np.abs(sigmas - omega)) <= 1e-8
        assert root["winding_evidence"] == 1

    @staticmethod
    def wofz_root(z, lambda0, kappa):
        """Newton on the scalar law's G(omega) = omega - lambda0 - kappa omega
        (1 + zeta Z(zeta)) on the unit Maxwellian, zeta = omega / sqrt 2, Z = i
        sqrt(pi) w from scipy, with Z' = -2 (1 + zeta Z)."""
        for _ in range(50):
            zeta = z / math.sqrt(2.0)
            zz = 1j * math.sqrt(math.pi) * wofz(zeta)
            g = z - lambda0 - kappa * z * (1.0 + zeta * zz)
            dg = 1.0 - kappa * (1.0 + zeta * zz) - kappa * zeta * (
                zz - 2.0 * zeta * (1.0 + zeta * zz))
            z -= g / dg
            if abs(g / dg) < 1e-15:
                return z
        raise AssertionError("oracle Newton did not converge")

    def test_strongly_damped_law_falls_back_to_the_tracked_root(self, tmp_path):
        # kappa = -1 damps the law so strongly that Newton from the first-order
        # seed, at Im omega = -0.76, escapes its trust radius; the tracked root
        # seeds the second try, which no strip refuses on a Maxwellian
        root = self.run_scalar(tmp_path, {"scalar": {"kappa": -1}})["scalar"]["root"]
        omega = complex(root["re_omega"], root["im_omega"])
        assert root["winding_evidence"] == 1
        assert abs(omega - self.wofz_root(omega, 1.0, -1.0)) <= 1e-10
        assert omega == pytest.approx(0.458695 - 0.154617j, abs=1e-6)

    def test_bump_root_whose_newton_path_dips_below_the_axis(self, tmp_path):
        # on the bump at lambda0 = 5, kappa = -2 Newton's path passes 0.38 below
        # the axis inside the support column; the certified root solves
        # G(omega) = omega - lambda0 + kappa C[v f'](omega) against mpmath
        bump = {"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5, "c_star": 5.0,
                "base": {"kind": "maxwellian"}}
        root = self.run_scalar(tmp_path, {"profile": bump, "scalar": {
            "lambda0": 5.0, "kappa": -2}})["scalar"]["root"]
        omega = complex(root["re_omega"], root["im_omega"])
        assert root["winding_evidence"] == 1
        assert omega == pytest.approx(4.798376 + 0.589773j, abs=1e-6)
        g = omega - 5.0 - 2.0 * mp_transform(build_profile(bump), (0.0, 1.0), omega)
        assert abs(g) <= 1e-13

    @pytest.mark.parametrize("lambda0", [1.0, 0.5])
    def test_large_kappa_falls_back_to_the_tracked_root(self, tmp_path, lambda0):
        # at kappa = 2 the first-order seed lies about 0.9 from the root, beyond
        # Newton's trust radius; the second try from the tracked root certifies it
        root = self.run_scalar(tmp_path, {"scalar": {"lambda0": lambda0,
                                                     "kappa": 2.0}})["scalar"]["root"]
        omega = complex(root["re_omega"], root["im_omega"])
        sigmas = system_mode_sigmas(
            hyperbolic.scalar_law(lambda0, 2.0, profiles.maxwellian()))
        assert np.min(np.abs(sigmas - omega)) <= 1e-9
        assert root["winding_evidence"] == 1 and omega.imag > 0

    def test_scalar_root_is_solved_once(self, tmp_path, monkeypatch):
        # mode 0's tracked root is scalar_root's root, bit for bit
        calls, track = [], hyperbolic.track_secular_root

        def counted(*args):
            calls.append(args[1:])
            return track(*args)

        monkeypatch.setattr(hyperbolic, "track_secular_root", counted)
        payload = self.run_scalar(tmp_path, {"scalar": {"lambda0": 1.2, "kappa": 0.05}})
        root = payload["scalar"]["root"]
        assert payload["modes"][0]["tracked_sigma"] == [root["re_omega"], root["im_omega"]]
        assert calls == [(0, 0.05)]


class TestEntryPoint:
    def test_shared_parser_parses_each_call_alone(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "load_config", lambda *args: args)
        monkeypatch.setattr(cli, "run", lambda config, quiet: seen.append((config, quiet)))
        main(["roots", "--scenario", "maxwellian-stable", "--quiet"])
        main(["simulate", "--config", "c.json", "--out", "o"])
        # options may come before the command, as after it
        main(["--out", "o", "--quiet", "thin-spray", "--scenario", "thin-spray-sweep"])
        assert seen == [(("roots", "maxwellian-stable", None, None), True),
                        (("simulate", None, "c.json", "o"), False),
                        (("thin-spray", "thin-spray-sweep", None, "o"), True)]
        assert cli.build_parser() is cli.build_parser()

    def test_console_script_version(self):
        proc = subprocess.run([sys.executable, "-m", "spraywaves.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "spraywaves" in proc.stdout

    def test_a_run_imports_no_optional_module(self, tmp_path):
        # one run of each kind, in a fresh interpreter, imports numpy's core only:
        # no numpy.polynomial (Gauss-Legendre rules come from the recurrence),
        # and neither scipy nor mpmath, which back the tests alone
        cfgfile = tmp_path / "sim.json"
        cfgfile.write_text(json.dumps({"sim": {"nv": 256, "periods": 2.0}}))
        code = (
            "import sys\n"
            "from spraywaves import cli, profiles\n"
            "from spraywaves.scenarios import SCENARIOS\n"
            "out, cfg = sys.argv[1], sys.argv[2]\n"
            "for args in (['roots', '--scenario', 'bump-unstable'],\n"
            "             ['simulate', '--scenario', 'maxwellian-stable', '--config', cfg],\n"
            "             ['stability-check', '--scenario', 'system-prop1']):\n"
            "    assert cli.main([*args, '--out', out, '--quiet']) == 0, args\n"
            "bump = cli.build_profile(SCENARIOS['bump-unstable']['profile'])\n"
            "profiles.moment(bump, 2)\n"
            "print(sorted(m for m in ('numpy.polynomial', 'scipy', 'mpmath')\n"
            "             if m in sys.modules))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"),
                               str(cfgfile)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
