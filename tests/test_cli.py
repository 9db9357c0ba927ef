import json
import math
import subprocess
import sys

import numpy as np
import pytest

from spraywaves import cli, modesim
from spraywaves.cli import (DEFAULTS_TABLE, ConfigError, _config_notes, _write_table,
                            build_profile, build_qconfig, main)
from spraywaves.quadrature import QuadratureConfig
from spraywaves.scenarios import SCENARIOS


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestConfigBuilders:
    def test_profile_round_trip(self):
        p = build_profile({"kind": "bump_on_tail", "eps": 0.05, "eta": 0.5,
                           "c_star": 5.0,
                           "base": {"kind": "maxwellian", "width": 1.0}})
        assert p.kind == "bump_on_tail"
        assert p.base.kind == "maxwellian"

    def test_profile_errors(self):
        with pytest.raises(ConfigError):
            build_profile({"kind": "nope"})
        with pytest.raises(ConfigError):
            build_profile({"kind": "bump_on_tail", "eps": 0.1})
        with pytest.raises(ConfigError):
            build_profile({"kind": "maxwellian", "width": -1.0})

    def test_quadrature_keys(self):
        # L and window of older configs are checked, noted, then ignored
        quad = {"L": 14.0, "nodes": 128, "axis_tolerance": 1e-13, "window": 0.5}
        assert build_qconfig(quad) == QuadratureConfig(nodes=128, axis_tolerance=1e-13)
        for key in ("L", "window"):
            with pytest.raises(ValueError):
                build_qconfig({key: -1.0})
        note = "quadrature keys L, window are ignored"
        assert any(n.startswith(note) for n in _config_notes({"quadrature": quad}))
        assert not any("ignored" in n for n in _config_notes(SCENARIOS["bump-unstable"]))


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

    def test_command_mismatch_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"command": "simulate"}))
        assert main(["roots", "--config", str(cfgfile)]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # eigenmode seeding on a stable profile: no root to seed from
        cfg = {
            "profile": {"kind": "maxwellian"},
            "params": {"c0": 1.0, "rho0": 1.0, "kappa": 0.01},
            "region": {"re_min": -2.0, "re_max": 2.0, "im_min": 1e-6,
                       "im_max": 0.2},
            "sim": {"nv": 512, "k": 2.0, "init": {"type": "eigenmode"}},
        }
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 3

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
        ("roots", "maxwellian-stable", {"quadrature": {"L": math.nan}}),
        ("roots", "maxwellian-stable", {"quadrature": {"window": math.nan}}),
        ("roots", "maxwellian-stable",
         {"params": {"c0": math.nan, "rho0": 1.0, "kappa": 0.01}}),
        ("roots", "maxwellian-stable", {"profile": {"width": 1e308}}),
        ("roots", "bump-unstable", {"profile": {"eta": 1e308}}),
        ("roots", "bump-unstable", {"profile": {"c_star": math.nan}}),
        ("roots", "bump-unstable", {"profile": {"eps": 1.5}}),
        ("stability-check", "scalar-coupling", {"scalar": {"kappa": -1}}),
        ("stability-check", "system-prop1", {"system": {"kappa": math.nan}}),
        ("stability-check", "system-prop1", {"system": {"A": [[1.0, math.nan],
                                                              [math.nan, 2.0]]}}),
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
        ("roots", "maxwellian-stable", {"region": {"im_max": 0.6}}),
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
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, command, scenario, override):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(override))
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
        "eigen_residual_max": 1e-10, "compatibility_tolerance": 1e-10,
        "cfl_fraction": 0.1, "eigenmode_residual_max": 1e-8,
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
        snapshots=()) for k in kwargs["k_list"][:2])
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
            assert _write_table(path, head, [[*values, "nan"], [*values[::-1], "x"]],
                                sep) == "t.txt"
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == sep.join(head) and len(lines) == 3
            for line, expected, text in zip(lines[1:], (values, values[::-1]),
                                            ("nan", "x")):
                cells = line.split(sep)
                assert len(cells) == 10 and cells[-1] == text
                assert [float(c) for c in cells[:-1]] == expected
                assert [math.copysign(1.0, float(c)) for c in cells[:-1]] == \
                    [math.copysign(1.0, v) for v in expected]

    @pytest.mark.parametrize("command,scenario,override", [
        ("dispersion-scan", "maxwellian-stable",
         {"scan": {"re": [-1.0, 1.0, 11], "im": [-0.1, 0.1, 3]}}),
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
        if command == "illposed-demo":
            rows = _read_table(out / "growth_k16.dat", *TABLES["growth_k16.dat"])
            traj = _fake_scaling_experiment(None, None, k_list=[8.0, 16.0])
            assert [[float(c) for c in row] for row in rows] == [
                [t, a] for t, a in zip(traj.trajectories[1].times,
                                       np.abs(traj.trajectories[1].tau_hat))]


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

    def test_requires_block(self, tmp_path, capsys):
        cfg = {"profile": {"kind": "maxwellian"}}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        assert main(["stability-check", "--config", str(cfgfile), "--quiet"]) == 2


class TestEntryPoint:
    def test_shared_parser_parses_each_call_alone(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "load_config", lambda *args: args)
        monkeypatch.setattr(cli, "run", lambda config, quiet: seen.append((config, quiet)))
        main(["roots", "--scenario", "maxwellian-stable", "--quiet"])
        main(["simulate", "--config", "c.json", "--out", "o"])
        assert seen == [(("roots", "maxwellian-stable", None, None), True),
                        (("simulate", None, "c.json", "o"), False)]
        assert cli.build_parser() is cli.build_parser()

    def test_console_script_version(self):
        proc = subprocess.run([sys.executable, "-m", "spraywaves.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "spraywaves" in proc.stdout
