import json
import math
import subprocess
import sys

import pytest

from spraywaves.cli import ConfigError, build_profile, build_qconfig, main


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
        q = build_qconfig({"L": 14.0, "nodes": 128, "axis_tolerance": 1e-13,
                           "window": 0.5})
        assert q.truncation_halfwidth == 14.0
        assert q.nodes == 128
        assert q.subtraction_window == 0.5


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

    def test_requires_block(self, tmp_path, capsys):
        cfg = {"profile": {"kind": "maxwellian"}}
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(cfg))
        assert main(["stability-check", "--config", str(cfgfile), "--quiet"]) == 2


class TestEntryPoint:
    def test_console_script_version(self):
        proc = subprocess.run([sys.executable, "-m", "spraywaves.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "spraywaves" in proc.stdout
