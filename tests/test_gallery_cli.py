"""Gallery self-checks and the command-line interface."""

import json
import math
import os
import subprocess
import sys

import pytest

from mapnets.cli import main
from mapnets.config import Config
from mapnets.errors import SpecError
from mapnets.gallery import GALLERY, gallery_run_all, get_entry


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGallery:
    def test_all_entries_match(self):
        summary, mismatches, _ = gallery_run_all(Config())
        assert mismatches == []
        assert all(e["ok"] for e in summary)

    def test_entry_names_cover_required_corpus(self):
        names = {e.name for e in GALLERY}
        required = {"sigma_sin", "epsilon_into_0_2", "heaviside_tanh", "s1_jump",
                    "winder", "negligible_perturbations", "point_nets",
                    "tangent_bundle", "tensor_insertion"}
        assert required <= names

    def test_unknown_entry(self):
        with pytest.raises(SpecError):
            get_entry("nope")

    def test_coarse_grid_never_wrong_signed(self):
        # shallow grid may soften a verdict to Inconclusive, never flip it
        coarse = Config(grid_k_max=8)
        for name in ("sigma_sin", "heaviside_tanh"):
            entry = get_entry(name)
            rows, _ = entry.run(coarse)
            expected = {e.label: e.status for e in entry.expected}
            for row in rows:
                if row.label in expected:
                    assert row.status in (expected[row.label], "Inconclusive")

    def test_higher_derivative_order_no_flip(self):
        deeper = Config(k_max=4)
        for name in ("heaviside_tanh", "s1_jump"):
            entry = get_entry(name)
            rows, _ = entry.run(deeper)
            got = {r.label: r.status for r in rows}
            assert got["check-moderate"] == "Pass"


class TestCLI:
    def test_check_moderate_pass(self, capsys, tmp_path):
        code, out, _ = run_cli(["check-moderate", "--net", "sigma_sin",
                                "--region", "K_unit", "--out", str(tmp_path)], capsys)
        assert code == 0
        rec = json.loads((tmp_path / "check-moderate.json").read_text())
        assert rec["status"] == "Pass"
        assert rec["check"] == "check-moderate"
        assert {"check", "inputs", "status", "slope", "r2", "n_or_m",
                "samples", "notes"} <= set(rec)

    def test_check_cbounded_fail_witness(self, capsys, tmp_path):
        code, out, _ = run_cli(["check-cbounded", "--net", "epsilon_into_0_2",
                                "--region", "K_unit", "--out", str(tmp_path)], capsys)
        assert code == 1
        rec = json.loads((tmp_path / "check-cbounded.json").read_text())
        assert rec["status"] == "Fail"
        assert rec["witness"] is not None

    def test_check_single_chart_jump(self, capsys):
        code, out, _ = run_cli(["check-single-chart", "--net", "s1_jump",
                                "--region", "K_unit"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["chart"] == "ang0"

    def test_check_equiv0_fail_exit_code(self, capsys):
        code, out, _ = run_cli(["check-equiv0", "--net", "sigma_sin", "--net2",
                                "sin_plus_eps2", "--region", "K_unit"], capsys)
        assert code == 1

    def test_csv_series_written(self, capsys, tmp_path):
        run_cli(["check-equiv", "--net", "sigma_sin", "--net2", "sin_plus_flat",
                 "--region", "K_unit", "--out", str(tmp_path)], capsys)
        csvs = [p for p in os.listdir(tmp_path) if p.endswith(".csv")]
        assert csvs
        text = (tmp_path / csvs[0]).read_text()
        assert text.splitlines()[0] == "eps,sup"
        assert "\r" not in text

    def test_eval_point(self, capsys, tmp_path):
        spec = {"points": {"p": {"atlas": "line", "chart": "e0", "coords": [0.4]}}}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        code, out, _ = run_cli(["eval-point", "--net", "sigma_sin", "--point", "p",
                                "--spec", str(spec_file)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["result"]["samples"][0]["coords"][0] == pytest.approx(
            math.sin(0.4), abs=1e-12)

    def test_compose_and_tangent(self, capsys):
        code, out, _ = run_cli(["compose", "--outer", "sigma_tanh",
                                "--inner", "sigma_sin", "--region", "K_unit"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["provenance"]["single_chart"]["status"] == "Pass"
        code, out, _ = run_cli(["tangent", "--net", "s1_jump",
                                "--region", "K_unit"], capsys)
        assert code == 0

    def test_vb_check_and_eval(self, capsys, tmp_path):
        code, _, _ = run_cli(["vb-check", "--net", "s1_jump",
                              "--region", "K_unit"], capsys)
        assert code == 0
        spec = {"points": {"p": {"atlas": "line", "chart": "e0", "coords": [0.0]}}}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        code, out, _ = run_cli(["vb-eval", "--net", "sigma_sin", "--point", "p",
                                "--fiber", "[1.0]", "--spec", str(spec_file)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["samples"][0]["fiber"][0] == pytest.approx(1.0, abs=1e-12)

    def test_tensor_insert_subcommand(self, capsys, tmp_path):
        spec = {"points": {"p": {"atlas": "line", "chart": "e0", "coords": [0.3]}}}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        code, out, _ = run_cli(["tensor-insert", "--point", "p",
                                "--tensor", '"identity"', "--r", "0", "--s", "1",
                                "--xi", '"sin"', "--spec", str(spec_file)], capsys)
        assert code == 0
        rec = json.loads(out)
        # dx-like identity coefficient contracted with sin * d/dx at p = 0.3
        assert rec["samples"][0][1] == pytest.approx(0.3 * math.sin(0.3), abs=1e-12)

    def test_custom_spec_net(self, capsys, tmp_path):
        spec = {
            "atlases": {"seg": {"builtin": "euclidean", "bounds": [[-5.0, 5.0]]}},
            "nets": {"steep": {"kind": "scalar", "src": "seg", "dst": "seg",
                               "expr": {"name": "smoothed_step"}}},
            "regions": {"Kc": {"pieces": [{"chart": "e0", "box": [[-1.0, 1.0]]}]}},
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        code, out, _ = run_cli(["check-moderate", "--net", "steep", "--region", "Kc",
                                "--spec", str(spec_file)], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "Pass"

    def test_spec_error_exit_code(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"nets": {"bad": {"kind": "nope"}}}))
        code, _, err = run_cli(["check-moderate", "--net", "bad", "--region",
                                "K_unit", "--spec", str(spec_file)], capsys)
        assert code == 2
        assert "nets.bad" in err

    def test_gallery_list_and_report(self, capsys, tmp_path):
        code, out, _ = run_cli(["gallery", "list"], capsys)
        assert code == 0
        assert "s1_jump" in out
        run_cli(["check-moderate", "--net", "sigma_sin", "--region", "K_unit",
                 "--out", str(tmp_path)], capsys)
        code, out, _ = run_cli(["report", "--dir", str(tmp_path)], capsys)
        assert code == 0
        assert "check-moderate" in out

    def test_output_shape_error_exit_code(self, capsys, monkeypatch):
        import numpy as np

        from mapnets import cli
        from mapnets.gallery import get_atlas
        from mapnets.gmap import MapNet
        from mapnets.manifold import LocalMap

        line = get_atlas("line")
        bad = MapNet(line, line, lambda eps: {("e0", "e0"): LocalMap(
            1, (1,), fn=lambda x: np.array([x[0], x[0]]), name="doubled")}, tag="doubled")
        monkeypatch.setattr(cli, "get_net", lambda name: bad)
        code, _, err = run_cli(["check-cbounded", "--net", "doubled",
                                "--region", "K_unit"], capsys)
        assert code == 2
        assert "doubled" in err and "(2,)" in err and "(1,)" in err
        assert "ChartEscape" not in err

    def test_derivative_undefined_exit_code(self, capsys, monkeypatch):
        from mapnets import cli
        from mapnets.gallery import get_atlas
        from mapnets.gmap import scalar_net
        from mapnets.jets import sqrt

        line = get_atlas("line")
        net = scalar_net(line, line, lambda eps: lambda t: sqrt(t * t), tag="abs")
        monkeypatch.setattr(cli, "get_net", lambda name: net)
        code, _, err = run_cli(["check-moderate", "--net", "abs", "--region", "K_unit"], capsys)
        assert code == 2
        assert "DerivativeUndefined" in err and "x = 0.0" in err
        assert "ValueError" not in err

    def test_config_flag_overrides(self, capsys):
        code, out, _ = run_cli(["check-moderate", "--net", "sigma_sin",
                                "--region", "K_unit", "--grid-k-max", "10"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["inputs"]["config"]["grid_k_max"] == 10
        assert len(rec["samples"]) == 9


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Config(grid_base=1.5)
        with pytest.raises(ValueError):
            Config(lattice_density=1)
        with pytest.raises(ValueError):
            Config(r2_min=1.5)
        with pytest.raises(ValueError):
            Config.from_dict({"no_such_key": 1})

    def test_json_roundtrip(self, tmp_path):
        cfg = Config(grid_k_max=12, m_probe=7)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.as_dict()))
        assert Config.from_json(str(path)) == cfg


class TestExpressions:
    def test_unknown_family_raises(self):
        from mapnets.exprs import build_expr

        with pytest.raises(SpecError):
            build_expr({"name": "nope"})
        with pytest.raises(SpecError):
            build_expr({"params": {}})

    def test_nested_perturbation_families(self):
        from mapnets.exprs import build_expr

        f = build_expr({"name": "plus_power",
                        "params": {"base": {"name": "plus_flat",
                                            "params": {"base": "sin"}},
                                   "order": 2}})
        eps = 0.125
        got = f(eps)(0.4)
        expect = math.sin(0.4) + math.exp(-1 / eps) + eps**2
        assert got == pytest.approx(expect, rel=1e-12)


class TestDeterminism:
    def test_gallery_outputs_byte_identical(self, tmp_path):
        env = dict(os.environ, PYTHONHASHSEED="0")
        for d in ("a", "b"):
            # a shallow grid keeps the two subprocess runs cheap; identical
            # bytes are what matters here
            subprocess.run([sys.executable, "-m", "mapnets.cli", "gallery", "run",
                            "--grid-k-max", "10", "--out", str(tmp_path / d)],
                           check=True, env=env, capture_output=True)
        fa = sorted(os.listdir(tmp_path / "a"))
        fb = sorted(os.listdir(tmp_path / "b"))
        assert fa == fb
        for name in fa:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
