"""Gallery self-checks and the command-line interface."""

import json
import math
import os
import shlex
import subprocess
import sys

import pytest

from mapnets.asymptotics import Status
from mapnets.cli import main, verdict_record
from mapnets.config import Config
from mapnets.errors import SpecError
from mapnets.gallery import (
    GALLERY,
    REGISTRY_ENV,
    SpecEnv,
    gallery_run_all,
    get_entry,
    get_net,
    get_region,
)
from mapnets.gmap import compose
from mapnets.gpoints import eval_at
from mapnets.vbundle import check_vbhom_equiv, tangent


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

    def test_registry_objects_built_once_and_shared(self):
        from mapnets.gallery import REGISTRY_ENV, SpecEnv, get_atlas, get_net, get_region

        assert get_net("sigma_sin") is get_net("sigma_sin")
        assert get_region("K_unit") is get_region("K_unit")
        assert get_net("sigma_sin").src is get_atlas("line") is get_net("s1_jump").src
        assert get_net("s1_jump").dst is get_atlas("circle")
        user = SpecEnv({"nets": {"mine": {"kind": "scalar", "expr": "cos"}}},
                       parent=REGISTRY_ENV)
        assert user.net("sigma_sin") is get_net("sigma_sin")
        assert user.net("mine").src is get_atlas("line")
        assert get_atlas("two_lines").chart_ids == ["a.e0", "b.e0"]
        assert get_atlas("halfline_exp").chart("e0").main_box.hi[0] == math.inf

    @pytest.mark.parametrize("argv,err", [
        (["check-moderate", "--net", "nope", "--region", "K_unit"], "net: unknown net 'nope'"),
        (["check-moderate", "--net", "sigma_sin", "--region", "nope"],
         "region: unknown region 'nope'"),
        (["eval-point", "--net", "sigma_sin", "--point", "nope"],
         "points: unknown point 'nope'"),
        (["tensor-insert", "--atlas", "nope", "--point", "p", "--tensor", '"identity"'],
         "atlas: unknown atlas 'nope'"),
    ], ids=["net", "region", "point", "atlas"])
    def test_unknown_names_exit_code(self, capsys, argv, err):
        code, _, got = run_cli(argv, capsys)
        assert code == 2
        assert got == f"spec error: {err}\n"

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

    def test_check_cbounded_into_a_doubly_infinite_chart_fails(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"atlases": {"R": {"builtin": "euclidean", '
                             '"bounds": [[-Infinity, Infinity]]}}, '
                             '"nets": {"wind": {"kind": "scalar", "dst": "R", "expr": "winding"}}}')
        code, out, _ = run_cli(["check-cbounded", "--net", "wind", "--region", "K_unit",
                                "--spec", str(spec_file)], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "Fail"

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

    def test_compose_at_a_point_is_eval_at_of_the_composite(self, capsys, tmp_path):
        spec = {"points": {"p": {"atlas": "line", "chart": "e0", "coords": [0.3]}}}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        code, out, _ = run_cli(["compose", "--outer", "sigma_sin", "--inner", "sigma_tanh",
                                "--region", "K_unit", "--point", "p",
                                "--spec", str(spec_file)], capsys)
        assert code == 0
        cfg = Config()
        grid, env = cfg.grid(), SpecEnv(spec, parent=REGISTRY_ENV)
        w = compose(env.net("sigma_sin"), env.net("sigma_tanh"), K=env.region("K_unit"),
                    grid=grid, cfg=cfg)
        want = eval_at(w, env.point("p"), grid, cfg).as_record(grid)
        assert len(want["samples"]) == len(grid)
        assert json.dumps(json.loads(out)["result"], sort_keys=True) == json.dumps(
            want, sort_keys=True)

    @pytest.mark.parametrize("order0", [False, True])
    def test_vb_check_of_two_nets_is_check_vbhom_equiv(self, capsys, order0):
        code, out, _ = run_cli(["vb-check", "--net", "s1_jump", "--net2", "s1_jump_flat",
                                "--region", "K_unit"] + ["--order0"] * order0, capsys)
        cfg = Config()
        v = check_vbhom_equiv(tangent(get_net("s1_jump")), tangent(get_net("s1_jump_flat")),
                              get_region("K_unit"), cfg.grid(), cfg.k_max, order0, cfg)
        inputs = {"net": "s1_jump", "region": "K_unit", "config": cfg.as_dict(),
                  "net2": "s1_jump_flat"}
        assert code == (0 if v.status is Status.PASS else 1)
        assert json.dumps(json.loads(out), sort_keys=True) == json.dumps(
            verdict_record("vb-check", inputs, v), sort_keys=True)

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

        from mapnets.gallery import REGISTRY_ENV, get_atlas
        from mapnets.gmap import MapNet
        from mapnets.manifold import LocalMap

        line = get_atlas("line")
        bad = MapNet(line, line, lambda eps: {("e0", "e0"): LocalMap(
            1, (1,), fn=lambda x: np.array([x[0], x[0]]), name="doubled")}, tag="doubled")
        monkeypatch.setitem(REGISTRY_ENV.objects["nets"], "doubled", bad)
        code, _, err = run_cli(["check-cbounded", "--net", "doubled",
                                "--region", "K_unit"], capsys)
        assert code == 2
        assert "doubled" in err and "(2,)" in err and "(1,)" in err
        assert "ChartEscape" not in err

    def test_derivative_undefined_exit_code(self, capsys, monkeypatch):
        from mapnets.gallery import REGISTRY_ENV, get_atlas
        from mapnets.gmap import scalar_net
        from mapnets.jets import sqrt

        line = get_atlas("line")
        net = scalar_net(line, line, lambda eps: lambda t: sqrt(t * t), tag="abs")
        monkeypatch.setitem(REGISTRY_ENV.objects["nets"], "abs", net)
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

    def test_no_lattice_density_setting(self, capsys):
        # regions carry their own lattice density; a config-wide one was read
        # by nothing, yet written into every record
        with pytest.raises(SystemExit) as exc:
            main(["check-moderate", "--net", "sigma_sin", "--region", "K_unit",
                  "--lattice-density", "5"])
        assert exc.value.code == 2
        assert "--lattice-density" in capsys.readouterr().err
        code, out, _ = run_cli(["check-moderate", "--net", "sigma_sin",
                                "--region", "K_unit"], capsys)
        assert code == 0
        assert "lattice_density" not in json.loads(out)["inputs"]["config"]
        with pytest.raises(ValueError):
            Config.from_dict({"lattice_density": 33})

    @pytest.mark.parametrize("content,what", [
        (json.dumps({"lattice_density": 5}), "lattice_density"),
        (json.dumps({"r2_min": 1.5}), "r2_min"),
        (json.dumps({"grid_k_min": 2, "grid_k_max": 4}), "grid"),
        (json.dumps([1, 2]), "sequence"),
        ("{not json", "Expecting property name"),
        (None, "No such file"),
    ], ids=["unknown-key", "out-of-range", "short-grid", "not-an-object", "malformed",
            "unreadable"])
    def test_config_file_errors_exit_code(self, capsys, tmp_path, content, what):
        # a bad --config file is a spec error (field "config"), not a traceback
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        code, _, err = run_cli(["check-moderate", "--net", "sigma_sin", "--region", "K_unit",
                                "--config", str(path)], capsys)
        assert code == 2
        assert err.startswith("spec error: config: ") and what in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv,files,where,what", [
        (["--spec", "TMP/none.json"], {}, "spec", "No such file"),
        (["--spec", "TMP/s.json"], {"s.json": "{not json"}, "spec", "Expecting property name"),
        (["--spec", "TMP/s.json"], {"s.json": "[1, 2]"}, "spec", "got list"),
        (["report", "--dir", "TMP/none"], {}, "--dir", "No such file"),
        (["report", "--dir", "TMP"], {"bad.json": "{not json"}, "bad.json", "Expecting"),
        (["vb-eval", "--fiber", "[1.0,"], {}, "--fiber", "Expecting value"),
        (["vb-eval", "--fiber", "[1.0, 2.0]"], {}, "--fiber", "fiber dimension of T(line)"),
        (["tensor-insert", "--tensor", '"identity'], {}, "--tensor", "Unterminated string"),
        (["tensor-insert", "--tensor", '"identity"', "--omega", "{"], {}, "--omega",
         "Expecting property name"),
        (["tensor-insert", "--tensor", '"identity"', "--xi", "sin"], {}, "--xi",
         "Expecting value"),
    ], ids=["spec-unreadable", "spec-malformed", "spec-not-an-object", "report-no-dir",
            "report-malformed", "fiber-malformed", "fiber-wrong-length", "tensor-malformed",
            "omega-malformed", "xi-malformed"])
    def test_input_errors_exit_code(self, capsys, tmp_path, argv, files, where, what):
        # bad input from outside the program is a spec error naming it, not a traceback
        (tmp_path / "p.json").write_text(json.dumps(
            {"points": {"p": {"atlas": "line", "chart": "e0", "coords": [0.3]}}}))
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [a.replace("TMP", str(tmp_path)) for a in argv]
        if argv[0] == "--spec":
            argv = ["check-moderate", "--net", "sigma_sin", "--region", "K_unit"] + argv
        elif argv[0] != "report":
            argv += ["--point", "p", "--spec", str(tmp_path / "p.json")]
            if argv[0] == "vb-eval":
                argv += ["--net", "s1_jump"]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith(f"spec error: {where}: ") and what in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec,where,what", [
        ({"nets": {"x": 5}}, "nets.x", "expected a JSON object, got int"),
        ({"nets": [1]}, "nets", "expected a JSON object, got list"),
        ({"atlases": "x"}, "atlases", "expected a JSON object, got str"),
        ({"atlases": {"s": {"builtin": "euclidean", "bounds": 5}}}, "atlases.s", "bad atlas"),
        ({"atlases": {"s": {"builtin": "euclidean", "bounds": [[1.0, 0.0]]}}}, "atlases.s",
         "nonempty"),
        ({"atlases": {"s": {"builtin": "union", "parts": {"a": 1}}}}, "atlases.s.parts.a",
         "expected a JSON object"),
        ({"nets": {"x": {"kind": "scalar", "src": ["line"]}}}, "nets.x", "unhashable"),
        ({"nets": {"x": {"kind": "scalar",
                         "expr": {"name": "poly", "params": {"coeffs": ["a"]}}}}},
         "nets.x: expr.params.coeffs", "expected a nonempty list of numbers"),
        ({"regions": {"K": {"pieces": 3}}}, "regions.K", "bad region"),
        ({"regions": {"K": {"pieces": [{"chart": "e0", "box": [[-1.0, 1.0]]}],
                            "lattice_density": "9"}}}, "regions.K", "bad region"),
        ({"points": {"p": {"atlas": "line", "chart": "e0"}}}, "points.p", "'coords'"),
    ], ids=["entry-not-an-object", "section-a-list", "section-a-string", "bounds-a-number",
            "bounds-empty-box", "union-part-not-an-object", "name-a-list", "net-expr-param",
            "pieces-a-number", "density-a-string", "point-no-coords"])
    def test_malformed_spec_entry_exit_code(self, capsys, tmp_path, spec, where, what):
        # every malformed section or entry of a --spec file is a spec error
        # naming it, not a traceback (whose exit code 1 reads as a failed check)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(["check-moderate", "--net", "sigma_sin", "--region", "K_unit",
                                "--spec", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"spec error: {where}: ") and what in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tensor,where,what", [
        ({"name": "poly", "params": {"coeffs": ["a"]}}, "expr.params.coeffs", "got ['a']"),
        ({"name": "poly", "params": {"coeffs": 3}}, "expr.params.coeffs", "got 3"),
        ({"name": "plus_flat", "params": [1]}, "expr.params", "got list"),
        ({"name": "affine", "params": {"a": "x"}}, "expr.params.a", "expected a number"),
        ({"name": ["sin"]}, "expr", "needs a 'name'"),
    ], ids=["coeff-not-a-number", "coeffs-a-number", "params-a-list", "param-a-string",
            "name-a-list"])
    def test_expression_parameter_errors_exit_code(self, capsys, tmp_path, tensor, where,
                                                   what):
        (tmp_path / "p.json").write_text(json.dumps(
            {"points": {"p": {"atlas": "line", "chart": "e0", "coords": [0.3]}}}))
        code, _, err = run_cli(["tensor-insert", "--point", "p", "--tensor", json.dumps(tensor),
                                "--spec", str(tmp_path / "p.json")], capsys)
        assert code == 2
        assert err.startswith(f"spec error: {where}: ") and what in err
        assert "Traceback" not in err

    def test_readme_cli_block_runs(self, capsys, tmp_path, monkeypatch):
        # every `mapnets ...` line of README section CLI is a valid invocation
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("\n## CLI\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [ln.split("#", 1)[0] for ln in block.splitlines() if ln.startswith("mapnets ")]
        assert len(lines) >= 5
        monkeypatch.chdir(tmp_path)  # `out/` lands in tmp_path
        for line in lines:
            code, _, err = run_cli(shlex.split(line)[1:], capsys)
            assert code in (0, 1), (line, err)


    def test_readme_spec_example_builds(self):
        # every object of README section CLI's --spec example builds, on top
        # of the registry (the net `loop` lands in the registered `circle`)
        from mapnets.gallery import REGISTRY_ENV, SpecEnv

        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("\n## CLI\n", 1)[1]
        spec = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        env = SpecEnv(spec, parent=REGISTRY_ENV)
        for sec in SpecEnv.SECTIONS:
            assert sorted(env.objects[sec]) == sorted(spec.get(sec, {}))
        assert sorted(spec) == sorted(SpecEnv.SECTIONS)
        assert env.net("loop").dst is REGISTRY_ENV.atlas("circle")
        assert env.point("p").atlas is env.atlas("seg")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Config(grid_base=1.5)
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
