import hashlib
import json
from pathlib import Path

import pytest

from conftest import RECIPES
from offloadsim import cli
from offloadsim.config import (
    ConfigError,
    bundled_recipe_path,
    bundled_scenario_path,
    load_energy_model,
    load_experiment,
    load_route,
    load_scenario,
    load_snr_table,
    load_sweep,
    parse_factor,
    parse_policy,
)
from offloadsim.metrics import ScenarioSpec, SweepSpec, render_csv, run_sweep
from offloadsim.oracle import AgreementReport
from offloadsim.model import TrafficClass
from offloadsim.policies import Policy

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


class TestLoaders:
    def test_bundled_routes(self):
        for key, n in (("2ap", 2), ("4ap", 4), ("8ap", 8)):
            assert load_route(key).n_hotspots == n

    def test_missing_route_file(self):
        with pytest.raises(ConfigError):
            load_route("/no/such/file.json")

    def test_malformed_route(self, tmp_path):
        bad = tmp_path / "route.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_route(str(bad))

    def test_route_missing_field(self, tmp_path):
        bad = tmp_path / "route.json"
        bad.write_text(json.dumps({"segments": [{"kind": "mobile", "start_time": 0,
                                                 "duration": 10}],
                                   "total_time": 10}))
        with pytest.raises(ConfigError):
            load_route(str(bad))

    def test_snr_and_energy_defaults(self):
        table = load_snr_table()
        assert len(table) == 6
        model = load_energy_model()
        assert model.mobile_transfer_j_per_mb == 100.0

    def test_snr_and_energy_from_custom_files(self, tmp_path):
        snr = tmp_path / "snr.json"
        snr.write_text(json.dumps({"bands": [
            {"lower_db": None, "upper_db": -70, "wifi_rate": 10.0, "adsl_rate": 5.0},
            {"lower_db": -70, "upper_db": None, "wifi_rate": 20.0, "adsl_rate": 9.0},
        ]}))
        table = load_snr_table(str(snr))
        assert len(table) == 2
        energy = tmp_path / "energy.json"
        energy.write_text(json.dumps({
            "mobile_transfer_j_per_mb": 80.0, "wifi_transfer_j_per_mb": 4.0,
            "wifi_idle_w": 0.5, "wifi_preactivation_s": 10.0,
        }))
        assert load_energy_model(str(energy)).wifi_idle_w == 0.5
        bad = tmp_path / "bad_energy.json"
        bad.write_text(json.dumps({"wifi_idle_w": 0.5}))
        with pytest.raises(ConfigError):
            load_energy_model(str(bad))

    def test_parse_factor(self):
        assert parse_factor("1/3") == pytest.approx(1 / 3)
        assert parse_factor(0.5) == 0.5
        assert parse_factor(1) == 1.0
        with pytest.raises(ConfigError):
            parse_factor("one third")

    def test_parse_policy(self):
        assert parse_policy("prefetch-dt") is Policy.PREFETCH_DELAY_TOLERANT
        with pytest.raises(ConfigError):
            parse_policy("warp-drive")


class TestBundledScenarios:
    def test_delay_tolerant_default(self):
        spec = load_scenario(str(bundled_scenario_path("scenario_dt_default")))
        assert spec.task.size_mb == 60.0
        assert spec.task.traffic_class is TrafficClass.DELAY_TOLERANT
        assert spec.task.delay_threshold == pytest.approx(269.0)
        assert spec.runs == 120
        assert spec.errors.time_error == 0.10
        assert spec.errors.throughput_error == 0.20
        assert spec.mobile_factor == pytest.approx(1 / 3)

    def test_delay_sensitive_default(self):
        spec = load_scenario(str(bundled_scenario_path("scenario_ds_default")))
        assert spec.task.size_mb == 50.0
        assert spec.task.traffic_class is TrafficClass.DELAY_SENSITIVE
        assert Policy.MOBILE_ONLY in spec.policies


class TestRecipes:
    @pytest.mark.parametrize("name", RECIPES)
    def test_recipe_loads_and_names_figure(self, name):
        path = bundled_recipe_path(name)
        data = json.loads(Path(path).read_text())
        assert data["figure"] == name.removeprefix("fig")
        assert data["comment"]
        sweep = load_sweep(str(path))
        assert isinstance(sweep, SweepSpec)
        assert len(sweep.values) >= 3

    def test_recipe_grids_match_defaults(self):
        sizes = load_sweep(str(bundled_recipe_path("fig2a"))).values
        assert sizes == (30.0, 40.0, 50.0, 60.0, 70.0)
        errors = load_sweep(str(bundled_recipe_path("fig4a"))).values
        assert errors == (0.10, 0.20, 0.30, 0.40)
        thr = load_sweep(str(bundled_recipe_path("fig4b"))).values
        assert thr == (0.20, 0.40, 0.60, 0.80)
        hotspots = load_sweep(str(bundled_recipe_path("fig3d"))).values
        assert hotspots == (2.0, 4.0, 8.0)

    def test_load_experiment_dispatches(self):
        assert isinstance(load_experiment(str(bundled_recipe_path("fig2a"))), SweepSpec)
        assert isinstance(
            load_experiment(str(bundled_scenario_path("scenario_dt_default"))),
            ScenarioSpec,
        )

    def test_empty_sweep_values_rejected(self, tmp_path):
        data = json.loads(Path(bundled_recipe_path("fig2a")).read_text())
        data["sweep"]["values"] = []
        bad = tmp_path / "bad_sweep.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_sweep(str(bad))


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_run_deterministic_csv(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["run", "--scenario", "dt-default", "--runs", "3",
                "--time-error", "0", "--thr-error", "0", "--seed", "0"]
        assert self.run_cli(*args, "--out", str(out1)) == 0
        assert self.run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = capsys.readouterr().out
        assert "prefetch-dt" in summary

    def test_single_deterministic_run(self, tmp_path):
        out = tmp_path / "single.csv"
        code = self.run_cli("run", "--scenario", "dt-default", "--runs", "1",
                            "--time-error", "0", "--thr-error", "0",
                            "--policy", "prefetch-dt", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 4  # header + one row per metric
        assert all(r.split(",")[5] == "1" for r in rows[1:])

    @pytest.mark.parametrize("scenario", ["dt-default", "ds-default"] + RECIPES)
    def test_run_csv_matches_golden_digest(self, scenario, tmp_path):
        """The CSV bytes of the default scenarios (through the CLI) and of the
        figure recipes (through run_sweep) are a contract: any change to the
        engine, planners or aggregation must leave them identical."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if scenario in RECIPES:
            sweep = load_sweep(str(bundled_recipe_path(scenario)))
            text = render_csv(run_sweep(sweep), sweep.metrics)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == golden[f"figures:{scenario}"]
            return
        out = tmp_path / f"{scenario}.csv"
        assert self.run_cli("run", "--scenario", scenario, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden[f"cli-run:{scenario}"]

    @pytest.mark.parametrize("section,key,value", [
        ("task", "size_mb", float("nan")),
        ("task", "size_mb", float("inf")),
        ("task", "delay_threshold_s", float("nan")),
        ("task", "delay_threshold_s", float("inf")),
        ("rate_factors", "mobile", float("nan")),
        ("energy", "wifi_idle_w", float("nan")),
        ("route", "duration", float("nan")),
        ("route", "mobile_rate", float("nan")),
        ("sweep", "values", [float("nan")]),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, section, key, value):
        def bundled(name):
            return json.loads(bundled_scenario_path(name).read_text())

        data = bundled("scenario_dt_default")
        if section == "route":
            route = bundled("route_4ap")
            route["segments"][-1][key] = value  # the last segment is mobile
            path = tmp_path / "route.json"
            path.write_text(json.dumps(route))
            data["route"] = str(path)
        elif section == "energy":
            data["energy"] = dict(bundled("energy"), **{key: value})
        elif section == "sweep":
            data = json.loads(bundled_recipe_path("fig3a").read_text())
            data[section][key] = value  # fig3a sweeps the mobile factor
        else:
            data[section][key] = value
        bad = tmp_path / "input.json"
        bad.write_text(json.dumps(data))  # json writes NaN and Infinity
        assert self.run_cli("run", "--scenario", str(bad), "--runs", "3") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("recipe,section,key,value", [
        (None, None, "policies", ["prefetch-dt", "no-prediction", "prefetch-dt"]),
        (None, None, "metrics", ["offload_pct", "bogus"]),
        ("fig2a", None, "metrics", ["offload_pct", "bogus"]),
        ("fig2a", "scenario", "metrics", ["bogus"]),
    ], ids=["policy-twice", "scenario-metric", "sweep-metric", "sweep-base-metric"])
    def test_bad_input_file_exits_2(self, tmp_path, capsys, recipe, section, key, value):
        """A policy listed twice or an unknown metric name fails at load."""
        if recipe is None:
            data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        else:
            data = json.loads(bundled_recipe_path(recipe).read_text())
        (data if section is None else data[section])[key] = value
        bad = tmp_path / "input.json"
        bad.write_text(json.dumps(data))
        assert self.run_cli("run", "--scenario", str(bad), "--runs", "3") == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == ""

    def test_run_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        out = tmp_path / "never.csv"
        code = self.run_cli("run", "--scenario", str(bad), "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert self.run_cli("run", "--scenario", "no-such-thing") == 2

    def test_run_accepts_sweep_recipe(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        code = self.run_cli("run", "--scenario", "fig2a", "--runs", "2",
                            "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        # header + 5 sizes x 3 policies x 1 filtered metric
        assert len(rows) == 1 + 5 * 3
        assert all(",offload_pct," in r for r in rows[1:])

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "fig6a.csv"
        code = self.run_cli("sweep", "--sweep", "fig6a", "--runs", "2",
                            "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "scenario_id,policy,metric,mean,ci95,n,infeasible_count"
        assert any("fig6a@size_mb=30" in r for r in rows)

    def test_policy_override(self, tmp_path):
        out = tmp_path / "one.csv"
        code = self.run_cli("run", "--scenario", "dt-default", "--runs", "2",
                            "--policy", "mobile-only", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert all(",mobile-only," in r for r in rows)

    def test_bad_policy_override_exits_2(self):
        code = self.run_cli("run", "--scenario", "dt-default",
                            "--policy", "warp-drive")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("run", "--scenario", "dt-default", "--runs", "0"),
        ("run", "--scenario", "dt-default", "--time-error", "1.5"),
        ("run", "--scenario", "dt-default", "--thr-error", "-0.1"),
        ("sweep", "--sweep", "fig2a", "--runs", "0"),
        ("oracle-check", "--scenario", "ds-default", "--dt", "0"),
        ("oracle-check", "--scenario", "ds-default", "--dt", "-1"),
        ("oracle-check", "--scenario", "ds-default", "--seeds", "0"),
        ("run", "--scenario", "dt-default", "--policy", "prefetch-dt,prefetch-dt",
         "--runs", "3"),
        ("run", "--scenario", "dt-default", "--policy", "prefetch-ds"),
        ("oracle-check", "--scenario", "ds-default", "--dt", "inf"),
        ("oracle-check", "--scenario", "ds-default", "--dt", "nan"),
    ])
    def test_bad_override_exits_2(self, argv, capsys):
        assert self.run_cli(*argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "worst over" not in captured.out

    def test_oracle_check_passes(self, capsys):
        code = self.run_cli("oracle-check", "--scenario", "ds-default",
                            "--seeds", "3")
        assert code == 0
        out = capsys.readouterr().out
        assert "worst over 3 seeds" in out
        assert "FAIL" not in out

    def test_oracle_check_failure_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "compare_runs",
                            lambda *args, **kwargs: AgreementReport(1e9, 0.0, False))
        code = self.run_cli("oracle-check", "--scenario", "ds-default", "--seeds", "2")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "2 failing seed(s)" in out

    def test_oracle_check_dt_flag(self, capsys):
        code = self.run_cli("oracle-check", "--scenario", "dt-default",
                            "--seeds", "2", "--dt", "0.05")
        assert code == 0
