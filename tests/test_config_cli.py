import dataclasses
import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path, PurePosixPath

import numpy as np
import pytest

from conftest import RECIPES
from offloadsim import cli, config
from offloadsim.config import (
    BUNDLED_SCENARIOS,
    ROUTES,
    ConfigError,
    bundled_recipe_path,
    bundled_route,
    bundled_scenario_path,
    load_energy_model,
    load_experiment,
    load_route,
    load_scenario,
    load_sweep,
    parse_factor,
    parse_policy,
)
from offloadsim.metrics import (ScenarioSpec, SweepSpec, ci_halfwidth, render_csv,
                                run_sweep, scenario_outcomes)
from offloadsim.oracle import AgreementReport
from offloadsim.model import EnergyModel, TrafficClass
from offloadsim.policies import Policy

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"

# (recipe, section, key, value) cases of test_bad_input_file_exits_2 that put
# a field of the wrong JSON type in a scenario or sweep file
WRONG_JSON_TYPE = [
    (None, None, "task", [60]),
    (None, None, "rate_factors", "1/3"),
    (None, None, "errors", "0.1"),
    ("fig2a", None, "scenario", [1]),
    (None, None, "policies", "mobile-only"),
    ("fig2a", None, "metrics", "offload_pct"),
    ("fig2a", "sweep", "values", "1/3"),
    (None, None, "scenario_id", [1]),
    (None, None, "route", [1]),
    (None, "task", "class", ["a"]),
]

# cases of test_bad_input_file_exits_2 that put true or false in a number field
BOOLEAN_NUMBER = [
    (None, "task", "size_mb", True),
    (None, "task", "delay_threshold_s", True),
    (None, "errors", "time_error", False),
    (None, "errors", "throughput_error", True),
    (None, "rate_factors", "mobile", True),
    (None, None, "energy", {"mobile_transfer_j_per_mb": True, "wifi_transfer_j_per_mb": 5.0,
                            "wifi_idle_w": 1.0, "wifi_preactivation_s": 1.0}),
    ("4ap", None, "backhaul_rate", True),
    ("fig3a", "sweep", "values", [0.5, True]),
]

# cases of test_bad_input_file_exits_2 that put a JSON string of digits in a
# number field, or a non-string or unknown entry in a list of names, or an
# unknown sweep parameter, and the dotted field path the error must name
# ("input" is the file's stem)
NAMED_FIELD = [
    ((None, None, "seed", "7"), "input.seed: expected an integer"),
    ((None, None, "runs", "3"), "input.runs: expected an integer"),
    ((None, "task", "size_mb", "60"), "input.task.size_mb: expected a number"),
    ((None, "errors", "time_error", "0.1"), "input.errors.time_error: expected a number"),
    (("4ap", None, "hotspot_index", "1"), "route.json.segments[1].hotspot_index: expected an"),
    (("4ap", None, "backhaul_rate", "1"), "route.json.segments[1].backhaul_rate: expected a"),
    (("fig2a", "scenario", "seed", "7"), "base.json.seed: expected an integer"),
    ((None, None, "policies", ["prefetch-dt", 1]), "input.policies[1]: expected a JSON string"),
    (("fig2a", None, "metrics", [1]), "input.metrics[0]: expected a JSON string"),
    (("fig2a", "sweep", "parameter", [1]), "input.sweep.parameter: expected a JSON string"),
    ((None, None, "policies", ["prefetch-dt", "bogus"]),
     "input.policies[1]: unknown policy 'bogus'; "),
    (("fig2a", None, "metrics", ["bogus"]), "input.metrics[0]: unknown metric 'bogus'; "),
    (("fig2a", "sweep", "parameter", "bogus"),
     "input.sweep.parameter: unknown sweep parameter 'bogus'; "),
    (("fig2a", None, "metrics", ["offload_pct", "offload_pct"]),
     "input.metrics[1]: metric offload_pct is listed twice"),
    (("fig2a", None, "metrics", []), "input.metrics: expected at least one metric"),
]

# cases of test_bad_input_file_exits_2 that put a metrics list in a scenario,
# or in a sweep's base file: only a sweep's top level names the metrics its
# CSV shows, so the key is unknown there
SCENARIO_METRICS = [
    (None, None, "metrics", ["offload_pct", "bogus"]),
    ("fig2a", "scenario", "metrics", ["bogus"]),
    (None, None, "metrics", "offload_pct"),
    (None, None, "metrics", [1]),
    (None, None, "metrics", ["offload_pct", "energy_j", "bogus"]),
    ("fig2a", "scenario", "metrics", ["offload_pct", "bogus"]),
    (None, None, "metrics", ["offload_pct", "energy_j", "offload_pct"]),
    ("fig2a", "scenario", "metrics", ["energy_j", "energy_j"]),
    (None, None, "metrics", []),
    ("fig2a", "scenario", "metrics", []),
]


class TestLoaders:
    def test_bundled_routes(self):
        for key, n in (("2ap", 2), ("4ap", 4), ("8ap", 8)):
            assert load_route(key).n_hotspots == n

    def test_bundled_route_is_parsed_once(self):
        assert load_route("4ap") is load_route("4ap")

    def test_route_file_is_read_on_every_call(self, tmp_path):
        path = tmp_path / "route.json"
        rates = []
        for rate in (4.0, 9.0):
            path.write_text(json.dumps({"segments": [{"kind": "mobile", "start_time": 0,
                                                      "duration": 10, "mobile_rate": rate}],
                                        "total_time": 10}))
            rates.append(load_route(str(path)).segments[0].mobile_rate)
        assert rates == [4.0, 9.0]

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

    def test_energy_defaults(self):
        """With no file, the energy model is the one a scenario without
        ``energy`` runs."""
        assert load_energy_model() == EnergyModel()
        assert EnergyModel().mobile_transfer_j_per_mb == 100.0

    def test_energy_from_custom_file(self, tmp_path):
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
        fig2a = load_sweep(str(bundled_recipe_path("fig2a")))
        assert fig2a.values == (30.0, 40.0, 50.0, 60.0, 70.0)
        assert fig2a.metrics == ("offload_pct",)
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

    def test_each_recipe_is_its_default_swept(self):
        """Figures 2-5 sweep the delay-tolerant default and 6-9 the
        delay-sensitive one; a recipe names it and restates none of it."""
        for name in RECIPES:
            data = json.loads(bundled_recipe_path(name).read_text())
            default = "dt-default" if name < "fig6" else "ds-default"
            assert data["scenario"] == default, name
            base = load_sweep(str(bundled_recipe_path(name))).base
            assert base == load_scenario(str(bundled_scenario_path(BUNDLED_SCENARIOS[default])))
            assert base.scenario_id == name


class TestScenarioReference:
    """A sweep's ``scenario`` is a bundled scenario's name or a scenario
    file's path, never an inline object; its points take the sweep file's
    name."""

    SWEEP = {"parameter": "size_mb", "values": [30, 40]}

    def write(self, tmp_path, scenario, name="input"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"scenario": scenario, "sweep": self.SWEEP}))
        return str(path)

    def test_a_bundled_name_loads(self, tmp_path):
        sweep = load_sweep(self.write(tmp_path, "ds-default", "mine"))
        assert sweep.base == load_scenario(str(bundled_scenario_path("scenario_ds_default")))
        assert [p.scenario_id for p in sweep.points] == ["mine@size_mb=30", "mine@size_mb=40"]

    def test_a_file_path_loads(self, tmp_path, monkeypatch):
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        data["task"]["size_mb"] = 45
        (tmp_path / "base.json").write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        for ref in ("base.json", str(tmp_path / "base.json")):
            sweep = load_sweep(self.write(tmp_path, ref))
            assert sweep.base == load_scenario("base.json")
            assert sweep.base.task.size_mb == 45
            assert sweep.base.scenario_id == "input"
            assert sweep.points[1].scenario_id == "input@size_mb=40"

    @pytest.mark.parametrize("scenario,message", [
        ("dt_default", "cannot read {dir}/dt_default: "),
        ("missing.json", "cannot read {dir}/missing.json: "),
        ("broken.json", "invalid JSON in {dir}/broken.json: "),
        ({"route": "4ap"}, "expected a JSON string, got {{'route': '4ap'}}"),
        ("nul\u0000byte", "cannot read {dir}/nul\x00byte: embedded null byte"),
        ("latin1.json", "cannot read {dir}/latin1.json: 'utf-8' codec can't decode"),
    ], ids=["unknown-name", "unreadable-path", "invalid-json", "inline-object", "nul-byte",
            "not-utf-8"])
    def test_a_bad_reference_exits_2_naming_the_key(self, tmp_path, monkeypatch, capsys,
                                                    scenario, message):
        """The message names the key and the path tried, beside the sweep file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.json").write_text("{oops")
        (tmp_path / "latin1.json").write_bytes(b'{"route": "caf\xe9"}')
        assert cli.main(["sweep", "--sweep", self.write(tmp_path, scenario)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        prefix = f"error: input.scenario: {message.format(dir=tmp_path)}"
        assert len(err) == 1 and err[0].startswith(prefix), err
        assert captured.out == ""

    @pytest.mark.parametrize("edit,named", [
        ({"seeds": 0}, "base.json.seeds: unknown key"),
        ({"task": {"size_mb": -1}}, "base.json.task: size_mb must be"),
        ({"route": "5ap"}, "base.json.route: cannot read {dir}/5ap: "),
    ], ids=["unknown-key", "rejected-value", "bad-route"])
    def test_an_error_in_the_referenced_file_is_named_by_it(self, tmp_path, monkeypatch,
                                                           capsys, edit, named):
        monkeypatch.chdir(tmp_path)
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        (tmp_path / "base.json").write_text(json.dumps(dict(data, **edit)))
        assert cli.main(["sweep", "--sweep", self.write(tmp_path, "base.json")]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named.format(dir=tmp_path)}"), err
        assert captured.out == ""

    def test_the_points_take_the_sweep_files_name(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        path = self.write(tmp_path, "dt-default", "my-sweep")
        assert cli.main(["sweep", "--sweep", path, "--runs", "2", "--out", str(out)]) == 0
        ids = {row.split(",")[0] for row in out.read_text().splitlines()[1:]}
        assert ids == {"my-sweep@size_mb=30", "my-sweep@size_mb=40"}
        capsys.readouterr()


class TestReferenceRule:
    """One rule finds every named input: a file at the reference, a relative
    one read from the directory of the file that names it (the working
    directory for a CLI argument or a loader call); else a bundled name of
    its kind, with or without ``.json``."""

    def write_refdir(self, tmp_path):
        """``refdir/s.json`` sweeps ``base.json``, whose route is ``myroute.json``."""
        refdir = tmp_path / "refdir"
        refdir.mkdir()
        shutil.copy(bundled_scenario_path("route_2ap"), refdir / "myroute.json")
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        (refdir / "base.json").write_text(json.dumps(dict(data, route="myroute.json")))
        (refdir / "s.json").write_text(json.dumps(
            {"scenario": "base.json", "sweep": {"parameter": "size_mb", "values": [30, 40]}}))
        return refdir

    def test_a_sweep_runs_the_same_from_any_directory(self, tmp_path, monkeypatch, capsys):
        refdir = self.write_refdir(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        csvs = []
        for cwd, ref in ((refdir, "s.json"), (elsewhere, "../refdir/s.json"),
                         (elsewhere, str(refdir / "s.json"))):
            monkeypatch.chdir(cwd)
            out = tmp_path / f"out{len(csvs)}.csv"
            assert cli.main(["sweep", "--sweep", ref, "--runs", "2", "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_a_route_is_read_beside_its_scenario(self, tmp_path, monkeypatch, capsys):
        refdir = self.write_refdir(tmp_path)
        monkeypatch.chdir(tmp_path)
        spec = load_scenario("refdir/base.json")
        assert spec.route == load_route("refdir/myroute.json") == load_route("2ap")
        assert cli.main(["run", "--scenario", str(refdir / "base.json"), "--runs", "2"]) == 0
        capsys.readouterr()

    def test_a_loader_takes_a_bundled_name(self):
        assert load_scenario("dt-default") == load_scenario(
            str(bundled_scenario_path("scenario_dt_default")))
        assert load_sweep("fig2a") == load_sweep(str(bundled_recipe_path("fig2a")))
        assert load_experiment("fig9b.json") == load_experiment(str(bundled_recipe_path("fig9b")))

    @pytest.mark.parametrize("ref,beside,hotspots", [
        ("4ap", "4ap", 2), ("4ap", None, 4), ("8ap.json", None, 8), ("4ap.json", "4ap.json", 2)])
    def test_a_file_beside_the_scenario_comes_before_a_bundled_route(
            self, tmp_path, ref, beside, hotspots):
        """As for a CLI argument: a file of the name, here the 2-hotspot
        route, is read; with none, the name is bundled, ``.json`` or not."""
        if beside:
            shutil.copy(bundled_scenario_path("route_2ap"), tmp_path / beside)
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        (tmp_path / "input.json").write_text(json.dumps(dict(data, route=ref)))
        assert load_scenario(str(tmp_path / "input.json")).route.n_hotspots == hotspots

    def test_figures_never_read_a_working_directory_file(self, tmp_path, monkeypatch, capsys):
        """A file in the working directory named after a route, scenario or
        recipe leaves every figure bundled: its 20 CSVs match their golden
        digests, and fig3d's 2-hotspot point runs the bundled 2ap route."""
        monkeypatch.chdir(tmp_path)
        for name, data in (("2ap", "route_8ap"), ("4ap", "route_2ap"),
                           ("dt-default.json", "scenario_ds_default"),
                           ("fig2a", "recipes/fig2b"), ("fig2a.json", "recipes/fig2b")):
            shutil.copy(bundled_scenario_path(data), tmp_path / name)
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert cli.main(["figures", "--out", "figures"]) == 0
        for name in RECIPES:
            digest = hashlib.sha256((tmp_path / "figures" / f"{name}.csv").read_bytes())
            assert digest.hexdigest() == golden[f"figures:{name}"], name
        point = load_sweep("fig3d").points[0]
        assert point.route == bundled_route("2ap") != load_route("2ap")
        capsys.readouterr()


class TestDataFiles:
    """The bundled data directory, the name tables and the package data are
    one set of files, so an installed package resolves the same names."""

    TABLES = {"route": ROUTES, "scenario": BUNDLED_SCENARIOS, "recipe": config.RECIPES}

    def test_every_data_file_is_a_table_entry_and_package_data(self):
        data = bundled_scenario_path("scenario_dt_default").parent
        files = {p.relative_to(data).as_posix() for p in data.rglob("*.json")}
        entries = [f"{stem}.json" for table in self.TABLES.values() for stem in table.values()]
        assert sorted(entries) == sorted(files)
        assert sorted(config.RECIPES) == RECIPES
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        globs = tomllib.loads((ROOT / "pyproject.toml").read_text())[
            "tool"]["setuptools"]["package-data"]["offloadsim"]
        for name in files:
            path = PurePosixPath("data", name)
            assert any(len(path.parts) == len(PurePosixPath(g).parts) and path.match(g)
                       for g in globs), name

    @pytest.mark.parametrize("kind", ["route", "scenario", "recipe"])
    def test_every_table_entry_names_an_existing_file(self, kind):
        for name, stem in self.TABLES[kind].items():
            assert bundled_scenario_path(stem).is_file(), (kind, name)


def cli_examples() -> list[tuple[str, str]]:
    """Every ``offloadsim ...`` line of README's CLI block and of the CLI
    module's docstring, with its source."""
    block = (ROOT / "README.md").read_text().split("## CLI\n", 1)[1].split("```")[1]
    return [(source, line.strip()) for source, text in [("README.md", block),
                                                        ("cli.py", cli.__doc__)]
            for line in text.splitlines() if line.strip().startswith("offloadsim ")]


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_both_sources_show_command_lines(self):
        assert {source for source, _ in cli_examples()} == {"README.md", "cli.py"}

    @pytest.mark.parametrize("source,line", cli_examples())
    def test_documented_command_lines_parse(self, source, line):
        """A renamed or dropped flag fails here, not in a reader's shell: each
        documented line parses (it is not run)."""
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{source}: {line!r} does not parse")
        assert args.command == argv[0]

    @pytest.mark.parametrize("scenario,code", [("dt-default", 0), ("no-such-scenario", 2)])
    def test_module_entry_point(self, tmp_path, scenario, code):
        """``python -m offloadsim.cli``, as the benchmark starts it, exits
        with main's code: 0 and the CSV, or 2 and one ``error:`` line."""
        out = tmp_path / "run.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "offloadsim.cli", "run", "--scenario", scenario,
             "--runs", "2", "--out", str(out)],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert out.read_text().startswith("scenario_id,policy,metric,")
        else:
            err = proc.stderr.splitlines()
            assert len(err) == 1, err
            assert err[0].startswith("error: experiment: cannot read no-such-scenario: "), err
            assert not out.exists()

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

    def test_figures_writes_every_recipe_csv(self, tmp_path, capsys):
        """One process writes all 20 recipe CSVs, each the bytes ``sweep``
        writes for it (the golden digests of run_sweep's CSVs)."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        out = tmp_path / "figures"
        assert self.run_cli("figures", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(f"{n}.csv" for n in RECIPES)
        for name in RECIPES:
            digest = hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
            assert digest == golden[f"figures:{name}"], name
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / f'{n}.csv'}" for n in sorted(RECIPES)]

    def test_a_sweep_builds_each_point_once(self, tmp_path, monkeypatch, capsys):
        """A sweep's points are built when its spec is, and read from it
        after: loading and running fig2a builds its base and 5 points, and so
        does ``sweep`` with no override; an override builds its new base and
        the 5 points again; ``figures`` builds 20 bases and 82 points."""
        built = []
        post_init = ScenarioSpec.__post_init__

        def counted(spec):
            built.append(spec.scenario_id)
            post_init(spec)

        monkeypatch.setattr(ScenarioSpec, "__post_init__", counted)
        run_sweep(load_sweep(str(bundled_recipe_path("fig2a"))))
        assert len(built) == 6, built
        for argv, count in [(("sweep", "--sweep", "fig2a"), 6),
                            (("sweep", "--sweep", "fig2a", "--runs", "3"), 6 + 1 + 5),
                            (("figures", "--out", str(tmp_path)), 102)]:
            built.clear()
            assert self.run_cli(*argv) == 0
            assert len(built) == count, (argv, built)
        capsys.readouterr()

    def test_an_override_that_breaks_a_sweep_point_exits_2_naming_it(self, tmp_path, capsys):
        """Mobile rates of 1.7e308 Mbit/s on a route of millisecond segments
        are finite at mobile factor 1 and throughput error 0, but not at
        throughput error 0.2: the override passes the base, at factor 1/3,
        and fails the second point before any run, named by its index and
        id."""
        route = json.loads(bundled_scenario_path("route_4ap").read_text())
        route["total_time"] *= 1e-3
        for seg in route["segments"]:
            seg["start_time"] *= 1e-3
            seg["duration"] *= 1e-3
            if seg["kind"] == "mobile":
                seg["mobile_rate"] = 1.7e308
        (tmp_path / "route.json").write_text(json.dumps(route))
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        data.update(route=str(tmp_path / "route.json"),
                    rate_factors={"mobile": "1/3", "wifi": "1", "backhaul": "1"})
        data["errors"]["throughput_error"] = 0.0
        (tmp_path / "base.json").write_text(json.dumps(data))
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"scenario": str(tmp_path / "base.json"), "sweep": {
            "parameter": "mobile_factor", "values": ["1/3", 1]}}))
        assert self.run_cli("sweep", "--sweep", str(path), "--thr-error", "0.2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: input.sweep: values[1] (input@mobile_factor=1): segment 0: "
            "a realized mobile rate leaves (0, inf) at error 0.2"]

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_figures_unwritable_out_exits_2(self, tmp_path, capsys, sub):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert self.run_cli("figures", "--out", str(blocker / sub)) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out: ")
        assert captured.out == ""

    def test_huge_energy_price_aggregates_without_overflow(self, tmp_path, capsys):
        """Energies near 1e162 J square past the float range in np.std; the
        run exits 0 with no warning, and each CI is 2^k times that of its
        row scaled by 2^-k."""
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        data["energy"] = {**dataclasses.asdict(EnergyModel()),
                          "mobile_transfer_j_per_mb": 1e160}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "huge.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self.run_cli("run", "--scenario", str(path), "--runs", "10",
                                "--out", str(out)) == 0
        spec = dataclasses.replace(load_scenario(str(path)), runs=10)
        rows = {tuple(r.split(",")[1:3]): r.split(",")[4]
                for r in out.read_text().splitlines()[1:]}
        for policy, outcome in scenario_outcomes(spec).items():
            energy = outcome.energy_j
            k = int(np.frexp(np.abs(energy).max())[1])
            ci = np.ldexp(ci_halfwidth(np.ldexp(energy, -k)), k)
            assert 1e150 < ci < math.inf
            assert rows[policy.cli_name, "energy_j"] == f"{ci:.10g}"

    def test_huge_energy_price_means_without_overflow(self, tmp_path):
        """At 1e305 J/MB, 120 energies near 6e306 J sum past the float range
        in np.mean; the run exits 0 with no warning, and every mean is finite
        and 2^k times that of its row scaled by 2^-k."""
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        data["energy"] = {**dataclasses.asdict(EnergyModel()),
                          "mobile_transfer_j_per_mb": 1e305}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "huge.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self.run_cli("run", "--scenario", str(path), "--out", str(out)) == 0
        spec = load_scenario(str(path))
        assert spec.runs == 120
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert all(math.isfinite(float(r[3])) for r in rows)
        means = {(r[1], r[2]): r[3] for r in rows}
        for policy, outcome in scenario_outcomes(spec).items():
            energy = outcome.energy_j
            k = int(np.frexp(np.abs(energy).max())[1])
            mean = np.ldexp(np.mean(np.ldexp(energy, -k)), k)
            assert 1e306 < mean < math.inf
            assert means[policy.cli_name, "energy_j"] == f"{mean:.10g}"

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

    def test_figures_match_golden_in_reverse_order(self, fresh_memos):
        """All 20 recipes in one process, last first, with every memo empty at
        the start: each distinct point runs, every point after the first of
        its route layout reads the memoized draws, and every CSV still
        matches its digest."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        for name in reversed(RECIPES):
            sweep = load_sweep(str(bundled_recipe_path(name)))
            text = render_csv(run_sweep(sweep), sweep.metrics)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == golden[f"figures:{name}"]

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
            data["energy"] = dict(dataclasses.asdict(EnergyModel()), **{key: value})
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
        ("fig2a", None, "metrics", ["offload_pct", "bogus"]),
        (None, None, "seed", -1),
        ("fig2a", "scenario", "seed", -1),
        (None, None, "seed", 0.9),
        (None, None, "runs", 3.7),
        (None, None, "runs", True),
        (None, None, "seed", False),
        (None, None, "runs", float("inf")),
        ("fig2a", "scenario", "runs", 3.7),
        ("4ap", None, "hotspot_index", 1.5),
        ("4ap", None, "hotspot_index", True),
        ("fig3d", "sweep", "values", [2, 2.5]),
    ] + WRONG_JSON_TYPE + BOOLEAN_NUMBER + [case for case, _ in NAMED_FIELD] + SCENARIO_METRICS,
        ids=["policy-twice", "sweep-metric", "scenario-negative-seed",
             "sweep-base-negative-seed", "scenario-fractional-seed", "scenario-fractional-runs", "scenario-bool-runs",
             "scenario-bool-seed", "scenario-infinite-runs", "sweep-base-fractional-runs",
             "route-fractional-hotspot-index", "route-bool-hotspot-index",
             "sweep-fractional-hotspot-count", "scenario-task-array",
             "scenario-rate-factors-string", "scenario-errors-string", "sweep-scenario-array",
             "scenario-policies-string", "sweep-metrics-string",
             "sweep-values-string", "scenario-id-array", "scenario-route-array",
             "scenario-task-class-array", "scenario-bool-size", "scenario-bool-threshold",
             "scenario-bool-time-error", "scenario-bool-throughput-error",
             "scenario-bool-rate-factor", "scenario-bool-energy", "route-bool-rate",
             "sweep-bool-value", "scenario-string-seed", "scenario-string-runs",
             "scenario-string-size", "scenario-string-time-error", "route-string-hotspot-index",
             "route-string-rate", "sweep-base-string-seed", "scenario-policy-number",
             "sweep-metric-number", "sweep-parameter-array", "scenario-unknown-policy",
             "sweep-unknown-metric", "sweep-unknown-parameter", "sweep-metric-twice",
             "sweep-no-metric", "scenario-metric", "sweep-base-metric",
             "scenario-metrics-string", "scenario-metric-number", "scenario-unknown-metric",
             "sweep-base-unknown-metric", "scenario-metric-twice", "sweep-base-metric-twice",
             "scenario-no-metric", "sweep-base-no-metric"])
    def test_bad_input_file_exits_2(self, tmp_path, capsys, recipe, section, key, value):
        """A policy or metric listed twice, an empty metrics list (it would
        read as every metric), an unknown metric name, a negative seed, a
        count, seed or hotspot index that is not a whole number, a field of
        the wrong JSON type, true or false or a string of digits for a number,
        a non-string or unknown name in a list, an unknown sweep parameter, or
        a metrics list anywhere but a sweep's top level fails at load, naming
        the field; in a sweep's base file, the field is named by that file."""
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        if recipe == "4ap":  # a copy of the route, its first hotspot changed
            route = json.loads(bundled_scenario_path("route_4ap").read_text())
            route["segments"][1][key] = value
            data["route"] = str(tmp_path / "route.json")
            Path(data["route"]).write_text(json.dumps(route))
        elif section == "scenario":  # a copy of the sweep's base, referenced by path
            data[key] = value
            (tmp_path / "base.json").write_text(json.dumps(data))
            data = dict(json.loads(bundled_recipe_path(recipe).read_text()),
                        scenario=str(tmp_path / "base.json"))
        else:
            if recipe is not None:
                data = json.loads(bundled_recipe_path(recipe).read_text())
            (data if section is None else data[section])[key] = value
        bad = tmp_path / "input.json"
        bad.write_text(json.dumps(data))
        assert self.run_cli("run", "--scenario", str(bad), "--runs", "3") == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if (recipe, section, key, value) in WRONG_JSON_TYPE:
            assert f"{key}: expected a JSON" in err[0]
        if (recipe, section, key, value) in BOOLEAN_NUMBER:
            assert f"{key}" in err[0] and "expected a number, got " in err[0]
        for case, named in NAMED_FIELD:
            if case == (recipe, section, key, value):
                assert named in err[0], err[0]
        if (recipe, section, key, value) in SCENARIO_METRICS:
            named = tmp_path / "base.json" if section else "input"
            assert err[0] == f"error: {named}.metrics: unknown key"
        assert captured.out == ""

    # a route whose mobile rates are 1.7e308 Mbit/s, its times divided by 1000
    # so that the rate times the trip time is finite; edits of dt-default
    SHORT = {"rate": 1.7e308, "seconds": 1e-3}
    LEAVES = "mobile rate leaves (0, inf)"

    @pytest.mark.parametrize("argv,throughput_error,mobile_factor,sweep,edit,named", [
        (("run", "--runs", "3"), 0.2, "1", None, SHORT, LEAVES),
        (("oracle-check", "--seeds", "1"), 0.2, "1", None, SHORT, LEAVES),
        (("run", "--runs", "3", "--thr-error", "0.2"), 0.0, "1", None, SHORT, LEAVES),
        (("run", "--runs", "3"), 0.0, "1",
         {"parameter": "throughput_error", "values": [0, 0.2]}, SHORT, LEAVES),
        (("sweep", "--runs", "3", "--thr-error", "0.2"), 0.0, "1/3",
         {"parameter": "mobile_factor", "values": ["1/3", 1]}, SHORT, LEAVES),
        (("run", "--runs", "3"), 0.0, "1/3", None, {"rate": 1.7e308},
         "mobile rate times the realized total time overflows"),
        (("run", "--runs", "3"), 0.2, "1/3", None, {"task": {"size_mb": 1e308}},
         "task.size_mb 1e+308 in Mbit"),
        (("run", "--runs", "3"), 0.2, "1/3", None,
         {"energy": {"mobile_transfer_j_per_mb": 1e307}},
         "energy.mobile_transfer_j_per_mb times task.size_mb overflows"),
    ], ids=["run", "oracle-check", "thr-error-override", "sweep-point",
            "thr-error-override-sweep-point", "rate-times-trip-time", "size-in-mbit",
            "energy-price-times-size"])
    def test_route_that_overflows_when_perturbed_exits_2(self, tmp_path, capsys, argv,
                                                         throughput_error, mobile_factor,
                                                         sweep, edit, named):
        """Mobile rates of 1.7e308 are finite, but 1.2 times them is not: a
        throughput error of 0.2 at mobile factor 1 is rejected before any draw.
        So is a scenario whose trip loop would overflow at any error: the
        largest realized rate times the realized trip time, the object size in
        Mbit, or an energy price times the size."""
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        if "rate" in edit:
            route = json.loads(bundled_scenario_path("route_4ap").read_text())
            scale = edit.get("seconds", 1.0)
            route["total_time"] *= scale
            for seg in route["segments"]:
                seg["start_time"] *= scale
                seg["duration"] *= scale
                if seg["kind"] == "mobile":
                    seg["mobile_rate"] = edit["rate"]
            (tmp_path / "route.json").write_text(json.dumps(route))
            data["route"] = str(tmp_path / "route.json")
            data["rate_factors"] = {"mobile": mobile_factor, "wifi": "1", "backhaul": "1"}
        data["rate_factors"]["mobile"] = mobile_factor
        data["errors"]["throughput_error"] = throughput_error
        data["task"].update(edit.get("task", {}))
        if "energy" in edit:
            data["energy"] = dict(dataclasses.asdict(EnergyModel()), **edit["energy"])
        if sweep is not None:  # a sweep of the edited scenario, saved as base.json
            (tmp_path / "base.json").write_text(json.dumps(data))
            data = {"scenario": str(tmp_path / "base.json"), "sweep": sweep}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        option = "--sweep" if argv[0] == "sweep" else "--scenario"
        assert self.run_cli(argv[0], option, str(path), *argv[1:]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert named in err[0], err[0]
        assert captured.out == ""

    def test_run_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        out = tmp_path / "never.csv"
        code = self.run_cli("run", "--scenario", str(bad), "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_unordered_route_file_exits_2(self, tmp_path, capsys):
        """A segment ending before its predecessor, which an absolute 1e-6 s
        slack once let through, is off the running sum and rejected at load.
        The error line names the route file, whose pytest directory bears
        this test's name, so the message after the path is what is checked."""
        route = json.loads(bundled_scenario_path("route_4ap").read_text())
        first = route["segments"][0]  # mobile [0, 18)
        route["segments"].insert(1, dict(first, start_time=first["duration"] - 5e-7,
                                         duration=1e-7))
        route_path = tmp_path / "route.json"
        route_path.write_text(json.dumps(route))
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        data["route"] = str(route_path)
        bad = tmp_path / "input.json"
        bad.write_text(json.dumps(data))
        assert self.run_cli("run", "--scenario", str(bad), "--runs", "3") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {route_path}: segment 1 starts at 17.9999995, expected 18.0"]

    @pytest.mark.parametrize("above", [False, True], ids=["equal", "one-float-above"])
    def test_a_route_file_backhaul_may_equal_its_local_rate(self, tmp_path, capsys, above):
        """A hotspot whose backhaul rate equals its local rate loads; one
        float above it exits 2 naming the segment."""
        route = json.loads(bundled_scenario_path("route_4ap").read_text())
        local = route["segments"][1]["wifi_local_rate"]  # the first hotspot
        backhaul = math.nextafter(local, math.inf) if above else local
        route["segments"][1]["backhaul_rate"] = backhaul
        route_path = tmp_path / "route.json"
        route_path.write_text(json.dumps(route))
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        data["route"] = str(route_path)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert self.run_cli("run", "--scenario", str(path), "--runs", "2") == 2 * above
        err = capsys.readouterr().err.splitlines()
        assert err == ([f"error: {route_path}.segments[1]: backhaul_rate {backhaul!r} exceeds "
                        f"wifi_local_rate {local!r}"] if above else [])

    @pytest.mark.parametrize("edit,message", [
        ({"durations": [1e-11, 1e-11], "starts": [0, 5.0001e-7], "total_time": 2e-11},
         ": segment 1 starts at 5.0001e-07, expected 1e-11"),
        ({"starts": [-9e-10]}, ".segments[0]: start_time must be finite and >= 0, got -9e-10"),
        ({"starts": [5e-7]}, ": segment 0 starts at 5e-07, expected 0.0"),
        ({"total_time": 10.0000009}, ": total_time 10.0000009 != sum of durations 10.0")],
        ids=["gap-between-short-segments", "negative-start", "late-first-start", "long-total"])
    def test_a_route_file_off_its_running_sum_exits_2(self, tmp_path, capsys, edit, message):
        """Each of these loaded under an absolute 1e-6 s slack and a -1e-9 s
        start bound; each is now one ``error:`` line naming the segment or
        field, and no output."""
        durations = edit.get("durations", [10.0])
        starts = edit.get("starts", [0.0])
        route_path = tmp_path / "route.json"
        route_path.write_text(json.dumps({
            "segments": [{"kind": "mobile", "start_time": start, "duration": duration,
                          "mobile_rate": 5.0} for start, duration in zip(starts, durations)],
            "total_time": edit.get("total_time", 10.0)}))
        data = json.loads(bundled_scenario_path("scenario_dt_default").read_text())
        data["route"] = str(route_path)
        bad = tmp_path / "input.json"
        bad.write_text(json.dumps(data))
        assert self.run_cli("run", "--scenario", str(bad), "--runs", "3") == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {route_path}{message}"]
        assert captured.out == ""

    def test_missing_file_exits_2(self):
        assert self.run_cli("run", "--scenario", "no-such-thing") == 2

    @pytest.mark.parametrize("name", ["energy", "route-4ap", "dt_default",
                                      "scenario_dt_default", "recipes/fig2a"])
    def test_only_documented_bundled_names_resolve(self, name, tmp_path, monkeypatch,
                                                   capsys):
        """The bundled names are dt-default, ds-default and the recipes; any
        other bundled file is an unknown name, read as a path and named by it."""
        monkeypatch.chdir(tmp_path)
        assert self.run_cli("run", "--scenario", name, "--runs", "2") == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: experiment: cannot read {name}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["dt-default.json", "ds-default", "fig9b.json"])
    def test_bundled_name_takes_an_optional_json_suffix(self, name):
        assert self.run_cli("run", "--scenario", name, "--runs", "2") == 0

    @pytest.mark.parametrize("name", ["dt-default", "fig2a.json"])
    def test_a_directory_never_hides_a_bundled_name(self, tmp_path, monkeypatch, capsys,
                                                    name):
        """Only an existing file is a path: a directory of a bundled input's
        name in the working directory leaves the name bundled."""
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path)
        assert self.run_cli("run", "--scenario", name, "--runs", "2") == 0
        assert capsys.readouterr().err == ""

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

    def test_sweep_command_rejects_scenario_file(self, capsys):
        """``run`` takes either file kind; ``sweep`` needs the sweep's
        ``scenario`` key."""
        assert self.run_cli("sweep", "--sweep", "dt-default") == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith(".scenario: missing key")
        assert captured.out == ""

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

    def test_unknown_policy_override_names_the_option(self, capsys):
        assert self.run_cli("run", "--scenario", "dt-default", "--policy", "bogus") == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --policy: unknown policy 'bogus'; ")
        assert captured.out == ""

    def test_empty_policy_override_exits_2(self, capsys):
        assert self.run_cli("run", "--scenario", "dt-default", "--runs", "2",
                            "--policy", "") == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --policy: unknown policy ''; ")
        assert captured.out == ""

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
        ("run", "--scenario", "dt-default", "--seed", "-1", "--runs", "3"),
        ("sweep", "--sweep", "fig2a", "--seed", "-1", "--runs", "3"),
        ("oracle-check", "--scenario", "ds-default", "--seed", "-1", "--seeds", "1"),
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

    def test_oracle_check_rejects_a_sweep(self, capsys):
        """A bundled sweep name is offered, but oracle-check checks one
        scenario: it says so on one line (it said a key was missing)."""
        assert self.run_cli("oracle-check", "--scenario", "fig2a", "--seeds", "1") == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --scenario: fig2a is a sweep; oracle-check takes one scenario"]
        assert captured.out == ""

    def test_oracle_check_failure_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "compare_runs",
                            lambda *args, **kwargs: AgreementReport(1e9, 0.0, False))
        code = self.run_cli("oracle-check", "--scenario", "ds-default", "--seeds", "2")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "2 failing seed(s)" in out

    def test_oracle_check_dt_overflow_message(self, capsys):
        """The longest realized segment of dt-default, 54 s at 10% time
        error, over a subnormal step overflows the step count."""
        assert self.run_cli("oracle-check", "--scenario", "dt-default",
                            "--dt", "1e-320") == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --dt: 59.4 s / dt must be positive and finite, got inf"]
        assert captured.out == ""

    def test_oracle_check_dt_flag(self, capsys):
        code = self.run_cli("oracle-check", "--scenario", "dt-default",
                            "--seeds", "2", "--dt", "0.05")
        assert code == 0
