"""Every malformed value in a config file exits 2 and names its field.

The generator walks every value of dt-default, ds-default, one recipe per
sweep parameter (its base, the default it names, copied to ``base.json`` and
referenced by that path), each route file and the default energy model
(notes left out), and puts a value of the wrong kind there: a digit string,
a boolean, null, a list, an object, a negative number, a fraction where an
integer is due, an integer literal past the float range where a float is
due, and a hotspot count with no bundled layout.  It also adds a misspelt copy of every key.  Every
scenario it walks also carries the optional key no bundled file sets,
``task.delay_threshold_s``.  Each variant
runs through the CLI in-process and must exit 2 with one ``error:`` line
that begins with the value's dotted path, or, for a negative number the
model rejects, with the path of the object that holds it; a hotspot count
with no bundled layout is named by its sweep, followed by ``values[i]`` and
the sweep point's id.  The exceptions
are the inputs README documents as valid: a string of digits where a rate
factor or sweep value may be a fraction string, and any ``scenario_id``.
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

from conftest import RECIPES
from offloadsim import cli
from offloadsim.config import BUNDLED_SCENARIOS, bundled_recipe_path, bundled_scenario_path
from offloadsim.model import EnergyModel

NOTES = {"comment", "figure", "name"}
INTEGER_KEYS = {"seed", "runs", "hotspot_index"}
HUGE = 10 ** 400  # a JSON integer literal past the float range


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def one_recipe_per_parameter():
    first = {}
    for name in RECIPES:
        first.setdefault(load(bundled_recipe_path(name))["sweep"]["parameter"], name)
    return sorted(first.values())


FILES = (["scenario_dt_default", "scenario_ds_default"] + one_recipe_per_parameter()
         + ["route_2ap", "route_4ap", "route_8ap", "energy"])


def walk(value, path, holder=None):
    """``(path, holder, container, key)`` of every value inside ``value``;
    ``holder`` is the path of the JSON object the value belongs to."""
    is_object = isinstance(value, dict)
    for key, child in (value.items() if is_object else enumerate(value)):
        if is_object and key in NOTES:
            continue
        at = f"{path}.{key}" if is_object else f"{path}[{key}]"
        owner = path if is_object else holder
        yield at, owner, value, key
        if isinstance(child, (dict, list)):
            yield from walk(child, at, owner)


def with_optional_keys(scenario):
    """Give ``scenario`` the optional key that no bundled file sets."""
    scenario["task"]["delay_threshold_s"] = 250


def variants(path, key, value, hotspot_values):
    """``(substitute, expectation)`` pairs for one value: "ok" (a valid
    input), "path" (the error names ``path``), "holder" (it names the
    object that holds the value, or something inside it) or "point" (a sweep
    value the model rejects: it names the sweep, the value's index and the
    sweep point's id)."""
    fraction = ".rate_factors." in path or ".sweep.values[" in path
    number = fraction or (isinstance(value, (int, float)) and not isinstance(value, bool))
    integer = key in INTEGER_KEYS
    count = hotspot_values and ".sweep.values[" in path
    digits = str(value) if number and not isinstance(value, str) else "7"
    yield digits, "ok" if fraction or path.endswith(".scenario_id") else "path"
    yield True, "path"
    yield None, "path"
    if not isinstance(value, list):
        yield [value], "path"
    if not isinstance(value, dict):
        yield {}, "path"
    yield -1, "holder"
    if integer:
        yield 2.5, "path"
    if number and key not in INTEGER_KEYS:
        yield HUGE, "path"
    if fraction:
        yield "1e400", "path"
    if count:
        yield 2.5, "point"
        yield 3, "point"  # ./3ap exists: the count must not be read as a file path


def run_cli(argv):
    """The CLI's exit code, run in-process; an exception is what a process
    would report as a traceback and exit 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the value before main's handler
        return exc.code
    except Exception as exc:
        print(f"Traceback: {exc!r}", file=sys.stderr)
        return 1


def problem(expect, named, code, captured):
    """What is wrong with one run's outcome, or None."""
    err = captured.err.splitlines()
    if expect == "ok":
        return None if code == 0 and not err else f"exit {code}: {captured.err!r}"
    if code != 2 or len(err) != 1 or captured.out:
        return f"exit {code}: {captured.err!r}"
    prefix = f"error: {named}"
    if not err[0].startswith(prefix) or err[0][len(prefix):][:1] not in ":[.":
        return err[0]
    return None


@pytest.mark.parametrize("name", FILES)
def test_every_malformed_value_exits_2_naming_its_field(name, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(bundled_scenario_path("route_4ap"), tmp_path / "3ap")
    scenario = load(bundled_scenario_path("scenario_dt_default"))
    files = {"input.json": scenario}  # each run writes these, by file name
    bases = {}  # a recipe's base file, walked with it
    if name.startswith("route_"):
        doc, root = load(bundled_scenario_path(name)), str(tmp_path / "route.json")
        scenario["route"] = root
        files["route.json"] = doc
    elif name == "energy":
        doc, root = dataclasses.asdict(EnergyModel()), "input.energy"
        scenario["energy"] = doc
    elif name.startswith("scenario"):
        doc, root = load(bundled_scenario_path(name)), "input"
        with_optional_keys(doc)
        files["input.json"] = doc
    else:  # a recipe, its base the default it names, saved as base.json
        doc, root = load(bundled_recipe_path(name)), "input"
        base = load(bundled_scenario_path(BUNDLED_SCENARIOS[doc["scenario"]]))
        with_optional_keys(base)
        doc["scenario"] = "base.json"
        files["input.json"], bases["base.json"] = doc, base
    files.update(bases)
    roots = [(root, doc), *bases.items()]
    hotspot_values = doc.get("sweep", {}).get("parameter") == "hotspot_count"

    def run(expect, named):
        for file, value in files.items():
            (tmp_path / file).write_text(json.dumps(value))
        code = run_cli(["run", "--scenario", "input.json", "--runs", "2"])
        return problem(expect, named, code, capsys.readouterr())

    nodes = [node for path, value in roots for node in walk(value, path)]
    objects = roots + [(path, container[key]) for path, _, container, key in nodes
                       if isinstance(container[key], dict)]
    failures = []
    for path, holder, container, key in nodes:
        original = container[key]
        for value, expect in variants(path, key, original, hotspot_values):
            container[key] = value
            named = path if expect == "path" else holder
            if expect == "point":
                point_id = f"input@hotspot_count={value:g}"  # named after the sweep file
                named = f"{holder}: values{path[path.rindex('['):]} ({point_id})"
            found = run(expect, named)
            container[key] = original
            if found:
                failures.append(f"{path} = {value!r:.20}: {found}")
    for path, obj in objects:
        for key in [k for k in obj if k not in NOTES]:
            obj[key[:-1]] = obj[key]
            found = run("path", f"{path}.{key[:-1]}")
            del obj[key[:-1]]
            if found:
                failures.append(f"{path}.{key[:-1]} added: {found}")
    assert not failures, "\n".join(failures)


# (command, option, values): every value is malformed for the option
OVERRIDES = [
    (("run", "--scenario", "dt-default"), "--policy",
     ["7", "true", "null", "[1]", "{}", "-1", "2.5", ""]),
    (("run", "--scenario", "dt-default"), "--runs",
     ["true", "null", "[1]", "{}", "-1", "2.5", "0", "100001"]),
    (("run", "--scenario", "dt-default"), "--seed",
     ["true", "null", "[1]", "{}", "-1", "2.5", "1e400"]),
    (("run", "--scenario", "dt-default"), "--time-error",
     ["7", "true", "null", "[1]", "{}", "-1", "1e400", "nan"]),
    (("sweep", "--sweep", "fig2a"), "--thr-error",
     ["7", "true", "null", "[1]", "{}", "-1", "1e400", "nan"]),
    (("oracle-check", "--scenario", "ds-default"), "--seeds",
     ["true", "null", "[1]", "{}", "-1", "2.5", "0"]),
    (("oracle-check", "--scenario", "ds-default"), "--dt",
     ["true", "null", "[1]", "{}", "-1", "1e400", "nan", "0", "1e-320"]),
    (("oracle-check", "--scenario", "ds-default"), "--runs", ["3"]),  # reads no runs
    (("run", "--scenario", "dt-default", "--runs", "2"), "--out", ["no/such/dir/x.csv", "."]),
    # an error override of the swept parameter, which every point replaces
    (("sweep", "--sweep", "fig4a"), "--time-error", ["0.5"]),
    (("run", "--scenario", "fig4b"), "--thr-error", ["0.7"]),
]
# each row is named by its option, and a repeated option also by its command
IDS = []
for command, option, _ in OVERRIDES:
    IDS.append(f"{command[0]}{option}" if option in IDS else option)


@pytest.mark.parametrize("command,option,values", OVERRIDES, ids=IDS)
def test_every_malformed_override_exits_2_naming_its_option(command, option, values,
                                                            capsys):
    failures = []
    for value in values:
        code = run_cli([*command, option, value])
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        if (code != 2 or len(errors) != 1 or option not in errors[0]
                or "Traceback" in captured.err or "worst over" in captured.out):
            failures.append(f"{option} {value!r}: exit {code}: {captured.err!r}")
    assert not failures, "\n".join(failures)
