"""End-to-end command-line coverage.

Exit code contract: 0 ok, 2 bad input, 3 budget exceeded, 4 property
violated, 5 event cap hit. The runner merges stderr into .output.
"""

import importlib
import json
import pathlib
import shutil
import sys

import pytest
from click.testing import CliRunner

import kspend
from kspend.cli import main
from kspend.properties import PROPERTY_NAMES
from kspend.errors import SchemaError
from kspend.sim import load_scenario
from kspend.trust import model_to_obj, parse_model, uniform_model

from helpers import run_child
from pinned_search_units import example1_case


@pytest.fixture()
def runner():
    return CliRunner()


def demo_path(data_dir):
    return str(data_dir / "demo_scenario.json")


# --- analyze -----------------------------------------------------------------


def test_analyze_builtin_model(runner):
    result = runner.invoke(main, ["analyze", "--model", "example1"])
    assert result.exit_code == 0
    assert "inconsistency number: 2" in result.output
    assert "witness faulty set: {2}" in result.output
    assert "witness independent set: {0, 3}" in result.output
    assert "faulty {2}: live processes [1, 2, 3]" in result.output
    assert "omits the process itself" in result.output


def test_analyze_json(runner):
    result = runner.invoke(main, ["analyze", "--model", "example1", "--json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["inconsistency"] == 2
    assert obj["witness"]["faulty"] == [2]
    assert obj["witness"]["independent"] == [0, 3]
    assert obj["self_inclusion_gaps"] == [{"process": 2, "quorum": [0, 1, 3]}]
    assert {"faulty": [2], "live": [1, 2, 3]} in obj["liveness"]


def test_analyze_uniform(runner):
    result = runner.invoke(main, ["analyze", "--uniform", "4", "3", "1"])
    assert result.exit_code == 0
    assert "inconsistency number: 1" in result.output
    assert "witness faulty set:" in result.output  # small n: witness computed


def test_analyze_uniform_large_json(runner):
    result = runner.invoke(main, ["analyze", "--uniform", "100", "67", "63", "--json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["inconsistency"] == 9
    assert obj["uniform"] == {"n": 100, "q": 67, "f": 63}
    assert "witness" not in obj  # too many quorums to materialize


@pytest.mark.parametrize(
    "args",
    [
        ["analyze"],
        ["analyze", "--model", "example1", "--uniform", "4", "3", "1"],
        ["analyze", "--model", "/nonexistent/model.json"],
        ["analyze", "--model", "example1", "--exact-cap", "0"],
        ["analyze", "--uniform", "3", "5", "1"],
    ],
)
def test_analyze_bad_input(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "error:" in result.output


@pytest.mark.parametrize(
    "obj",
    [
        {"n": True, "quorums": [[[0]]], "fault_model_maximal": []},
        {"n": 2, "quorums": [[[0, True]], [[1]]], "fault_model_maximal": [[False]]},
        {"n": 2, "quorums": [[[1, True]], [[1]]], "fault_model_maximal": []},
        {"n": 2, "quorums": [[[0]], [[1]]], "fault_model_maximal": [[0, False]]},
    ],
)
def test_analyze_rejects_boolean_process_ids(runner, tmp_path, obj):
    # JSON true/false are Python bools, which isinstance counts as ints
    with pytest.raises(SchemaError):
        parse_model(obj)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["analyze", "--model", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output and "Traceback" not in result.output


def test_analyze_budget_exceeded(runner):
    result = runner.invoke(main, ["analyze", "--model", "example1", "--exact-cap", "1"])
    assert result.exit_code == 3
    assert "analysis budget exceeded" in result.output
    assert "best bound found before giving up: 0" in result.output


def test_analyze_budget_exceeded_reports_progress(runner):
    result = runner.invoke(main, ["analyze", "--model", "example1", "--exact-cap", "1"])
    assert result.exit_code == 3
    lines = result.output.splitlines()
    assert lines[1] == "best bound found before giving up: 0"
    # the first faulty set takes the only unit; the packing search's first
    # node overruns the budget
    assert lines[2] == "faulty sets visited: 1; budget units spent: 2"


def test_analyze_budget_exceeded_reports_the_best_faulty_set(runner):
    # bound 0 has no faulty set behind it, so none is printed
    result = runner.invoke(main, ["analyze", "--model", "example1", "--exact-cap", "1"])
    assert "faulty set behind" not in result.output
    # the value's units reach bound 2 on the first faulty set, {2}, and visit
    # the second; the witness rebuild then overruns: the line names the set
    # behind the bound, not the last one
    units = example1_case()["value_units"]
    result = runner.invoke(main, ["analyze", "--model", "example1", "--exact-cap", str(units)])
    assert result.exit_code == 3
    lines = result.output.splitlines()
    assert lines[1] == "best bound found before giving up: 2"
    assert lines[2] == f"faulty sets visited: 2; budget units spent: {units + 1}"
    assert lines[3] == "faulty set behind that bound: {2}"


# --- table -------------------------------------------------------------------


def test_table_default(runner):
    result = runner.invoke(main, ["table"])
    assert result.exit_code == 0
    assert result.output.startswith("n=100 q=67\n")
    assert "f 0-33: k=1" in result.output
    assert "f 63: k=9" in result.output
    assert "f 66: k=34" in result.output


def test_table_json(runner):
    result = runner.invoke(main, ["table", "--json"])
    obj = json.loads(result.output)
    assert obj["n"] == 100 and obj["q"] == 67
    assert len(obj["rows"]) == 67
    assert {"f": 63, "k": 9} in obj["rows"]


def test_table_small(runner):
    result = runner.invoke(main, ["table", "--n", "3", "--q", "3"])
    assert result.exit_code == 0
    assert "f 0-2: k=1" in result.output


def test_table_invalid_parameters(runner):
    result = runner.invoke(main, ["table", "--n", "3", "--q", "5"])
    assert result.exit_code == 2
    assert "error:" in result.output


@pytest.mark.parametrize("q", ["0", "-3"])
def test_table_refuses_a_quorum_size_with_no_rows(runner, q):
    result = runner.invoke(main, ["table", "--q", q])
    assert result.exit_code == 2
    assert result.output == f"error: need 0 < q <= n, got q={q}, n=100\n"


# --- simulate ----------------------------------------------------------------


def test_simulate_demo(runner, data_dir):
    result = runner.invoke(main, ["simulate", "--scenario", demo_path(data_dir)])
    assert result.exit_code == 0
    assert "spending number: 1 (bound 1)" in result.output
    for name in PROPERTY_NAMES:
        assert f"{name}: holds" in result.output, name


def test_simulate_demo_json(runner, data_dir):
    result = runner.invoke(
        main, ["simulate", "--scenario", demo_path(data_dir), "--json"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["quiescent"] is True
    assert set(obj["verdicts"]) == set(PROPERTY_NAMES)
    assert all(v["status"] == "holds" for v in obj["verdicts"].values())


def test_simulate_guard_mutant_contrast(runner, data_dir, tmp_path):
    probe = data_dir / "mutant_probe.json"
    ok = runner.invoke(main, ["simulate", "--scenario", str(probe)])
    assert ok.exit_code == 0, ok.output

    guard_off = tmp_path / "guard_off.json"
    obj = json.loads(probe.read_text())
    guard_off.write_text(json.dumps({**obj, "disable_used_input_guard": True}))
    broken = runner.invoke(main, ["simulate", "--scenario", str(guard_off)])
    assert broken.exit_code == 4
    assert "violated" in broken.output


def test_simulate_rejects_malformed_scenario(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"foo": 1}))
    result = runner.invoke(main, ["simulate", "--scenario", str(bad)])
    assert result.exit_code == 2
    assert "error:" in result.output


def _model_file(value):
    def edit(obj):
        del obj["model"]
        obj["model_file"] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        # unchecked, these end in a traceback (OverflowError, ValueError) or
        # load a bool as process 1 or as a cap of 1 event
        (lambda o: o["honest_actions"][1].update(outputs={"4294967296": 10}), "recipient"),
        (lambda o: o["genesis"].update({"4294967296": 1}), "bad genesis"),
        (lambda o: o["genesis"].update({"-3": 1}), "bad genesis"),
        (lambda o: o["honest_actions"][0].update(issuer=True), "issuer"),
        (lambda o: o.update(max_events=True), "max_events"),
        # each loaded: the first failed on the raw "'int' object is not
        # iterable", the others ran no event
        (lambda o: o["model"].update(fault_model_maximal=[3]), "faulty set must be a collection"),
        (lambda o: o.update(max_events=-5), "max_events must be at least 1, got -5"),
        (lambda o: o["genesis"].update({"9": 5}), "genesis recipient 9 is not a process"),
        # a model_file that is no string ended in a TypeError from os.path.join,
        # and one holding a NUL byte in a ValueError from open
        (_model_file(5), "model_file must be a string, got 5"),
        (_model_file(None), "model_file must be a string, got None"),
        (_model_file(["x"]), "model_file must be a string, got ['x']"),
        (_model_file("a\0b"), "cannot read trust model"),
    ],
)
def test_simulate_rejects_unencodable_and_boolean_fields(runner, data_dir, tmp_path, edit, message):
    obj = json.loads((data_dir / "demo_scenario.json").read_text())
    edit(obj)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["simulate", "--scenario", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.count("\n") == 1 and result.output.startswith("error:")
    assert message in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("path", ["analyze", "attack", "simulate", "model_file"])
def test_a_file_that_is_not_utf8_exits_2(runner, data_dir, tmp_path, path):
    bad = tmp_path / "not-utf8.json"
    bad.write_bytes(b"\xff\xfe")
    if path == "model_file":  # a scenario whose model file is not UTF-8
        scenario = json.loads((data_dir / "demo_scenario.json").read_text())
        del scenario["model"]
        scenario["model_file"] = bad.name
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps(scenario))
        args = ["simulate", "--scenario", str(outer)]
    else:
        args = [path, "--scenario" if path == "simulate" else "--model", str(bad)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: cannot read") and str(bad) in result.output
    assert result.output.count("\n") == 1


def _tag_example1(obj, data_dir):
    model = json.loads((data_dir / "example1.json").read_text())
    obj.clear()
    obj.update(model=model, byzantine="synthesized-multispend", disable_used_input_guard=True)


@pytest.mark.parametrize(
    "name, edit, field",
    [
        ("demo_scenario", lambda o, d: o["honest_actions"][0].update(tm=1), "'tm'"),
        ("mutant_probe", lambda o, d: o.update(scripts={"0": o["scripts"]}), "scripts"),
        ("demo_scenario", lambda o, d: o["honest_actions"][0].update(message="hello"), "message"),
        ("demo_scenario", lambda o, d: o.update(schedular=o.pop("scheduler")), "'schedular'"),
        ("demo_scenario", _tag_example1, "'disable_used_input_guard'"),
        ("demo_scenario", lambda o, d: o.update(model_file="nowhere.json"), "'model_file'"),
        ("demo_scenario", lambda o, d: o["model"].update(fault_model=[[1]]), "'fault_model'"),
    ],
    ids=["tm", "dict-form scripts", "text message", "misspelled scheduler", "tagged guard",
         "model and model_file", "model field"],
)
def test_simulate_names_a_field_it_does_not_read(runner, data_dir, tmp_path, name, edit, field):
    obj = json.loads((data_dir / f"{name}.json").read_text())
    edit(obj, data_dir)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["simulate", "--scenario", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error:") and field in result.output


def test_simulate_rejects_an_attack_tag_on_a_model_that_is_not_vulnerable(
    runner, data_dir, tmp_path
):
    obj = json.loads((data_dir / "demo_scenario.json").read_text())
    obj["byzantine"] = "synthesized-multispend"
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["simulate", "--scenario", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output == (
        "error: cannot synthesize a multi-spend attack: "
        "inconsistency number is 1: correct histories can never split\n"
    )


def test_simulate_event_cap(runner, data_dir, tmp_path):
    obj = json.loads((data_dir / "demo_scenario.json").read_text())
    obj["max_events"] = 2
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(obj))
    result = runner.invoke(main, ["simulate", "--scenario", str(capped)])
    assert result.exit_code == 5
    assert "event cap hit" in result.output
    assert "trace tail:" in result.output


def test_seed_flag_and_env_agree(runner, data_dir):
    path = demo_path(data_dir)
    by_flag = runner.invoke(main, ["simulate", "--scenario", path, "--seed", "4", "--json"])
    by_env = runner.invoke(
        main, ["simulate", "--scenario", path, "--json"], env={"KSAT_SEED": "4"}
    )
    a, b = json.loads(by_flag.output), json.loads(by_env.output)
    assert a["seed_used"] == b["seed_used"] == 4
    assert a["trace_hash"] == b["trace_hash"]
    # the flag wins over the environment
    both = runner.invoke(
        main,
        ["simulate", "--scenario", path, "--seed", "4", "--json"],
        env={"KSAT_SEED": "11"},
    )
    assert json.loads(both.output)["seed_used"] == 4


def test_bad_seed_env_rejected(runner, data_dir):
    result = runner.invoke(
        main,
        ["simulate", "--scenario", demo_path(data_dir)],
        env={"KSAT_SEED": "abc"},
    )
    assert result.exit_code == 2
    assert "KSAT_SEED" in result.output


# --- attack ------------------------------------------------------------------


def test_attack_builtin(runner):
    result = runner.invoke(main, ["attack", "--model", "example1"])
    assert result.exit_code == 0
    assert "attack achieved spending number 2 (analytical bound 2)" in result.output


def test_attack_saved_scenario_replays(runner, tmp_path):
    saved = tmp_path / "attack.json"
    result = runner.invoke(
        main, ["attack", "--model", "example1", "--save-scenario", str(saved)]
    )
    assert result.exit_code == 0
    scenario = load_scenario(str(saved))
    assert scenario.name == "synthesized-multispend-k2"
    replay = runner.invoke(main, ["simulate", "--scenario", str(saved)])
    assert replay.exit_code == 0
    assert "spending number: 2 (bound 2)" in replay.output


@pytest.mark.parametrize("where", ["missing-dir/attack.json", "."])
def test_attack_save_scenario_unwritable_path_exits_2(runner, tmp_path, where):
    path = str(tmp_path / where)
    result = runner.invoke(main, ["attack", "--model", "example1", "--save-scenario", path])
    assert result.exit_code == 2 and "Traceback" not in result.output
    assert f"error: cannot write scenario {path}: " in result.output
    assert "attack achieved" not in result.output  # refused before the run


def test_attack_json(runner):
    result = runner.invoke(main, ["attack", "--model", "example1", "--json"])
    obj = json.loads(result.output)
    assert obj["vulnerable"] is True
    assert obj["spending_number"] == 2 and obj["bound"] == 2
    assert obj["report"]["quiescent"] is True


def test_attack_not_vulnerable(runner, tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(model_to_obj(uniform_model(4, 3, 1))))
    human = runner.invoke(main, ["attack", "--model", str(path)])
    assert human.exit_code == 0
    assert "not vulnerable: inconsistency number is 1" in human.output
    machine = runner.invoke(main, ["attack", "--model", str(path), "--json"])
    assert json.loads(machine.output) == {
        "vulnerable": False,
        "reason": "inconsistency number is 1: correct histories can never split",
    }


# --- kcb ---------------------------------------------------------------------


def test_kcb_correct_source_default(runner):
    result = runner.invoke(main, ["kcb", "--model", "example1"])
    assert result.exit_code == 0
    assert "distinct delivered values: 1 ['broadcast-value']" in result.output
    assert "bound check: 1 <= 2" in result.output
    for pid in range(4):
        assert f"delivered at {pid}: broadcast-value" in result.output


def test_kcb_byzantine_split(runner):
    result = runner.invoke(main, ["kcb", "--model", "example1", "--byzantine-source"])
    assert result.exit_code == 0
    assert "distinct delivered values: 2 ['value-0', 'value-1']" in result.output
    assert "bound check: 2 <= 2" in result.output


def test_kcb_byzantine_custom_values_json(runner):
    result = runner.invoke(
        main,
        ["kcb", "--model", "example1", "--byzantine-source",
         "--value", "left", "--value", "right", "--json"],
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["count"] == 2
    assert obj["distinct_values"] == ["left", "right"]
    assert obj["bound"] == 2


def test_kcb_bad_source(runner):
    result = runner.invoke(main, ["kcb", "--model", "example1", "--source", "9"])
    assert result.exit_code == 2
    assert "out of range" in result.output


def test_kcb_source_flags_conflict(runner):
    result = runner.invoke(
        main, ["kcb", "--model", "example1", "--source", "1", "--byzantine-source"]
    )
    assert result.exit_code == 2
    assert "mutually exclusive" in result.output


# --- installed entry point ---------------------------------------------------


def test_console_script_runs():
    """The declared `kspend` console script runs as its own process.

    The pip-generated wrapper imports the `[project.scripts]` target and
    calls it; the child process below does the same from the source tree
    the suite imported, so no installed script is needed. An installed
    `kspend` on PATH is checked as well.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["kspend"]
    module, _, attr = entry.partition(":")
    assert getattr(importlib.import_module(module), attr) is main

    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper]]
    exe = shutil.which("kspend")
    if exe:
        commands.append([exe])
    for command in commands:
        _run_table(command)


def test_python_m_kspend_runs():
    _run_table([sys.executable, "-m", "kspend"])


def test_version_from_a_source_checkout():
    done = run_child([sys.executable, "-m", "kspend", "--version"])
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"python -m kspend, version {kspend.__version__}\n"


def test_only_the_version_flag_reads_the_metadata():
    # a fresh interpreter: the suite itself may have loaded importlib.metadata
    code = (
        "import sys; from kspend.cli import main\n"
        "main(['table', '--n', '10', '--q', '7'], standalone_mode=False)\n"
        "print('importlib.metadata' in sys.modules)\n"
        "main(['--version'], prog_name='kspend', standalone_mode=False)\n"
        "print('importlib.metadata' in sys.modules)"
    )
    done = run_child([sys.executable, "-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == [
        "False", f"kspend, version {kspend.__version__}", "True"
    ]


def _run_table(command):
    """Run `table --n 10 --q 7` in a child process importing the suite's kspend."""
    done = run_child(command + ["table", "--n", "10", "--q", "7"])
    assert done.returncode == 0, (command, done.stderr)
    assert "n=10 q=7" in done.stdout, command


# --- pinned output -----------------------------------------------------------


def test_cli_output_is_pinned():
    """Every pinned invocation exits and prints exactly as ``pinned_cli.json`` says."""
    from pinned_cli import CLI_FILE, cli_cases

    pinned = json.loads(CLI_FILE.read_text())
    got = list(cli_cases())
    assert [case["args"] for case in got] == [case["args"] for case in pinned]
    moved = [" ".join(g["args"]) for g, p in zip(got, pinned) if g != p]
    assert not moved, f"CLI output moved for {moved}"
