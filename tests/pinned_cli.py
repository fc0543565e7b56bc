"""The command line's exit codes and output text, pinned in data/pinned_cli.json.

Each case is one invocation through click's ``CliRunner``: its arguments,
any environment it sets, its exit code and everything it printed (stderr
merged). ``{data}`` in an argument stands for the package's bundled data
directory, and ``{tmp}`` for a temporary directory holding four files:
``uniform.json``, the symmetric model (4, 3, 1), which is not vulnerable;
``capped.json``, the demo scenario capped at two events; ``guard_off.json``,
the mutant probe with ``disable_used_input_guard`` set; and ``bad.json``,
which is no scenario. Neither path appears in any output, and a
``KSAT_SEED`` in the calling environment is cleared. ``--help`` is left
out: its text depends on the click version. Any change to the file is a
change of what a user sees. Regenerate it only when that is the intent:

    PYTHONPATH=src python tests/pinned_cli.py > tests/data/pinned_cli.json
"""

import json
import pathlib
import sys
import tempfile

from click.testing import CliRunner

import kspend
from kspend.cli import main
from kspend.trust import model_to_obj, uniform_model

CLI_FILE = pathlib.Path(__file__).parent / "data" / "pinned_cli.json"
DEMO = "{data}/demo_scenario.json"
PROBE = "{data}/mutant_probe.json"
UNIFORM = "{tmp}/uniform.json"
CAPPED = "{tmp}/capped.json"
GUARD_OFF = "{tmp}/guard_off.json"
BAD = "{tmp}/bad.json"

INVOCATIONS = (
    (["analyze", "--model", "example1"], {}),
    (["analyze", "--model", "example1", "--json"], {}),
    (["analyze", "--uniform", "4", "3", "1"], {}),
    (["analyze", "--uniform", "4", "3", "1", "--json"], {}),
    (["analyze", "--uniform", "100", "67", "63"], {}),
    (["analyze", "--uniform", "100", "67", "63", "--json"], {}),
    (["analyze", "--uniform", "3", "5", "1"], {}),
    (["analyze", "--model", "example1", "--exact-cap", "0"], {}),
    (["analyze", "--model", "example1", "--exact-cap", "1"], {}),
    (["analyze", "--model", "example1", "--exact-cap", "5"], {}),
    (["analyze"], {}),
    (["analyze", "--model", "example1", "--uniform", "4", "3", "1"], {}),
    (["table"], {}),
    (["table", "--json"], {}),
    (["table", "--n", "3", "--q", "3"], {}),
    (["table", "--n", "3", "--q", "5"], {}),
    (["simulate", "--scenario", DEMO], {}),
    (["simulate", "--scenario", DEMO, "--json"], {}),
    (["simulate", "--scenario", DEMO, "--seed", "4"], {}),
    (["simulate", "--scenario", DEMO], {"KSAT_SEED": "11"}),
    (["simulate", "--scenario", DEMO], {"KSAT_SEED": "abc"}),
    (["simulate", "--scenario", CAPPED], {}),
    (["simulate", "--scenario", BAD], {}),
    (["simulate", "--scenario", PROBE], {}),
    (["simulate", "--scenario", GUARD_OFF], {}),
    (["simulate", "--scenario", GUARD_OFF, "--json"], {}),
    (["attack", "--model", "example1"], {}),
    (["attack", "--model", "example1", "--json"], {}),
    (["attack", "--model", UNIFORM], {}),
    (["attack", "--model", UNIFORM, "--json"], {}),
    (["kcb", "--model", "example1"], {}),
    (["kcb", "--model", "example1", "--json"], {}),
    (["kcb", "--model", "example1", "--byzantine-source"], {}),
    (["kcb", "--model", "example1", "--byzantine-source",
      "--value", "left", "--value", "right", "--json"], {}),
    (["kcb", "--model", UNIFORM, "--byzantine-source"], {}),
    (["kcb", "--model", "example1", "--source", "9"], {}),
    (["kcb", "--model", "example1", "--source", "1", "--byzantine-source"], {}),
)


def cli_cases():
    """One case per invocation: arguments, environment, exit code and output."""
    data = str(pathlib.Path(kspend.__file__).parent / "data")
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        capped = json.loads(pathlib.Path(data, "demo_scenario.json").read_text())
        capped["max_events"] = 2
        probe = json.loads(pathlib.Path(data, "mutant_probe.json").read_text())
        files = {"uniform.json": model_to_obj(uniform_model(4, 3, 1)), "capped.json": capped,
                 "guard_off.json": {**probe, "disable_used_input_guard": True},
                 "bad.json": {"foo": 1}}
        for name, obj in files.items():
            pathlib.Path(tmp, name).write_text(json.dumps(obj))
        for args, env in INVOCATIONS:
            real = [a.format(data=data, tmp=tmp) for a in args]
            result = runner.invoke(main, real, env={"KSAT_SEED": None, **env})
            yield {"args": args, "env": env, "exit_code": result.exit_code,
                   "output": result.output}


if __name__ == "__main__":
    lines = [json.dumps(case, sort_keys=True, separators=(",", ":")) for case in cli_cases()]
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")
