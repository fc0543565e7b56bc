"""Command-line front end.

Exit codes: 0 success, 2 bad parameters or malformed input files,
3 analysis budget exceeded (partial result still printed), 4 a protocol
property was violated by the run, 5 the run hit its event cap without
quiescing. The KSAT_SEED environment variable supplies a scheduler seed
when --seed is not given.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from . import kcb as kcb_mod
from .attack import synthesize_multispend_attack
from .errors import (
    InvalidFaultySet,
    InvalidParameters,
    NotVulnerable,
    SchemaError,
    SizeLimitExceeded,
)
from .properties import PROPERTY_NAMES, VIOLATED
from .sim import RunReport, load_scenario, report_to_obj, run
from .trust import (
    TrustModel,
    is_live,
    load_builtin_model,
    load_model,
    max_independent_set_witness,
    self_inclusion_gaps,
    uniform_inconsistency,
    uniform_model,
)

_BUILTIN_MODELS = ("example1",)


def _load_model_arg(name: str) -> TrustModel:
    if name in _BUILTIN_MODELS:
        return load_builtin_model(name)
    return load_model(name)


def _seed_option(seed: int | None) -> int | None:
    if seed is not None:
        return seed
    env = os.environ.get("KSAT_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise SchemaError(f"KSAT_SEED must be an integer, got {env!r}") from None


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(command):
    """Run a command, turning the errors it may raise into an exit code and message."""

    @functools.wraps(command)
    def guarded(*args, **kwargs) -> None:
        try:
            command(*args, **kwargs)
        except (SchemaError, InvalidParameters, InvalidFaultySet) as exc:
            _fail(str(exc), 2)
        except SizeLimitExceeded as exc:
            click.echo(f"analysis budget exceeded: {exc}")
            if exc.partial_maximum is not None:
                click.echo(f"best bound found before giving up: {exc.partial_maximum}")
            if exc.faulty_sets_visited is not None:
                click.echo(
                    f"faulty sets visited: {exc.faulty_sets_visited}; "
                    f"budget units spent: {exc.units_spent}"
                )
            if exc.best_faulty_set is not None:
                click.echo(f"faulty set behind that bound: {_fmt_set(exc.best_faulty_set)}")
            sys.exit(3)

    return guarded


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def _print_version(ctx: click.Context, _param, value: bool) -> None:
    """``--version`` prints ``kspend.__version__``, which reads the metadata only then."""
    if value and not ctx.resilient_parsing:
        from . import __version__

        click.echo(f"{ctx.find_root().info_name}, version {__version__}")
        ctx.exit()


@click.group()
@click.option(
    "--version", is_flag=True, expose_value=False, is_eager=True,
    callback=_print_version, help="Show the version and exit.",
)
def main() -> None:
    """Trust-graph analysis and adversarial simulation for quorum-based transfer."""


@main.command()
@click.option("--model", "model_path", type=str, default=None, help="Model file or builtin name.")
@click.option(
    "--uniform",
    nargs=3,
    type=int,
    default=None,
    metavar="N Q F",
    help="Analyze the symmetric model with N processes, quorum size Q, up to F faults.",
)
@click.option(
    "--exact-cap",
    type=int,
    default=None,
    help="Exact-search work budget in units: one per faulty set visited and one per "
    "packing-search node; exceeding it aborts with the best bound found.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable output.")
@_guarded
def analyze(model_path: str | None, uniform, exact_cap: int | None, as_json: bool) -> None:
    """Compute the inconsistency number, a witness, and liveness."""
    if (model_path is None) == (uniform is None):
        _fail("give exactly one of --model or --uniform", 2)
    if uniform is not None:
        n, q, f = uniform
        value = uniform_inconsistency(n, q, f)
        witness = None
        if n <= 9:  # above, the explicit model would hold C(n-1, q-1) quorums per process
            witness = max_independent_set_witness(uniform_model(n, q, f))
        if as_json:
            out = {"inconsistency": value, "uniform": {"n": n, "q": q, "f": f}}
            if witness is not None:
                out["witness"] = _witness_obj(witness)
            click.echo(json.dumps(out, indent=2))
        else:
            click.echo(f"inconsistency number: {value}")
            if witness is not None:
                click.echo(f"witness faulty set: {_fmt_set(witness.faulty_set)}")
                click.echo(f"witness independent set: {_fmt_set(witness.independent_set)}")
        return

    model = _load_model_arg(model_path)
    kw = {}
    if exact_cap is not None:
        if exact_cap < 1:
            _fail("--exact-cap must be positive", 2)
        kw["budget"] = exact_cap
    witness = max_independent_set_witness(model, **kw)
    value = len(witness.independent_set)
    gaps = self_inclusion_gaps(model)
    liveness = [
        {
            "faulty": sorted(f_set),
            "live": [p for p in model.processes() if is_live(model, p, f_set)],
        }
        for f_set in model.fault_model
    ]
    if as_json:
        out = {
            "inconsistency": value,
            "witness": _witness_obj(witness),
            "liveness": liveness,
            "self_inclusion_gaps": [
                {"process": pid, "quorum": sorted(q)} for pid, q in gaps
            ],
        }
        click.echo(json.dumps(out, indent=2))
        return
    click.echo(f"inconsistency number: {value}")
    click.echo(f"witness faulty set: {_fmt_set(witness.faulty_set)}")
    for pid in sorted(witness.quorum_map):
        click.echo(f"witness quorum of {pid}: {_fmt_set(witness.quorum_map[pid])}")
    click.echo(f"witness independent set: {_fmt_set(witness.independent_set)}")
    for row in liveness:
        click.echo(
            f"faulty {_fmt_set(row['faulty'])}: live processes {row['live']}"
        )
    for pid, q in gaps:
        click.echo(
            f"note: quorum {_fmt_set(q)} of process {pid} omits the process itself; "
            "protocol guarantees assume self-inclusion for correct processes"
        )


def _witness_obj(witness) -> dict:
    return {
        "faulty": sorted(witness.faulty_set),
        "quorums": {str(p): sorted(q) for p, q in sorted(witness.quorum_map.items())},
        "independent": sorted(witness.independent_set),
    }


@main.command()
@click.option("--n", "n", type=int, default=100, show_default=True)
@click.option("--q", "q", type=int, default=67, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@_guarded
def table(n: int, q: int, as_json: bool) -> None:
    """Closed-form inconsistency for every fault budget of a symmetric model."""
    uniform_inconsistency(n, q, 0)  # validates q, which range(q) skips when q < 1
    rows = [(f, uniform_inconsistency(n, q, f)) for f in range(q)]
    if as_json:
        click.echo(
            json.dumps(
                {"n": n, "q": q, "rows": [{"f": f, "k": k} for f, k in rows]},
                indent=2,
            )
        )
        return
    click.echo(f"n={n} q={q}")
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i][1] != rows[start][1]:
            lo, hi = rows[start][0], rows[i - 1][0]
            label = f"{lo}" if lo == hi else f"{lo}-{hi}"
            click.echo(f"f {label}: k={rows[start][1]}")
            start = i


def _emit_report(report: RunReport, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(report_to_obj(report), indent=2))
        return
    scenario = report.scenario
    click.echo(f"scenario: {scenario.name or '(unnamed)'}")
    click.echo(f"faulty set: {_fmt_set(scenario.faulty_set)}")
    seed = "" if report.seed_used is None else f" (seed {report.seed_used})"
    state = "quiescent" if report.quiescent else "event cap hit"
    click.echo(f"run: {report.events} events, {state}{seed}")
    bound = "?" if report.k_bound is None else report.k_bound
    click.echo(f"spending number: {report.gamma_max} (bound {bound})")
    if report.cover is not None:
        click.echo(f"history cover number: {report.cover}")
    elif report.cover_note:
        click.echo(f"history cover: {report.cover_note}")
    for pid in sorted(report.histories):
        hist = report.histories[pid]
        accs = len(report.accusations[pid])
        click.echo(f"process {pid}: {len(hist)} accepted, {accs} accusations")
    if report.delivered is not None:
        for pid in sorted(report.delivered):
            value = report.delivered[pid]
            shown = value.decode("utf-8", "backslashreplace") if value else repr(value)
            click.echo(f"delivered at {pid}: {shown}")
    for name in PROPERTY_NAMES:
        verdict = report.verdicts[name]
        detail = f"  ({verdict.detail})" if verdict.detail else ""
        click.echo(f"{name:>20}: {verdict.status}{detail}")
    if not report.quiescent:
        click.echo("trace tail:")
        for record in report.trace[-10:]:
            click.echo(f"  {record}")


def _exit_for(report: RunReport) -> None:
    if not report.quiescent:
        sys.exit(5)
    if any(v.status == VIOLATED for v in report.verdicts.values()):
        sys.exit(4)


@main.command()
@click.option("--scenario", "scenario_path", type=str, required=True, help="Scenario JSON file.")
@click.option("--seed", type=int, default=None, help="Scheduler seed (or KSAT_SEED).")
@click.option("--json", "as_json", is_flag=True)
@_guarded
def simulate(scenario_path: str, seed: int | None, as_json: bool) -> None:
    """Run a scenario to quiescence and evaluate all protocol properties."""
    report = run(load_scenario(scenario_path), seed=_seed_option(seed))
    _emit_report(report, as_json)
    _exit_for(report)


@main.command()
@click.option("--model", "model_path", type=str, required=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--save-scenario", type=str, default=None, help="Also write the scenario JSON here.")
@_guarded
def attack(model_path: str, as_json: bool, save_scenario: str | None) -> None:
    """Synthesize and execute the multi-spend attack for a model."""
    model = _load_model_arg(model_path)
    try:
        scenario = synthesize_multispend_attack(model)
    except NotVulnerable as exc:
        if as_json:
            click.echo(json.dumps({"vulnerable": False, "reason": str(exc)}, indent=2))
        else:
            click.echo(f"not vulnerable: {exc}")
        return
    if save_scenario:
        from .sim import scenario_to_obj

        try:
            with open(save_scenario, "w", encoding="utf-8") as fh:
                json.dump(scenario_to_obj(scenario), fh, indent=2)
                fh.write("\n")
        except OSError as exc:  # a missing directory, or a directory as the path
            _fail(f"cannot write scenario {save_scenario}: {exc.strerror}", 2)
    report = run(scenario)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "vulnerable": True,
                    "spending_number": report.gamma_max,
                    "bound": report.k_bound,
                    "report": report_to_obj(report),
                },
                indent=2,
            )
        )
    else:
        click.echo(
            f"attack achieved spending number {report.gamma_max} "
            f"(analytical bound {report.k_bound})"
        )
        _emit_report(report, False)
    _exit_for(report)


@main.command()
@click.option("--model", "model_path", type=str, required=True)
@click.option("--source", type=int, default=None, help="Correct broadcasting process.")
@click.option(
    "--byzantine-source",
    is_flag=True,
    help="Let a faulty source equivocate instead of broadcasting honestly.",
)
@click.option("--value", "values", type=str, multiple=True, help="Payload(s) to broadcast.")
@click.option("--json", "as_json", is_flag=True)
@_guarded
def kcb(model_path: str, source: int | None, byzantine_source: bool, values, as_json: bool) -> None:
    """Broadcast through the transfer layer and measure delivered values."""
    model = _load_model_arg(model_path)
    payloads = tuple(v.encode() for v in values)
    if byzantine_source:
        if source is not None:
            _fail("--source and --byzantine-source are mutually exclusive", 2)
        try:
            scenario = kcb_mod.byzantine_broadcast_scenario(model, payloads)
        except NotVulnerable as exc:
            click.echo(f"nothing to equivocate: {exc}")
            return
    else:
        who = source if source is not None else 0
        value = payloads[0] if payloads else kcb_mod.DEFAULT_VALUE
        try:
            scenario = kcb_mod.correct_broadcast_scenario(model, who, value)
        except ValueError as exc:
            _fail(str(exc), 2)
            return
    report = run(scenario)
    delivered = kcb_mod.delivered_values(report)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "distinct_values": sorted(v.decode("utf-8", "backslashreplace") for v in delivered),
                    "count": len(delivered),
                    "bound": report.k_bound,
                    "report": report_to_obj(report),
                },
                indent=2,
            )
        )
    else:
        _emit_report(report, False)
        shown = sorted(v.decode("utf-8", "backslashreplace") for v in delivered)
        click.echo(f"distinct delivered values: {len(delivered)} {shown}")
        if report.k_bound is not None:
            relation = "<=" if len(delivered) <= report.k_bound else ">"
            click.echo(f"bound check: {len(delivered)} {relation} {report.k_bound}")
    _exit_for(report)


if __name__ == "__main__":
    main()
