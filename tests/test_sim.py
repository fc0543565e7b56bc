import dataclasses
import hashlib
import json
import random
import re
from collections import Counter

import pytest

from kspend import engine as eng
from kspend import fuzz, sim
from kspend.attack import synthesize_multispend_attack
from kspend.errors import InvalidFaultySet, InvalidParameters, SchemaError
from kspend.formats import (
    load_builtin_model,
    load_scenario,
    model_to_obj,
    parse_model,
    report_from_obj,
    report_to_obj,
    scenario_from_obj,
    scenario_to_obj,
)
from kspend.kcb import byzantine_broadcast_scenario
from kspend.ledger import genesis_tx, make_tx, tx_ref
from kspend.sim import (
    PlanRule,
    Scenario,
    SchedulerSpec,
    ScriptedSend,
    compute_trace_hash,
    run,
)
from kspend.trust import (
    TrustModel,
    inconsistency_number,
    uniform_model,
)

from golden_traces import golden_cases, honest_ring
from helpers import spending_number


def all_trust(n=3):
    full = [list(range(n))]
    return TrustModel.build(n, [full] * n, [[]])


def simple_scenario(**kw):
    model = all_trust()
    genesis = genesis_tx({p: 10 for p in range(3)})
    tx = make_tx(0, {1: 10}, [tx_ref(genesis)], timestamp=1)
    base = dict(model=model, faulty_set=(), genesis=genesis,
                honest_actions=((0, tx),), sig_scheme="hmac")
    base.update(kw)
    return Scenario.build(**base)


# --- scenario validation ---------------------------------------------------


def test_scenario_build_validates():
    model = all_trust()
    genesis = genesis_tx({0: 10})
    tx = make_tx(0, {1: 10}, [tx_ref(genesis)], timestamp=1)

    with pytest.raises(InvalidFaultySet):
        Scenario.build(model=model, faulty_set={1}, genesis=genesis)
    with pytest.raises(ValueError):
        Scenario.build(model=model, faulty_set=(), genesis=tx)  # not a funding root
    with pytest.raises(ValueError):
        Scenario.build(model=model, faulty_set=(), genesis=genesis,
                       honest_actions=((1, tx),))  # issuer mismatch

    faulty_model = uniform_model(3, 2, 1)
    with pytest.raises(ValueError):
        # declared-faulty process cannot act honestly
        Scenario.build(model=faulty_model, faulty_set={0}, genesis=genesis,
                       honest_actions=((0, tx),))
    with pytest.raises(ValueError):
        # script sender must be faulty
        Scenario.build(model=faulty_model, faulty_set={0}, genesis=genesis,
                       scripts=(ScriptedSend(1, "REQ", tx, frozenset({2})),))
    faulty_tx = make_tx(1, {0: 10}, [tx_ref(genesis)], timestamp=1)
    with pytest.raises(ValueError):
        # scripted transactions may not impersonate correct processes
        Scenario.build(model=faulty_model, faulty_set={0}, genesis=genesis,
                       scripts=(ScriptedSend(0, "REQ", faulty_tx, frozenset({2})),))
    bad_kind_tx = make_tx(0, {0: 10}, [tx_ref(genesis)], timestamp=1)
    with pytest.raises(ValueError):
        Scenario.build(model=faulty_model, faulty_set={0}, genesis=genesis,
                       scripts=(ScriptedSend(0, "ACC", bad_kind_tx, frozenset({2})),))
    with pytest.raises(ValueError, match="script recipient 7 is not a process of the model"):
        Scenario.build(model=faulty_model, faulty_set={0}, genesis=genesis,
                       scripts=(ScriptedSend(0, "REQ", bad_kind_tx, frozenset({1, 7})),))
    plan = (PlanRule(tx_ref(bad_kind_tx), frozenset({-5, 2})),)
    with pytest.raises(ValueError, match="plan recipient -5 is not a process of the model"):
        Scenario.build(model=faulty_model, faulty_set={0}, genesis=genesis,
                       scheduler=SchedulerSpec("adversarial", plan=plan))
    with pytest.raises(ValueError, match="genesis recipient 9 is not a process of the model"):
        Scenario.build(model=faulty_model, faulty_set={0}, genesis=genesis_tx({0: 10, 9: 5}))


@pytest.mark.parametrize("what,bad", [
    ("faulty process id", dict(faulty_set={0.0})),
    ("honest action pid", dict(honest_actions=((True, make_tx(1, {2: 10}, [], timestamp=1)),))),
    ("script sender", dict(scripts=(ScriptedSend(True, "REQ", make_tx(0, {1: 1}), frozenset({2})),))),
    ("script recipient", dict(scripts=(ScriptedSend(0, "REQ", make_tx(0, {1: 1}), frozenset({0.0, 2})),))),
    ("plan recipient", dict(scheduler=SchedulerSpec(
        "adversarial", plan=(PlanRule(bytes(32), frozenset({False})),)))),
    ("kcb_source", dict(kcb_source=1.0)),
])
def test_scenario_build_refuses_ids_that_are_not_ints(what, bad):
    # True == 1 and 0.0 == 0, so each would build a scenario equal to an
    # int one whose trace spells the id otherwise
    base = dict(model=uniform_model(3, 2, 1), faulty_set={0}, genesis=genesis_tx({0: 10}))
    with pytest.raises(TypeError, match=f"^{what} must be an int, got "):
        Scenario.build(**{**base, **bad})


def test_scheduler_spec_validates_kind():
    with pytest.raises(ValueError):
        SchedulerSpec("round-robin")


# --- execution -------------------------------------------------------------


def test_honest_run_reaches_everyone():
    report = run(simple_scenario())
    assert report.quiescent
    tx = report.scenario.honest_actions[0][1]
    for p in range(3):
        assert tx_ref(tx) in report.histories[p]
    assert report.gamma_max == 1
    assert report.cover == 1
    assert all(v.status == "holds" for v in report.verdicts.values())
    assert report.unexecuted_actions == ()


def test_gamma_series_tracks_events_monotonically():
    report = run(simple_scenario())
    assert len(report.gamma_series) == report.events
    assert list(report.gamma_series) == sorted(report.gamma_series)
    assert report.gamma_series[-1] == report.gamma_max
    assert report.gamma_max == spending_number(report.histories)


def test_long_ring_run_reaches_quiescence():
    """2,000 transfers make dependency chains 2,000 long; no check recurses along them."""
    report = run(honest_ring(4, 2000))
    assert report.quiescent and report.events == 32_000 and not report.unexecuted_actions
    assert report.cover == 1
    assert all(v.status == "holds" for v in report.verdicts.values())


def test_unfundable_action_stays_unexecuted():
    ghost = make_tx(0, {1: 1}, [b"\x42" * 32], timestamp=1)
    scenario = simple_scenario(honest_actions=((0, ghost),))
    report = run(scenario)
    assert report.quiescent
    assert report.unexecuted_actions == (0,)
    assert report.verdicts["validity"].status == "holds"  # never executed, nothing owed


def test_event_cap_reports_nonquiescent():
    report = run(simple_scenario(max_events=2))
    assert not report.quiescent and report.events == 2
    for name in ("validity", "termination", "agreement", "eventual-conviction"):
        assert report.verdicts[name].status == "vacuous"
    assert report.verdicts["k-spending"].status == "holds"


def test_per_issuer_actions_execute_in_listed_order():
    model = all_trust()
    genesis = genesis_tx({0: 10})
    first = make_tx(0, {0: 4, 1: 6}, [tx_ref(genesis)], timestamp=1)
    second = make_tx(0, {2: 4}, [tx_ref(first)], timestamp=2)
    scenario = Scenario.build(
        model=model, faulty_set=(), genesis=genesis,
        honest_actions=((0, first), (0, second)),
        sig_scheme="hmac",
    )
    report = run(scenario)
    assert report.quiescent and report.unexecuted_actions == ()
    order = [rec[1] for rec in report.trace if rec[0] == "action"]
    assert order == [0, 1]
    assert report.gamma_max == 1

    # listing the dependent one first wedges the issuer: later actions never
    # jump the queue, so the pair sits unexecuted and the run still drains
    wedged = Scenario.build(
        model=model, faulty_set=(), genesis=genesis,
        honest_actions=((0, second), (0, first)),
        sig_scheme="hmac",
    )
    wedged_report = run(wedged)
    assert wedged_report.quiescent
    assert wedged_report.unexecuted_actions == (0, 1)


def test_determinism_across_scheduler_kinds():
    rng = random.Random(40)
    base = fuzz.random_scenario(rng)
    for kind in ("fifo", "random", "adversarial"):
        scenario = dataclasses.replace(base, scheduler=SchedulerSpec(kind, seed=3))
        hashes = {run(scenario, seed=5).trace_hash for _ in range(3)}
        assert len(hashes) == 1, kind


def test_random_seed_priority():
    scenario = simple_scenario(scheduler=SchedulerSpec("random", seed=9))
    assert run(scenario).seed_used == 9
    assert run(scenario, seed=4).seed_used == 4
    assert run(simple_scenario(scheduler=SchedulerSpec("random"))).seed_used == 0


def test_reliable_delivery_between_correct_processes():
    rng = random.Random(77)
    for i in range(5):
        report = run(fuzz.random_scenario(rng), seed=i)
        if not report.quiescent:
            continue
        correct = set(report.histories)
        expected = set()
        for rec in report.trace:
            if rec[0] == "send" and rec[3] in correct:
                expected.update((rec[1], r) for r in rec[4] if r in correct)
        delivered = [
            (rec[1], rec[4])
            for rec in report.trace
            if rec[0] == "deliver" and rec[3] in correct and rec[4] in correct
        ]
        assert len(delivered) == len(set(delivered))  # exactly once
        assert set(delivered) == expected


def test_adversarial_plan_orders_phases_first():
    # same funding root the helper builds, so the action's input resolves
    genesis = genesis_tx({p: 10 for p in range(3)})
    tx = make_tx(0, {1: 10}, [tx_ref(genesis)], timestamp=1)
    plan = (PlanRule(tx_ref(tx), frozenset({2})),)
    scenario = simple_scenario(
        honest_actions=((0, tx),),
        scheduler=SchedulerSpec("adversarial", plan=plan),
    )
    report = run(scenario)
    deliveries = [rec for rec in report.trace if rec[0] == "deliver"]
    # the planned (tx -> 2) delivery outruns the unplanned ones
    assert deliveries[0][4] == 2 and deliveries[0][5] == tx_ref(tx).hex()
    assert report.quiescent


# --- serialization ---------------------------------------------------------


def test_scenario_roundtrip_through_json():
    rng = random.Random(8)
    for _ in range(10):
        scenario = fuzz.random_scenario(rng)
        obj = json.loads(json.dumps(scenario_to_obj(scenario)))
        assert scenario_from_obj(obj) == scenario


def test_report_roundtrip_through_json():
    rng = random.Random(9)
    scenario = fuzz.random_scenario(rng)
    report = run(scenario, seed=1)
    clone = report_from_obj(json.loads(json.dumps(report_to_obj(report))))
    assert clone.trace == report.trace
    assert clone.trace_hash == compute_trace_hash(clone.trace)
    assert clone.histories == report.histories
    assert clone.accusations == report.accusations
    assert clone.verdicts == report.verdicts
    assert clone.scenario == report.scenario
    assert clone.gamma_series == report.gamma_series


def test_golden_reports_roundtrip_through_json(golden_reports):
    # fuzz runs, attacks, broadcasts and rings: every summary number rechecks
    for name, report in golden_reports:
        clone = report_from_obj(json.loads(json.dumps(report_to_obj(report))))
        assert (clone.events, clone.gamma_max, clone.cover, clone.k_bound) == (
            report.events, report.gamma_max, report.cover, report.k_bound
        ), name


@pytest.mark.parametrize(
    "field,saved,edited",
    [("events", 179, 3), ("gamma_max", 1, 0), ("cover", 1, 99), ("k_bound", 4, 50)],
)
def test_report_with_edited_summary_is_rejected(field, saved, edited):
    report = run(fuzz.random_scenario(random.Random(9)), seed=1)
    obj = json.loads(json.dumps(report_to_obj(report)))
    assert obj[field] == saved
    obj[field] = edited
    with pytest.raises(SchemaError, match=rf"re-run of its scenario differs in \['{field}'\]"):
        report_from_obj(obj)


def test_report_with_edited_gamma_series_is_rejected():
    report = run(fuzz.random_scenario(random.Random(9)), seed=1)
    obj = json.loads(json.dumps(report_to_obj(report)))
    series = obj["gamma_series"]
    rise = series.index(1)
    assert rise + 2 < len(series) and series[-1] == obj["gamma_max"] == 1
    dip = list(series)
    dip[rise + 1] = 0
    for edited in (
        series[:-1],  # one short of the events
        dip,  # falls, then rises again to the same end
        [0] * len(series),  # never reaches gamma_max
    ):
        with pytest.raises(SchemaError, match=r"differs in \['gamma_series'\]"):
            report_from_obj(dict(obj, gamma_series=edited))


def test_report_with_altered_trace_is_rejected():
    report = run(simple_scenario(), seed=1)
    obj = json.loads(json.dumps(report_to_obj(report)))
    assert report_from_obj(obj).trace_hash == report.trace_hash
    obj["trace"][1][-1] = "altered"
    with pytest.raises(SchemaError, match=r"re-run of its scenario differs in \['trace'\]"):
        report_from_obj(obj)


def test_report_with_flipped_verdict_is_rejected(data_dir):
    probe = load_scenario(str(data_dir / "mutant_probe.json"))
    report = run(dataclasses.replace(probe, disable_used_input_guard=True))
    assert report.verdicts["k-spending"].status == "violated"
    obj = json.loads(json.dumps(report_to_obj(report)))
    assert report_from_obj(obj).verdicts == report.verdicts  # a violation loads as saved
    for name, status in (("k-spending", "holds"), ("agreement", "violated")):
        flipped = json.loads(json.dumps(obj))
        assert flipped["verdicts"][name]["status"] != status
        flipped["verdicts"][name]["status"] = status
        with pytest.raises(SchemaError, match=rf"differs in \['verdicts\.{name}'\]"):
            report_from_obj(flipped)


def _history_txs(obj):
    return [tx for txs in obj["histories"].values() for tx in txs]


def _accusations(obj):
    return [acc for accs in obj["accusations"].values() for acc in accs]


@pytest.mark.parametrize(
    "edit",
    [
        # JSON true/false equal 1/0, so each edit leaves every identity as it was
        lambda o: [tx.update(issuer=False) for tx in _history_txs(o) if tx["issuer"] == 0],
        lambda o: [
            tx["outputs"].update({p: True for p, a in tx["outputs"].items() if a == 1})
            for tx in _history_txs(o)
        ],
        lambda o: [pair["tx"].update(issuer=False) for a in _accusations(o) for pair in a["proof"]],
        lambda o: [acc.update(accused=[False]) for acc in _accusations(o)],
    ],
)
def test_report_with_boolean_ids_or_amounts_is_rejected(data_dir, edit):
    report = run(load_scenario(str(data_dir / "mutant_probe.json")))
    saved = json.dumps(report_to_obj(report))
    obj = json.loads(saved)
    edit(obj)
    assert json.dumps(obj) != saved
    original = json.loads(saved)
    tampered = sorted(k for k in obj if json.dumps(obj[k]) != json.dumps(original[k]))
    with pytest.raises(SchemaError, match=re.escape(f"differs in {tampered}")):
        report_from_obj(obj)


def _saved_report(data_dir, name):
    report = run(load_scenario(str(data_dir / f"{name}.json")))
    return json.loads(json.dumps(report_to_obj(report)))


@pytest.mark.parametrize(
    "name,edit,field",
    [
        # forgeries the field-by-field loader accepted
        ("demo_scenario", lambda o: o["verdicts"]["k-spending"].update(detail="forged"),
         "verdicts.k-spending"),
        ("demo_scenario", lambda o: o.update(unexecuted_actions=[2]), "unexecuted_actions"),
        ("demo_scenario", lambda o: o.update(delivered={"0": "00"}), "delivered"),
        # edits it failed on with AttributeError or OverflowError
        ("mutant_probe", lambda o: o.update(delivered=True), "delivered"),
        ("mutant_probe", lambda o: o.update(delivered=-1), "delivered"),
        ("mutant_probe", lambda o: _accusations(o)[0].update(accused=[-1]), "accusations"),
    ],
)
def test_forged_report_fields_are_rejected(data_dir, name, edit, field):
    obj = _saved_report(data_dir, name)
    assert json.loads(json.dumps(report_to_obj(report_from_obj(obj)))) == obj
    edit(obj)
    with pytest.raises(SchemaError, match=re.escape(f"differs in {[field]}")):
        report_from_obj(obj)


def test_honest_action_issuer_outside_the_model_is_rejected(data_dir):
    scenario_obj = json.loads((data_dir / "demo_scenario.json").read_text())
    saved = _saved_report(data_dir, "demo_scenario")
    for issuer in (-1, 7):
        obj = json.loads(json.dumps(scenario_obj))
        obj["honest_actions"][0]["issuer"] = issuer
        with pytest.raises(SchemaError, match=f"issuer {issuer} is not a process of the model"):
            scenario_from_obj(obj)
        report = json.loads(json.dumps(saved))
        report["scenario"]["honest_actions"][0]["tx"]["issuer"] = issuer
        with pytest.raises(SchemaError, match=f"issuer {issuer} is not a process of the model"):
            report_from_obj(report)


_DELETE = object()
# the value each leaf gets, in rotation; _DELETE removes the leaf
_MUTATIONS = (None, True, False, -1, 0, 7, 1.5, "", "x", [], {}, [1], _DELETE)


def _leaves(value, path):
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaves(item, path + (key,))
    else:
        yield path


def _mutated(saved, path, value):
    obj = json.loads(json.dumps(saved))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


@pytest.mark.parametrize("name", ["demo_scenario", "mutant_probe"])
def test_mutated_saved_report_loads_only_as_its_own_re_run(data_dir, name):
    """Every leaf outside the trace, and of its first and last records, mutated once.

    A mutant is rejected with a domain error, or it is exactly the report
    its own scenario re-runs to. A mutant that keeps the saved scenario
    loads only if it equals the saved report.
    """
    saved = _saved_report(data_dir, name)
    trace = saved["trace"]
    paths = [path for key in saved if key != "trace" for path in _leaves(saved[key], (key,))]
    paths += [path for i in (0, len(trace) - 1) for path in _leaves(trace[i], ("trace", i))]
    canonical = json.dumps(saved, sort_keys=True)
    rejected = 0
    for i, path in enumerate(paths):
        value = _MUTATIONS[i % len(_MUTATIONS)]
        mutant = _mutated(saved, path, value)
        try:
            loaded = report_from_obj(mutant)
        except (SchemaError, InvalidFaultySet, InvalidParameters):
            rejected += 1
            continue
        except Exception as exc:
            pytest.fail(f"{path} = {value!r} raised {exc!r}")
        text = json.dumps(mutant, sort_keys=True)
        assert json.dumps(report_to_obj(loaded), sort_keys=True) == text, (path, value)
        assert path[0] == "scenario" or text == canonical, (path, value)
    assert rejected and len(paths) > 200


# the values each scenario or model node takes in turn, besides its deletion
_NODE_VALUES = (None, True, False, -1, 0, 1, 3, 7, 1 << 32, 1 << 70, 1.5, "", "x", [], {})


def _nodes(value, path):
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield path + (key,)
            yield from _nodes(item, path + (key,))


@pytest.mark.parametrize("name", ["demo_scenario", "mutant_probe", "example1"])
def test_single_node_mutants_fail_only_with_domain_errors(data_dir, name):
    """Every leaf or container of a shipped scenario or model, replaced and deleted.

    A scenario mutant is loaded and run for at most 300 events; a model
    mutant is parsed and analyzed. Only the domain errors may escape.
    """
    saved = json.loads((data_dir / f"{name}.json").read_text())
    paths = list(_nodes(saved, ()))
    rejected = 0
    for path in paths:
        for value in (*_NODE_VALUES, _DELETE):
            mutant = _mutated(saved, path, value)
            try:
                if name == "example1":  # a model file, not a scenario
                    inconsistency_number(parse_model(mutant))
                else:
                    scenario = scenario_from_obj(mutant, base_dir=str(data_dir))
                    run(dataclasses.replace(scenario, max_events=min(scenario.max_events, 300)))
            except (SchemaError, InvalidFaultySet, InvalidParameters):
                rejected += 1
            except Exception as exc:
                pytest.fail(f"{path} = {value!r} raised {exc!r}")
    assert rejected and len(paths) >= 10


def test_authoring_format_symbolic_references(tmp_path):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(model_to_obj(all_trust())))
    obj = {
        "model_file": "model.json",
        "faulty": [],
        "genesis": {"0": 10, "1": 2},
        "sig_scheme": "hmac",
        "honest_actions": [
            {"issuer": 0, "outputs": {"1": 4, "0": 6}, "inputs": ["genesis"]},
            {"issuer": 0, "outputs": {"2": 6}, "inputs": ["action:0"]},
            {"issuer": 1, "outputs": {"0": 2}, "inputs": ["genesis"]},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    scenario = load_scenario(str(path))
    assert scenario.honest_actions[0][1].timestamp == 1
    assert scenario.honest_actions[1][1].timestamp == 2  # same issuer, auto-chained
    assert scenario.honest_actions[2][1].timestamp == 1
    ref = tx_ref(scenario.honest_actions[0][1])
    assert scenario.honest_actions[1][1].inputs == (ref,)
    report = run(scenario)
    assert report.quiescent and report.gamma_max == 1


def test_authoring_format_labelled_scripts():
    model = uniform_model(3, 2, 1)
    obj = {
        "model": model_to_obj(model),
        "faulty": [0],
        "genesis": {"0": 1},
        "sig_scheme": "hmac",
        "transactions": {
            "a": {"issuer": 0, "outputs": {"1": 1}, "inputs": ["genesis"]},
            "b": {"issuer": 0, "outputs": {"2": 1}, "inputs": ["genesis"]},
            "chain": {"issuer": 0, "outputs": {"1": 1}, "inputs": ["tx:a"], "timestamp": 2},
        },
        "scripts": [
            {"sender": 0, "kind": "REQ", "tx": "a", "to": [1]},
            {"sender": 0, "kind": "REQ", "tx": "tx:b", "to": [2]},
            {"sender": 0, "kind": "ECHO", "tx": "chain", "to": [1, 2]},
        ],
        "scheduler": {"kind": "adversarial", "plan": [{"tx": "a", "to": [1]}]},
    }
    scenario = scenario_from_obj(obj)
    assert len(scenario.scripts) == 3
    assert scenario.scripts[0].tx.outputs == ((1, 1),)
    assert scenario.scripts[2].tx.inputs == (tx_ref(scenario.scripts[0].tx),)
    assert scenario.scheduler.plan[0].tx_ref == tx_ref(scenario.scripts[0].tx)
    hex_ref = tx_ref(scenario.scripts[0].tx).hex()
    obj2 = dict(obj, scripts=[{"sender": 0, "kind": "REQ", "to": [1],
                               "tx": {"issuer": 0, "outputs": {"1": 1},
                                      "inputs": [hex_ref], "timestamp": 2}}])
    del obj2["scheduler"]
    scenario2 = scenario_from_obj(obj2)
    assert scenario2.scripts[0].tx.inputs == (bytes.fromhex(hex_ref),)


def _schema_base() -> dict:
    return {
        "model": model_to_obj(uniform_model(3, 2, 1)),
        "faulty": [0],
        "genesis": {"0": 1},
        "honest_actions": [],
        "transactions": {"a": {"issuer": 0, "outputs": {"1": 1}, "inputs": ["genesis"]}},
        "scripts": [{"sender": 0, "kind": "REQ", "tx": "a", "to": [1]}],
    }


def test_schema_base_loads():
    # every case below edits this scenario, so each fails on its own edit
    scenario = scenario_from_obj(_schema_base())
    assert [(s.sender, s.kind, s.recipients) for s in scenario.scripts] == [(0, "REQ", {1})]


# two spellings of one field that disagree, each loaded once with one of them
# dropped: (mutation, what the error must say)
CONFLICTING_FIELDS = {
    "wrapped action issuer": (
        lambda o: o.update(honest_actions=[
            {"issuer": 1, "tx": {"issuer": 2, "outputs": {"0": 1}, "inputs": ["genesis"]}}
        ]),
        "honest action issuer 1 conflicts with its transaction's issuer 2",
    ),
}


def _tagged(o, **fields):
    """Replace the scenario with an attack tag on a vulnerable model, plus fields."""
    o.clear()
    o.update(model=model_to_obj(load_builtin_model("example1")),
             byzantine="synthesized-multispend", **fields)


# spellings the loader dropped, fields no object of a scenario carries, a
# model_file beside a model (it went unread), a wrapped action's missing
# issuer (it was taken from the transaction) and inputs that are no list (a
# map's keys or a string's letters were read), each refused by name:
# (mutation, what the error must say)
UNREAD_FIELDS = {
    "tm": (lambda o: o["transactions"]["a"].update(tm=1), "transaction takes no field 'tm'"),
    "dict-form scripts": (
        lambda o: o.update(scripts={"0": [{"kind": "REQ", "tx": "a", "to": [1]}]}),
        "scripts must be a list",
    ),
    "text message": (
        lambda o: o["transactions"]["a"].update(message="hello"),
        "transaction message must be a hex string, got 'hello'",
    ),
    "scenario": (
        lambda o: o.update(schedular={"kind": "fifo"}), "scenario takes no field 'schedular'"
    ),
    "tagged scenario": (
        lambda o: _tagged(o, disable_used_input_guard=True, faulty=[2]),
        "tagged scenario takes no field 'disable_used_input_guard', 'faulty'",
    ),
    "transaction": (
        lambda o: o["transactions"]["a"].update(output={"1": 1}),
        "transaction takes no field 'output'",
    ),
    "wrapped honest action": (
        lambda o: o["honest_actions"].append({
            "issuer": 1,
            "tx": {"issuer": 1, "outputs": {"0": 1}, "inputs": ["genesis"]},
            "note": "x",
        }),
        "honest action 0 takes no field 'note'",
    ),
    "script": (
        lambda o: o["scripts"][0].update(recipients=[2]), "script takes no field 'recipients'"
    ),
    "scheduler": (
        lambda o: o.update(scheduler={"kind": "random", "sed": 3}),
        "scheduler takes no field 'sed'",
    ),
    "plan rule": (
        lambda o: o.update(scheduler={"kind": "adversarial",
                                      "plan": [{"tx": "a", "to": [1], "phase": 0}]}),
        "plan rule takes no field 'phase'",
    ),
    "model_file beside model": (
        lambda o: o.update(model_file="nowhere.json"),
        "scenario takes one of 'model' and 'model_file', not both",
    ),
    "wrapped honest action without issuer": (
        lambda o: o["honest_actions"].append(
            {"tx": {"issuer": 1, "outputs": {"0": 1}, "inputs": ["genesis"]}}
        ),
        "honest action 0 issuer must be an integer, got None",
    ),
    "model": (
        lambda o: o["model"].update(fault_model=[[1]]), "trust model takes no field 'fault_model'"
    ),
    "inputs map": (
        lambda o: o["transactions"]["a"].update(inputs={"genesis": 99}),
        "transaction inputs must be a list",
    ),
    "inputs string": (
        lambda o: o["transactions"]["a"].update(inputs="genesis"),
        "transaction inputs must be a list",
    ),
}


# labels spelled like another reference, which they would shadow: the
# funding root, honest action 0, the tx: spelling of label a, a literal hash
SHADOWING_LABELS = ["genesis", "action:0", "tx:a", "ab" * 32]


def _labelled(label):
    return lambda o: o["transactions"].update(
        {label: {"issuer": 0, "outputs": {"2": 1}, "inputs": ["genesis"]}}
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.pop("model"),
        lambda o: o.update(genesis=[1, 2]),
        lambda o: o["scripts"].append({"sender": 0, "kind": "REQ", "tx": "missing", "to": [1]}),
        lambda o: o["scripts"].append({"sender": 0, "kind": "NOPE", "tx": "a", "to": [1]}),
        lambda o: o["transactions"].update(
            loop={"issuer": 0, "outputs": {"1": 1}, "inputs": ["loop"]}
        ),
        lambda o: o["honest_actions"].append({"outputs": {"1": 1}}),
        # JSON true/false load as bools, which isinstance counts as ints
        lambda o: o.update(faulty=[False]),
        lambda o: o.update(max_events=True),
        lambda o: o.update(kcb_source=False),
        lambda o: o.update(scheduler={"kind": "random", "seed": True}),
        lambda o: o.update(scheduler={"kind": "adversarial", "plan": [{"tx": "a", "to": [True]}]}),
        lambda o: o["honest_actions"].append({"issuer": True, "outputs": {"0": 1}}),
        lambda o: o["transactions"]["a"].update(issuer=False),
        lambda o: o["transactions"]["a"].update(outputs={"1": True}),
        lambda o: o["transactions"]["a"].update(timestamp=True),
        lambda o: o["scripts"][0].update(to=[True]),
        lambda o: o.update(scripts=[{"sender": False, "kind": "REQ", "tx": "a", "to": [1]}]),
        # values the transaction encoding cannot hold
        lambda o: o["genesis"].update({"4294967296": 1}),
        lambda o: o["genesis"].update({"-3": 1}),
        lambda o: o["genesis"].update({"x": 1}),
        lambda o: o["transactions"]["a"].update(outputs={"4294967296": 1}),
        lambda o: o["transactions"]["a"].update(timestamp=1 << 64),
        # values of the wrong type fail as schema errors, not tracebacks
        lambda o: o["transactions"]["a"].update(message=5),
        lambda o: o["transactions"]["a"].update(outputs=[1]),
        lambda o: o["honest_actions"].append({"issuer": 0, "outputs": {"1": 1}, "inputs": 5}),
        # shapes the loader used to index or iterate blindly
        lambda o: o.update(scripts=[{"kind": "REQ", "tx": "a", "to": [1]}]),
        lambda o: o["scripts"].append(5),
        lambda o: o.update(scripts={"x": [{"kind": "REQ", "tx": "a", "to": [1]}]}),
        lambda o: o.update(scripts=5),
        lambda o: o.update(scheduler={"kind": "adversarial", "plan": [{"to": [1]}]}),
        lambda o: o.update(scheduler={"kind": "adversarial", "plan": 5}),
        lambda o: o.update(transactions=[1]),
        lambda o: o.update(key_seed=5),
        lambda o: o.update(scheduler=[]),
        lambda o: o.update(sig_scheme="rsa"),
        lambda o: o.update(honest_actions=5),
        # values that used to load and run
        lambda o: o.update(kcb_source=99),
        lambda o: o.update(byzantine="nope"),
        # each truthy, so bool() switched the test-only mutant on
        lambda o: o.update(disable_used_input_guard="false"),
        lambda o: o.update(disable_used_input_guard="no"),
        lambda o: o.update(disable_used_input_guard=[0]),
        lambda o: o.update(disable_used_input_guard=1),
        lambda o: o.update(name=None),
        lambda o: o.update(name=5),
        lambda o: o.update(name=["x"]),
        lambda o: o["scripts"][0].update(to=[1, 3, -5]),
        lambda o: o.update(scheduler={"kind": "adversarial", "plan": [{"tx": "a", "to": [3]}]}),
        # a tag the model cannot carry: uniform (4, 3, 1) has bound 1
        lambda o: o.update(
            model=model_to_obj(uniform_model(4, 3, 1)), byzantine="synthesized-multispend"
        ),
        # process-id keys int() reads but str() spells otherwise; the first four
        # were merged into the key "0", and the next into "1"
        lambda o: o["genesis"].update({"00": 3}),
        lambda o: o["genesis"].update({" 0": 3}),
        lambda o: o["genesis"].update({"+0": 0}),
        lambda o: o["genesis"].update({"-0": 3}),
        lambda o: o["transactions"]["a"].update(outputs={"1": 1, "1 ": 4}),
        lambda o: o["transactions"]["a"].update(outputs={"01": 1}),
        lambda o: o.update(scripts={"+0": [{"kind": "REQ", "tx": "a", "to": [1]}]}),
        *(mutate for mutate, _detail in CONFLICTING_FIELDS.values()),
        *(_labelled(label) for label in SHADOWING_LABELS),
        # a plan only the adversarial scheduler reads
        lambda o: o.update(scheduler={"kind": "fifo", "plan": [{"tx": "a", "to": [1]}]}),
        lambda o: o.update(scheduler={"kind": "random", "seed": 1,
                                      "plan": [{"tx": "a", "to": [1]}]}),
        *(mutate for mutate, _detail in UNREAD_FIELDS.values()),
    ],
)
def test_scenario_schema_errors(mutate):
    obj = _schema_base()
    mutate(obj)
    with pytest.raises(SchemaError):
        scenario_from_obj(obj)


@pytest.mark.parametrize("case", sorted(CONFLICTING_FIELDS))
def test_conflicting_fields_name_both_values(case):
    mutate, detail = CONFLICTING_FIELDS[case]
    obj = _schema_base()
    mutate(obj)
    with pytest.raises(SchemaError) as err:
        scenario_from_obj(obj)
    assert detail in str(err.value)


@pytest.mark.parametrize("case", sorted(UNREAD_FIELDS))
def test_unread_fields_are_named(case):
    mutate, detail = UNREAD_FIELDS[case]
    obj = _schema_base()
    mutate(obj)
    with pytest.raises(SchemaError) as err:
        scenario_from_obj(obj)
    assert detail in str(err.value)


@pytest.mark.parametrize("label", SHADOWING_LABELS)
def test_shadowing_labels_are_named(label):
    obj = _schema_base()
    _labelled(label)(obj)
    with pytest.raises(SchemaError) as err:
        scenario_from_obj(obj)
    assert repr(label) in str(err.value)


@pytest.mark.parametrize("kind", ["fifo", "random"])
def test_a_plan_needs_the_adversarial_scheduler(kind, data_dir):
    obj = json.loads((data_dir / "mutant_probe.json").read_text())
    obj["scheduler"]["kind"] = kind
    with pytest.raises(SchemaError, match=f"a {kind} scheduler takes no plan"):
        scenario_from_obj(obj)


def test_a_plan_rule_names_a_sent_transaction(data_dir):
    obj = json.loads((data_dir / "mutant_probe.json").read_text())
    obj["scheduler"]["plan"].append({"tx": "ab" * 32, "to": [1]})
    with pytest.raises(SchemaError, match=f"plan rule for {'ab' * 6}, which nothing sends"):
        scenario_from_obj(obj)


def test_build_refuses_a_plan_rule_nothing_sends(data_dir):
    probe = load_scenario(str(data_dir / "mutant_probe.json"))
    unsent = make_tx(0, {3: 1}, [tx_ref(probe.genesis)], timestamp=1)
    args = (probe.model, probe.faulty_set, probe.genesis, (), probe.scripts)
    for rule in (PlanRule(tx_ref(unsent), frozenset({1})), PlanRule(b"\xab" * 32, frozenset({1}))):
        plan = SchedulerSpec("adversarial", plan=probe.scheduler.plan + (rule,))
        with pytest.raises(ValueError, match=f"plan rule for {rule.tx_ref.hex()[:12]}"):
            Scenario.build(*args, scheduler=plan, sig_scheme="hmac")
    # the probe's own plan names only scripted transactions
    assert Scenario.build(*args, scheduler=probe.scheduler, sig_scheme="hmac").scheduler.plan


# values that loaded and ran nothing: (mutation, what the error must say)
EMPTY_RUNS = {
    "max_events -5": (lambda o: o.update(max_events=-5), "max_events must be at least 1, got -5"),
    "max_events 0": (lambda o: o.update(max_events=0), "max_events must be at least 1, got 0"),
    "tagged max_events": (
        lambda o: _tagged(o, max_events=-5), "max_events must be at least 1, got -5"
    ),
    "genesis outside the model": (
        lambda o: o["genesis"].update({"9": 5}), "genesis recipient 9 is not a process of the model"
    ),
}


@pytest.mark.parametrize("case", sorted(EMPTY_RUNS))
def test_a_scenario_that_would_run_nothing_is_refused(case):
    mutate, detail = EMPTY_RUNS[case]
    obj = _schema_base()
    mutate(obj)
    with pytest.raises(SchemaError, match=detail):
        scenario_from_obj(obj)


def test_load_scenario_bad_file(tmp_path):
    with pytest.raises(SchemaError):
        load_scenario(str(tmp_path / "missing.json"))
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scenario(str(garbled))


def test_synthesized_tag_expands_to_attack(example1):
    obj = {
        "model": model_to_obj(example1),
        "byzantine": "synthesized-multispend",
        "name": "tagged",
        "max_events": 500,
    }
    scenario = scenario_from_obj(obj)
    assert scenario.name == "tagged"
    assert scenario.max_events == 500
    assert scenario.scripts and scenario.kcb_source is not None
    report = run(scenario)
    assert report.gamma_max == 2


def test_trace_hash_sensitivity():
    report = run(simple_scenario())
    assert compute_trace_hash(report.trace) == report.trace_hash
    reversed_hash = compute_trace_hash(tuple(reversed(report.trace)))
    assert reversed_hash != report.trace_hash


def line_by_line_trace_hash(trace) -> str:
    digest = hashlib.sha256()
    for record in trace:
        digest.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


def odd_string_trace():
    """A loaded report's trace, its strings rewritten with non-ASCII and escapes."""
    obj = json.loads(json.dumps(report_to_obj(run(simple_scenario()))))
    odd = ["\u00e9", "\u2028", "\n\t\"\\", "\x00\x1f\x7f", "\U0001f600", "</script>\ud800"]
    trace = [
        [odd[i % len(odd)] + field if isinstance(field, str) else field for field in record]
        for i, record in enumerate(obj["trace"])
    ]
    assert any(isinstance(f, str) and not f.isascii() for record in trace for f in record)
    return trace


def test_trace_hash_matches_json_dumps_line_by_line(golden_reports):
    traces = [report.trace for _, report in golden_reports]
    traces += [odd_string_trace(), []]
    for trace in traces:
        assert compute_trace_hash(trace) == line_by_line_trace_hash(trace)
    assert compute_trace_hash([]) == hashlib.sha256().hexdigest()


def written_hash_cases():
    """A fixed draw of fuzz, attack and broadcast scenarios, a ring, a capped
    run, and a script sent only to its own sender."""
    rng = random.Random(31)
    for i in range(40):
        yield f"fuzz-{i}", fuzz.random_scenario(rng), i
    for i in range(5):
        model = fuzz.random_vulnerable_model(rng)[0]
        yield f"attack-{i}", synthesize_multispend_attack(model, sig_scheme="hmac"), None
        yield f"kcb-{i}", byzantine_broadcast_scenario(model, sig_scheme="hmac"), None
    yield "ring", honest_ring(16, 32), None
    yield "capped", dataclasses.replace(honest_ring(8, 16), max_events=57), None
    genesis = genesis_tx({0: 10, 1: 10})
    tx = make_tx(0, {1: 10}, [tx_ref(genesis)], timestamp=1)
    yield "self-send", Scenario.build(
        model=uniform_model(3, 2, 1), faulty_set={0}, genesis=genesis,
        scripts=(ScriptedSend(0, "REQ", tx, frozenset({0})),), sig_scheme="hmac",
    ), None


def test_run_writes_the_reference_trace_hash():
    for name, scenario, seed in written_hash_cases():
        report = run(scenario, seed=seed)
        assert report.trace_hash == compute_trace_hash(report.trace), name
        if name == "capped":
            assert not report.quiescent and report.events == 57
        if name == "self-send":
            assert report.trace == (("send", 0, "REQ", 0, (), tx_ref(scenario.scripts[0].tx).hex()),)


def test_send_records_address_the_recipients_but_the_sender(monkeypatch):
    """The runtime resolves each (sender, recipients) pair once per run; every
    send record still lists the message's recipients less its sender, sorted."""
    enqueue = sim._Runtime.enqueue
    sends = []

    def checked(rt, msg):
        payload = enqueue(rt, msg)
        record = rt.trace[-1]
        assert record[:2] == ("send", rt.msg_count - 1)
        assert record[4] == tuple(sorted(msg.recipients - {msg.sender}))
        sends.append(msg.sender in msg.recipients)
        return payload

    monkeypatch.setattr(sim._Runtime, "enqueue", checked)
    for name, scenario, seed in [*golden_cases(), *written_hash_cases()]:
        rt = sim._Runtime(scenario, seed)
        for _ in rt.loop():
            pass
        # one audience per correct sender, at most one per script
        assert len(rt.audiences) <= scenario.model.n + len(scenario.scripts), name
    # the self-addressed script, and the honest broadcasts, which never are
    assert sends.count(True) >= 1 and sends.count(False) > 1000, Counter(sends)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_random_scheduler_draws_as_randrange(seed):
    """The loop picks each event as ``random.Random(seed).randrange(n)`` does,
    here for every n from 300 down to 1, so a Python whose ``randrange``
    draws otherwise fails this test by name, not only the golden hashes."""
    scenario = simple_scenario(honest_actions=(), scheduler=SchedulerSpec("random"))
    rt = sim._Runtime(scenario, seed)
    inert = eng.Message(kind="NOP", sender=0, recipients=frozenset())  # no handler takes it
    rt.deliveries[:] = [(0, i, 1, inert, "", "", "") for i in range(300)]
    for _ in rt.loop():
        pass
    queue, rng = list(range(300)), random.Random(seed)
    expected = [queue.pop(rng.randrange(len(queue))) for _ in range(300)]
    assert [record[1] for record in rt.trace] == expected


def test_overdrawing_action_never_enables():
    model = all_trust()
    genesis = genesis_tx({0: 10})
    overdraw = make_tx(0, {1: 99}, [tx_ref(genesis)], timestamp=1)
    scenario = Scenario.build(model=model, faulty_set=(), genesis=genesis,
                              honest_actions=((0, overdraw),), sig_scheme="hmac")
    report = run(scenario)
    assert report.quiescent and report.unexecuted_actions == (0,)
    assert all(len(h) == 1 for h in report.histories.values())


def test_request_spending_nothing_is_not_echoed_forever():
    # such a request can never be accepted and has no input to mark as used;
    # echoing it again on every ECHO of it never quiesced
    model = TrustModel.build(4, [[range(4)]] * 4, [[0]])
    obj = {
        "model": model_to_obj(model),
        "faulty": [0],
        "genesis": {str(p): 1 for p in range(4)},
        "sig_scheme": "hmac",
        "transactions": {"empty": {"issuer": 0, "outputs": {"1": 1}, "inputs": []}},
        "scripts": [{"sender": 0, "kind": "REQ", "tx": "empty", "to": [1]}],
        "scheduler": {"kind": "fifo"},
        "max_events": 2000,
    }
    report = run(scenario_from_obj(obj))
    assert report.quiescent
    assert all(set(h.values()) == {report.scenario.genesis} for h in report.histories.values())
