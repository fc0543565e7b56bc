"""Model, scenario and report files: every reader and writer of their JSON.

A malformed file fails as a ``SchemaError`` that names what is wrong.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace
from importlib import resources
from operator import attrgetter

from .attack import synthesize_multispend_attack
from .errors import NotVulnerable, SchemaError
from .ledger import Accusation, Transaction, genesis_tx, make_tx
from .sim import (
    DEFAULT_KEY_SEED, DEFAULT_MAX_EVENTS, PlanRule, RunReport, Scenario, SchedulerSpec,
    ScriptedSend, run,
)
from .trust import TrustModel


def parse_model(obj: object) -> TrustModel:
    if not isinstance(obj, dict):
        raise SchemaError("trust model file must hold a JSON object")
    _obj(obj, "trust model", {"n", "quorums", "fault_model_maximal"})
    try:
        return TrustModel.build(obj["n"], obj["quorums"], obj["fault_model_maximal"])
    except KeyError as exc:  # build raises none of its own
        raise SchemaError(f"missing trust model field: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from None


def model_to_obj(model: TrustModel) -> dict:
    return {
        "n": model.n,
        "quorums": [[sorted(q) for q in system] for system in model.quorums],
        "fault_model_maximal": [sorted(f) for f in model.fault_model],
    }


def read_json(path: str, what: str) -> object:
    """A file's JSON value; bad UTF-8 or JSON, a NUL or an OSError is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from None


def load_model(path: str) -> TrustModel:
    return parse_model(read_json(path, "trust model"))


def load_builtin_model(name: str) -> TrustModel:
    """Models shipped with the package, e.g. ``example1``."""
    try:
        text = resources.files("kspend.data").joinpath(f"{name}.json").read_text("utf-8")
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise SchemaError(f"no builtin model named {name!r}") from exc
    return parse_model(json.loads(text))


def tx_to_obj(tx: Transaction) -> dict:
    return {
        "issuer": tx.issuer,
        "outputs": {str(p): a for p, a in tx.outputs},
        "inputs": [ref.hex() for ref in tx.inputs],
        "timestamp": tx.timestamp,
        "message": tx.message.hex() if tx.message is not None else None,
    }


def _accusation_to_obj(acc: Accusation) -> dict:
    return {
        "accused": sorted(acc.accused),
        "proof": [{"tx": tx_to_obj(tx), "sig": sig.hex()} for tx, sig in acc.proof],
    }


def scenario_to_obj(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "model": model_to_obj(scenario.model),
        "faulty": sorted(scenario.faulty_set),
        "genesis": {str(p): a for p, a in scenario.genesis.outputs},
        "sig_scheme": scenario.sig_scheme,
        "key_seed": scenario.key_seed.hex(),
        "max_events": scenario.max_events,
        "kcb_source": scenario.kcb_source,
        "disable_used_input_guard": scenario.disable_used_input_guard,
        "honest_actions": [
            {"issuer": pid, "tx": tx_to_obj(tx)} for pid, tx in scenario.honest_actions
        ],
        "scripts": [
            {
                "sender": s.sender,
                "kind": s.kind,
                "to": sorted(s.recipients),
                "tx": tx_to_obj(s.tx),
            }
            for s in scenario.scripts
        ],
        "scheduler": {
            "kind": scenario.scheduler.kind,
            "seed": scenario.scheduler.seed,
            "plan": [
                {"tx": rule.tx_ref.hex(), "to": sorted(rule.recipients)}
                for rule in scenario.scheduler.plan
            ],
        },
    }


def _resolve_ref(token, names: dict[str, Transaction]) -> bytes:
    if isinstance(token, str):
        if token in names:
            return names[token].ref
        if len(token) == 64:
            return _hex(token, "input reference")
    raise SchemaError(f"unresolvable input reference: {token!r}")


_HEX = re.compile("(?:[0-9a-f]{2})*")


def _hex(value, what: str) -> bytes:
    # the one spelling bytes.hex() writes: lowercase digit pairs, nothing else
    if not isinstance(value, str) or not _HEX.fullmatch(value):
        raise SchemaError(f"{what} must be a hex string, got {value!r}")
    return bytes.fromhex(value)


def _int(value, what: str, *, optional: bool = False) -> int | None:
    # exact ints only: JSON true/false load as bools, an int subclass
    if type(value) is not int and not (optional and value is None):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _key(token: str, what: str) -> int:
    """A process id as a JSON object key, spelled as str() spells it: "03" or "+3" aliases "3"."""
    try:
        if str(int(token)) == token:
            return int(token)
    except ValueError:
        pass
    raise SchemaError(f"{what} must be a plain decimal integer, got {token!r}")


def _amounts(obj: dict, what: str) -> dict[int, int]:
    return {_key(p, f"{what} process id"): _int(a, f"{what} amount") for p, a in obj.items()}


def _obj(value, what: str, fields: set[str] | None = None) -> dict:
    """An object, whose keys, if ``fields`` is given, are all among them."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be an object, got {value!r}")
    unknown = sorted(set(value) - fields) if fields is not None else ()
    if unknown:
        raise SchemaError(f"{what} takes no field {', '.join(map(repr, unknown))}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    return value


def _ints(values, what: str) -> frozenset[int]:
    if not isinstance(values, list):
        raise SchemaError(f"{what} must be a list of process ids, got {values!r}")
    return frozenset(_int(v, what) for v in values)


def _tx_from_spec(spec, names: dict[str, Transaction], default_tm: int) -> Transaction:
    _obj(spec, "transaction", {"issuer", "outputs", "inputs", "timestamp", "message"})
    try:
        issuer = _int(spec["issuer"], "transaction issuer")
        outputs = _amounts(spec.get("outputs", {}), "output")
        message = spec.get("message")
        if message is not None:
            message = _hex(message, "transaction message")
        inputs = _list(spec.get("inputs", []), "transaction inputs")
        inputs = [_resolve_ref(tok, names) for tok in inputs]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad transaction spec: {exc}") from None
    tm = _int(spec.get("timestamp", default_tm), "timestamp", optional=True)
    try:
        return make_tx(issuer, outputs, inputs, timestamp=tm, message=message)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


_TAGGED_FIELDS = {
    "name", "model", "model_file", "sig_scheme", "key_seed", "max_events", "byzantine",
}
_SCENARIO_FIELDS = _TAGGED_FIELDS - {"byzantine"} | {
    "faulty", "genesis", "honest_actions", "transactions", "scripts", "scheduler",
    "kcb_source", "disable_used_input_guard",
}


def scenario_from_obj(obj: dict, *, base_dir: str = ".") -> Scenario:
    """Load a scenario as ``scenario_to_obj`` writes it, or authored with symbolic refs.

    Each object has one set of field names, and any other field is refused by name.
    """
    if not isinstance(obj, dict):
        raise SchemaError("scenario file must hold a JSON object")
    if "model" in obj:
        if "model_file" in obj:
            raise SchemaError("scenario takes one of 'model' and 'model_file', not both")
        model = parse_model(obj["model"])
    elif "model_file" in obj:
        if not isinstance(path := obj["model_file"], str):
            raise SchemaError(f"model_file must be a string, got {path!r}")
        model = load_model(os.path.join(base_dir, path))
    else:
        raise SchemaError("scenario needs a model or model_file")
    # exact type: a null name would round-trip as null
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise SchemaError(f"scenario name must be a string, got {name!r}")
    max_events = _int(obj.get("max_events", DEFAULT_MAX_EVENTS), "max_events")
    if max_events < 1:
        raise SchemaError(f"max_events must be at least 1, got {max_events}")
    keys = dict(sig_scheme=obj.get("sig_scheme", "ed25519"),
                key_seed=_hex(obj.get("key_seed", DEFAULT_KEY_SEED.hex()), "key_seed"))
    try:
        if "byzantine" not in obj:
            scenario = _authored(obj, model, name=name, max_events=max_events, **keys)
            _obj(obj, "scenario", _SCENARIO_FIELDS)
        elif obj["byzantine"] != "synthesized-multispend":
            raise SchemaError(f"unknown byzantine tag: {obj['byzantine']!r}")
        else:
            attack = synthesize_multispend_attack(model, **keys)
            scenario = replace(attack, name=name or attack.name, max_events=max_events)
            _obj(obj, "byzantine-tagged scenario", _TAGGED_FIELDS)
    except ValueError as exc:  # InvalidFaultySet is no ValueError: it passes as it is
        raise SchemaError(str(exc)) from None
    except NotVulnerable as exc:
        raise SchemaError(f"cannot synthesize a multi-spend attack: {exc}") from None
    return scenario


def _authored(obj: dict, model: TrustModel, **run_fields) -> Scenario:
    genesis_outputs = obj.get("genesis", {})
    if not isinstance(genesis_outputs, dict):
        raise SchemaError("genesis must map process ids to amounts")
    try:
        genesis = genesis_tx(_amounts(genesis_outputs, "genesis"))
    except ValueError as exc:
        raise SchemaError(f"bad genesis: {exc}") from None

    # every name a transaction goes by: genesis, action:i, and label and tx:label
    names: dict[str, Transaction] = {"genesis": genesis}

    actions: list[tuple[int, Transaction]] = []
    issued_counts: dict[int, int] = {}
    for idx, spec in enumerate(_list(obj.get("honest_actions", []), "honest_actions")):
        what = f"honest action {idx}"
        spec = _obj(spec, what)
        # bare, or wrapped as scenario_to_obj writes it, naming the issuer twice
        body = _obj(spec, what, {"issuer", "tx"})["tx"] if "tx" in spec else spec
        issuer = _int(_obj(body, f"{what} tx").get("issuer"), f"{what} issuer")
        issued_counts[issuer] = issued_counts.get(issuer, 0) + 1
        tx = _tx_from_spec(body, names, default_tm=issued_counts[issuer])
        # Scenario.build compares the two issuers; a wrapped action must name its own
        actions.append((_int(spec.get("issuer"), f"{what} issuer"), tx))
        names[f"action:{idx}"] = tx

    # labelled transactions; resolve to a fixpoint so labels may reference
    # each other in any order
    remaining = dict(_obj(obj.get("transactions", {}), "transactions"))
    for label in remaining:
        # a label spelled like another reference would shadow it
        if label == "genesis" or label.startswith(("tx:", "action:")) or (
            len(label) == 64 and _HEX.fullmatch(label)
        ):
            raise SchemaError(f"transaction label {label!r} is spelled like a reference")
    while remaining:
        progressed = False
        for label in sorted(remaining):
            try:
                tx = _tx_from_spec(remaining[label], names, default_tm=1)
            except SchemaError as exc:
                failed = f"{label}: {exc}"
                continue
            names[label] = names[f"tx:{label}"] = tx
            del remaining[label]
            progressed = True
        if not progressed:
            raise SchemaError(f"unresolvable transaction labels: {sorted(remaining)} ({failed})")

    scripts: list[ScriptedSend] = []
    for send in _list(obj.get("scripts", []), "scripts"):
        send = _obj(send, "script", {"sender", "kind", "to", "tx"})
        tx = send.get("tx")
        if isinstance(tx, str):
            if tx not in names:
                raise SchemaError(f"script references unknown transaction {tx!r}")
            tx = names[tx]
        else:
            tx = _tx_from_spec(tx, names, default_tm=1)
        sender = _int(send.get("sender"), "script sender")
        recipients = _ints(send.get("to", []), "script recipient")
        scripts.append(ScriptedSend(sender, send.get("kind"), tx, recipients))

    sched_obj = _obj(obj.get("scheduler", {"kind": "fifo"}), "scheduler", {"kind", "seed", "plan"})
    plan = []
    for rule in _list(sched_obj.get("plan", []), "plan"):
        rule = _obj(rule, "plan rule", {"tx", "to"})
        recipients = _ints(rule.get("to", []), "plan recipient")
        plan.append(PlanRule(_resolve_ref(rule.get("tx"), names), recipients))
    # exact type: bool("false") is True
    guard_off = obj.get("disable_used_input_guard", False)
    if type(guard_off) is not bool:
        raise SchemaError(f"disable_used_input_guard must be true or false, got {guard_off!r}")
    return Scenario.build(
        model=model,
        faulty_set=_ints(obj.get("faulty", []), "faulty process id"),
        genesis=genesis,
        honest_actions=actions,
        scripts=scripts,
        scheduler=SchedulerSpec(
            kind=sched_obj.get("kind", "fifo"),
            seed=_int(sched_obj.get("seed"), "scheduler seed", optional=True),
            plan=tuple(plan),
        ),
        kcb_source=_int(obj.get("kcb_source"), "kcb_source", optional=True),
        disable_used_input_guard=guard_off,
        **run_fields,
    )


def load_scenario(path: str) -> Scenario:
    return scenario_from_obj(read_json(path, "scenario"), base_dir=os.path.dirname(path) or ".")


def report_to_obj(report: RunReport) -> dict:
    return {
        "scenario": scenario_to_obj(report.scenario),
        "seed_used": report.seed_used,
        "quiescent": report.quiescent,
        "events": report.events,
        "trace": [list(rec) for rec in report.trace],
        "trace_hash": report.trace_hash,
        "histories": {
            str(p): [tx_to_obj(h[ref]) for ref in sorted(h)]
            for p, h in report.histories.items()
        },
        "accusations": {
            str(p): [_accusation_to_obj(a) for a in sorted(accs, key=attrgetter("digest"))]
            for p, accs in report.accusations.items()
        },
        "gamma_series": list(report.gamma_series),
        "gamma_max": report.gamma_max,
        "k_bound": report.k_bound,
        "k_bound_note": report.k_bound_note,
        "cover": report.cover,
        "cover_note": report.cover_note,
        "verdicts": {
            name: {"status": v.status, "detail": v.detail}
            for name, v in report.verdicts.items()
        },
        "delivered": {
            str(p): (m.hex() if m is not None else None) for p, m in report.delivered.items()
        }
        if report.delivered is not None
        else None,
        "unexecuted_actions": list(report.unexecuted_actions),
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _differing_fields(saved: dict, fresh: dict, prefix: str = "") -> list[str]:
    """The keys whose values differ as canonical JSON, verdicts named per property."""
    names = []
    for key in sorted(set(saved) | set(fresh)):
        a, b = saved.get(key), fresh.get(key)
        if key in saved and key in fresh and _canonical(a) == _canonical(b):
            continue
        if key == "verdicts" and not prefix and isinstance(a, dict) and isinstance(b, dict):
            names += _differing_fields(a, b, "verdicts.")
        else:
            names.append(prefix + key)
    return names


def report_from_obj(obj: dict) -> RunReport:
    """Load a saved report by re-running its scenario with its seed.

    A run is a pure function of (scenario, seed), so the saved object must be
    the re-run's report, field for field. The two are compared as canonical
    JSON text, since ``==`` would take a true for a 1 and a 1.0 for a 1.
    """
    _obj(obj, "report")
    scenario = scenario_from_obj(_obj(obj.get("scenario"), "report scenario"))
    report = run(scenario, seed=_int(obj.get("seed_used"), "seed_used", optional=True))
    differ = _differing_fields(obj, report_to_obj(report))
    if differ:
        raise SchemaError(f"bad report object: a re-run of its scenario differs in {differ}")
    return report
