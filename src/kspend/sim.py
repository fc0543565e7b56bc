"""Deterministic adversarial simulator for the transfer protocol.

A scenario fixes the trust model, the faulty set, scripted Byzantine sends,
honest transfer actions, and a scheduler. Faulty processes run no engine:
their entire behavior is the script, and the scheduler (the adversary)
controls delivery order but can never drop a message, so every run drains
to quiescence unless the event cap trips first. Runs are pure functions of
(scenario, seed): traces hash identically across repeats.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import re
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from . import engine as eng
from . import properties as props
from .crypto import Verifier, keychain, make_scheme
from .errors import (
    InvalidFaultySet,
    MalformedHistory,
    NotVulnerable,
    SchemaError,
    SizeLimitExceeded,
)
from .ledger import (
    Accusation,
    Transaction,
    genesis_tx,
    is_genesis,
    make_tx,
    minimum_cover,
    tx_ref,
)
from .trust import (
    TrustModel,
    allows_faulty,
    inconsistency_number,
    load_model,
    model_to_obj,
    parse_model,
    read_json,
)

DEFAULT_KEY_SEED = b"kspend"
DEFAULT_MAX_EVENTS = 100_000


@dataclass(frozen=True)
class PlanRule:
    """One adversarial phase: deliveries of this tx to these recipients."""

    tx_ref: bytes
    recipients: frozenset[int]


@dataclass(frozen=True)
class SchedulerSpec:
    kind: str  # fifo | random | adversarial
    seed: int | None = None
    plan: tuple[PlanRule, ...] = ()

    def __post_init__(self):
        if self.kind not in ("fifo", "random", "adversarial"):
            raise ValueError(f"unknown scheduler kind: {self.kind!r}")
        if self.plan and self.kind != "adversarial":
            raise ValueError(f"a {self.kind} scheduler takes no plan")


@dataclass(frozen=True)
class ScriptedSend:
    """A directed send by a faulty process; signatures are filled at run time."""

    sender: int
    kind: str  # REQ | ECHO
    tx: Transaction
    recipients: frozenset[int]


@dataclass(frozen=True)
class Scenario:
    model: TrustModel
    faulty_set: frozenset[int]
    genesis: Transaction
    honest_actions: tuple[tuple[int, Transaction], ...] = ()
    scripts: tuple[ScriptedSend, ...] = ()
    scheduler: SchedulerSpec = SchedulerSpec("fifo")
    max_events: int = DEFAULT_MAX_EVENTS
    sig_scheme: str = "ed25519"
    key_seed: bytes = DEFAULT_KEY_SEED
    kcb_source: int | None = None
    disable_used_input_guard: bool = False
    name: str = ""
    # the inconsistency number, when the scenario's builder already searched
    # for it; not an argument, so ``replace`` (a copy, perhaps on another
    # model) drops it and ``run`` searches again
    k_bound: int | None = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def build(
        model: TrustModel,
        faulty_set: Iterable[int],
        genesis: Transaction,
        honest_actions: Iterable[tuple[int, Transaction]] = (),
        scripts: Iterable[ScriptedSend] = (),
        scheduler: SchedulerSpec = SchedulerSpec("fifo"),
        **kw,
    ) -> "Scenario":
        faulty = frozenset(faulty_set)
        actions = tuple(honest_actions)
        sends = tuple(scripts)
        source = kw.get("kcb_source")
        # exact ints, as the loader's _int: True equals 1 and 0.0 equals 0,
        # but the trace would spell them true and 0.0
        ids = [("faulty process id", pid) for pid in faulty]
        ids += [("honest action pid", pid) for pid, _ in actions]
        ids += [("script sender", send.sender) for send in sends]
        ids += [("script recipient", pid) for send in sends for pid in send.recipients]
        ids += [("plan recipient", pid) for rule in scheduler.plan for pid in rule.recipients]
        ids += [("kcb_source", source)] if source is not None else []
        for what, pid in ids:
            if type(pid) is not int:
                raise TypeError(f"{what} must be an int, got {pid!r}")
        if not allows_faulty(model, faulty):
            raise InvalidFaultySet(f"faulty set {sorted(faulty)} exceeds the fault model")
        if not is_genesis(genesis):
            raise ValueError("scenario genesis must be a funding root")
        for pid, tx in actions:
            if not 0 <= tx.issuer < model.n:
                raise ValueError(f"honest action issuer {tx.issuer} is not a process of the model")
            if tx.issuer != pid:
                raise ValueError(f"honest action issuer {pid} conflicts with its "
                                 f"transaction's issuer {tx.issuer}")
            if pid in faulty:
                raise ValueError(f"honest action issued by declared-faulty process {pid}")
        for send in sends:
            if send.sender not in faulty:
                raise ValueError(f"script sender {send.sender} is not declared faulty")
            if send.tx.issuer not in faulty:
                # equivocation is allowed; forging correct-process signatures is not
                raise ValueError(f"scripted transaction issued by non-faulty {send.tx.issuer}")
            if send.kind not in (eng.REQ, eng.ECHO):
                raise ValueError(f"scripts may send REQ or ECHO, not {send.kind!r}")
        recipients = [("genesis", pid) for pid, _ in genesis.outputs]
        recipients += [("script", pid) for send in sends for pid in sorted(send.recipients)]
        recipients += [("plan", pid) for rule in scheduler.plan for pid in sorted(rule.recipients)]
        for what, pid in recipients:
            if not 0 <= pid < model.n:
                raise ValueError(f"{what} recipient {pid} is not a process of the model")
        if scheduler.plan:
            sent = {tx_ref(tx) for _, tx in actions} | {tx_ref(send.tx) for send in sends}
            for rule in scheduler.plan:
                if rule.tx_ref not in sent:
                    raise ValueError(f"plan rule for {rule.tx_ref.hex()[:12]}, which nothing sends")
        if source is not None and not 0 <= source < model.n:
            raise ValueError(f"kcb_source {source} is not a process of the model")
        make_scheme(kw.get("sig_scheme", "ed25519"))  # an unknown scheme fails here, not in run
        return Scenario(
            model=model,
            faulty_set=faulty,
            genesis=genesis,
            honest_actions=actions,
            scripts=sends,
            scheduler=scheduler,
            **kw,
        )


@dataclass
class RunReport:
    scenario: Scenario
    seed_used: int | None
    quiescent: bool
    events: int
    trace: tuple
    trace_hash: str
    histories: dict[int, dict[bytes, Transaction]]  # each process's {ref: tx} table
    accusations: dict[int, frozenset[Accusation]]
    gamma_series: tuple[int, ...]
    gamma_max: int
    k_bound: int | None
    k_bound_note: str | None
    cover: int | None
    cover_note: str | None
    verdicts: dict[str, props.Verdict] = field(default_factory=dict)
    delivered: dict[int, bytes | None] | None = None
    unexecuted_actions: tuple[int, ...] = ()


def compute_trace_hash(trace: Iterable) -> str:
    """The reference trace hash: SHA-256 over each record's compact JSON and a newline.

    A run writes the same hash as it goes (``_Runtime.write``, and inline in
    ``_Runtime.loop``).
    """
    digest = hashlib.sha256()
    for record in trace:
        digest.update(json.dumps(record, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _refs(refs: tuple[str, ...]) -> str:
    # a JSON list of hex references, which need no escaping
    return '["' + '","'.join(refs) + '"]' if refs else "[]"


def _phase_of(plan: tuple[PlanRule, ...], ref: bytes, recipient: int) -> int:
    for i, rule in enumerate(plan):
        if rule.tx_ref == ref and recipient in rule.recipients:
            return i
    return len(plan)


class _Runtime:
    def __init__(self, scenario: Scenario, seed: int | None):
        self.scenario = scenario
        scheme = make_scheme(scenario.sig_scheme)
        self.keys, public = keychain(scenario.model.n, scheme, scenario.key_seed)
        # one per run, never across runs; the property checker shares it too
        self.verifier = Verifier(scheme, public)
        self.correct = [p for p in range(scenario.model.n) if p not in scenario.faulty_set]
        self.engines: dict[int, eng.ProcessState] = {
            p: eng.initial_state(
                p,
                scenario.model.n,
                scenario.model.quorums[p],
                self.keys[p],
                self.verifier,
                scenario.genesis,
                disable_used_input_guard=scenario.disable_used_input_guard,
            )
            for p in self.correct
        }
        sched = scenario.scheduler
        self.seed_used = None
        self.rng = None
        if sched.kind == "random":
            self.seed_used = seed if seed is not None else (sched.seed or 0)
            self.rng = random.Random(self.seed_used)
        self.adversarial = sched.kind == "adversarial"
        self.plan = sched.plan
        self.msg_count = 0
        # queued deliveries: in send order, or under the adversarial scheduler
        # a heap whose root, the least (phase, msg_id, recipient), is delivered
        # next. Each is a plain tuple (phase, msg_id, recipient, message,
        # payload, head, tail), its first three fields unique; the last four
        # are its message's, shared by all its deliveries (see enqueue).
        self.deliveries: list[tuple[int, int, int, eng.Message, str, str, str]] = []
        self.trace: list = []
        # compute_trace_hash(trace), fed one line per record as it is written
        self.digest = hashlib.sha256()
        self.pids = [str(p) for p in range(scenario.model.n)]  # each process id's JSON
        # per (sender, recipients), resolved once per run: the sorted
        # recipients but the sender, and their JSON list's body
        self.audiences: dict[tuple[int, frozenset[int]], tuple[tuple[int, ...], str]] = {}
        # per issuer, its unexecuted action indices with the next one last;
        # an issuer's later actions wait for its earlier ones
        self.todo: dict[int, list[int]] = {}
        for idx in reversed(range(len(scenario.honest_actions))):
            self.todo.setdefault(scenario.honest_actions[idx][0], []).append(idx)
        # the head actions whose issuer may transfer now; an issuer's
        # readiness reads only its own state, so it is re-checked only when
        # that issuer accepts something or executes an action
        self.enabled: set[int] = set()
        for pid in self.todo:
            self.refresh(pid)
        self.spends: dict[tuple[int, bytes], set[bytes]] = {}
        self.gamma = 0
        self.gamma_series: list[int] = []
        self.events = 0
        self.quiescent = False
        self.enqueue_scripts()

    # --- emission -------------------------------------------------------

    def write(self, record: tuple, line: str) -> None:
        """Append ``record`` to the trace and ``line``, its compact JSON, to the hash."""
        self.trace.append(record)
        self.digest.update(line.encode())

    def enqueue(self, msg: eng.Message) -> str:
        msg_id = self.msg_count
        self.msg_count += 1
        pids = self.pids
        key = (msg.sender, msg.recipients)
        audience = self.audiences.get(key)
        if audience is None:
            recipients = tuple(sorted(msg.recipients - {msg.sender}))
            audience = self.audiences[key] = (recipients, ",".join([pids[r] for r in recipients]))
        recipients, listed = audience
        tx, acc = msg.tx, msg.accusation
        ref = tx_ref(tx) if tx is not None else None
        payload = ref.hex() if ref is not None else acc.digest.hex() if acc is not None else ""
        # kinds are engine constants and payloads hex: JSON writes both as they are
        fields = f'{msg_id},"{msg.kind}",{pids[msg.sender]},'
        self.write(("send", msg_id, msg.kind, msg.sender, recipients, payload),
                   f'["send",{fields}[{listed}],"{payload}"]\n')
        # the delivery line around the recipient; this tail ends a delivery
        # that accepted nothing and stored no accusation
        head, tail = '["deliver",' + fields, f',"{payload}",[],[]]\n'
        if self.adversarial:
            plan = self.plan
            for r in recipients:
                # an accusation has no reference for a rule to name: it goes last
                phase = len(plan) if ref is None else _phase_of(plan, ref, r)
                heapq.heappush(self.deliveries, (phase, msg_id, r, msg, payload, head, tail))
        else:
            self.deliveries.extend([(0, msg_id, r, msg, payload, head, tail) for r in recipients])
        return payload

    def enqueue_scripts(self) -> None:
        # both schemes are deterministic: one signature per (signer, bytes)
        # serves every script that carries it
        sign = cache(lambda pid, enc: self.verifier.sign(self.keys[pid], enc))
        for send in self.scenario.scripts:
            enc = send.tx.encoding
            echo_sig = None if send.kind == eng.REQ else sign(send.sender, enc)
            self.enqueue(eng.Message(kind=send.kind, sender=send.sender, recipients=send.recipients,
                                     tx=send.tx, issuer_sig=sign(send.tx.issuer, enc),
                                     echoer_sig=echo_sig))

    # --- effects --------------------------------------------------------

    def note_acceptances(self, table: dict[bytes, Transaction], before: int) -> tuple[str, ...]:
        # a handler only adds to the table, so what it accepted is past ``before``;
        # each entry is keyed by its reference
        added = islice(reversed(table.items()), len(table) - before)
        refs = []
        for key, tx in sorted(added, key=itemgetter(0)):
            refs.append(key.hex())
            for ref in tx.inputs:
                bucket = self.spends.setdefault((tx.issuer, ref), set())
                bucket.add(key)
                if len(bucket) > self.gamma:
                    self.gamma = len(bucket)
        return tuple(refs)

    def effects(self, state: eng.ProcessState, out: list[eng.Message],
                before: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Queue a handler's messages; the hex references it accepted past
        ``before`` and the digests of the accusations it newly stored."""
        payloads = [self.enqueue(msg) for msg in out]
        # every ACC a handler returns carries an accusation it newly stored
        new_acc = tuple(sorted(p for msg, p in zip(out, payloads) if msg.kind == eng.ACC))
        table = state.by_ref
        accepted = () if len(table) == before else self.note_acceptances(table, before)
        return accepted, new_acc

    # --- scheduling -----------------------------------------------------

    def refresh(self, pid: int) -> None:
        todo = self.todo.get(pid)
        if todo:
            idx = todo[-1]
            if eng.can_transfer(self.engines[pid], self.scenario.honest_actions[idx][1]):
                self.enabled.add(idx)
            else:
                self.enabled.discard(idx)

    def loop(self) -> Iterator[None]:
        """Run the events one by one, yielding after each, until the run is
        quiescent or at its event cap.

        fifo and adversarial run the least enabled action before any
        delivery. fifo then delivers the queue head: ``enqueue`` appends in
        send order and nothing reorders the queue. adversarial delivers the
        heap root, the least (phase, send order). random draws one of the
        enabled actions, in index order, or one queued delivery, as
        ``Random.randrange`` does: the bit length's worth of bits, drawn
        again while out of range.

        Most deliveries change nothing. Only a handler that returned messages
        or grew its history enters ``effects``; the rest write the quiet tail.
        """
        actions, engines, enabled = self.scenario.honest_actions, self.engines, self.enabled
        deliveries, adversarial, pids = self.deliveries, self.adversarial, self.pids
        append, update = self.trace.append, self.digest.update
        gamma_series, max_events = self.gamma_series, self.scenario.max_events
        draw = self.rng.getrandbits if self.rng is not None else None
        while enabled or deliveries:
            if self.events >= max_events:
                return
            pos = 0
            if draw is not None:
                ready = sorted(enabled) if enabled else ()
                n = len(ready) + len(deliveries)
                bits = n.bit_length()
                pos = draw(bits)
                while pos >= n:
                    pos = draw(bits)
                idx = ready[pos] if pos < len(ready) else None
                pos -= len(ready)
            else:
                idx = min(enabled) if enabled else None
            if idx is not None:
                pid, tx = actions[idx]
                state = engines[pid]
                before = len(state.by_ref)
                accepted, new_acc = self.effects(state, eng.transfer(state, tx), before)
                self.todo[pid].pop()
                enabled.discard(idx)
                self.refresh(pid)
                ref = tx_ref(tx).hex()
                append(("action", idx, pid, ref, accepted, new_acc))
                update(f'["action",{idx},{pids[pid]},"{ref}",'
                       f'{_refs(accepted)},{_refs(new_acc)}]\n'.encode())
            else:
                d = heapq.heappop(deliveries) if adversarial else deliveries.pop(pos)
                _, msg_id, recipient, msg, payload, head, tail = d
                accepted = new_acc = ()
                state = engines.get(recipient)  # None for a faulty one: it is script-only
                if state is not None:
                    before = len(state.by_ref)
                    out = eng.handle_message(state, msg)
                    if out or len(state.by_ref) != before:
                        accepted, new_acc = self.effects(state, out, before)
                        if accepted:
                            self.refresh(recipient)
                        if accepted or new_acc:
                            tail = f',"{payload}",{_refs(accepted)},{_refs(new_acc)}]\n'
                append(("deliver", msg_id, msg.kind, msg.sender, recipient,
                        payload, accepted, new_acc))
                update((head + pids[recipient] + tail).encode())
            self.events += 1
            gamma_series.append(self.gamma)
            yield
        self.quiescent = True


def run(scenario: Scenario, *, seed: int | None = None) -> RunReport:
    """Execute a scenario to quiescence (or the event cap) and report."""
    rt = _Runtime(scenario, seed)
    for _ in rt.loop():
        pass

    histories = {p: rt.engines[p].by_ref for p in rt.correct}
    accusations = {p: frozenset(rt.engines[p].accusations) for p in rt.correct}

    k_bound = scenario.k_bound
    k_bound_note = None
    if k_bound is None:
        try:
            k_bound = inconsistency_number(scenario.model)
        except SizeLimitExceeded as exc:
            k_bound_note = str(exc)

    cover = None
    cover_note = None
    if rt.quiescent:
        try:
            cover = len(minimum_cover(histories))
        except (SizeLimitExceeded, MalformedHistory) as exc:
            cover_note = str(exc)

    delivered = None
    if scenario.kcb_source is not None:
        # the accepted spend of the source's funding output; c3 allows one per history
        funding = (scenario.kcb_source, tx_ref(scenario.genesis))
        spends = {p: rt.engines[p].accepted.get(funding) for p in rt.correct}
        delivered = {p: tx.message for p, tx in spends.items() if tx is not None}

    report = RunReport(
        scenario=scenario,
        seed_used=rt.seed_used,
        quiescent=rt.quiescent,
        events=rt.events,
        trace=tuple(rt.trace),
        trace_hash=rt.digest.hexdigest(),
        histories=histories,
        accusations=accusations,
        gamma_series=tuple(rt.gamma_series),
        gamma_max=rt.gamma,
        k_bound=k_bound,
        k_bound_note=k_bound_note,
        cover=cover,
        cover_note=cover_note,
        delivered=delivered,
        unexecuted_actions=tuple(sorted(idx for todo in rt.todo.values() for idx in todo)),
    )
    report.verdicts = props.evaluate_properties(report, rt.verifier)
    return report


# --- serialization --------------------------------------------------------


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
            return tx_ref(names[token])
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
        inputs = [_resolve_ref(tok, names) for tok in spec.get("inputs", [])]
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
            from .attack import synthesize_multispend_attack

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
