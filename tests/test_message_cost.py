"""A delivered message costs what it can change.

Each process keeps one record per recorded request, keyed by encoding: the
transaction, its first issuer signature, one bitmask of echoers, tested
against one bitmask per quorum, and a flag set once the transaction is
pended, so pending or accepted. A REQ whose transaction is already
recorded, and an ECHO whose transaction is pended, return before any
signature is checked; an ECHO that carries the issuer signature recorded
with its request skips the issuer's check. A request is queued for the
conflict scan only when it shares a bucket with another request, and a
REQ that pended nothing and queued nothing skips ``_settle``. These tests
hold each shortcut against what it replaces: the old four-table handler
body (``oracles.old_body``) at every message that returns early, the
conflict scan, ``_try_echo`` and ``_settle``, run on a copy wherever they
are skipped, the verified-signature set at every skipped issuer check, the
per-member quorum scan of ``oracles.member_quorum_check``, and membership
in pending and the history, after every delivery.
"""

import copy
import dataclasses
import random
from collections import Counter
from itertools import combinations

import pytest

from kspend import engine as eng
from kspend import attack, fuzz, sim
from kspend.formats import load_builtin_model
from kspend.ledger import is_genesis, tx_ref
from kspend.sim import SchedulerSpec
from kspend.trust import TrustModel, self_inclusion_gaps

from conftest import CORPUS_SEED
from oracles import member_quorum_check, old_body, old_tables

SCENARIOS = 30


def corpus_scenarios(count=SCENARIOS):
    rng = random.Random(CORPUS_SEED)
    return [fuzz.random_scenario(rng) for _ in range(count)]


def scheduled(scenario, i, kind, guard_off):
    """The i-th corpus scenario under one scheduler and guard mode."""
    return dataclasses.replace(
        scenario,
        scheduler=SchedulerSpec(kind, seed=i if kind == "random" else None),
        disable_used_input_guard=guard_off,
    )


def returns_early(state, msg) -> bool:
    tx = msg.tx
    if tx is None or is_genesis(tx):
        return False
    if msg.kind == eng.REQ:
        return any(tx.encoding in bucket for bucket in state.requests.values())
    return tx.encoding in state.pending or tx_ref(tx) in state.by_ref


def recorded_sig(state, tx) -> bytes | None:
    """The issuer signature recorded with tx's request, if it is recorded."""
    for bucket in state.requests.values():
        if tx.encoding in bucket:
            return bucket[tx.encoding].sig
    return None


def accepted(state, tx) -> bool:
    """Is tx the accepted spend of its (issuer, first input)?"""
    prior = state.accepted.get((tx.issuer, tx.inputs[0]))
    return prior is not None and prior.encoding == tx.encoding


def facts(state):
    """Everything a process knows, its echo counts included."""
    return (
        dict(state.by_ref),
        dict(state.pending),
        dict(state.accepted),
        {enc: (r.tx, r.sig, r.echoers, r.pended) for enc, r in state.records.items()},
        {key: {enc: r.tx for enc, r in bucket.items()} for key, bucket in state.requests.items()},
        frozenset(state.accusations),
    )


def without_echoes(tables) -> dict:
    # an early return drops the echo's count: its quorum is never read again
    return {name: table for name, table in tables.items() if name != "echoers"}


@pytest.mark.parametrize("guard_off", [False, True], ids=["guard-on", "guard-off"])
@pytest.mark.parametrize("kind", ["random", "fifo"])
def test_early_returns_match_the_old_handler_bodies(monkeypatch, kind, guard_off):
    """Each step a handler skips, run on a copy of the state where it was
    skipped, emits nothing and changes no fact: the whole old body at an
    early return, and inside ``handle_echo`` its ``_try_echo`` after the
    process's own echo and its ``_settle`` with nothing pended or unscanned."""
    handle, try_echo, pend, settle = eng.handle_message, eng._try_echo, eng._pend, eng._settle
    early = Counter()
    current = {}  # "msg": the ECHO being handled past its early returns
    called = []  # the steps its handler called, in order

    def replayed(state, step, enc=None):
        # step runs on a copy, on the copy's own record of enc if one is named
        replay, out = copy.deepcopy(state), []
        step(replay, *([replay.records[enc]] if enc else []), out)
        assert out == []
        assert facts(replay) == facts(state)
        early[f"skipped {step.__name__}"] += 1

    def offered(state, record, out):
        called.append("_try_echo")
        try_echo(state, record, out)
        called.append("_try_echo returned")

    def pended(state, record):
        # the handler's own pend test, not one nested in _try_echo, comes
        # right where its _try_echo ran or was skipped
        if "msg" in current and called[-1:] != ["_try_echo"]:
            if "_try_echo" not in called:
                replayed(state, try_echo, record.tx.encoding)
            called.append("_pend")
        pend(state, record)

    def settled(state, out):
        called.append("_settle")
        settle(state, out)

    def echo_checked(state, msg):
        current["msg"] = msg
        called.clear()
        try:
            out = handle(state, msg)
        finally:
            del current["msg"]
        if "_pend" in called and "_settle" not in called:
            replayed(state, settle)  # the handler's last step, so state is as skipped
        return out

    def checked(state, msg):
        if msg.kind in (eng.REQ, eng.ECHO) and returns_early(state, msg):
            sent, tables = old_body(state, msg)
            assert sent == []
            assert without_echoes(tables) == without_echoes(old_tables(state))
            early[msg.kind] += 1
            out = handle(state, msg)
            assert out == []
            return out
        if msg.kind == eng.ECHO and recorded_sig(state, msg.tx) == msg.issuer_sig:
            # the issuer check is skipped: the signature was verified before
            tx = msg.tx
            verifier = state.verifier
            assert (verifier.public[tx.issuer], tx.encoding, msg.issuer_sig) in verifier.verified
            early["skipped issuer check"] += 1
        return echo_checked(state, msg) if msg.kind == eng.ECHO else handle(state, msg)

    monkeypatch.setattr(eng, "handle_message", checked)
    monkeypatch.setattr(eng, "_try_echo", offered)
    monkeypatch.setattr(eng, "_pend", pended)
    monkeypatch.setattr(eng, "_settle", settled)
    for i, scenario in enumerate(corpus_scenarios()):
        sim.run(scheduled(scenario, i, kind, guard_off), seed=i)
    # under fifo a request reaches each process before any echo of it does
    assert early[eng.ECHO] and (early[eng.REQ] or kind == "fifo"), early
    assert early["skipped issuer check"], early
    assert early["skipped _try_echo"] and early["skipped _settle"], early


@pytest.mark.parametrize("guard_off", [False, True], ids=["guard-on", "guard-off"])
@pytest.mark.parametrize("kind", ["random", "fifo"])
def test_skipped_scans_and_settles_would_change_nothing(monkeypatch, kind, guard_off):
    """A request recorded but not queued for the conflict scan, scanned on a
    copy of the state, forms no pair; and where ``handle_req`` recorded a
    request and skipped ``_settle``, ``_settle`` on a copy emits nothing and
    changes no fact."""
    handle_req, record, settle = eng.handle_req, eng.record_request, eng._settle
    skipped = Counter()
    settled = []

    def recorded(state, tx, issuer_sig):
        new = record(state, tx, issuer_sig)
        if new and tx not in state.unscanned:
            replay = copy.deepcopy(state)
            replay.unscanned = [tx]
            assert eng.detect_conflicts(replay) == []
            assert facts(replay) == facts(state)
            skipped["scan"] += 1
        return new

    def settling(state, out):
        settled.append(state.pid)
        settle(state, out)

    def req_checked(state, msg):
        tx = msg.tx
        new = tx is not None and bool(tx.inputs) and tx.encoding not in state.records
        settled.clear()
        out = handle_req(state, msg)
        if new and tx.encoding in state.records and not settled:
            replay, replay_out = copy.deepcopy(state), []
            settle(replay, replay_out)  # the handler's last step, so state is as skipped
            assert replay_out == []
            assert facts(replay) == facts(state)
            skipped["settle"] += 1
        return out

    monkeypatch.setattr(eng, "record_request", recorded)
    monkeypatch.setattr(eng, "_settle", settling)
    monkeypatch.setattr(eng, "handle_req", req_checked)
    for i, scenario in enumerate(corpus_scenarios()):
        sim.run(scheduled(scenario, i, kind, guard_off), seed=i)
    assert skipped["scan"] and skipped["settle"], skipped


def gap_model() -> TrustModel:
    """Five processes; each quorum is three processes other than its owner."""
    quorums = [
        [frozenset(q) for q in combinations(sorted(set(range(5)) - {p}), 3)] for p in range(5)
    ]
    return TrustModel.build(5, quorums, [[0], [1]])


def stepped_run(scenario, seed, check) -> None:
    """Step a run as sim.run does, calling check(pid, state, events) for
    every correct process after every event.

    After every event no pending transaction is accepted: acceptance
    happens only in ``_settle``, which takes what it accepts out of pending.
    """
    rt = sim._Runtime(scenario, seed)
    for _ in rt.loop():
        for pid, state in rt.engines.items():
            assert not any(accepted(state, tx) for tx in state.pending.values()), (pid, rt.events)
            check(pid, state, rt.events)


def checked_run(scenario, seed, outcomes: Counter) -> None:
    """Step a run, comparing quorum tests after every event: a record is
    pended exactly when the bitmask test in ``_pend`` found a quorum, and
    each echo count change is followed by that test."""
    quorums = scenario.model.quorums

    def check(pid, state, events):
        for record in state.records.values():
            fast = record.pended
            assert fast == member_quorum_check(state, quorums[pid], record.tx), (pid, events)
            outcomes[fast] += 1

    stepped_run(scenario, seed, check)


def test_bitmask_quorum_check_matches_the_member_scan():
    rng = random.Random(CORPUS_SEED + 7)
    example1 = load_builtin_model("example1")
    cases = [("corpus", s, i) for i, s in enumerate(corpus_scenarios(10))]
    for name, model in (("example1", example1), ("gaps", gap_model())):
        assert self_inclusion_gaps(model)
        cases += [(name, fuzz.random_scenario(rng, model=model), 100 + i) for i in range(10)]
    cases.append(("example1", attack.synthesize_multispend_attack(example1, sig_scheme="hmac"), None))
    outcomes = {name: Counter() for name, _, _ in cases}
    for name, scenario, seed in cases:
        for guard_off in (False, True):
            run = dataclasses.replace(scenario, disable_used_input_guard=guard_off)
            checked_run(run, seed, outcomes[name])
    # quorums reached and not yet reached, on every family of models
    assert all(counts[True] and counts[False] for counts in outcomes.values()), outcomes


@pytest.mark.parametrize("guard_off", [False, True], ids=["guard-on", "guard-off"])
@pytest.mark.parametrize("kind", ["random", "fifo"])
def test_accepted_test_matches_history_membership(kind, guard_off):
    """The early ECHO return's test, a record's ``pended`` flag, holds exactly
    when its transaction is pending or in the history; and the accepted spend
    of its (issuer, first input) is it exactly when it is in the history."""
    outcomes = Counter()

    def check(pid, state, events):
        for enc, record in state.records.items():
            tx = record.tx
            known = tx_ref(tx) in state.by_ref
            assert accepted(state, tx) == known, (pid, events)
            assert record.pended == (known or enc in state.pending), (pid, events)
            outcomes[known] += 1

    for i, scenario in enumerate(corpus_scenarios(10)):
        stepped_run(scheduled(scenario, i, kind, guard_off), i, check)
    assert outcomes[True] and outcomes[False], outcomes


@pytest.mark.parametrize("guard_off", [False, True], ids=["guard-on", "guard-off"])
@pytest.mark.parametrize("kind", ["random", "fifo"])
def test_no_accepted_transaction_reaches_the_pending_test(monkeypatch, kind, guard_off):
    """``_pend`` tests no table: a record reaching it is never accepted, nor
    pending, since ``handle_echo`` returns early for pended ones and tests the
    flag again after its ``_try_echo``, and a request new to ``_try_echo``
    was never pended, let alone accepted."""
    pend = eng._pend
    calls = Counter()

    def checked(state, record):
        tx = record.tx
        assert not accepted(state, tx) and tx_ref(tx) not in state.by_ref
        assert not record.pended and tx.encoding not in state.pending
        pend(state, record)
        calls[record.pended] += 1

    monkeypatch.setattr(eng, "_pend", checked)
    for i, scenario in enumerate(corpus_scenarios(10)):
        sim.run(scheduled(scenario, i, kind, guard_off), seed=i)
    # calls that reached a quorum and calls that did not
    assert calls[True] and calls[False], calls
