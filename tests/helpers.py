"""Generators and diagnostics that only the tests use."""

import os
import pathlib
import random
import subprocess

import kspend
from kspend import sim
from kspend.crypto import Verifier, keychain, make_scheme
from kspend.errors import MalformedHistory
from kspend.ledger import (
    Transaction,
    WellFormedness,
    _as_histories,
    genesis_tx,
    is_genesis,
    make_tx,
    out_value,
    tx_ref,
    well_formed_report,
)
from kspend.properties import Verdict, evaluate_properties
from kspend.sim import RunReport
from kspend.trust import is_live


def table(txs) -> dict[bytes, Transaction]:
    """A history as the engine keeps one: each transaction under its reference."""
    return {tx_ref(tx): tx for tx in txs}


def random_well_formed_history(rng: random.Random) -> dict[bytes, Transaction]:
    """A history satisfying every clause, timestamps included."""
    n = rng.randint(2, 5)
    grants = {p: rng.randint(5, 20) for p in range(n)}
    genesis = genesis_tx(grants)
    txs: list[Transaction] = [genesis]
    unspent: dict[int, list[tuple[bytes, int]]] = {
        p: [(tx_ref(genesis), grants[p])] for p in range(n)
    }
    issued: dict[int, int] = {p: 0 for p in range(n)}
    for _ in range(rng.randint(0, 10)):
        holders = [p for p in range(n) if unspent[p]]
        if not holders:
            break
        issuer = rng.choice(holders)
        take = rng.randint(1, min(2, len(unspent[issuer])))
        picks = [unspent[issuer].pop(rng.randrange(len(unspent[issuer]))) for _ in range(take)]
        total = sum(amount for _ref, amount in picks)
        recipients = rng.sample(range(n), rng.randint(1, min(3, n)))
        outputs: dict[int, int] = {}
        remaining = total
        for who in recipients[:-1]:
            if remaining <= 1:
                break
            part = rng.randint(1, remaining - 1)
            outputs[who] = outputs.get(who, 0) + part
            remaining -= part
        outputs[recipients[-1]] = outputs.get(recipients[-1], 0) + remaining
        issued[issuer] += 1
        tx = make_tx(
            issuer,
            outputs,
            [ref for ref, _amount in picks],
            timestamp=issued[issuer],
        )
        txs.append(tx)
        for who, amount in tx.outputs:
            unspent[who].append((tx_ref(tx), amount))
    return table(txs)


def undelivered_live(report: RunReport) -> tuple[int, ...]:
    """Live correct processes that delivered nothing (liveness diagnostics)."""
    scenario = report.scenario
    delivered = report.delivered or {}
    return tuple(
        p
        for p in sorted(report.histories)
        if is_live(scenario.model, p, scenario.faulty_set) and p not in delivered
    )


def judge(report: RunReport) -> dict[str, Verdict]:
    """The verdicts on a report, tampered perhaps, under a fresh verifier
    built from its scenario, so every signature is checked."""
    scenario = report.scenario
    scheme = make_scheme(scenario.sig_scheme)
    _, public = keychain(scenario.model.n, scheme, scenario.key_seed)
    return evaluate_properties(report, Verifier(scheme, public))


def clause_failed(report: WellFormedness, clause: str) -> bool:
    """Is ``clause`` among the report's failed clauses?"""
    return any(c == clause for c, _ in report.failures)


def balances(h: dict[bytes, Transaction], pids) -> list[int]:
    """Each process's received minus spent; never negative on a well-formed history."""
    if not well_formed_report(h).ok:
        raise MalformedHistory("balance requires a well-formed history")
    return [
        sum(tx.pays(pid) for tx in h.values())
        - sum(out_value(tx) for tx in h.values() if tx.issuer == pid and not is_genesis(tx))
        for pid in pids
    ]


def spending_number(collection) -> int:
    """Largest count of distinct spends of one input by one issuer.

    Ranges over all transactions appearing anywhere in the collection (a
    mapping or an iterable of histories); 0 when nothing was spent at all.
    """
    histories = _as_histories(collection)
    for h in histories:
        if not well_formed_report(h).ok:
            raise MalformedHistory("spending number requires well-formed histories")
    spenders: dict[tuple[int, bytes], set[bytes]] = {}
    for h in histories:
        for tx in h.values():
            if is_genesis(tx):
                continue
            for ref in tx.inputs:
                spenders.setdefault((tx.issuer, ref), set()).add(tx_ref(tx))
    return max((len(s) for s in spenders.values()), default=0)


def well_formed_trace_hash(scenario, seed) -> str:
    """Step a run as sim.run does; after every event, every history must be well formed.

    A process's history is judged again only when its table grew. Returns
    the trace hash the run wrote, after checking it against
    ``compute_trace_hash``. Raises AssertionError naming the first process
    whose history left well-formedness.
    """
    rt = sim._Runtime(scenario, seed)
    judged = dict.fromkeys(rt.engines, 0)  # each table's length when last judged
    for _ in rt.loop():
        for pid, state in rt.engines.items():
            if len(state.by_ref) == judged[pid]:
                continue
            judged[pid] = len(state.by_ref)
            base = well_formed_report(state.by_ref)
            if not base.ok:
                raise AssertionError(f"history of {pid} left well-formedness: {base.failures}")
    written = rt.digest.hexdigest()
    assert written == sim.compute_trace_hash(rt.trace), "the written trace hash"
    return written


def run_child(command: list[str]) -> subprocess.CompletedProcess:
    """Run ``command`` in a child process that imports the suite's kspend."""
    src_root = str(pathlib.Path(kspend.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return subprocess.run(command, capture_output=True, text=True, env=env)
