"""A process keeps one record per recorded request, and the record agrees
with the tables beside it.

After every event of every run below, for every correct process and every
record it holds: ``pended`` is set exactly when the transaction is pending
or is the accepted spend of its (issuer, first input); the record is the
object in the request bucket of each input it spends, and the buckets hold
nothing else; and the process's own bit is set in the echoer mask exactly
when the process has sent an ECHO of the transaction, as the trace shows.
The runs are the golden set (the guard-off probe among them), the fuzz
corpus and the attack corpus of ``conftest.py``.
"""

import random

import kspend
from kspend import fuzz, sim
from kspend.ledger import tx_ref

from conftest import ATTACK_CORPUS_SIZE, CORPUS_SEED, CORPUS_SIZE
from golden_traces import golden_cases


def check_records(state, echoed: set[str], hexes: dict, seen: set, where) -> None:
    """``echoed`` holds the hex references of the transactions the process
    sent an ECHO of; ``hexes`` caches each encoding's hex reference; ``seen``
    collects the (pended, accepted, echoed) cases met."""
    own = 1 << state.pid
    filed = 0
    for enc, record in state.records.items():
        tx = record.tx
        assert tx.encoding == enc, where
        prior = state.accepted.get((tx.issuer, tx.inputs[0]))
        accepted = prior is not None and prior.encoding == enc
        assert record.pended == (enc in state.pending or accepted), ("pended", where)
        for ref in tx.inputs:  # sorted and distinct
            assert state.requests[tx.issuer, ref][enc] is record, ("bucket", where)
        filed += len(tx.inputs)
        ref = hexes.get(enc) or hexes.setdefault(enc, tx_ref(tx).hex())
        mine = ref in echoed
        assert bool(record.echoers & own) == mine, ("own echo", where)
        seen.add((record.pended, accepted, mine))
    assert sum(map(len, state.requests.values())) == filed, ("stray bucket entry", where)


def checked_run(name, scenario, seed, seen: set) -> int:
    """Step a run as sim.run does, checking every record after every event;
    the number of events."""
    rt = sim._Runtime(scenario, seed)
    echoed = {pid: set() for pid in rt.engines}  # hex references each process echoed
    hexes = {}
    read = 0  # trace records read so far
    for _ in rt.loop():
        for record in rt.trace[read:]:
            if record[0] == "send" and record[2] == "ECHO" and record[3] in echoed:
                echoed[record[3]].add(record[5])
        read = len(rt.trace)
        for pid, state in rt.engines.items():
            check_records(state, echoed[pid], hexes, seen, (name, pid, rt.events))
    return rt.events


def covered(seen: set) -> bool:
    """Records were met pending, accepted and not pended, echoed and not."""
    pending = any(pended and not accepted for pended, accepted, _ in seen)
    unpended = {echoed for pended, _, echoed in seen if not pended}
    return pending and (True, True, True) in seen and unpended == {True, False}


def test_records_agree_with_the_tables_on_the_golden_runs():
    seen = set()
    events = {name: checked_run(name, s, seed, seen) for name, s, seed in golden_cases()}
    assert len(events) == 93 and events["mutant_probe/guard-off"], events
    assert covered(seen), seen


def test_records_agree_with_the_tables_on_the_corpora():
    seen = set()
    rng = random.Random(CORPUS_SEED)
    for i in range(CORPUS_SIZE):
        checked_run(f"fuzz-{i}", fuzz.random_scenario(rng), i, seen)
    rng = random.Random(CORPUS_SEED + 1)
    for i in range(ATTACK_CORPUS_SIZE):
        model, _k = fuzz.random_vulnerable_model(rng)
        scenario = kspend.synthesize_multispend_attack(model, sig_scheme="hmac")
        checked_run(f"attack-{i}", scenario, None, seen)
    assert covered(seen), seen
