"""Readiness is re-checked on change, and must agree with polling.

The simulator re-checks an issuer's next action only when that issuer
accepts something or executes an action, and the engine runs its settle
loop only when something was pended since the last one. After every event
the enabled actions must equal what polling every issuer finds, and no
pending transaction of a correct process may be ready.

The simulator reads what an event accepted from the tail of the acting
process's table, so after every event the table must keep its earlier
entries in order and gain exactly the references the trace records.
"""

import json

from kspend import engine as eng
from kspend import sim

from golden_traces import HASHES_FILE, golden_cases
from oracles import polled_enabled_actions


def checked_trace_hash(scenario, seed) -> str:
    """Step a run as sim.run does, checking both wake rules before every
    event and the tail rule after it."""
    rt = sim._Runtime(scenario, seed)

    def wake_rules_hold() -> dict:
        events = rt.events
        assert sorted(rt.enabled) == polled_enabled_actions(rt), f"enabled actions at event {events}"
        for pid, state in rt.engines.items():
            ready = [tx for tx in state.pending.values() if eng._ready(state, tx)]
            assert not ready, f"process {pid} left ready transactions pending at event {events}"
        return {pid: list(state.by_ref) for pid, state in rt.engines.items()}

    before = wake_rules_hold()
    for _ in rt.loop():
        events = rt.events - 1
        record = rt.trace[-1]
        actor = record[2] if record[0] == "action" else record[4]
        for pid, state in rt.engines.items():
            table = list(state.by_ref)
            assert table[: len(before[pid])] == before[pid], f"process {pid} at event {events}"
            gained = {ref.hex() for ref in table[len(before[pid]) :]}
            assert gained == set(record[-2] if pid == actor else ()), f"process {pid} at event {events}"
        before = wake_rules_hold()
    written = rt.digest.hexdigest()
    assert written == sim.compute_trace_hash(rt.trace), "the written trace hash"
    return written


def test_wake_rules_match_polling_on_the_golden_runs():
    # fuzz runs (random scheduler), attacks (adversarial), rings (fifo, random)
    pinned = json.loads(HASHES_FILE.read_text())
    checked = 0
    for name, scenario, seed in golden_cases():
        if name.startswith(("fuzz-", "attack-", "ring-")) and not name.endswith("/ed25519"):
            assert checked_trace_hash(scenario, seed) == pinned[name], name
            checked += 1
    assert checked == 65


def test_a_process_grows_one_table_for_its_whole_run():
    name, scenario, seed = next(case for case in golden_cases() if case[0].startswith("ring-"))
    rt = sim._Runtime(scenario, seed)
    tables = {pid: state.by_ref for pid, state in rt.engines.items()}
    assert all(len(table) == 1 for table in tables.values())
    for _ in rt.loop():
        pass
    for pid, state in rt.engines.items():
        assert state.by_ref is tables[pid] and len(state.by_ref) > 1, (name, pid)
