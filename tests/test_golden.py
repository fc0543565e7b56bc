"""Pinned trace hashes: behaviour changes only on purpose.

The golden set (bundled scenarios, a slice of the fuzz and attack corpora,
an honest ring, and runs under every scheduler) is replayed in the
``golden_children`` processes, one per hash seed, so set iteration order
can leak into neither the trace nor the pinned file.
"""

import json

import pytest

import kspend
from kspend import engine as eng

from conftest import GOLDEN_HASH_SEEDS
from golden_traces import ATTACK_RUNS, FUZZ_RUNS, HASHES_FILE, golden_cases
from helpers import well_formed_trace_hash

# the golden runs with Byzantine senders: fuzz scripts, attacks, broadcasts
ADVERSARIAL = ("fuzz-", "attack-", "kcb-", "example1-attack")


@pytest.mark.parametrize("hash_seed", GOLDEN_HASH_SEEDS)
def test_golden_trace_hashes(golden_children, hash_seed):
    got = golden_children[hash_seed]["hashes"]
    pinned = json.loads(HASHES_FILE.read_text())
    assert list(got) == list(pinned)
    changed = sorted(name for name in pinned if got[name] != pinned[name])
    assert not changed, f"trace hashes moved for {changed}"


def test_golden_adversarial_runs_keep_histories_well_formed():
    """Every history stays well formed after every event.

    The checked runs must also keep their pinned traces.
    """
    pinned = json.loads(HASHES_FILE.read_text())
    checked = 0
    for name, scenario, seed in golden_cases():
        if name.startswith(ADVERSARIAL):
            assert well_formed_trace_hash(scenario, seed) == pinned[name], name
            checked += 1
    assert checked == FUZZ_RUNS + 3 * ATTACK_RUNS + 1


def test_check_invariants_stops_a_malformed_history(monkeypatch):
    # accept pending transactions before their inputs are accepted
    monkeypatch.setattr(eng, "_ready", lambda state, tx: True)
    stopped = []
    for name, scenario, seed in golden_cases():
        if name.startswith("fuzz-"):
            kspend.run(scenario, seed=seed)  # unchecked, the run completes
            try:
                well_formed_trace_hash(scenario, seed)
            except AssertionError as exc:
                assert "left well-formedness" in str(exc)
                stopped.append(name)
    assert stopped
