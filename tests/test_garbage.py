"""Searches and runs free what they build: nothing they leave needs the cycle collector.

A recursive search written as a closure that calls itself forms a
function-cell cycle; left in place, it keeps the search's memo, budget
and packer alive until a collection, and makes every call pay for the
collections its garbage triggers.
"""

import gc
import random

import pytest

import kspend
from kspend import fuzz, ledger, trust
from golden_traces import honest_ring

from conftest import CORPUS_SEED


def _cases():
    model, _ = fuzz.random_vulnerable_model(random.Random(CORPUS_SEED + 1))
    scenario = fuzz.random_scenario(random.Random(CORPUS_SEED))
    histories = kspend.run(scenario, seed=3).histories
    assert len(histories) > 1
    attack = kspend.synthesize_multispend_attack(model, sig_scheme="hmac")
    ring = honest_ring(4, 8)
    return {
        "inconsistency_number": lambda: trust.inconsistency_number(model),
        "max_independent_set_witness": lambda: trust.max_independent_set_witness(model),
        "uniform inconsistency_number": lambda: trust.inconsistency_number(
            trust.uniform_model(7, 4, 1)),
        "minimum_cover": lambda: ledger.minimum_cover(histories),
        "fuzz run": lambda: kspend.run(scenario, seed=3),
        "attack run": lambda: kspend.run(attack),
        "ring run": lambda: kspend.run(ring),
    }


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_call_leaves_no_cyclic_garbage(name):
    call = CASES[name]
    call()  # a first call may fill caches; the second must free all it builds
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
