"""Sanity checks on the randomized generators themselves."""

import random

from kspend.fuzz import (
    random_model,
    random_scenario,
    random_vulnerable_model,
)
from kspend.ledger import is_genesis, well_formed_report
from kspend.trust import allows_faulty, max_independent_set_witness

from helpers import random_well_formed_history


def test_random_models_are_valid():
    rng = random.Random(11)
    for _ in range(30):
        model = random_model(rng)
        assert 3 <= model.n <= 6
        for pid, system in enumerate(model.quorums):
            assert system, f"process {pid} has no quorums"
            for quorum in system:
                assert pid in quorum
                assert quorum <= frozenset(range(model.n))
        assert model.fault_model  # at least the empty faulty set
    assert random_model(rng, n=4).n == 4


def test_vulnerable_models_have_usable_witnesses():
    rng = random.Random(23)
    for _ in range(10):
        model, k = random_vulnerable_model(rng)
        assert k >= 2
        witness = max_independent_set_witness(model)
        assert len(witness.independent_set) == k
        assert witness.faulty_set
        assert allows_faulty(model, witness.faulty_set)


def test_generated_histories_satisfy_every_clause():
    rng = random.Random(37)
    for _ in range(50):
        history = random_well_formed_history(rng)
        report = well_formed_report(history, check_timestamps=True)
        assert report.ok and report.failures == ()
        roots = [t for t in history.values() if is_genesis(t)]
        assert len(roots) == 1


def test_random_scenarios_are_buildable_and_consistent():
    rng = random.Random(53)
    for _ in range(40):
        scenario = random_scenario(rng)
        n = scenario.model.n
        assert scenario.name == f"fuzz-n{n}"
        assert scenario.sig_scheme == "hmac"
        # declared faults stay admissible and leave somebody correct
        assert allows_faulty(scenario.model, scenario.faulty_set)
        assert len(scenario.faulty_set) < n
        correct = set(range(n)) - scenario.faulty_set
        for pid, _tx in scenario.honest_actions:
            assert pid in correct
        for script in scenario.scripts:
            assert script.sender in scenario.faulty_set
            assert script.recipients
