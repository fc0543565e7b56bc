"""Negative-path coverage for the property checker.

The checker judges reports, not live runtimes, so violations are staged by
running a clean scenario and then tampering with a deep copy of the report.
Each test asserts the verdict it targets; tampering often breaks several
properties at once, which is expected and left unasserted.
"""

import json

import pytest

from kspend.crypto import keychain, make_scheme
from kspend.ledger import Accusation, make_tx, tx_ref
from kspend.properties import (
    HOLDS,
    PROPERTY_NAMES,
    VACUOUS,
    VIOLATED,
    Verdict,
)
from kspend.sim import load_scenario, report_from_obj, report_to_obj, run
from kspend.trust import is_live

from helpers import judge
from oracles import brute_eventual_conviction
from pinned_verdicts import directed


@pytest.fixture(scope="module")
def demo_report(data_dir):
    return run(load_scenario(str(data_dir / "demo_scenario.json")))


@pytest.fixture(scope="module")
def probe_report(data_dir):
    return run(load_scenario(str(data_dir / "mutant_probe.json")))


def clone(report):
    return report_from_obj(json.loads(json.dumps(report_to_obj(report))))


def test_verdict_map_is_complete_and_ordered(demo_report):
    assert tuple(demo_report.verdicts) == PROPERTY_NAMES
    assert all(v.status == HOLDS for v in demo_report.verdicts.values())


def test_probe_baseline_holds_with_accusations(demo_report, probe_report):
    assert probe_report.quiescent
    assert probe_report.gamma_max == 1 and probe_report.k_bound == 1
    assert all(v.status == HOLDS for v in probe_report.verdicts.values())
    assert all(probe_report.accusations[p] for p in probe_report.accusations)


def test_missing_bound_makes_k_spending_vacuous(demo_report):
    r = clone(demo_report)
    r.k_bound = None
    r.k_bound_note = "search aborted"
    verdicts = judge(r)
    assert verdicts["k-spending"].status == VACUOUS
    assert "aborted" in verdicts["k-spending"].detail


def test_exceeding_bound_violates_k_spending(demo_report):
    r = clone(demo_report)
    r.gamma_max = r.k_bound + 1
    verdicts = judge(r)
    assert verdicts["k-spending"].status == VIOLATED
    assert str(r.k_bound) in verdicts["k-spending"].detail


def test_nonquiescent_runs_leave_liveness_open(demo_report):
    r = clone(demo_report)
    r.quiescent = False
    verdicts = judge(r)
    for name in ("validity", "termination", "agreement", "eventual-conviction"):
        assert verdicts[name].status == VACUOUS, name
    for name in ("accuracy", "integrity", "monotonicity", "k-spending"):
        assert verdicts[name].status == HOLDS, name


def test_dropping_an_accepted_transfer_violates_validity(demo_report):
    r = clone(demo_report)
    issuer, tx = r.scenario.honest_actions[0]
    victim = next(
        p for p in sorted(r.histories)
        if p != issuer and is_live(r.scenario.model, p, r.scenario.faulty_set)
    )
    pruned = {ref: t for ref, t in r.histories[victim].items() if ref != tx_ref(tx)}
    r.histories = {**r.histories, victim: pruned}
    assert judge(r)["validity"].status == VIOLATED


def test_unissued_transaction_violates_integrity(demo_report):
    r = clone(demo_report)
    genesis_ref = tx_ref(r.scenario.genesis)
    forged = make_tx(1, {0: 10}, [genesis_ref], timestamp=1)
    issued = {tx_ref(t) for _p, t in r.scenario.honest_actions}
    assert tx_ref(forged) not in issued
    target = max(r.histories)
    r.histories = {**r.histories, target: {**r.histories[target], tx_ref(forged): forged}}
    assert judge(r)["integrity"].status == VIOLATED


def plant_conflict(report, convicted_at=()):
    """Two conflicting spends by process 3, one in each of the first two histories.

    Only the processes in ``convicted_at`` hold an accusation naming both.
    """
    r = clone(report)
    genesis_ref = tx_ref(r.scenario.genesis)
    a = make_tx(3, {0: 10}, [genesis_ref], timestamp=1)
    b = make_tx(3, {1: 10}, [genesis_ref], timestamp=1)
    pids = sorted(r.histories)
    r.histories = dict(r.histories)
    r.histories[pids[0]] = {**r.histories[pids[0]], tx_ref(a): a}
    r.histories[pids[1]] = {**r.histories[pids[1]], tx_ref(b): b}
    acc = Accusation.build({3}, [(a, b"sig-a"), (b, b"sig-b")])
    r.accusations = {
        p: frozenset({acc}) if p in convicted_at else frozenset() for p in r.accusations
    }
    return r


def test_unconvicted_conflict_violates_eventual_conviction(demo_report):
    # a conflicting pair attributed to a process that issued nothing, with
    # all accusations stripped
    verdicts = judge(plant_conflict(demo_report))
    assert verdicts["eventual-conviction"].status == VIOLATED


def test_conviction_check_matches_brute_oracle(fuzz_corpus, attack_corpus, demo_report):
    pids = sorted(demo_report.histories)
    planted = [
        plant_conflict(demo_report),
        plant_conflict(demo_report, convicted_at={pids[0]}),
        plant_conflict(demo_report, convicted_at=set(pids[:2])),
    ]
    reports = list(fuzz_corpus) + [r for _k, r in attack_corpus] + planted
    statuses = []
    for r in reports:
        got = judge(r)["eventual-conviction"].status
        assert got == brute_eventual_conviction(r), r.scenario.name
        statuses.append(got)
    assert statuses[-3:] == [VIOLATED, VIOLATED, HOLDS]
    # the corpora hold convicted conflicts, so the grouped pairs are exercised
    assert any(r.gamma_max > 1 for _k, r in attack_corpus)


def test_accusing_a_correct_process_violates_accuracy(demo_report):
    r = clone(demo_report)
    scenario = r.scenario
    scheme = make_scheme(scenario.sig_scheme)
    keys, _ = keychain(scenario.model.n, scheme, scenario.key_seed)
    genesis_ref = tx_ref(scenario.genesis)
    a = make_tx(1, {0: 10}, [genesis_ref], timestamp=1)
    b = make_tx(1, {2: 10}, [genesis_ref], timestamp=1)
    acc = Accusation.build(
        {1},
        [(a, scheme.sign(keys[1], a.encoding)), (b, scheme.sign(keys[1], b.encoding))],
    )
    assert 1 not in scenario.faulty_set
    r.accusations = {p: s | {acc} for p, s in r.accusations.items()}
    assert judge(r)["accuracy"].status == VIOLATED


def test_unverifiable_accusation_violates_accuracy(demo_report):
    r = clone(demo_report)
    genesis_ref = tx_ref(r.scenario.genesis)
    a = make_tx(1, {0: 10}, [genesis_ref], timestamp=1)
    b = make_tx(1, {2: 10}, [genesis_ref], timestamp=1)
    fake = Accusation.build({1}, [(a, b"\x00" * 8), (b, b"\x00" * 8)])
    first = min(r.accusations)
    r.accusations = {**r.accusations, first: r.accusations[first] | {fake}}
    verdicts = judge(r)
    assert verdicts["accuracy"].status == VIOLATED
    assert verdicts["agreement"].status == VIOLATED  # stores now differ too


def test_replayed_accusation_violates_monotonicity(probe_report):
    r = clone(probe_report)
    seeded = next(
        rec for rec in r.trace
        if rec[0] == "deliver" and rec[7]
    )
    actor, digest = seeded[4], seeded[7][0]
    replay = ("deliver", 999, "ACC", 0, actor, "", (), (digest,))
    r.trace = r.trace + (replay,)
    assert judge(r)["monotonicity"].status == VIOLATED


def test_store_diverging_from_trace_violates_monotonicity(demo_report):
    r = clone(demo_report)
    genesis_ref = tx_ref(r.scenario.genesis)
    a = make_tx(2, {0: 10}, [genesis_ref], timestamp=1)
    b = make_tx(2, {1: 10}, [genesis_ref], timestamp=1)
    ghost = Accusation.build({2}, [(a, b"s1"), (b, b"s2")])
    r.accusations = {p: s | {ghost} for p, s in r.accusations.items()}
    assert judge(r)["monotonicity"].status == VIOLATED


def test_withheld_transaction_violates_termination(probe_report):
    r = clone(probe_report)
    accepted = next(
        p for p in sorted(r.histories) if len(r.histories[p]) > 1
    )
    spend = next(t for t in r.histories[accepted].values() if t.inputs)
    live_other = next(
        p for p in sorted(r.histories)
        if p != accepted
        and is_live(r.scenario.model, p, r.scenario.faulty_set)
        and tx_ref(spend) not in r.histories[p]
    )
    r.accusations = {**r.accusations, live_other: frozenset()}
    assert judge(r)["termination"].status == VIOLATED


# With two candidates for one detail, the detail names the first in
# reference (transactions) or digest (accusations) order, never the first
# in set iteration order: tests/test_pinned_verdicts.py pins both tamperings
# below under PYTHONHASHSEED 0 and 1.


def test_two_unsettled_unissued_transactions_name_the_lower_reference(demo_report):
    r = dict(directed(demo_report))["two-unsettled-unissued"]
    first = min(r.histories)
    planted = sorted(set(r.histories[first]) - set(demo_report.histories[first]))
    assert len(planted) == 2
    verdicts = judge(r)
    lower = planted[0].hex()[:16]
    assert verdicts["integrity"] == Verdict(
        VIOLATED, f"history of {first} credits 1 with unissued transaction {lower}"
    )
    assert verdicts["termination"].status == VIOLATED
    assert verdicts["termination"].detail.startswith(f"transaction {lower} held by {first} ")


def test_unverifiable_and_wrong_accusations_name_the_lower_digest(demo_report):
    r = dict(directed(demo_report))["unverifiable-and-wrong-accusation"]
    first = min(r.accusations)
    planted = sorted(r.accusations[first] - demo_report.accusations[first], key=lambda a: a.digest)
    assert len(planted) == 2
    fake = next(a for a in planted if a.proof[0][1] == b"\x00" * 8)
    expected = (
        f"process {first} stores an accusation that fails verification"
        if planted[0] is fake
        else f"process {first} accuses non-faulty processes [1]"
    )
    assert judge(r)["accuracy"] == Verdict(VIOLATED, expected)

