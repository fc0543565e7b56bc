"""Broadcast adapter: delivery, the value cap, and its failure modes."""

import pytest

from kspend.errors import NotVulnerable
from kspend.kcb import (
    DEFAULT_VALUE,
    byzantine_broadcast_scenario,
    correct_broadcast_scenario,
    delivered_values,
)
from kspend.formats import load_scenario
from kspend.sim import run
from kspend.trust import TrustModel, fault_closure, uniform_model

from helpers import undelivered_live
from oracles import brute_delivered


def test_correct_source_reaches_everyone(example1):
    scenario = correct_broadcast_scenario(example1, 0, sig_scheme="hmac")
    assert scenario.name == "kcb-correct-source-0"
    report = run(scenario)
    assert report.quiescent
    assert report.delivered == {p: DEFAULT_VALUE for p in range(4)}
    assert delivered_values(report) == frozenset({DEFAULT_VALUE})
    assert undelivered_live(report) == ()


def test_correct_source_reaches_every_live_process(example1):
    # process 0's only quorum contains the faulty process, so it is the one
    # correct process allowed to miss the broadcast
    scenario = correct_broadcast_scenario(
        example1, 1, b"hello", faulty_set=frozenset({2}), sig_scheme="hmac"
    )
    report = run(scenario)
    assert report.quiescent
    assert report.delivered == {1: b"hello", 3: b"hello"}
    assert delivered_values(report) == frozenset({b"hello"})
    assert undelivered_live(report) == ()
    assert all(v.status == "holds" for v in report.verdicts.values())


def test_correct_source_validation(example1):
    with pytest.raises(ValueError, match="out of range"):
        correct_broadcast_scenario(example1, 9)
    with pytest.raises(ValueError, match="non-faulty source"):
        correct_broadcast_scenario(example1, 2, faulty_set=frozenset({2}))


def test_byzantine_source_splits_vulnerable_model(example1):
    scenario = byzantine_broadcast_scenario(example1, sig_scheme="hmac")
    assert scenario.name == "synthesized-multispend-k2"
    report = run(scenario)
    assert report.quiescent
    vals = delivered_values(report)
    assert len(vals) == 2
    assert vals <= {b"value-0", b"value-1", b"value-2", b"value-3"}


def test_byzantine_source_with_chosen_values(example1):
    scenario = byzantine_broadcast_scenario(
        example1, values=(b"A", b"B"), sig_scheme="hmac"
    )
    report = run(scenario)
    assert delivered_values(report) == frozenset({b"A", b"B"})


def test_byzantine_fallback_capped_at_one_value():
    model = uniform_model(4, 3, 1)
    scenario = byzantine_broadcast_scenario(model, values=(b"A", b"B"))
    assert scenario.name == "kcb-equivocation-split"
    assert scenario.faulty_set == frozenset({0})
    report = run(scenario)
    assert report.quiescent
    assert len(delivered_values(report)) <= 1
    assert report.verdicts["k-spending"].status == "holds"
    assert report.verdicts["accuracy"].status == "holds"
    # contrast: a well-behaved source gets its one value everywhere it can
    honest = run(correct_broadcast_scenario(model, 1, b"A"))
    assert delivered_values(honest) == frozenset({b"A"})
    assert undelivered_live(honest) == ()


def test_byzantine_rejects_faultless_model():
    model = TrustModel.build(2, [[{0, 1}], [{0, 1}]], [])
    with pytest.raises(NotVulnerable, match="no faulty process at all"):
        byzantine_broadcast_scenario(model)


def test_plain_runs_report_no_deliveries(data_dir):
    report = run(load_scenario(str(data_dir / "demo_scenario.json")))
    assert report.delivered is None
    assert delivered_values(report) == frozenset()


def test_deliveries_match_the_history_scan(golden_reports, attack_corpus, example1):
    reports = [report for _name, report in golden_reports]
    reports += [report for _k, report in attack_corpus]
    reports += [
        run(correct_broadcast_scenario(example1, source, faulty_set=faulty, sig_scheme="hmac"))
        for source in example1.processes()
        for faulty in fault_closure(example1)
        if source not in faulty
    ]
    broadcasts = [report for report in reports if report.delivered is not None]
    assert len(broadcasts) > len(attack_corpus)
    assert any(len(delivered_values(report)) > 1 for report in broadcasts)
    for report in reports:
        assert report.delivered == brute_delivered(report), report.scenario.name
