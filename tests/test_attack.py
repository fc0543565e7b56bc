"""Synthesized multi-spend attack scenarios."""

import dataclasses
import functools

import pytest

from kspend import attack, engine as eng, trust
from kspend.attack import synthesize_multispend_attack
from kspend.errors import NotVulnerable, SizeLimitExceeded
from kspend.kcb import byzantine_broadcast_scenario
from kspend.ledger import conflicts, tx_ref
from kspend.sim import run, scenario_to_obj
from kspend.trust import TrustModel, inconsistency_number, uniform_model


def test_attack_scenario_shape(example1):
    scenario = synthesize_multispend_attack(example1, sig_scheme="hmac")
    assert scenario.name == "synthesized-multispend-k2"
    assert scenario.kcb_source == 2
    assert scenario.faulty_set == frozenset({2})
    assert scenario.honest_actions == ()
    assert scenario.scheduler.kind == "adversarial"
    # every scripted message comes from the single faulty source
    assert {s.sender for s in scenario.scripts} == {2}
    reqs = [s for s in scenario.scripts if s.kind == eng.REQ]
    assert len(reqs) == 2
    assert conflicts(reqs[0].tx, reqs[1].tx)
    assert {pid for s in reqs for pid, _amt in s.tx.outputs} == {0, 3}
    # one isolation phase per target
    assert len(scenario.scheduler.plan) == 2
    genesis_ref = tx_ref(scenario.genesis)
    assert all(s.tx.inputs == (genesis_ref,) for s in reqs)


def test_attack_run_meets_bound_exactly(example1):
    report = run(synthesize_multispend_attack(example1, sig_scheme="hmac"))
    assert report.quiescent
    assert report.k_bound == 2
    assert report.gamma_max == 2
    assert report.unexecuted_actions == ()
    assert all(v.status == "holds" for v in report.verdicts.values()), {
        n: v for n, v in report.verdicts.items() if v.status != "holds"
    }
    # the split is visible in the targets' histories
    spent_ways = {
        tx_ref(t)
        for p in report.histories
        for t in report.histories[p].values()
        if t.inputs
    }
    assert len(spent_ways) == 2


def test_attack_payload_cycling(example1):
    one = synthesize_multispend_attack(example1, messages=[b"x"])
    reqs = [s.tx for s in one.scripts if s.kind == eng.REQ]
    assert {t.message for t in reqs} == {b"x"}

    two = synthesize_multispend_attack(example1, messages=[b"x", b"y"])
    reqs = [s.tx for s in two.scripts if s.kind == eng.REQ]
    assert {t.message for t in reqs} == {b"x", b"y"}


def test_invulnerable_model_is_rejected():
    with pytest.raises(NotVulnerable, match="inconsistency number is 1"):
        synthesize_multispend_attack(uniform_model(4, 3, 1))


def test_bound_without_faulty_witness_is_rejected():
    # two processes that trust only themselves split without any faults,
    # leaving no misbehaving process to drive the attack
    model = TrustModel.build(2, [[{0}], [{1}]], [])
    with pytest.raises(NotVulnerable, match="no faulty processes"):
        synthesize_multispend_attack(model)


def test_attack_respects_search_budget(example1, monkeypatch):
    budgeted = functools.partial(trust.max_independent_set_witness, budget=1)
    monkeypatch.setattr(attack, "max_independent_set_witness", budgeted)
    with pytest.raises(SizeLimitExceeded):
        synthesize_multispend_attack(example1)


def test_synthesized_scenario_carries_its_bound(example1, attack_corpus, monkeypatch):
    """The witness's bound rides on the scenario into the run; a copy searches again."""
    searches = []
    real_search = trust._lambda_and_witness

    def counting(*args, **kwargs):
        searches.append(args[0])
        return real_search(*args, **kwargs)

    monkeypatch.setattr(trust, "_lambda_and_witness", counting)
    models = [example1] + [report.scenario.model for _k, report in attack_corpus]
    for model in models:
        bound = inconsistency_number(model)
        for synthesize in (synthesize_multispend_attack, byzantine_broadcast_scenario):
            searches.clear()
            scenario = synthesize(model, sig_scheme="hmac")
            assert scenario.k_bound == bound
            assert run(scenario).k_bound == bound
            assert searches == [model]  # the synthesis; the run reuses its bound
            copy = dataclasses.replace(scenario)
            assert copy.k_bound is None
            assert copy == scenario and hash(copy) == hash(scenario)
            assert scenario_to_obj(copy) == scenario_to_obj(scenario)
            searches.clear()
            assert run(copy).k_bound == bound
            assert searches == [model]
