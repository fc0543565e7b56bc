"""The golden scenario set whose trace hashes are pinned in data/golden_trace_hashes.json.

Any change to these hashes is a change of behaviour: the simulator, the
engine or the schedulers now send or deliver something else, or in
another order. Regenerate the file only when that is the intent:

    PYTHONPATH=src python tests/golden_traces.py > tests/data/golden_trace_hashes.json
"""

import dataclasses
import json
import pathlib
import random
import sys

import kspend
from kspend import fuzz, kcb
from kspend.ledger import genesis_tx, make_tx, tx_ref
from kspend.sim import PlanRule, SchedulerSpec, ScriptedSend, load_scenario
from kspend.trust import TrustModel, load_builtin_model

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from conftest import CORPUS_SEED  # noqa: E402

HASHES_FILE = pathlib.Path(__file__).parent / "data" / "golden_trace_hashes.json"
FUZZ_RUNS = 50
ATTACK_RUNS = 10


def honest_ring(n: int, transfers: int) -> kspend.Scenario:
    """One coin passed p -> p+1 around a ring whose quorums are majority windows."""
    quorums = [[frozenset((p + i) % n for i in range(n // 2 + 1))] for p in range(n)]
    genesis = genesis_tx({0: 1})
    previous, actions = genesis, []
    for t in range(transfers):
        p = t % n
        tx = make_tx(p, {(p + 1) % n: 1}, [tx_ref(previous)], timestamp=t // n + 1)
        actions.append((p, tx))
        previous = tx
    return kspend.Scenario.build(
        model=TrustModel.build(n, quorums, []),
        faulty_set=(),
        genesis=genesis,
        honest_actions=actions,
        scheduler=SchedulerSpec("fifo"),
        sig_scheme="hmac",
        name=f"ring-n{n}-t{transfers}",
    )


def spend_nothing_probe() -> kspend.Scenario:
    """Faulty process 0 requests and echoes a transaction that spends nothing,
    and requests a real spend of the funding root from two processes."""
    genesis = genesis_tx({p: 1 for p in range(4)})
    empty = make_tx(0, {1: 1}, [], timestamp=1)
    spend = make_tx(0, {1: 1}, [tx_ref(genesis)], timestamp=1)
    return kspend.Scenario.build(
        model=TrustModel.build(4, [[range(4)]] * 4, [[0]]),
        faulty_set={0},
        genesis=genesis,
        scripts=[
            ScriptedSend(0, "REQ", empty, frozenset({1, 2, 3})),
            ScriptedSend(0, "ECHO", empty, frozenset({1, 2, 3})),
            ScriptedSend(0, "REQ", spend, frozenset({1, 2})),
        ],
        sig_scheme="hmac",
        name="spend-nothing",
    )


def golden_cases():
    """(name, scenario, run seed) for every pinned run, in a fixed order."""
    data = pathlib.Path(kspend.__file__).parent / "data"
    demo = load_scenario(str(data / "demo_scenario.json"))
    probe = load_scenario(str(data / "mutant_probe.json"))
    yield "demo_scenario", demo, None
    yield "mutant_probe", probe, None
    yield "mutant_probe/guard-off", dataclasses.replace(probe, disable_used_input_guard=True), None
    random_probe = dataclasses.replace(probe, scheduler=SchedulerSpec("random", seed=3))
    yield "mutant_probe/random", random_probe, None
    yield "example1-attack/adversarial", kspend.synthesize_multispend_attack(
        load_builtin_model("example1")
    ), None
    ring = honest_ring(8, 64)
    yield "ring-n8-t64/fifo", ring, None
    # under the random scheduler the order of the enabled actions shows
    random_ring = dataclasses.replace(ring, scheduler=SchedulerSpec("random"))
    for seed in range(4):
        yield f"ring-n8-t64/random-{seed}", random_ring, seed

    # the test suite's corpora (tests/conftest.py), drawn the same way
    rng = random.Random(CORPUS_SEED)
    for i in range(FUZZ_RUNS):
        yield f"fuzz-{i}", fuzz.random_scenario(rng), i
    rng = random.Random(CORPUS_SEED + 1)
    models = [fuzz.random_vulnerable_model(rng)[0] for _ in range(ATTACK_RUNS)]
    for i, model in enumerate(models):
        yield f"attack-{i}", kspend.synthesize_multispend_attack(model, sig_scheme="hmac"), None
    # the same models with Ed25519 signatures, attacked and broadcast on
    for i, model in enumerate(models):
        yield f"attack-{i}/ed25519", kspend.synthesize_multispend_attack(model), None
    for i, model in enumerate(models):
        yield f"kcb-byzantine-{i}", kcb.byzantine_broadcast_scenario(model), None
    spend_nothing = spend_nothing_probe()
    empty = spend_nothing.scripts[0].tx
    yield "spend-nothing/fifo", spend_nothing, None
    yield "spend-nothing/random", dataclasses.replace(
        spend_nothing, scheduler=SchedulerSpec("random", seed=3)
    ), None
    plan = (PlanRule(tx_ref(empty), frozenset({2})),)
    yield "spend-nothing/adversarial", dataclasses.replace(
        spend_nothing, scheduler=SchedulerSpec("adversarial", plan=plan)
    ), None


def golden_reports():
    """(name, report) of every pinned run, in golden_cases order."""
    for name, scenario, seed in golden_cases():
        yield name, kspend.run(scenario, seed=seed)


def golden_hashes(reports) -> dict[str, str]:
    return {name: report.trace_hash for name, report in reports}


if __name__ == "__main__":
    json.dump(golden_hashes(golden_reports()), sys.stdout, indent=1)
    sys.stdout.write("\n")
