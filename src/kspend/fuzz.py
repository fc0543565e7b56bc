"""Randomized generators for models and adversarial scenarios.

Everything is driven by a caller-supplied random.Random so corpora are
reproducible from a single seed. Scenario generation uses the HMAC signing
scheme: corpus runs are about exercising protocol logic, not public-key
arithmetic, and the swap keeps thousand-scenario sweeps fast.
"""

from __future__ import annotations

import random

from . import engine as eng
from .ledger import Transaction, genesis_tx, make_tx, tx_ref
from .sim import Scenario, SchedulerSpec, ScriptedSend, PlanRule
from .trust import (
    TrustModel,
    max_independent_set_witness,
    uniform_inconsistency,
    uniform_model,
)

# all uniform parameterizations at desk scale whose closed-form bound is >= 2
# and that admit at least one fault, i.e. the attackable uniform family
_VULNERABLE_UNIFORM = tuple(
    (n, q, f)
    for n in range(3, 8)
    for q in range(2, n + 1)
    for f in range(1, q)
    if (n - f) // (q - f) >= 2
)
_VULNERABLE_TRIES = 200
_GRANT = 10  # what the funding root pays each process of a random scenario


def random_model(rng: random.Random, n: int | None = None) -> TrustModel:
    """An arbitrary small model with self-inclusive quorums."""
    n = n if n is not None else rng.randint(3, 6)
    systems = []
    for pid in range(n):
        count = rng.randint(1, 3)
        quorums = set()
        while len(quorums) < count:
            size = rng.randint(1, n)
            others = [p for p in range(n) if p != pid]
            quorums.add(frozenset(rng.sample(others, size - 1)) | {pid})
        systems.append(sorted(quorums, key=sorted))
    max_faults = rng.randint(0, 2)
    fault_model = []
    for _ in range(max_faults):
        size = rng.randint(1, max(1, n // 2))
        fault_model.append(rng.sample(range(n), size))
    return TrustModel.build(n, systems, fault_model)


def _hub_and_blocks_model(rng: random.Random) -> TrustModel:
    """Blocks that only meet through one designated hub the model lets fail."""
    n = rng.randint(4, 7)
    hub = rng.randrange(n)
    rest = [p for p in range(n) if p != hub]
    rng.shuffle(rest)
    block_count = rng.randint(2, min(3, len(rest)))
    blocks = [rest[i::block_count] for i in range(block_count)]
    systems: list[list[frozenset[int]]] = [[] for _ in range(n)]
    for block in blocks:
        quorum = frozenset(block) | {hub}
        for p in block:
            systems[p].append(quorum)
    systems[hub].append(frozenset({hub}) | frozenset(rng.sample(rest, rng.randint(0, 1))))
    return TrustModel.build(n, systems, [[hub]])


def random_vulnerable_model(rng: random.Random) -> tuple[TrustModel, int]:
    """A model whose bound is at least 2 and attainable with real faults.

    Returns the model together with its inconsistency number.
    """
    for _ in range(_VULNERABLE_TRIES):
        style = rng.random()
        if style < 0.4:
            n, q, f = rng.choice(_VULNERABLE_UNIFORM)
            model = uniform_model(n, q, f)
            expected = uniform_inconsistency(n, q, f)
        elif style < 0.8:
            model = _hub_and_blocks_model(rng)
            expected = None
        else:
            model = random_model(rng)
            expected = None
        witness = max_independent_set_witness(model)
        k = len(witness.independent_set)
        if k >= 2 and witness.faulty_set:
            if expected is not None and k != expected:
                raise AssertionError(
                    f"uniform bound mismatch: formula {expected}, search {k}"
                )
            return model, k
    raise RuntimeError(f"no vulnerable model found in {_VULNERABLE_TRIES} tries")


def _split_grant(rng: random.Random, issuer: int, n: int) -> dict[int, int]:
    target = rng.randrange(n)
    keep = rng.randint(0, _GRANT - 1)
    outputs = {target: _GRANT - keep}
    if keep:
        outputs[issuer] = outputs.get(issuer, 0) + keep
    return outputs


def random_scenario(rng: random.Random, *, model: TrustModel | None = None) -> Scenario:
    """Honest transfers plus equivocating-send scripts under a random schedule."""
    model = model if model is not None else random_model(rng)
    n = model.n
    maximal = model.fault_model[rng.randrange(len(model.fault_model))]
    faulty = frozenset(p for p in maximal if rng.random() < 0.8)
    if len(faulty) == n:
        faulty = faulty - {max(faulty)}
    correct = [p for p in range(n) if p not in faulty]
    genesis = genesis_tx({p: _GRANT for p in range(n)})
    genesis_ref = tx_ref(genesis)

    actions: list[tuple[int, Transaction]] = []
    for issuer in rng.sample(correct, min(len(correct), rng.randint(0, 3))):
        outputs = _split_grant(rng, issuer, n)
        first = make_tx(issuer, outputs, [genesis_ref], timestamp=1)
        actions.append((issuer, first))
        change = dict(first.outputs).get(issuer, 0)
        if change and rng.random() < 0.5:
            follow = make_tx(
                issuer,
                {rng.randrange(n): change},
                [tx_ref(first)],
                timestamp=2,
            )
            actions.append((issuer, follow))

    scripts: list[ScriptedSend] = []
    equivocations: list[Transaction] = []
    for bad in sorted(faulty):
        if rng.random() > 0.7:
            continue
        spends: set[Transaction] = set()
        want = rng.randint(2, 3)
        for _ in range(12):
            if len(spends) == want:
                break
            outputs = _split_grant(rng, bad, n)
            message = rng.randbytes(4) if rng.random() < 0.3 else None
            spends.add(make_tx(bad, outputs, [genesis_ref], timestamp=1, message=message))
        for tx in sorted(spends, key=tx_ref):
            equivocations.append(tx)
            audience = frozenset(p for p in correct if rng.random() < 0.5)
            if not audience:
                audience = frozenset({rng.choice(correct)})
            if rng.random() < 0.2:
                audience = frozenset(correct)
            scripts.append(ScriptedSend(bad, eng.REQ, tx, audience))
            helpers = [h for h in faulty if h != bad]
            if helpers and rng.random() < 0.4:
                helper = rng.choice(helpers)
                echo_to = frozenset(p for p in correct if rng.random() < 0.4)
                if echo_to:
                    scripts.append(ScriptedSend(helper, eng.ECHO, tx, echo_to))

    roll = rng.random()
    if roll < 0.7 or not equivocations:
        scheduler = SchedulerSpec("random", seed=rng.getrandbits(32))
    elif roll < 0.9:
        scheduler = SchedulerSpec("fifo")
    else:
        plan = tuple(
            PlanRule(
                tx_ref(tx),
                frozenset(p for p in correct if rng.random() < 0.5) or frozenset(correct),
            )
            for tx in equivocations
            if rng.random() < 0.8
        )
        scheduler = SchedulerSpec("adversarial", plan=plan)

    return Scenario.build(
        model=model,
        faulty_set=faulty,
        genesis=genesis,
        honest_actions=tuple(actions),
        scripts=tuple(scripts),
        scheduler=scheduler,
        max_events=20_000,
        sig_scheme="hmac",
        name=f"fuzz-n{n}",
    )
