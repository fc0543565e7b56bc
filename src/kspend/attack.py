"""Multi-spend attack synthesis.

Given a trust model whose inconsistency number k is at least 2, build a
scenario in which one misbehaving source spends a single funding output k
ways and every copy lands in some correct history: the spending number of
the run meets the analytical bound exactly.

Construction sketch. Take a witness (F, S, C) for the bound: faulty set F,
one quorum per target, and targets C chosen so the quorums pairwise share
only faulty processes. A source r in F issues |C| mutually conflicting
transactions, sends the i-th request to the correct part of S(target_i),
and has every faulty member of that quorum echo the i-th transaction to
target_i alone. The scheduler isolates each target until its quorum
completes: within phase i nobody outside S(target_i) has echoed anything,
so target_i's own guard is still fresh, the quorum fills, and the i-th
copy is accepted. Cross-traffic drains afterwards, where the per-input
guard and the no-conflict history clause stop any further acceptance, so
the count lands on exactly |C|.
"""

from __future__ import annotations

from typing import Sequence

from . import engine as eng
from .errors import NotVulnerable
from .ledger import genesis_tx, make_tx
from .sim import DEFAULT_KEY_SEED, PlanRule, Scenario, ScriptedSend, SchedulerSpec
from .trust import TrustModel, max_independent_set_witness


def synthesize_multispend_attack(
    model: TrustModel,
    *,
    sig_scheme: str = "ed25519",
    key_seed: bytes = DEFAULT_KEY_SEED,
    messages: Sequence[bytes] | None = None,
) -> Scenario:
    """Build the scenario described above, or raise NotVulnerable.

    NotVulnerable cases: the bound is 1 (nothing to demonstrate), or the
    bound is only attained with an empty faulty set, which leaves no
    process that could issue conflicting spends.
    """
    witness = max_independent_set_witness(model)
    targets = sorted(witness.independent_set)
    k = len(targets)
    if k < 2:
        raise NotVulnerable(
            "inconsistency number is 1: correct histories can never split"
        )
    faulty = witness.faulty_set
    if not faulty:
        # witness search prefers larger faulty sets, so an empty one here
        # means no admissible faulty set attains the bound
        raise NotVulnerable(
            "the bound is only attained with no faulty processes, "
            "so no process can issue conflicting spends"
        )
    source = min(faulty)

    genesis = genesis_tx({source: 1})
    genesis_ref = genesis.ref

    spends = []
    for i, target in enumerate(targets):
        payload = None
        if messages is not None:
            payload = messages[i % len(messages)]
        spends.append(
            make_tx(source, {target: 1}, [genesis_ref], timestamp=1, message=payload)
        )

    scripts: list[ScriptedSend] = []
    plan: list[PlanRule] = []
    for target, tx in zip(targets, spends):
        quorum = witness.quorum_map[target]
        correct_part = frozenset(quorum - faulty)
        scripts.append(
            ScriptedSend(sender=source, kind=eng.REQ, tx=tx, recipients=correct_part)
        )
        for helper in sorted(quorum & faulty):
            scripts.append(
                ScriptedSend(
                    sender=helper, kind=eng.ECHO, tx=tx, recipients=frozenset({target})
                )
            )
        # the phase admits the request fan-out and any echo aimed at the target
        plan.append(PlanRule(tx_ref=tx.ref, recipients=correct_part | {target}))

    scenario = Scenario.build(
        model=model,
        faulty_set=faulty,
        genesis=genesis,
        honest_actions=(),
        scripts=scripts,
        scheduler=SchedulerSpec(kind="adversarial", plan=tuple(plan)),
        sig_scheme=sig_scheme,
        key_seed=key_seed,
        kcb_source=source,
        name=f"synthesized-multispend-k{k}",
    )
    # the witness's independent set is a largest one: k is the exact bound
    object.__setattr__(scenario, "k_bound", k)
    return scenario
