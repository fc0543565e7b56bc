"""Consistent broadcast on top of the transfer protocol.

A broadcast is a spend of a dedicated funding output with the payload
attached; a process delivers the payload of the first source-spend it
accepts. The history no-conflict clause keeps that to one value per
process, and the inconsistency number of the trust model caps how many
distinct values the correct processes can deliver between them.
"""

from __future__ import annotations

from typing import Sequence

from . import engine as eng
from .attack import synthesize_multispend_attack
from .errors import NotVulnerable
from .ledger import genesis_tx, make_tx, tx_ref
from .sim import DEFAULT_KEY_SEED, RunReport, Scenario, ScriptedSend, SchedulerSpec
from .trust import TrustModel

DEFAULT_VALUE = b"broadcast-value"


def correct_broadcast_scenario(
    model: TrustModel,
    source: int,
    value: bytes = DEFAULT_VALUE,
    *,
    faulty_set: frozenset[int] = frozenset(),
    sig_scheme: str = "ed25519",
    key_seed: bytes = DEFAULT_KEY_SEED,
) -> Scenario:
    """A well-behaved source broadcasts one value to everyone."""
    if not 0 <= source < model.n:
        raise ValueError(f"source {source} out of range")
    if source in faulty_set:
        raise ValueError("a correct-source broadcast needs a non-faulty source")
    genesis = genesis_tx({source: 1})
    tx = make_tx(source, {source: 1}, [tx_ref(genesis)], timestamp=1, message=value)
    return Scenario.build(
        model=model,
        faulty_set=faulty_set,
        genesis=genesis,
        honest_actions=((source, tx),),
        scripts=(),
        scheduler=SchedulerSpec("fifo"),
        sig_scheme=sig_scheme,
        key_seed=key_seed,
        kcb_source=source,
        name=f"kcb-correct-source-{source}",
    )


def _fallback_equivocation(
    model: TrustModel,
    values: Sequence[bytes],
    sig_scheme: str,
    key_seed: bytes,
) -> Scenario:
    """Naive two-value split for models whose bound admits no real attack.

    The source requests value A from one half of the correct processes and
    value B from the other half; with an inconsistency number of 1, at most
    one of the equivocating spends can ever be accepted anywhere.
    """
    candidates = sorted(set().union(*model.fault_model))
    if not candidates:
        raise NotVulnerable("the fault model admits no faulty process at all")
    source = candidates[0]
    correct = [p for p in range(model.n) if p != source]
    if not correct:
        raise NotVulnerable("no correct process left to deliver anything")

    genesis = genesis_tx({source: 1})
    ref = tx_ref(genesis)
    value_a = values[0] if len(values) > 0 else b"value-0"
    value_b = values[1] if len(values) > 1 else b"value-1"
    half = max(1, len(correct) // 2)
    first, second = correct[:half], correct[half:] or correct[:1]
    tx_a = make_tx(source, {first[0]: 1}, [ref], timestamp=1, message=value_a)
    tx_b = make_tx(source, {second[0]: 1}, [ref], timestamp=1, message=value_b)
    scripts = (
        ScriptedSend(source, eng.REQ, tx_a, frozenset(first)),
        ScriptedSend(source, eng.REQ, tx_b, frozenset(second)),
    )
    return Scenario.build(
        model=model,
        faulty_set=frozenset({source}),
        genesis=genesis,
        honest_actions=(),
        scripts=scripts,
        scheduler=SchedulerSpec("fifo"),
        sig_scheme=sig_scheme,
        key_seed=key_seed,
        kcb_source=source,
        name="kcb-equivocation-split",
    )


def byzantine_broadcast_scenario(
    model: TrustModel,
    values: Sequence[bytes] = (),
    *,
    sig_scheme: str = "ed25519",
    key_seed: bytes = DEFAULT_KEY_SEED,
) -> Scenario:
    """A misbehaving source tries to deliver as many distinct values as it can.

    Uses the synthesized multi-spend attack where the model is vulnerable;
    where it is not (bound 1), falls back to a naive equivocation so the run
    still demonstrates the cap empirically.
    """
    # an independent set never exceeds n members, so n default payloads
    # guarantee every synthesized spend carries its own distinguishable value
    payloads = tuple(values) or tuple(f"value-{i}".encode() for i in range(model.n))
    try:
        return synthesize_multispend_attack(
            model,
            sig_scheme=sig_scheme,
            key_seed=key_seed,
            messages=payloads,
        )
    except NotVulnerable:
        return _fallback_equivocation(model, tuple(values), sig_scheme, key_seed)


def delivered_values(report: RunReport) -> frozenset[bytes]:
    """Distinct payloads delivered by correct processes in a broadcast run."""
    if report.delivered is None:
        return frozenset()
    return frozenset(m for m in report.delivered.values() if m is not None)
