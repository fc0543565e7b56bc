"""The benchmark's workloads: inputs made from a seed, the ops, and their checks.

An op is one program call timed from outside: one ``sim.run`` (with the
scenario construction it needs on attack-kcb), or one exact
``trust.inconsistency_number`` on analyze. Each op's output is checked
here, outside the timed call, and reduced to a token that feeds the
workload's ``outputs_digest``. Program entry points are looked up on their
modules at call time so the tracer's wrappers see every call.

Why each workload exists, and which layers it loads or bypasses, is in
WORKLOADS.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from kspend import attack, fuzz, kcb, sim, trust
from kspend.errors import SizeLimitExceeded
from kspend.ledger import genesis_tx, make_tx, tx_ref

CORPUS_SEED = 20240817  # tests/conftest.py uses the same default


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass(frozen=True)
class Outcome:
    token: str  # what the op produced, for the digest
    events: int = 0  # simulated events, or faulty sets covered on analyze
    failure: str | None = None  # why the output is wrong
    budget: bool = False  # the exact search ran out of budget and said so correctly


@dataclass(frozen=True)
class Size:
    corpus_runs: int
    corpus_attacks: int
    ring_n: int
    ring_transfers: int
    ladder: tuple[tuple[int, int, int], ...]
    asymmetric: int
    attack_models: int


FULL = Size(
    corpus_runs=1000,
    corpus_attacks=50,
    ring_n=16,
    ring_transfers=128,
    ladder=((9, 5, 2), (9, 6, 2), (10, 6, 3), (10, 7, 3), (11, 7, 3), (11, 8, 4), (12, 8, 4)),
    asymmetric=360,
    attack_models=100,
)

# the self-check's size: every op kind and layer, in well under a second each
TINY = Size(
    corpus_runs=40,
    corpus_attacks=3,
    ring_n=6,
    ring_transfers=12,
    ladder=((9, 5, 2), (9, 6, 2)),
    asymmetric=4,
    attack_models=4,
)


# --- checks -----------------------------------------------------------------


def _report_problem(report) -> str | None:
    """The checks every simulated run must pass, or the first that fails."""
    if not report.quiescent:
        return f"hit the event cap after {report.events} events"
    bad = sorted(name for name, v in report.verdicts.items() if v.status == "violated")
    if bad:
        return f"violated {','.join(bad)}"
    if report.k_bound is None:
        return f"no bound: {report.k_bound_note}"
    if max(report.gamma_series, default=0) > report.k_bound:
        return f"spending number {max(report.gamma_series)} above bound {report.k_bound}"
    return None


def _run_check(expect: Callable[[object], str | None] | None = None):
    def check(report) -> Outcome:
        if isinstance(report, BaseException):
            return Outcome("error", failure=f"raised {type(report).__name__}: {report}")
        problem = _report_problem(report) or (expect(report) if expect else None)
        return Outcome(report.trace_hash, report.events, failure=problem)

    return check


def _gamma_equals(k: int):
    def expect(report) -> str | None:
        if report.gamma_max != k:
            return f"attack reached {report.gamma_max}, bound is {k}"
        return None

    return expect


def _delivers(k: int):
    def expect(report) -> str | None:
        got = len(kcb.delivered_values(report))
        if got != k:
            return f"broadcast delivered {got} distinct values, bound is {k}"
        return None

    return expect


def _analysis_check(expected: int | None, n: int, faulty_sets: int):
    """Exact values must match the closed form where there is one."""

    def check(value) -> Outcome:
        if isinstance(value, SizeLimitExceeded):
            partial = value.partial_maximum
            ceiling = expected if expected is not None else n
            if partial is None or not 1 <= partial <= ceiling:
                return Outcome("error", failure=f"budget exceeded with partial maximum {partial}")
            return Outcome(f"budget:{partial}", budget=True)
        if isinstance(value, BaseException):
            return Outcome("error", failure=f"raised {type(value).__name__}: {value}")
        if not isinstance(value, int) or not 1 <= value <= n:
            return Outcome("error", failure=f"value {value!r} outside 1..{n}")
        if expected is not None and value != expected:
            return Outcome(str(value), failure=f"value {value}, closed form {expected}")
        return Outcome(str(value), faulty_sets)

    return check


# --- workloads --------------------------------------------------------------


def corpus(seed: int, size: Size) -> list[Op]:
    """The acceptance corpus: fuzz scenarios plus synthesized attacks (HMAC).

    The scenarios are the test suite's; the seed picks the random-scheduler
    seeds, and seed 0 replays the suite's own runs.
    """
    rng = random.Random(CORPUS_SEED)
    ops = []
    for i in range(size.corpus_runs):
        scenario = fuzz.random_scenario(rng)
        run_seed = seed * size.corpus_runs + i
        ops.append(Op(f"fuzz-{i}", lambda s=scenario, r=run_seed: sim.run(s, seed=r),
                      _run_check()))
    rng = random.Random(CORPUS_SEED + 1)
    for i in range(size.corpus_attacks):
        model, k = fuzz.random_vulnerable_model(rng)
        scenario = attack.synthesize_multispend_attack(model, sig_scheme="hmac")
        ops.append(Op(f"attack-{i}", lambda s=scenario: sim.run(s), _run_check(_gamma_equals(k))))
    return ops


def ring_scenario(n: int, transfers: int, seed: int) -> sim.Scenario:
    """One coin passed p -> p+1 around an honest ring of majority windows."""
    window = [[frozenset((p + i) % n for i in range(n // 2 + 1))] for p in range(n)]
    model = trust.TrustModel.build(n, window, [])
    start = seed % n
    genesis = genesis_tx({start: 1})
    previous, actions = genesis, []
    for t in range(transfers):
        p = (start + t) % n
        # one transfer per lap per process; timestamps count laps
        tx = make_tx(p, {(p + 1) % n: 1}, [tx_ref(previous)], timestamp=t // n + 1)
        actions.append((p, tx))
        previous = tx
    return sim.Scenario.build(
        model=model,
        faulty_set=(),
        genesis=genesis,
        honest_actions=actions,
        scheduler=sim.SchedulerSpec("fifo"),
        sig_scheme="hmac",
        key_seed=f"ring-{seed}".encode(),
        name=f"ring-n{n}-t{transfers}",
    )


def ring(seed: int, size: Size) -> list[Op]:
    scenario = ring_scenario(size.ring_n, size.ring_transfers, seed)

    def expect(report) -> str | None:
        if report.unexecuted_actions:
            return f"{len(report.unexecuted_actions)} transfers never executed"
        if report.gamma_max != 1 or report.k_bound != 1:
            return f"spending {report.gamma_max} / bound {report.k_bound} on an honest ring"
        short = [p for p, h in report.histories.items() if len(h) != size.ring_transfers + 1]
        if short:
            return f"processes {short} miss transfers"
        return None

    return [Op("ring", lambda: sim.run(scenario), _run_check(expect))]


def analyze(seed: int, size: Size) -> list[Op]:
    """The uniform ladder against the closed form, then asymmetric models.

    The models are one fixed draw, and the seed rotates the order of the
    ops. A per-seed draw, a per-seed renumbering of processes and a shuffled
    order each moved the cost of the asymmetric searches from seed to seed.
    """
    ops = []
    for n, q, f in size.ladder:
        model = trust.uniform_model(n, q, f)
        check = _analysis_check(trust.uniform_inconsistency(n, q, f), n,
                                len(trust.fault_closure(model)))
        ops.append(Op(f"uniform-{n}-{q}-{f}",
                      lambda m=model: trust.inconsistency_number(m), check))
    rng = random.Random(CORPUS_SEED)
    for i in range(size.asymmetric):
        model = fuzz.random_model(rng, n=rng.randint(14, 16))
        check = _analysis_check(None, model.n, len(trust.fault_closure(model)))
        ops.append(Op(f"asymmetric-{i}", lambda m=model: trust.inconsistency_number(m), check))
    shift = seed % len(ops)
    return ops[shift:] + ops[:shift]


def attack_kcb(seed: int, size: Size) -> list[Op]:
    """Per vulnerable model: the tight attack, then the broadcast, with Ed25519.

    The models are the test suite's attack-corpus draw; the seed picks the
    signing keys.
    """
    rng = random.Random(CORPUS_SEED + 1)
    key_seed = f"kspend/{seed}".encode()
    ops = []
    for i in range(size.attack_models):
        model, k = fuzz.random_vulnerable_model(rng)
        ops.append(Op(
            f"attack-{i}",
            lambda m=model: sim.run(attack.synthesize_multispend_attack(m, key_seed=key_seed)),
            _run_check(_gamma_equals(k)),
        ))
        ops.append(Op(
            f"kcb-{i}",
            lambda m=model: sim.run(kcb.byzantine_broadcast_scenario(m, key_seed=key_seed)),
            _run_check(_delivers(k)),
        ))
    return ops


WORKLOADS: dict[str, Callable[[int, Size], list[Op]]] = {
    "corpus": corpus,
    "ring": ring,
    "analyze": analyze,
    "attack-kcb": attack_kcb,
}
