"""Post-run property checker.

Each property is judged from the final states plus the trace of one run:
"holds" when the run satisfies it, "violated" with a detail when it does
not, and "vacuous" when the run gives no evidence either way (liveness
clauses on a run that hit the event cap, or the spend bound when the
inconsistency analysis itself ran out of budget).

Each property has one checker over a context computed once per report;
it returns the first violation it finds, or None when the property holds.
Histories (``{ref: tx}`` tables) are walked in reference order and
accusation stores in digest order: no detail depends on set iteration order.

The checker only consumes reports; it deliberately knows nothing about
scheduling so it can be replayed on tampered copies, with a fresh verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from .ledger import Transaction, conflicting_pairs, is_genesis, tx_ref, verify_acc
from .ledger import conflicts  # noqa: F401  (unused; perfbench/spans.py wraps properties.conflicts)
from .trust import is_live

if TYPE_CHECKING:  # pragma: no cover
    from .crypto import Verifier
    from .sim import RunReport

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str | None = None


_HOLDS = Verdict(HOLDS)
_CAPPED = Verdict(VACUOUS, "run hit the event cap before quiescing")


class _Context:
    """What several checkers need from one report, computed once."""

    def __init__(self, report: "RunReport", verifier: "Verifier"):
        scenario = report.scenario
        self.report = report
        self.verifier = verifier
        self.correct = sorted(report.histories)
        self.live = [p for p in self.correct if is_live(scenario.model, p, scenario.faulty_set)]
        actions = scenario.honest_actions
        self.executed = [actions[rec[1]] for rec in report.trace if rec[0] == "action"]
        self.accused = {
            p: {tx_ref(tx) for acc in report.accusations[p] for tx, _sig in acc.proof}
            for p in self.correct
        }

    def unsettled(self, ref: bytes, tx: Transaction, issuer_history: dict) -> int | None:
        """The first live process that neither holds tx nor accuses what it draws value from."""
        depends = None  # built only once some live process lacks tx
        for q in self.live:
            if ref not in self.report.histories[q]:
                depends = depends or _dependencies(ref, tx, issuer_history)
                if not depends & self.accused[q]:
                    return q
        return None


def _dependencies(ref: bytes, tx: Transaction, issuer_history: dict) -> set[bytes]:
    """The tx itself plus every transaction it transitively draws value from."""
    seen = {ref}
    stack = list(tx.inputs)
    while stack:
        ref = stack.pop()
        if ref in seen:
            continue
        seen.add(ref)
        parent = issuer_history.get(ref)
        if parent is not None:
            stack.extend(parent.inputs)
    return seen


def _validity(ctx: _Context) -> Verdict | None:
    """An executed transfer settles at every live correct process."""
    for pid, tx in ctx.executed:
        ref = tx_ref(tx)
        q = ctx.unsettled(ref, tx, ctx.report.histories[pid])
        if q is not None:
            return Verdict(
                VIOLATED,
                f"transfer {ref.hex()[:16]} by {pid} neither accepted "
                f"nor convicted at live process {q}",
            )
    return None


def _k_spending(ctx: _Context) -> Verdict | None:
    """No input is spent more distinct ways than the inconsistency number allows."""
    report = ctx.report
    if report.k_bound is None:
        return Verdict(VACUOUS, report.k_bound_note or "inconsistency bound unavailable")
    if report.gamma_max <= report.k_bound:
        return None
    detail = f"observed spending number {report.gamma_max} exceeds bound {report.k_bound}"
    return Verdict(VIOLATED, detail)


def _eventual_conviction(ctx: _Context) -> Verdict | None:
    """Every correct process holding one side of a conflicting pair has both accused."""
    holders: dict[Transaction, set[int]] = {}
    for p in ctx.correct:
        for tx in ctx.report.histories[p].values():
            holders.setdefault(tx, set()).add(p)
    for a, b in conflicting_pairs(holders):
        refs = {tx_ref(a), tx_ref(b)}
        for side in sorted(holders[a] | holders[b]):
            if not refs <= ctx.accused[side]:
                return Verdict(
                    VIOLATED,
                    f"conflict {tx_ref(a).hex()[:16]}/{tx_ref(b).hex()[:16]} unconvicted at {side}",
                )
    return None


def _accuracy(ctx: _Context) -> Verdict | None:
    """Every stored accusation verifies (each signature once) and names only faulty processes."""
    report, scenario = ctx.report, ctx.report.scenario
    for p in ctx.correct:
        for acc in sorted(report.accusations[p], key=attrgetter("digest")):
            if not verify_acc(acc, ctx.verifier):
                return Verdict(
                    VIOLATED, f"process {p} stores an accusation that fails verification"
                )
            if not acc.accused <= scenario.faulty_set:
                wrong = sorted(acc.accused - scenario.faulty_set)
                return Verdict(VIOLATED, f"process {p} accuses non-faulty processes {wrong}")
    return None


def _agreement(ctx: _Context) -> Verdict | None:
    """Correct processes converge on one accusation set. Accusations travel by
    rebroadcast, so every correct process is held to it, live or not."""
    stores = {p: ctx.report.accusations[p] for p in ctx.correct}
    if len({frozenset(s) for s in stores.values()}) <= 1:
        return None
    sizes = {p: len(s) for p, s in stores.items()}
    return Verdict(VIOLATED, f"live processes disagree on accusations: sizes {sizes}")


def _integrity(ctx: _Context) -> Verdict | None:
    """Transactions credited to a correct issuer were really issued."""
    issued = {tx_ref(tx) for _pid, tx in ctx.executed}
    faulty = ctx.report.scenario.faulty_set
    for q in ctx.correct:
        for ref, tx in sorted(ctx.report.histories[q].items()):
            if ref not in issued and not is_genesis(tx) and tx.issuer not in faulty:
                return Verdict(
                    VIOLATED,
                    f"history of {q} credits {tx.issuer} with unissued "
                    f"transaction {ref.hex()[:16]}",
                )
    return None


def _monotonicity(ctx: _Context) -> Verdict | None:
    """Accusation stores only grow, and end as what the trace accumulated.

    Of several re-added accusations, the last one in the trace is named.
    """
    seen: dict[int, set[str]] = {p: set() for p in ctx.correct}
    readded = None
    for rec in ctx.report.trace:
        if rec[0] == "action":
            actor, new_acc = rec[2], rec[5]
        elif rec[0] == "deliver":
            actor, new_acc = rec[4], rec[7]
        else:
            continue
        for digest in new_acc if actor in seen else ():
            if digest in seen[actor]:
                readded = Verdict(VIOLATED, f"process {actor} re-added accusation {digest[:16]}")
            seen[actor].add(digest)
    if readded is not None:
        return readded
    for p in ctx.correct:
        if {a.digest.hex() for a in ctx.report.accusations[p]} != seen[p]:
            return Verdict(VIOLATED, f"final accusation store of {p} diverges from its trace")
    return None


def _termination(ctx: _Context) -> Verdict | None:
    """Everything a correct process holds settles at every live one."""
    for p in ctx.correct:
        history = ctx.report.histories[p]
        for ref, tx in sorted(history.items()):
            q = None if is_genesis(tx) else ctx.unsettled(ref, tx, history)
            if q is not None:
                return Verdict(VIOLATED, f"transaction {ref.hex()[:16]} held by {p} "
                                         f"never settles at live process {q}")
    return None


# name -> (checker, whether it is a liveness clause, left vacuous by a capped run)
_CHECKERS = {
    "validity": (_validity, True),
    "k-spending": (_k_spending, False),
    "eventual-conviction": (_eventual_conviction, True),
    "accuracy": (_accuracy, False),
    "agreement": (_agreement, True),
    "integrity": (_integrity, False),
    "monotonicity": (_monotonicity, False),
    "termination": (_termination, True),
}
PROPERTY_NAMES = tuple(_CHECKERS)


def evaluate_properties(report: "RunReport", verifier: "Verifier") -> dict[str, Verdict]:
    """Judge every property on one report.

    ``verifier`` is the run's own: a signature it already passed in the run
    that made the report is not checked again.
    """
    ctx = _Context(report, verifier)
    verdicts = {}
    for name, (check, liveness) in _CHECKERS.items():
        verdicts[name] = _CAPPED if liveness and not report.quiescent else check(ctx) or _HOLDS
    return verdicts
