"""Post-run property checker.

Each property is judged from the final states plus the trace of one run:
"holds" when the run satisfies it, "violated" with a detail when it does
not, and "vacuous" when the run gives no evidence either way (liveness
clauses on a run that hit the event cap, or the spend bound when the
inconsistency analysis itself ran out of budget).

The checker only consumes reports; it deliberately knows nothing about
scheduling so it can be replayed on deserialized reports as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

from .crypto import keychain, make_scheme
from .ledger import Accusation, History, Transaction, is_genesis, tx_ref, verify_acc
from .ledger import conflicts  # noqa: F401  (unused; perfbench/spans.py wraps properties.conflicts)
from .trust import is_live

if TYPE_CHECKING:  # pragma: no cover
    from .sim import RunReport

PROPERTY_NAMES = (
    "validity",
    "k-spending",
    "eventual-conviction",
    "accuracy",
    "agreement",
    "integrity",
    "monotonicity",
    "termination",
)

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str | None = None


def _accused_refs(accusations: Iterable[Accusation]) -> set[bytes]:
    refs: set[bytes] = set()
    for acc in accusations:
        for tx, _sig in acc.proof:
            refs.add(tx_ref(tx))
    return refs


def _dependencies(tx: Transaction, issuer_history: History) -> set[bytes]:
    """The tx itself plus every transaction it transitively draws value from."""
    seen = {tx_ref(tx)}
    stack = list(tx.inputs)
    while stack:
        ref = stack.pop()
        if ref in seen:
            continue
        seen.add(ref)
        parent = issuer_history.by_ref.get(ref)
        if parent is not None:
            stack.extend(parent.inputs)
    return seen


def _executed_actions(report: "RunReport") -> list[tuple[int, Transaction]]:
    out = []
    for rec in report.trace:
        if rec[0] == "action":
            idx = rec[1]
            out.append(report.scenario.honest_actions[idx])
    return out


def _settles(tx: Transaction, issuer_history: History, history: History,
             accused: set[bytes]) -> bool:
    if tx in history.txs:
        return True
    return bool(_dependencies(tx, issuer_history) & accused)


def _eventual_conviction(report: "RunReport", correct: list[int],
                         accused: dict[int, set[bytes]]) -> Verdict:
    """Every correct process holding one side of a conflicting pair has both accused.

    Conflicting pairs are found by grouping the pooled transactions by the
    (issuer, input) they spend; only pairs within one group are visited.
    """
    holders: dict[Transaction, set[int]] = {}
    for p in correct:
        for tx in report.histories[p].txs:
            holders.setdefault(tx, set()).add(p)
    spends: dict[tuple[int, bytes], list[Transaction]] = {}
    for tx in holders:
        for ref in tx.inputs:
            spends.setdefault((tx.issuer, ref), []).append(tx)
    pairs = {
        tuple(sorted((tx_ref(a), tx_ref(b)))): (a, b)
        for group in spends.values()
        for a, b in combinations(group, 2)
    }
    for refs in sorted(pairs):
        a, b = pairs[refs]
        for side in sorted(holders[a] | holders[b]):
            if not set(refs) <= accused[side]:
                return Verdict(
                    VIOLATED,
                    f"conflict {refs[0].hex()[:16]}/{refs[1].hex()[:16]} unconvicted at {side}",
                )
    return Verdict(HOLDS)


def evaluate_properties(report: "RunReport") -> dict[str, Verdict]:
    scenario = report.scenario
    model = scenario.model
    faulty = scenario.faulty_set
    correct = sorted(report.histories)
    live = {p for p in correct if is_live(model, p, faulty)}
    verdicts: dict[str, Verdict] = {}

    liveness_vacuous = None
    if not report.quiescent:
        liveness_vacuous = Verdict(VACUOUS, "run hit the event cap before quiescing")

    executed = _executed_actions(report)
    accused = {p: _accused_refs(report.accusations[p]) for p in correct}

    # validity: a correct issuer's transfer reaches every live correct history,
    # unless some dependency of it ends up accused everywhere it is missing
    if liveness_vacuous is not None:
        verdicts["validity"] = liveness_vacuous
    else:
        problem = None
        for pid, tx in executed:
            for q in live:
                if not _settles(tx, report.histories[pid], report.histories[q], accused[q]):
                    problem = (pid, tx, q)
                    break
            if problem:
                break
        if problem:
            pid, tx, q = problem
            verdicts["validity"] = Verdict(
                VIOLATED,
                f"transfer {tx_ref(tx).hex()[:16]} by {pid} neither accepted "
                f"nor convicted at live process {q}",
            )
        else:
            verdicts["validity"] = Verdict(HOLDS)

    # k-spending: no input of any issuer is spent more distinct ways than the
    # trust model's inconsistency number allows
    if report.k_bound is None:
        verdicts["k-spending"] = Verdict(
            VACUOUS, report.k_bound_note or "inconsistency bound unavailable"
        )
    elif report.gamma_max <= report.k_bound:
        verdicts["k-spending"] = Verdict(HOLDS)
    else:
        verdicts["k-spending"] = Verdict(
            VIOLATED,
            f"observed spending number {report.gamma_max} exceeds bound {report.k_bound}",
        )

    # eventual conviction: accepted conflicts convict the issuer at both sides
    if liveness_vacuous is not None:
        verdicts["eventual-conviction"] = liveness_vacuous
    else:
        verdicts["eventual-conviction"] = _eventual_conviction(report, correct, accused)

    # accuracy: every stored accusation verifies and only names faulty processes;
    # correct processes store the same accusations, so each signature of
    # them is checked once here, independently of the run's own checks
    scheme = make_scheme(scenario.sig_scheme)
    _, public_keys = keychain(model.n, scheme, scenario.key_seed)
    verified: set[tuple[bytes, bytes, bytes]] = set()
    verdicts["accuracy"] = Verdict(HOLDS)
    for p in correct:
        for acc in report.accusations[p]:
            if not verify_acc(acc, public_keys, scheme, verified):
                verdicts["accuracy"] = Verdict(
                    VIOLATED, f"process {p} stores an accusation that fails verification"
                )
                break
            if not acc.accused <= faulty:
                wrong = sorted(acc.accused - faulty)
                verdicts["accuracy"] = Verdict(
                    VIOLATED, f"process {p} accuses non-faulty processes {wrong}"
                )
                break
        if verdicts["accuracy"].status == VIOLATED:
            break

    # agreement: correct processes converge on the same accusation set
    if liveness_vacuous is not None:
        verdicts["agreement"] = liveness_vacuous
    else:
        # accusations travel by rebroadcast, so convergence does not depend
        # on quorum liveness: every correct process is held to the same set
        sets = {p: report.accusations[p] for p in correct}
        distinct = {frozenset(s) for s in sets.values()}
        if len(distinct) <= 1:
            verdicts["agreement"] = Verdict(HOLDS)
        else:
            sizes = {p: len(s) for p, s in sorted(sets.items())}
            verdicts["agreement"] = Verdict(
                VIOLATED, f"live processes disagree on accusations: sizes {sizes}"
            )

    # integrity: transactions credited to a correct issuer were really issued
    issued_refs = {tx_ref(tx) for _pid, tx in executed}
    verdicts["integrity"] = Verdict(HOLDS)
    for q in correct:
        for tx in report.histories[q].txs:
            if is_genesis(tx) or tx.issuer in faulty:
                continue
            if tx_ref(tx) not in issued_refs:
                verdicts["integrity"] = Verdict(
                    VIOLATED,
                    f"history of {q} credits {tx.issuer} with unissued "
                    f"transaction {tx_ref(tx).hex()[:16]}",
                )
                break
        if verdicts["integrity"].status == VIOLATED:
            break

    # monotonicity: accusation stores only ever grow, and the final stores are
    # exactly what the trace accumulated
    acc_seen: dict[int, set[str]] = {p: set() for p in correct}
    verdicts["monotonicity"] = Verdict(HOLDS)
    for rec in report.trace:
        if rec[0] == "action":
            actor, new_acc = rec[2], rec[5]
        elif rec[0] == "deliver":
            actor, new_acc = rec[4], rec[7]
        else:
            continue
        if actor not in acc_seen:
            continue
        for digest in new_acc:
            if digest in acc_seen[actor]:
                verdicts["monotonicity"] = Verdict(
                    VIOLATED, f"process {actor} re-added accusation {digest[:16]}"
                )
            acc_seen[actor].add(digest)
    if verdicts["monotonicity"].status == HOLDS:
        from .ledger import accusation_digest

        for p in correct:
            final = {accusation_digest(a).hex() for a in report.accusations[p]}
            if final != acc_seen[p]:
                verdicts["monotonicity"] = Verdict(
                    VIOLATED, f"final accusation store of {p} diverges from its trace"
                )
                break

    # termination: everything a correct process holds settles at every live one
    if liveness_vacuous is not None:
        verdicts["termination"] = liveness_vacuous
    else:
        verdicts["termination"] = Verdict(HOLDS)
        done = False
        for p in correct:
            hist_p = report.histories[p]
            for tx in hist_p.txs:
                if is_genesis(tx):
                    continue
                for q in live:
                    if not _settles(tx, hist_p, report.histories[q], accused[q]):
                        verdicts["termination"] = Verdict(
                            VIOLATED,
                            f"transaction {tx_ref(tx).hex()[:16]} held by {p} "
                            f"never settles at live process {q}",
                        )
                        done = True
                        break
                if done:
                    break
            if done:
                break

    return {name: verdicts[name] for name in PROPERTY_NAMES}
