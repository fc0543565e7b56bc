"""Reference implementations the package's fast paths are checked against.

Everything here trades speed for obviousness: subset loops, full cartesian
products, and partition search. Only usable at toy sizes, which is the
point; none of it shares code with the package internals beyond the data
types themselves, except that the polling oracle asks the engine's own
``can_transfer`` of every issuer, as the simulator once did on every event.
"""

from itertools import combinations, product
from typing import NamedTuple

from kspend.engine import can_transfer
from kspend.ledger import History


def subset_independence_number(nodes, adjacent) -> int:
    """Largest independent set by trying every subset, big ones first."""
    nodes = list(nodes)
    for size in range(len(nodes), 0, -1):
        for combo in combinations(nodes, size):
            if all(not adjacent(a, b) for a, b in combinations(combo, 2)):
                return size
    return 0


class TrustGraph(NamedTuple):
    nodes: frozenset
    edges: frozenset  # (a, b) pairs with a < b

    def adjacent(self, a, b) -> bool:
        return (min(a, b), max(a, b)) in self.edges


def build_trust_graph(model, faulty, quorum_map) -> TrustGraph:
    """The paper's trust graph: one node per correct process, and an edge
    when two chosen quorums intersect outside the faulty set."""
    faulty = frozenset(faulty)
    assert any(faulty <= m for m in model.fault_model), "faulty set outside the fault model"
    correct = [p for p in range(model.n) if p not in faulty]
    assert all(quorum_map[p] in model.quorums[p] for p in correct), "not a quorum choice"
    edges = frozenset(
        (a, b) for a, b in combinations(correct, 2) if (quorum_map[a] & quorum_map[b]) - faulty
    )
    return TrustGraph(frozenset(correct), edges)


def brute_fault_closure(model):
    # ascending enumeration, unlike the package's largest-first order
    seen = set()
    for maximal in model.fault_model:
        members = sorted(maximal)
        for r in range(len(members) + 1):
            seen.update(frozenset(c) for c in combinations(members, r))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def brute_inconsistency(model, faulty_sets=None) -> int:
    """Exhaustive search over faulty sets, quorum choices, and node subsets.

    ``faulty_sets`` overrides the closure, which lets tests measure what a
    maximal-sets-only search would have concluded.
    """
    if faulty_sets is None:
        faulty_sets = brute_fault_closure(model)
    best = 0
    for faulty in faulty_sets:
        correct = [p for p in range(model.n) if p not in faulty]
        for choice in product(*(model.quorums[p] for p in correct)):
            graph = build_trust_graph(model, faulty, dict(zip(correct, choice)))
            best = max(best, subset_independence_number(graph.nodes, graph.adjacent))
    return best


def brute_pack(rows, used=0) -> int:
    """Most rows that can each take one of their masks, pairwise disjoint and
    clear of ``used``: every pick of one mask or nothing per row."""
    best = 0
    for picks in product(*([None, *row] for row in rows)):
        taken = [m for m in picks if m is not None]
        if all(not m & used for m in taken) and all(
            not a & b for a, b in combinations(taken, 2)
        ):
            best = max(best, len(taken))
    return best


def brute_spending_number(histories) -> int:
    """Double loop over the pooled transactions, counting spends per input."""
    pool = set()
    for h in histories:
        pool |= set(h.txs)
    best = 0
    for tx in pool:
        for ref in tx.inputs:
            spends = {o for o in pool if o.issuer == tx.issuer and ref in o.inputs}
            if len(spends) > best:
                best = len(spends)
    return best


def compatible_pair(a: History, b: History) -> bool:
    # genesis has a negative issuer and never counts toward projections
    issuers = {tx.issuer for tx in a.txs} | {tx.issuer for tx in b.txs}
    for issuer in issuers:
        if issuer < 0:
            continue
        fa = {tx for tx in a.txs if tx.issuer == issuer}
        fb = {tx for tx in b.txs if tx.issuer == issuer}
        if not (fa <= fb or fb <= fa):
            return False
    return True


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in _set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [head]] + partial[i + 1 :]
        yield partial + [[head]]


def brute_cover_number(histories) -> int:
    """Minimum blocks over every set partition into pairwise-compatible groups."""
    distinct = []
    for h in histories:
        if h not in distinct:
            distinct.append(h)
    if not distinct:
        return 0
    best = len(distinct)
    for parts in _set_partitions(distinct):
        if len(parts) >= best:
            continue
        if all(
            compatible_pair(a, b)
            for block in parts
            for a, b in combinations(block, 2)
        ):
            best = len(parts)
    return best


def brute_conflict_pairs(txs):
    """Unordered conflicting pairs as frozensets of transactions."""
    pool = list(set(txs))
    out = set()
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
            if a.issuer == b.issuer and set(a.inputs) & set(b.inputs):
                out.add(frozenset((a, b)))
    return out


def brute_eventual_conviction(report) -> str:
    """Every pair of correct processes, every pair of their transactions.

    A conflicting pair (same issuer, distinct, sharing an input) held by
    p and q must be accused at both p and q.
    """
    if not report.quiescent:
        return "vacuous"
    correct = sorted(report.histories)
    for p in correct:
        for q in correct:
            for a in report.histories[p].txs:
                for b in report.histories[q].txs:
                    if a == b or a.issuer != b.issuer or not set(a.inputs) & set(b.inputs):
                        continue
                    for side in (p, q):
                        accused = {
                            tx for acc in report.accusations[side] for tx, _sig in acc.proof
                        }
                        if a not in accused or b not in accused:
                            return "violated"
    return "holds"


def polled_enabled_actions(rt) -> list[int]:
    """Poll every issuer's next action of a simulator runtime, in index order."""
    actions = rt.scenario.honest_actions
    heads = sorted(todo[-1] for todo in rt.todo.values() if todo)
    return [i for i in heads if can_transfer(rt.engines[actions[i][0]], actions[i][1])]
