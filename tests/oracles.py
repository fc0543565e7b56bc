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
from kspend.ledger import tx_ref
from kspend.trust import TrustModel


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


def plain_inconsistency(model) -> int:
    """The inconsistency number by a plain packing search, usable to n = 16: per faulty set
    of ``brute_fault_closure``, each correct process in id order takes one of its distinct
    quorums less F, disjoint from those taken, or none. A branch is cut when the processes
    taken plus those left cannot beat the best; there is no other bound."""
    best = 0

    def pack(rows, i, used, taken):
        nonlocal best
        best = max(best, taken)
        if taken + len(rows) - i > best:
            for q in rows[i]:
                if not q & used:
                    pack(rows, i + 1, used | q, taken + 1)
            pack(rows, i + 1, used, taken)

    for faulty in brute_fault_closure(model):
        correct = [p for p in range(model.n) if p not in faulty]
        pack([{q - faulty for q in model.quorums[p]} for p in correct], 0, frozenset(), 0)
    return best


def brute_pack(rows, used=0, forced=()) -> int:
    """Most rows that can each take one of their masks, pairwise disjoint and
    clear of ``used``: every pick of one mask or nothing per row. A row whose
    index is in ``forced`` must take a mask; -1 when no pick lets them all."""
    best = -1
    for picks in product(*(row if i in forced else [None, *row] for i, row in enumerate(rows))):
        taken = [m for m in picks if m is not None]
        if all(not m & used for m in taken) and all(
            not a & b for a, b in combinations(taken, 2)
        ):
            best = max(best, len(taken))
    return best


def brute_maximal(faults) -> tuple:
    """The maximal sets of a fault list by comparing every pair, in (size, members)
    order; the empty set alone when nothing else is listed."""
    maximal = sorted(set(map(frozenset, faults)), key=lambda s: (len(s), sorted(s)))
    maximal = [f for f in maximal if not any(f < g for g in maximal)]
    return tuple(maximal) or (frozenset(),)


def brute_uniform_model(n, q, f) -> TrustModel:
    """The symmetric model built process by process: a fresh quorum object for every
    (process, quorum) pair, each system deduped through a set and sorted."""
    systems = []
    for pid in range(n):
        others = [x for x in range(n) if x != pid]
        row = {frozenset(c) | {pid} for c in combinations(others, q - 1)}
        systems.append(tuple(sorted(row, key=sorted)))
    faults = [frozenset(c) for c in combinations(range(n), f)]
    return TrustModel(n=n, quorums=tuple(systems), fault_model=brute_maximal(faults))


def brute_active(rows, keep) -> int:
    """The packer's active vertices under ``keep``: one bit per row's first vertex of
    each distinct reduced mask, summed bit by bit."""
    owners = [pid for pid, row in enumerate(rows) for _ in row]
    reduced = [mask & keep for row in rows for mask in row]
    owned = zip(reversed(owners), reversed(reduced))
    first = dict(zip(owned, reversed(range(len(reduced)))))  # back to front: firsts win
    return sum(map((1).__lshift__, first.values()))


def transposed_hits(rows, width) -> list[int]:
    """The packer's clash bits by binary-string transposition: bit v of entry b is
    set when the v-th mask of the rows, read row after row, holds b."""
    masks = [mask for row in rows for mask in row]
    columns = zip(*(f"{mask:0{width}b}" for mask in reversed(masks)))
    return [int("".join(column), 2) for column in columns][::-1] or [0] * width


def brute_spending_number(histories) -> int:
    """Double loop over the pooled transactions, counting spends per input."""
    pool = set()
    for h in histories:
        pool |= set(h.values())
    best = 0
    for tx in pool:
        for ref in tx.inputs:
            spends = {o for o in pool if o.issuer == tx.issuer and ref in o.inputs}
            if len(spends) > best:
                best = len(spends)
    return best


def compatible_pair(a: dict, b: dict) -> bool:
    # genesis has a negative issuer and never counts toward projections
    issuers = {tx.issuer for tx in a.values()} | {tx.issuer for tx in b.values()}
    for issuer in issuers:
        if issuer < 0:
            continue
        fa = {tx for tx in a.values() if tx.issuer == issuer}
        fb = {tx for tx in b.values() if tx.issuer == issuer}
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


def brute_tx_fault(tx, table):
    """The first clause a transaction other than the funding root breaks
    against ``table``, or None: every input present (completeness), then
    every input paying the issuer, then outputs positive and equal to what
    the inputs pay (both t-validity). Three separate scans of the
    reference table, as the ledger once wrote the rule."""
    if any(ref not in table for ref in tx.inputs):
        return "completeness"
    if not all(table[ref].pays(tx.issuer) > 0 for ref in tx.inputs):
        return "t-validity"
    out = sum(amount for _, amount in tx.outputs)
    if not (out > 0 and out == sum(table[ref].pays(tx.issuer) for ref in tx.inputs)):
        return "t-validity"
    return None


def brute_conflict_pairs(txs):
    """Unordered conflicting pairs as frozensets of transactions."""
    pool = list(set(txs))
    out = set()
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
            if a.issuer == b.issuer and set(a.inputs) & set(b.inputs):
                out.add(frozenset((a, b)))
    return out


def brute_well_formed(table, check_timestamps=False) -> bool:
    """Every clause, each checked on its own: every key is its transaction's
    reference, no dependency reaches itself (a plain recursive walk), one
    funding root, every other transaction fits the history and conflicts
    with none, and, under ``check_timestamps``, each carries a timestamp and
    one less is stamped on a transaction of its issuer unless it is 1."""
    txs = list(table.values())
    roots = [tx for tx in txs if tx.issuer < 0 and not tx.inputs]
    spends = [tx for tx in txs if tx not in roots]
    walked = set()

    def reaches_itself(ref, path):
        if ref in path:
            return True
        if ref in walked or ref not in table:
            return False
        walked.add(ref)
        return any(reaches_itself(dep, path | {ref}) for dep in table[ref].inputs)

    return (
        all(tx_ref(tx) == ref for ref, tx in table.items())
        and not any(reaches_itself(ref, frozenset()) for ref in table)
        and len(roots) == 1
        and all(brute_tx_fault(tx, table) is None for tx in spends)
        and not brute_conflict_pairs(txs)
        and not (check_timestamps and any(
            tx.timestamp is None or tx.timestamp > 1 and not any(
                o.issuer == tx.issuer and o.timestamp == tx.timestamp - 1 for o in spends
            )
            for tx in spends
        ))
    )


def brute_delivered(report):
    """Per correct process, the message of the transaction in its history that the
    broadcast source issued spending the genesis output, the least by reference;
    None for a run that is no broadcast. A scan of every history."""
    source = report.scenario.kcb_source
    if source is None:
        return None
    genesis_ref = tx_ref(report.scenario.genesis)
    delivered = {}
    for p, history in report.histories.items():
        mine = [tx for tx in history.values() if tx.issuer == source and genesis_ref in tx.inputs]
        if mine:
            delivered[p] = sorted(mine, key=tx_ref)[0].message
    return delivered


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
            for a in report.histories[p].values():
                for b in report.histories[q].values():
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


def member_quorum_check(state, quorums, tx) -> bool:
    """Did every member of some quorum echo tx? The engine's test before it
    kept bitmasks: a scan of each member's set of echoed transactions, here
    rebuilt from the echoer bitmasks of the engine's records, keyed by encoding."""
    echoed = {
        p: {enc for enc, record in state.records.items() if record.echoers >> p & 1}
        for p in range(state.n)
    }
    return any(all(tx.encoding in echoed[q] for q in quorum) for quorum in quorums)


def old_tables(state) -> dict:
    """A process's knowledge in the four tables the engine kept before its
    per-transaction records: the echoer bitmask and the pending transactions
    by encoding, and the recorded requests, as (transaction, first issuer
    signature) pairs, and the accepted spends by (issuer, input); with its
    history and its accusations. Every table is a fresh copy."""
    return {
        "echoers": {enc: r.echoers for enc, r in state.records.items() if r.echoers},
        "pending": dict(state.pending),
        "requests": {
            key: {enc: (r.tx, r.sig) for enc, r in bucket.items()}
            for key, bucket in state.requests.items()
        },
        "accepted": dict(state.accepted),
        "by_ref": dict(state.by_ref),
        "accusations": set(state.accusations),
    }


def old_body(state, msg) -> tuple[list[str], dict]:
    """What a REQ or ECHO handler did after verifying its signatures, on the
    four tables (``old_tables``), as the engine once wrote it: count the
    echo, record the request, echo it unless an input was used, pend it if
    it is neither pending nor accepted and some quorum echoed it, then
    accept ready pending transactions to a fixpoint and accuse the new
    conflicting pairs. The process's state is left as it is; the result is
    the kinds of the messages the body would send, and the tables after it."""
    t = old_tables(state)
    echoers, pending, requests, accepted, by_ref = (
        t["echoers"], t["pending"], t["requests"], t["accepted"], t["by_ref"]
    )
    tx, sig, own = msg.tx, msg.issuer_sig, 1 << state.pid
    enc, sent = tx.encoding, []
    if msg.kind == "ECHO":
        echoers[enc] = echoers.get(enc, 0) | 1 << msg.sender
    unscanned = []
    if enc not in requests.get((tx.issuer, tx.inputs[0]), {}):
        for ref in tx.inputs:
            requests.setdefault((tx.issuer, ref), {})[enc] = (tx, sig)
        if any(len(requests[tx.issuer, ref]) > 1 for ref in tx.inputs):
            unscanned.append(tx)
    if state.disable_used_input_guard:
        used = echoers.get(enc, 0) & own
    else:
        used = any(echoers.get(e, 0) & own for ref in tx.inputs for e in requests[tx.issuer, ref])
    if not used:
        sent.append("ECHO")
        echoers[enc] = echoers.get(enc, 0) | own
    prior = accepted.get((tx.issuer, tx.inputs[0]))
    mask = echoers.get(enc, 0)
    if (
        enc not in pending
        and not (prior is not None and prior.encoding == enc)
        and any(all(mask >> q & 1 for q in range(state.n) if quorum >> q & 1)
                for quorum in state.quorum_masks)
    ):
        pending[enc] = tx
    progressed = True
    while progressed:
        progressed = False
        for p in sorted(pending.values(), key=tx_ref):
            c3 = all(accepted.get((p.issuer, ref), p) == p for ref in p.inputs)
            if brute_tx_fault(p, by_ref) is None and c3:
                by_ref[tx_ref(p)] = p
                accepted.update(((p.issuer, ref), p) for ref in p.inputs)
                del pending[p.encoding]
                progressed = True
    pairs = {
        frozenset((n, other))
        for n in unscanned for ref in n.inputs
        for other, _sig in requests[n.issuer, ref].values() if other != n
    }
    known = {frozenset(tx for tx, _sig in acc.proof) for acc in t["accusations"]}
    sent += ["ACC"] * len(pairs - known)
    return sent, t
