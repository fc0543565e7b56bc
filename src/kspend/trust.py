"""Trust models, trust graphs, and the inconsistency number.

A trust model pairs per-process quorum systems with an inclusion-closed
fault model (stored by its maximal sets). Fixing a faulty set F and one
quorum choice per correct process yields a trust graph: correct processes
are adjacent when their chosen quorums intersect outside F. The
inconsistency number is the largest independent set any such graph admits,
over every faulty set in the downward closure of the fault model and every
choice of quorums; it bounds how many conflicting spends of one asset an
adversary can drive into correct histories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    InvalidFaultySet,
    InvalidParameters,
    InvalidQuorumMap,
    SchemaError,
    SizeLimitExceeded,
)

ProcessId = int
Quorum = frozenset[int]
QuorumMap = Mapping[int, Quorum]

MIS_EXACT_CAP = 24
DEFAULT_ENUM_BUDGET = 1 << 26


@dataclass(frozen=True)
class TrustModel:
    """Per-process quorum systems plus the maximal faulty sets."""

    n: int
    quorums: tuple[tuple[Quorum, ...], ...]
    fault_model: tuple[frozenset[int], ...]

    @staticmethod
    def build(
        n: int,
        quorums: Iterable[Iterable[Iterable[int]]],
        fault_model: Iterable[Iterable[int]],
    ) -> "TrustModel":
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"process count must be a positive integer, got {n!r}")
        systems = []
        rows = list(quorums)
        if len(rows) != n:
            raise ValueError(f"expected one quorum system per process ({n}), got {len(rows)}")
        for pid, row in enumerate(rows):
            system = sorted({frozenset(q) for q in row}, key=sorted)
            if not system:
                raise ValueError(f"process {pid} has an empty quorum system")
            for q in system:
                if not q:
                    raise ValueError(f"process {pid} lists an empty quorum")
                if not all(isinstance(x, int) and 0 <= x < n for x in q):
                    raise ValueError(f"quorum {sorted(q)} of process {pid} is out of range")
            systems.append(tuple(system))
        maximal = sorted({frozenset(f) for f in fault_model}, key=lambda s: (len(s), sorted(s)))
        for f in maximal:
            if not all(isinstance(x, int) and 0 <= x < n for x in f):
                raise ValueError(f"faulty set {sorted(f)} is out of range")
        # drop sets absorbed by a superset; keep the empty set only when alone
        maximal = [f for f in maximal if not any(f < g for g in maximal)]
        if not maximal:
            maximal = [frozenset()]
        return TrustModel(n=n, quorums=tuple(systems), fault_model=tuple(maximal))

    def processes(self) -> range:
        return range(self.n)


def allows_faulty(model: TrustModel, faulty: frozenset[int]) -> bool:
    """Membership in the downward closure of the fault model."""
    return any(faulty <= m for m in model.fault_model)


def self_inclusion_gaps(model: TrustModel) -> tuple[tuple[int, Quorum], ...]:
    """Quorums that omit their own process.

    Graph analysis is well defined either way, so loading such a model is
    allowed. The transfer protocol's settlement guarantees, however, assume
    every correct process sits in each of its own quorums; callers running
    simulations may want to surface these gaps.
    """
    return tuple(
        (pid, q)
        for pid in model.processes()
        for q in model.quorums[pid]
        if pid not in q
    )


def _closure_order(model: TrustModel) -> Iterator[tuple[int, ...]]:
    """The fault closure lazily, as sorted tuples, in ``fault_closure`` order.

    A size only one maximal set reaches streams from its (lexicographic)
    combinations; otherwise the size is built and sorted whole, once a
    search charging per set has paid for every larger size.
    """
    maximal = [sorted(m) for m in model.fault_model]
    for r in range(max(map(len, maximal)), -1, -1):
        sources = [combinations(m, r) for m in maximal if len(m) >= r]
        yield from sources[0] if len(sources) == 1 else sorted(set().union(*sources))


def fault_closure(model: TrustModel) -> tuple[frozenset[int], ...]:
    """Every admissible faulty set, largest first, then lexicographic.

    Larger sets first makes witness search prefer faulty sets that can
    actually host a misbehaving source.
    """
    return tuple(frozenset(c) for c in _closure_order(model))


def is_live(model: TrustModel, pid: int, faulty: frozenset[int]) -> bool:
    """A process is live when some quorum of it avoids the faulty set."""
    return any(not (q & faulty) for q in model.quorums[pid])


@dataclass(frozen=True)
class TrustGraph:
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    faulty_set: frozenset[int]
    quorum_map: tuple[tuple[int, Quorum], ...]

    def adjacent(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges


def build_trust_graph(model: TrustModel, faulty_set: Iterable[int], s: QuorumMap) -> TrustGraph:
    """Graph on correct processes; edge when quorums intersect outside F."""
    faulty = frozenset(faulty_set)
    if not allows_faulty(model, faulty):
        raise InvalidFaultySet(f"faulty set {sorted(faulty)} exceeds the fault model")
    correct = [p for p in model.processes() if p not in faulty]
    for pid, choice in s.items():
        if frozenset(choice) not in set(model.quorums[pid]):
            raise InvalidQuorumMap(f"process {pid}: {sorted(choice)} is not one of its quorums")
    for pid in correct:
        if pid not in s:
            raise InvalidQuorumMap(f"no quorum chosen for correct process {pid}")
    edges = set()
    for a, b in combinations(correct, 2):
        if (frozenset(s[a]) & frozenset(s[b])) - faulty:
            edges.add((a, b))
    return TrustGraph(
        nodes=frozenset(correct),
        edges=frozenset(edges),
        faulty_set=faulty,
        quorum_map=tuple(sorted((p, frozenset(s[p])) for p in s)),
    )


def _adjacency_masks(graph: TrustGraph) -> tuple[list[int], list[int]]:
    nodes = sorted(graph.nodes)
    index = {p: i for i, p in enumerate(nodes)}
    adj = [0] * len(nodes)
    for a, b in graph.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    return nodes, adj


def _mis_size(adj: list[int], mask: int, floor: int = 0) -> int:
    best = floor

    def explore(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        # branch on the highest-degree remaining vertex
        pick, degree = -1, -1
        m = candidates
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & candidates).bit_count()
            if d > degree:
                pick, degree = v, d
        if degree == 0:
            best = max(best, size + candidates.bit_count())
            return
        bit = 1 << pick
        explore(candidates & ~adj[pick] & ~bit, size + 1)
        explore(candidates & ~bit, size)

    explore(mask, 0)
    return best


def independence_number(graph: TrustGraph, *, exact_cap: int = MIS_EXACT_CAP) -> int:
    """Exact maximum independent set size, by branch and bound."""
    count = len(graph.nodes)
    if count == 0:
        return 0
    if count > exact_cap:
        raise SizeLimitExceeded(f"exact independence capped at {exact_cap} nodes, got {count}")
    _, adj = _adjacency_masks(graph)
    return _mis_size(adj, (1 << count) - 1)


def max_independent_set(graph: TrustGraph, *, exact_cap: int = MIS_EXACT_CAP) -> frozenset[int]:
    """Lexicographically smallest maximum independent set."""
    count = len(graph.nodes)
    if count == 0:
        return frozenset()
    if count > exact_cap:
        raise SizeLimitExceeded(f"exact independence capped at {exact_cap} nodes, got {count}")
    nodes, adj = _adjacency_masks(graph)
    target = _mis_size(adj, (1 << count) - 1)
    chosen: list[int] = []
    mask = (1 << count) - 1
    remaining = target
    for i in range(count):
        bit = 1 << i
        if not mask & bit:
            continue
        rest = mask & ~adj[i] & ~bit
        if 1 + _mis_size(adj, rest) == remaining:
            chosen.append(nodes[i])
            mask = rest
            remaining -= 1
        else:
            mask &= ~bit
    return frozenset(chosen)


class Witness(NamedTuple):
    faulty_set: frozenset[int]
    quorum_map: dict[int, Quorum]
    independent_set: frozenset[int]


class _Budget:
    def __init__(self, cap: int):
        self.remaining = cap

    def spend(self, units: int) -> None:
        self.remaining -= units
        if self.remaining < 0:
            raise _Exhausted


class _Exhausted(Exception):
    pass


def _choice_masks(
    quorum_masks: list[list[tuple[int, Quorum]]], keep: int, correct: list[int]
) -> list[dict[int, Quorum]]:
    """Per correct process: (quorum − F) bitmask -> lex-first quorum, in lex order."""
    masks = []
    for pid in correct:
        seen: dict[int, Quorum] = {}
        for mask, q in quorum_masks[pid]:  # already in lex order
            seen.setdefault(mask & keep, q)
        masks.append(seen)
    return masks


def _ceiling_admits(
    quorum_masks: list[list[tuple[int, Quorum]]],
    smallest: list[int],
    keep: int,
    correct: list[int],
    need: int,
) -> bool:
    """Can ``need`` processes hold pairwise-disjoint reduced quorums at all?

    Disjoint masks inside the keep set cover at least the sum of their
    owners' smallest reduced sizes, so the ``need`` smallest must fit in it.
    A quorum loses at most |F| members to F, which gives a cheaper test to
    try first on ``smallest``, each process's smallest quorum size.
    """
    if need > len(correct):
        return False
    room = keep.bit_count()
    dropped = len(smallest) - room
    if sum(sorted(max(smallest[pid] - dropped, 0) for pid in correct)[:need]) > room:
        return False
    sizes = sorted(min((m & keep).bit_count() for m, _ in quorum_masks[pid]) for pid in correct)
    return sum(sizes[:need]) <= room


def _can_pack(
    rows: Sequence[Collection[int]],
    need: int,
    used: int,
    failed: dict[tuple[int, int], int],
    budget: _Budget,
) -> bool:
    """Can ``need`` rows each take one of their masks, pairwise disjoint and
    clear of ``used``?

    For one faulty set, the best independence number over every quorum map
    is the most rows packable so: only the members' choices matter, and
    mutual independence is exactly pairwise disjointness of reduced masks.
    Branch and bound over rows ordered by fewest masks, each narrowed to the
    masks still clear; a node is cut when fewer than ``need`` rows keep one.
    ``failed`` maps (index, used) to the least need that failed there, so
    calls on the same rows may share it. ``budget`` is charged per node.
    """
    rows = sorted(rows, key=len)

    def search(i: int, live: list[tuple[int, list[int]]], need: int, used: int) -> bool:
        if need == 0:
            return True
        if len(live) < need or failed.get((i, used), need + 1) <= need:
            return False
        budget.spend(1)
        (j, masks), rest = live[0], live[1:]
        for mask in masks:
            taken = used | mask
            narrowed = [(k, kept) for k, row in rest if (kept := [m for m in row if not m & taken])]
            if search(j + 1, narrowed, need - 1, taken):
                return True
        if search(j + 1, rest, need, used):
            return True
        failed[i, used] = need
        return False

    live = [(j, kept) for j, row in enumerate(rows) if (kept := [m for m in row if not m & used])]
    return search(0, live, need, used)


def _lambda_and_witness(model: TrustModel, budget_cap: int) -> tuple[int, Witness]:
    """The exact search: every faulty set in closure order, one unit each.

    A faulty set whose packing ceiling cannot beat the best value so far is
    skipped; otherwise the decision search asks for one more than the best,
    then one more while it succeeds, sharing its failures across those asks.
    Only a strict improvement moves the witness, so skipping never changes
    it. The witness rebuild is charged to the same budget.
    """
    budget = _Budget(budget_cap)
    quorum_masks = [
        [(sum(1 << member for member in q), q) for q in system] for system in model.quorums
    ]
    smallest = [min(map(len, system)) for system in model.quorums]
    everyone = (1 << model.n) - 1
    best = visited = 0
    best_faulty: frozenset[int] | None = None
    try:
        for visited, combo in enumerate(_closure_order(model), 1):
            budget.spend(1)
            keep = everyone & ~sum(1 << p for p in combo)
            correct = [p for p in model.processes() if keep >> p & 1]
            if not _ceiling_admits(quorum_masks, smallest, keep, correct, best + 1):
                continue
            masks = _choice_masks(quorum_masks, keep, correct)
            failed: dict[tuple[int, int], int] = {}
            while _can_pack(masks, best + 1, 0, failed, budget):
                best, best_faulty, best_masks = best + 1, frozenset(combo), masks

        assert best_faulty is not None  # every model admits some faulty set and a node
        correct = [p for p in model.processes() if p not in best_faulty]
        # greedy rebuild: smallest members first, lex-smallest quorum per
        # member, lex-first filler quorums for everyone else
        chosen: dict[int, Quorum] = {}
        used = 0
        for i, pid in enumerate(correct):
            if len(chosen) == best:
                break
            failed = {}
            for mask, quorum in best_masks[i].items():
                if mask & used == 0 and _can_pack(
                    best_masks[i + 1 :], best - len(chosen) - 1, used | mask, failed, budget
                ):
                    chosen[pid] = quorum
                    used |= mask
                    break
    except _Exhausted:
        raise SizeLimitExceeded(
            f"inconsistency search exceeded its budget of {budget_cap} units",
            partial_maximum=best,
            faulty_sets_visited=visited,
            units_spent=budget_cap - budget.remaining,
        ) from None

    quorum_map = {pid: chosen.get(pid, model.quorums[pid][0]) for pid in correct}
    return best, Witness(best_faulty, quorum_map, frozenset(chosen))


def inconsistency_number(model: TrustModel, *, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Worst independence number over the fault closure and all quorum maps."""
    value, _ = _lambda_and_witness(model, budget)
    return value


def max_independent_set_witness(
    model: TrustModel, *, budget: int = DEFAULT_ENUM_BUDGET
) -> Witness:
    """A (faulty set, quorum map, independent set) achieving the maximum."""
    _, witness = _lambda_and_witness(model, budget)
    return witness


def uniform_inconsistency(n: int, q: int, f: int) -> int:
    """Closed form for the symmetric model: all q-subsets, faults up to f."""
    if not (isinstance(n, int) and isinstance(q, int) and isinstance(f, int)):
        raise InvalidParameters("n, q, f must be integers")
    if not 0 < q <= n:
        raise InvalidParameters(f"need 0 < q <= n, got q={q}, n={n}")
    if not 0 <= f < q:
        raise InvalidParameters(f"need 0 <= f < q, got f={f}, q={q}")
    return (n - f) // (q - f)


def uniform_model(n: int, q: int, f: int) -> TrustModel:
    """Explicit symmetric model: every q-subset through p, every |F| <= f."""
    uniform_inconsistency(n, q, f)  # parameter validation
    systems = []
    for pid in range(n):
        others = [x for x in range(n) if x != pid]
        systems.append([frozenset(c) | {pid} for c in combinations(others, q - 1)])
    faults = [frozenset(c) for c in combinations(range(n), f)]
    return TrustModel.build(n, systems, faults)


def parse_model(obj: object) -> TrustModel:
    if not isinstance(obj, dict):
        raise SchemaError("trust model file must hold a JSON object")
    try:
        n = obj["n"]
        quorums = obj["quorums"]
        fault_model = obj["fault_model_maximal"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"missing trust model field: {exc}") from None
    try:
        return TrustModel.build(n, quorums, fault_model)
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from None


def model_to_obj(model: TrustModel) -> dict:
    return {
        "n": model.n,
        "quorums": [[sorted(q) for q in system] for system in model.quorums],
        "fault_model_maximal": [sorted(f) for f in model.fault_model],
    }


def load_model(path: str) -> TrustModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read trust model {path}: {exc}") from None
    return parse_model(obj)


def dump_model(model: TrustModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_obj(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_builtin_model(name: str) -> TrustModel:
    """Models shipped with the package, e.g. ``example1``."""
    try:
        text = resources.files("kspend.data").joinpath(f"{name}.json").read_text("utf-8")
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise SchemaError(f"no builtin model named {name!r}") from exc
    return parse_model(json.loads(text))
