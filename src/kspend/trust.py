"""Trust models and the inconsistency number.

A trust model pairs per-process quorum systems with an inclusion-closed
fault model (stored by its maximal sets). Fixing a faulty set F and one
quorum choice per correct process yields a trust graph: correct processes
are adjacent when their chosen quorums intersect outside F. The
inconsistency number is the largest independent set any such graph admits,
over every faulty set in the downward closure of the fault model and every
choice of quorums; it bounds how many conflicting spends of one asset an
adversary can drive into correct histories.

The exact search visits faulty sets largest first. Dropping a correct x
from a packing under F leaves a packing under F ∪ {x}, so a set's value is
at most one more than any one-fault extension's, and those were visited
before it. A set is skipped when that bound cannot beat the best value, or
when it has more extension processes than the best plus one; otherwise its
extension processes are forced into every packing it searches. Before each
search asks for one more process than the best, a volume ceiling counts the
processes that packing's disjoint quorums must cover outside F: the forced
processes' smallest quorums plus the smallest of the others'. An ask whose
count exceeds the correct processes is refused without a search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate, chain, combinations
from operator import itemgetter
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidParameters, SchemaError, SizeLimitExceeded

ProcessId = int
Quorum = frozenset[int]

DEFAULT_ENUM_BUDGET = 1 << 26
_MAX_BOUNDS = 1 << 20  # extension bounds the exact search holds at once


@dataclass(frozen=True)
class TrustModel:
    """Per-process quorum systems plus the maximal faulty sets."""

    n: int
    quorums: tuple[tuple[Quorum, ...], ...]
    fault_model: tuple[frozenset[int], ...]

    @staticmethod
    def build(
        n: int,
        quorums: Iterable[Iterable[Collection[int]]],
        fault_model: Iterable[Collection[int]],
    ) -> "TrustModel":
        # exact ints only: JSON true/false load as bools, an int subclass
        if type(n) is not int or n < 1:
            raise ValueError(f"process count must be a positive integer, got {n!r}")

        def listed(items: Iterable, what: str) -> list:
            try:
                return list(items)
            except TypeError:  # not a collection
                raise ValueError(f"{what} must be a collection, got {items!r}") from None

        rows = listed(quorums, "quorum systems")
        # before range(n) is built: a huge n fails here, not out of memory
        if len(rows) != n:
            raise ValueError(f"expected one quorum system per process ({n}), got {len(rows)}")
        ids = frozenset(range(n))

        def members(group: Collection[int], what: str) -> frozenset[int]:
            try:
                found = frozenset(group)
            except TypeError:  # not a collection, or a collection of unhashable members
                raise ValueError(f"{what} must be a collection of process ids, got {group!r}") from None
            # the raw members' types, since frozenset() folds a True into an equal 1
            if not (found <= ids and set(map(type, group)) <= {int}):
                raise ValueError(
                    f"{what} is out of range: {list(group)} (process ids are the ints 0..{n - 1})"
                )
            return found

        systems = []
        for pid, row in enumerate(rows):
            groups = listed(row, f"quorum system of process {pid}")
            found = {members(q, f"quorum of process {pid}") for q in groups}
            if not found:
                raise ValueError(f"process {pid} has an empty quorum system")
            if not all(found):
                raise ValueError(f"process {pid} lists an empty quorum")
            systems.append(tuple(sorted(found, key=sorted)))
        faults = {members(f, "faulty set") for f in listed(fault_model, "fault model")}
        # drop absorbed sets; the largest are maximal, so a threshold model's scan is linear
        top = max(map(len, faults), default=0)
        maximal = sorted((f for f in faults if len(f) == top or not any(f < g for g in faults)),
                         key=lambda s: (len(s), sorted(s))) or [frozenset()]
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


def _leasts(by_size: list, rows: int, keep: int, dropped: int) -> list[int]:
    """Each row set in ``rows``: its least reduced quorum size under ``keep``. ``by_size``
    holds each process's (size, mask) pairs smallest first, so a scan stops once
    ``size - |F|`` cannot beat its least."""
    leasts, room = [], keep.bit_count()
    while rows:
        pid = (rows & -rows).bit_length() - 1
        rows &= rows - 1
        least = room
        for size, mask in by_size[pid]:
            if size - dropped >= least:
                break
            if (reduced := (mask & keep).bit_count()) < least:
                least = reduced
        leasts.append(least)
    return leasts


def _least_volumes(by_size: list, keep: int, forced: int, need: int, least_size: int) -> list:
    """Entry ``j`` bounds from below how many keep processes a packing of ``j`` rows that
    holds every ``forced`` row covers. One call per faulty set.

    Pairwise-disjoint reduced quorums cover the sum of their sizes, and each is at least
    its owner's smallest reduced size: the forced rows' sizes, plus the ``j - |forced|``
    smallest of the others'. Under |forced| rows no packing holds them all, so those entries
    exceed the keep set. A quorum loses at most |F| members, so a row's smallest reduced size
    is at least ``least_size``, the model's least quorum size, less |F|. Two weaker bounds are
    returned when they already refuse ``need``: ``j`` times that floor, which needs no scan,
    and the forced rows' sizes plus the floor per other row, which scans the forced rows only."""
    room = keep.bit_count()
    dropped = len(by_size) - room
    floor = least_size - dropped
    if need * floor > room:
        return [j * floor for j in range(room + 1)]
    firsts = forced.bit_count()
    held = sum(_leasts(by_size, forced, keep, dropped))
    if held + (need - firsts) * floor > room:
        return [room + 1] * firsts + [held + j * floor for j in range(room + 1 - firsts)]
    free = _leasts(by_size, keep & ~forced, keep, dropped)
    return [room + 1] * firsts + list(accumulate(sorted(free), initial=held))


def _ceiling_admits(volumes: list[int], keep: int, need: int) -> bool:
    """Can ``need`` rows, every forced one among them, fit their reduced quorums in keep?
    A refusal is exact: disjoint masks inside keep cover at most |keep| processes."""
    return need < len(volumes) and volumes[need] <= keep.bit_count()


class _Packer(dict):
    """Packs pairwise-disjoint masks, one vertex bit per quorum of a row.

    For one faulty set, the best independence number over every quorum map
    is the most correct processes (rows) that can each take a quorum, their
    reduced masks (quorum − F) pairwise disjoint: mutual independence is
    disjointness outside F. A row's masks take a run of vertex bits; the
    packer maps a mask to its clash set, the OR of ``hits[b]`` (the vertices
    whose mask holds b) over its members b. ``(live & low) + low`` carries
    into a run's ``top`` bit when another bit of the run is live.

    Set-up is linear in vertices × quorum size: one (size, mask) pair per distinct quorum,
    and each vertex sets its digit in the ``hits`` buffer of each of its members.
    ``by_size`` holds each row's pairs smallest first, for the volume ceiling."""

    def __init__(self, rows: Sequence[Sequence[Collection[int]]], width: int):  # members < width
        bit = [1 << b for b in range(width)]
        pair_of = {q: (len(q), sum(map(bit.__getitem__, q))) for q in set().union(*rows)}
        # sorted by size alone: the order of equal sizes moves no least volume
        self.by_size = [sorted(map(pair_of.__getitem__, row), key=itemgetter(0)) for row in rows]
        self.masks = [pair_of[q][1] for q in chain.from_iterable(rows)]
        digits = [bytearray(b"0" * (len(self.masks) + 1)) for _ in range(width)]
        for v, quorum in enumerate(chain.from_iterable(rows)):
            for b in quorum:
                digits[b][~v] = 49  # vertex v is digit ~v, as in ``reduce``
        self.hits = [int(column, 2) for column in digits]
        self.owners = [pid for pid, row in enumerate(rows) for _ in row]
        self.starts = [0, *accumulate(map(len, rows))]
        self.runs = [(1 << b) - (1 << a) for a, b in zip(self.starts, self.starts[1:])]
        self.top = sum(run & ~(run >> 1) for run in self.runs)  # each run's top bit
        self.low = sum(self.runs) ^ self.top  # and its other bits
        self[0] = 0

    def __missing__(self, mask: int) -> int:
        self[mask] = self[mask & mask - 1] | self.hits[(mask & -mask).bit_length() - 1]
        return self[mask]

    def reduce(self, keep: int) -> None:
        """Set up one faulty set: a row's first vertex per distinct reduced mask is active."""
        self.reduced = list(map(keep.__and__, self.masks))
        owned = zip(reversed(self.owners), reversed(self.reduced))
        first = dict(zip(owned, reversed(range(len(self.masks)))))  # back to front: firsts win
        digits = bytearray(b"0" * (len(self.masks) + 1))  # vertex v is digit ~v, and a lead 0
        for v in first.values():
            digits[~v] = 49  # ord("1"); one int() is linear in V, where summing V bits is not
        self.active = int(digits, 2)

    def can_pack(
        self, pids: list, need: int, used: int, failed: dict, budget: _Budget, forced: int = 0
    ) -> bool:
        """Can ``need`` of the rows ``pids`` take active vertices with pairwise-disjoint masks
        clear of ``used``? Branch and bound over rows by fewest active vertices, one ``budget``
        unit a node; taking a vertex drops its clash set from the live set, a node with under
        ``need`` live rows is cut, and ``failed`` maps (index, used) to the least need failed.

        The rows set in ``forced``, some of ``pids`` and at most ``need``, come first and are
        never skipped: the caller knows every packing of ``need`` rows holds them all, so a
        node where one of them has no live vertex left is cut."""
        top, low, reduced, active, runs = self.top, self.low, self.reduced, self.active, self.runs
        order = sorted(map(runs.__getitem__, pids), key=lambda run: (active & run).bit_count())
        if forced:  # a stable sort: the forced rows lead, fewest active vertices first
            forced_runs = sum(runs[pid] for pid in pids if forced >> pid & 1)
            order.sort(key=lambda run: not run & forced_runs)
        firsts = forced.bit_count()
        forced_tops = top & sum(order[:firsts])

        def search(i: int, live: int, need: int, used: int) -> bool:
            if need == 0:
                return True
            alive = (((live & low) + low) | live) & top
            if (
                alive.bit_count() < need
                or i < firsts and (alive & forced_tops).bit_count() < firsts - i  # one died
                or failed.get((i, used), need + 1) <= need
            ):
                return False
            budget.spend(1)
            j = i
            while not live & order[j]:
                j += 1
            row, rest = live & order[j], live & ~order[j]
            while row:
                mask = reduced[(row & -row).bit_length() - 1]
                row &= row - 1
                if search(j + 1, rest & ~self[mask], need - 1, used | mask):
                    return True
            if j >= firsts and search(j + 1, rest, need, used):
                return True
            failed[i, used] = need
            return False

        try:
            return search(0, active & sum(order) & ~self[used], need, used)
        finally:
            del search  # it holds itself through its cell: no cycle outlives the call


def _lambda_and_witness(
    model: TrustModel, budget_cap: int, *, rebuild: bool = True
) -> tuple[int, Witness | None]:
    """The exact search: every faulty set in closure order, one unit each.

    A packing under F less any correct process x is a packing under
    F ∪ {x}, so λ(F) ≤ λ(F ∪ {x}) + 1; and every visited set's λ is at most
    the best value once its visit ends. The one-fault extensions of F come
    earlier in closure order, so F is skipped when the best value just after
    its first extension was visited is below the best now, or when it has
    more extension processes than the best plus one: a packing of the best
    plus one must hold them all. Otherwise the decision search, with the
    extension processes forced into every packing, asks for one more than
    the best, then one more while it succeeds, sharing its failures across
    those asks; before each ask, the ceiling over the set's least volumes,
    computed once per set and counting the forced processes, must admit it.
    A set whose ceiling refuses the first ask is never set up for a search:
    its reduced masks and its list of correct processes are built only once
    the ceiling admits an ask.
    Only a strict improvement moves the witness, so skipping never changes
    it. The witness rebuild is charged to the same budget; without
    ``rebuild`` the search returns the value alone, with no witness.
    """
    budget = _Budget(budget_cap)
    packer = _Packer(model.quorums, model.n)
    least_size = min(row[0][0] for row in packer.by_size)
    n = model.n
    everyone = (1 << n) - 1
    # faulty mask of a set still to visit -> (best after its first extension) << n | extensions
    bounds: dict[int, int] = {}
    best = visited = 0
    best_faulty: frozenset[int] | None = None
    try:
        for visited, combo in enumerate(_closure_order(model), 1):
            budget.spend(1)
            bits = [1 << p for p in combo]
            faulty = sum(bits)
            bound, forced = divmod(bounds.pop(faulty, best << n), everyone + 1)
            keep = everyone ^ faulty
            if bound >= best and forced.bit_count() <= best + 1:  # λ(F) <= bound + 1
                volumes = _least_volumes(packer.by_size, keep, forced, best + 1, least_size)
                failed: dict[tuple[int, int], int] | None = None
                while _ceiling_admits(volumes, keep, best + 1):
                    if failed is None:  # the first ask the ceiling admits sets the set up
                        packer.reduce(keep)
                        failed = {}
                        correct = [p for p in model.processes() if keep >> p & 1]
                    if not packer.can_pack(correct, best + 1, 0, failed, budget, forced):
                        break
                    best, best_faulty, best_keep = best + 1, frozenset(combo), keep
            # a bound is only ever a prune: one dropped here costs search, never the value
            if len(bounds) < _MAX_BOUNDS:
                first = best << n
                for bit in bits:
                    bounds[faulty ^ bit] = bounds.get(faulty ^ bit, first) | bit

        assert best_faulty is not None  # every model admits some faulty set and a node
        if not rebuild:
            return best, None
        correct = [p for p in model.processes() if p not in best_faulty]
        packer.reduce(best_keep)
        # greedy rebuild: smallest members first, lex-first fitting quorums, lex-first fillers
        chosen: dict[int, Quorum] = {}
        used = 0
        for i, pid in enumerate(correct):
            if len(chosen) == best:
                break
            failed = {}
            for v, quorum in enumerate(model.quorums[pid], packer.starts[pid]):
                mask = packer.reduced[v]
                if packer.active >> v & 1 and not mask & used and packer.can_pack(
                    correct[i + 1 :], best - len(chosen) - 1, used | mask, failed, budget
                ):
                    chosen[pid] = quorum
                    used |= mask
                    break
    except _Exhausted:
        raise SizeLimitExceeded(
            f"inconsistency search exceeded its budget of {budget_cap} units",
            partial_maximum=best,
            best_faulty_set=best_faulty,
            faulty_sets_visited=visited,
            units_spent=budget_cap - budget.remaining,
        ) from None

    quorum_map = {pid: chosen.get(pid, model.quorums[pid][0]) for pid in correct}
    return best, Witness(best_faulty, quorum_map, frozenset(chosen))


def inconsistency_number(model: TrustModel, *, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Worst independence number over the fault closure and all quorum maps."""
    value, _ = _lambda_and_witness(model, budget, rebuild=False)
    return value


def max_independent_set_witness(
    model: TrustModel, *, budget: int = DEFAULT_ENUM_BUDGET
) -> Witness:
    """A (faulty set, quorum map, independent set) achieving the maximum."""
    _, witness = _lambda_and_witness(model, budget)
    assert witness is not None
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
    """Explicit symmetric model: every q-subset through p, every |F| <= f. Valid by
    construction, so ``build``'s checks are skipped: each q-subset is one object, shared
    by its members' systems in ``build``'s (lexicographic) order; the f-subsets are maximal."""
    uniform_inconsistency(n, q, f)  # parameter validation
    systems: list[list[Quorum]] = [[] for _ in range(n)]
    for quorum in map(frozenset, combinations(range(n), q)):
        for pid in quorum:
            systems[pid].append(quorum)
    faults = tuple(map(frozenset, combinations(range(n), f)))
    return TrustModel(n, tuple(map(tuple, systems)), faults)


def parse_model(obj: object) -> TrustModel:
    if not isinstance(obj, dict):
        raise SchemaError("trust model file must hold a JSON object")
    unknown = sorted(set(obj) - {"n", "quorums", "fault_model_maximal"})
    if unknown:
        raise SchemaError(f"trust model takes no field {', '.join(map(repr, unknown))}")
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


def read_json(path: str, what: str) -> object:
    """A file's JSON value; bad UTF-8 or JSON, a NUL or an OSError is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from None


def load_model(path: str) -> TrustModel:
    return parse_model(read_json(path, "trust model"))


def load_builtin_model(name: str) -> TrustModel:
    """Models shipped with the package, e.g. ``example1``."""
    try:
        text = resources.files("kspend.data").joinpath(f"{name}.json").read_text("utf-8")
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise SchemaError(f"no builtin model named {name!r}") from exc
    return parse_model(json.loads(text))
