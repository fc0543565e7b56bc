import json
import pathlib
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspend import trust
from kspend.errors import InvalidParameters, SchemaError, SizeLimitExceeded
from kspend.trust import (
    TrustModel,
    allows_faulty,
    fault_closure,
    inconsistency_number,
    is_live,
    load_builtin_model,
    load_model,
    max_independent_set_witness,
    model_to_obj,
    parse_model,
    self_inclusion_gaps,
    uniform_inconsistency,
    uniform_model,
)

from oracles import (
    brute_active,
    brute_fault_closure,
    brute_inconsistency,
    brute_maximal,
    brute_pack,
    brute_uniform_model,
    build_trust_graph,
    subset_independence_number,
    transposed_hits,
)
from pinned_search_units import UNITS_FILE, charged_units, example1_case


def tiny(n, quorums, faults):
    return TrustModel.build(n, quorums, faults)


# --- model construction ----------------------------------------------------


def test_build_normalizes_and_validates():
    m = tiny(2, [[[0], [0, 1], [0]], [[1]]], [[0], [0]])
    assert m.quorums[0] == (frozenset({0}), frozenset({0, 1}))
    assert m.fault_model == (frozenset({0}),)


def test_build_absorbs_dominated_fault_sets():
    m = tiny(3, [[[0]], [[1]], [[2]]], [[0], [0, 1], [2]])
    assert set(m.fault_model) == {frozenset({0, 1}), frozenset({2})}


def test_build_empty_fault_model_keeps_empty_set():
    m = tiny(2, [[[0]], [[1]]], [])
    assert m.fault_model == (frozenset(),)


def test_build_absorbs_as_the_all_pairs_oracle_does():
    rng = random.Random(2901)
    n = 7
    rows = [[[p]] for p in range(n)]
    for _ in range(400):
        faults = [rng.sample(range(n), rng.randint(0, 5)) for _ in range(rng.randint(0, 12))]
        # duplicates, some in another member order, and the empty set
        faults += [rng.choice(faults)[::-1] for _ in range(rng.randint(0, 3)) if faults]
        faults += [[]] * rng.randint(0, 1)
        rng.shuffle(faults)
        assert tiny(n, rows, faults).fault_model == brute_maximal(faults), faults


@pytest.mark.parametrize(
    "n,quorums,faults",
    [
        (0, [], []),
        (2, [[[0]]], []),  # one row short
        (2, [[[0]], []], []),  # empty quorum system
        (2, [[[0]], [[]]], []),  # empty quorum
        (2, [[[0]], [[2]]], []),  # member out of range
        (2, [[[0]], [[1]]], [[5]]),  # faulty set out of range
        # a boolean id after an equal valid group, in the same or an earlier system
        (2, [[[1], [True, 1]], [[1]]], []),
        (2, [[[1]], [[1, True]]], []),
        (2, [[frozenset({1})], [frozenset({True})]], []),
    ],
)
def test_build_rejects_malformed(n, quorums, faults):
    with pytest.raises(ValueError):
        TrustModel.build(n, quorums, faults)


@pytest.mark.parametrize(
    "quorums, faults, detail",
    [
        ([[[0]], [1]], [], "quorum of process 1 must be a collection of process ids, got 1"),
        ([[[0]], [[1]]], [3], "faulty set must be a collection of process ids, got 3"),
        (5, [], "quorum systems must be a collection, got 5"),
        ([3, 3], [], "quorum system of process 0 must be a collection, got 3"),
        ([[[0]], [[1]]], 5, "fault model must be a collection, got 5"),
    ],
    ids=["quorum", "faulty set", "quorums", "quorum system", "fault model"],
)
def test_build_names_a_group_that_is_no_collection(quorums, faults, detail):
    with pytest.raises(ValueError, match=detail):
        TrustModel.build(2, quorums, faults)
    # a model file gets the same words
    with pytest.raises(SchemaError, match=detail):
        parse_model({"n": 2, "quorums": quorums, "fault_model_maximal": faults})


def test_build_takes_any_collection_of_ids():
    m = TrustModel.build(2, [[range(2)], [frozenset({1})]], [range(1), frozenset()])
    assert m == tiny(2, [[[0, 1]], [[1]]], [[0]])


def test_build_checks_fresh_groups_whose_ids_may_repeat():
    # each system yields new lists that are dropped once read, so a later
    # group may get the id (the freed memory) of an earlier one
    n = 7

    def system(pid):
        return ([*c] for c in combinations(range(n), 3) if pid in c)

    assert TrustModel.build(n, map(system, range(n)), []) == uniform_model(n, 3, 0)


def test_allows_faulty_is_downward_closure_membership():
    m = tiny(3, [[[0]], [[1]], [[2]]], [[0, 1]])
    assert allows_faulty(m, frozenset())
    assert allows_faulty(m, frozenset({0}))
    assert allows_faulty(m, frozenset({0, 1}))
    assert not allows_faulty(m, frozenset({2}))


def test_fault_closure_matches_oracle_and_orders_largest_first():
    m = tiny(4, [[[p]] for p in range(4)], [[0, 1], [2]])
    closure = fault_closure(m)
    assert sorted(closure, key=lambda s: (len(s), sorted(s))) == brute_fault_closure(m)
    sizes = [len(f) for f in closure]
    assert sizes == sorted(sizes, reverse=True)
    overlapping = tiny(5, [[[p]] for p in range(5)], [[0, 2, 3], [1, 2, 4], [0, 1, 2]])
    for m in (uniform_model(6, 4, 2), overlapping):
        closure = fault_closure(m)
        assert list(closure) == sorted(brute_fault_closure(m), key=lambda s: (-len(s), sorted(s)))


def test_self_inclusion_gaps_flags_only_offenders(example1):
    # one quorum in the shipped example omits its owner
    assert self_inclusion_gaps(example1) == ((2, frozenset({0, 1, 3})),)
    assert self_inclusion_gaps(uniform_model(4, 3, 1)) == ()


def test_is_live_needs_a_quorum_clear_of_faults(example1):
    faulty = frozenset({2})
    assert not is_live(example1, 0, faulty)  # its only quorum contains 2
    assert is_live(example1, 1, faulty)
    assert is_live(example1, 3, faulty)
    assert all(is_live(example1, p, frozenset()) for p in range(4))


# --- trust graphs ----------------------------------------------------------

S1 = {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 3: frozenset({1, 3})}
S2 = {0: frozenset({0, 1, 2}), 1: frozenset({1, 3}), 3: frozenset({2, 3})}


def test_graph_edges_need_intersection_outside_faulty(example1):
    g1 = build_trust_graph(example1, {2}, S1)
    assert g1.nodes == frozenset({0, 1, 3})
    assert g1.edges == frozenset({(0, 1), (0, 3), (1, 3)})
    g2 = build_trust_graph(example1, {2}, S2)
    # 0 and 3 meet only in the faulty process, so that edge disappears
    assert g2.edges == frozenset({(0, 1), (1, 3)})
    assert g2.adjacent(0, 1) and not g2.adjacent(3, 0)


def test_graph_independence_on_example_selections(example1):
    g1 = build_trust_graph(example1, {2}, S1)
    assert subset_independence_number(g1.nodes, g1.adjacent) == 1
    g2 = build_trust_graph(example1, {2}, S2)
    assert subset_independence_number(g2.nodes, g2.adjacent) == 2
    assert not g2.adjacent(0, 3)


# --- inconsistency number --------------------------------------------------


def test_example_model_bound_and_witness(example1):
    assert inconsistency_number(example1) == 2
    w = max_independent_set_witness(example1)
    assert w.faulty_set == frozenset({2})
    assert w.independent_set == frozenset({0, 3})
    g = build_trust_graph(example1, w.faulty_set, w.quorum_map)
    assert all(not g.adjacent(a, b) for a in w.independent_set for b in w.independent_set if a < b)


def test_non_maximal_faulty_set_can_win():
    # dropping one member of the biggest faulty set disconnects the graph;
    # searching maximal sets alone would understate the bound
    m = tiny(3, [[[0]], [[0, 1]], [[2]]], [[0, 2]])
    assert brute_inconsistency(m, faulty_sets=[frozenset({0, 2})]) == 1
    assert brute_inconsistency(m) == 2
    assert inconsistency_number(m) == 2
    assert max_independent_set_witness(m).faulty_set == frozenset({0})


def test_bound_matches_brute_force_on_random_models():
    from kspend.fuzz import random_model

    rng = random.Random(21)
    for _ in range(40):
        m = random_model(rng, n=rng.randint(3, 5))
        assert inconsistency_number(m) == brute_inconsistency(m)


def test_witness_is_always_checkable():
    from kspend.fuzz import random_vulnerable_model

    rng = random.Random(5)
    for _ in range(15):
        model, k = random_vulnerable_model(rng)
        w = max_independent_set_witness(model)
        assert allows_faulty(model, w.faulty_set)
        correct = {p for p in range(model.n) if p not in w.faulty_set}
        assert set(w.quorum_map) == correct
        for pid, q in w.quorum_map.items():
            assert q in model.quorums[pid]
        assert len(w.independent_set) == k
        for a in w.independent_set:
            for b in w.independent_set:
                if a < b:
                    assert not (w.quorum_map[a] & w.quorum_map[b]) - w.faulty_set


def test_budget_exhaustion_reports_partial(example1):
    with pytest.raises(SizeLimitExceeded) as err:
        inconsistency_number(example1, budget=1)
    assert err.value.partial_maximum == 0
    # the first faulty set takes the only unit, the first search node overruns
    assert (err.value.faulty_sets_visited, err.value.units_spent) == (1, 2)
    closure = len(fault_closure(example1))
    for budget in range(2, 200):
        try:
            max_independent_set_witness(example1, budget=budget)
        except SizeLimitExceeded as exc:
            assert 1 <= exc.faulty_sets_visited <= closure
            assert exc.units_spent == budget + 1
        else:
            break
    else:
        pytest.fail("example1 never fit a budget below 200")


def test_value_skips_the_witness_rebuild(example1):
    # the value's units find it, the ceiling refusing a third process with no
    # search; the witness rebuild needs more
    case = example1_case()
    assert inconsistency_number(example1, budget=case["value_units"]) == 2
    with pytest.raises(SizeLimitExceeded) as err:
        max_independent_set_witness(example1, budget=case["value_units"])
    assert err.value.partial_maximum == 2
    witness = max_independent_set_witness(example1, budget=case["witness_units"])
    assert witness.independent_set == frozenset({0, 3})


def test_budget_overrun_reports_the_best_faulty_set(example1):
    with pytest.raises(SizeLimitExceeded) as err:
        max_independent_set_witness(example1, budget=1)
    assert (err.value.partial_maximum, err.value.best_faulty_set) == (0, None)
    # bound 1, then bound 2 with a second faulty set visited
    for budget in (2, example1_case()["value_units"]):
        with pytest.raises(SizeLimitExceeded) as err:
            max_independent_set_witness(example1, budget=budget)
        assert err.value.best_faulty_set == frozenset({2})
    assert err.value.faulty_sets_visited == 2
    assert max_independent_set_witness(example1).faulty_set == frozenset({2})


def test_pruned_search_matches_brute_force(monkeypatch):
    from kspend.fuzz import random_model

    verdicts = []
    admits = trust._ceiling_admits

    def recording(*args):
        verdicts.append(admits(*args))
        return verdicts[-1]

    monkeypatch.setattr(trust, "_ceiling_admits", recording)
    rng = random.Random(23)
    for _ in range(60):
        m = random_model(rng, n=rng.randint(3, 6))
        assert inconsistency_number(m) == brute_inconsistency(m)
    # the ceiling did skip faulty sets on these models, and did not skip all
    assert verdicts.count(False) > 20 and verdicts.count(True) > 20


def test_ceiling_refuses_only_asks_no_forced_packing_meets(monkeypatch):
    """Every ask the volume ceiling refuses has no packing, forced processes included.

    For each faulty set that reaches the ceiling, with the forced processes the
    search passes, and each need from 1 to one more than the correct processes:
    if the ceiling refuses the ask, no ``need`` correct processes holding every
    forced one take pairwise-disjoint quorums outside F.
    """
    from kspend.fuzz import random_model

    reached = []
    volumes = trust._least_volumes

    def recording_volumes(by_size, keep, forced, need, least_size):
        reached.append((by_size, keep, forced, least_size))
        return volumes(by_size, keep, forced, need, least_size)

    monkeypatch.setattr(trust, "_least_volumes", recording_volumes)
    rng = random.Random(1901)
    refusals = {True: 0, False: 0}  # by whether the ask held forced processes
    for _ in range(60):
        n = rng.randint(3, 8)
        drawn = random_model(rng, n=n)
        faults = [rng.sample(range(n), rng.randint(1, n // 2)) for _ in range(rng.randint(2, 3))]
        model = TrustModel.build(n, drawn.quorums, faults)
        reached.clear()
        inconsistency_number(model)
        for by_size, keep, forced, least_size in reached:
            faulty = {p for p in range(n) if not keep >> p & 1}
            correct = [p for p in range(n) if keep >> p & 1]
            rows = [[sum(1 << m for m in q - faulty) for q in model.quorums[p]] for p in correct]
            held = [i for i, p in enumerate(correct) if forced >> p & 1]
            most = brute_pack(rows, forced=held)
            for need in range(1, len(correct) + 2):
                asked = volumes(by_size, keep, forced, need, least_size)
                if not trust._ceiling_admits(asked, keep, need):
                    assert not len(held) <= need <= most, (model, faulty, held, need)
                    refusals[bool(held)] += 1
    assert refusals[True] > 20 and refusals[False] > 20


def _extension_rules(model, lam):
    """Per faulty set in closure order: does the first rule, the second, or neither skip it?

    ``lam`` maps each faulty set to its brute-force value. Just after a set
    is visited, the search's best is the largest value visited so far.
    """
    best, first_best, extensions, rules = 0, {}, {}, {}
    for faulty in fault_closure(model):
        if first_best.get(faulty, best) < best:
            rules[faulty] = "bound"
        elif len(extensions.get(faulty, ())) > best + 1:
            rules[faulty] = "too-many"
        else:
            rules[faulty] = None
        best = max(best, lam[faulty])
        for p in faulty:
            first_best.setdefault(faulty - {p}, best)
            extensions.setdefault(faulty - {p}, set()).add(p)
    return rules


def test_extension_rules_match_brute_force(monkeypatch):
    """λ(F) ≤ λ(F ∪ {x}) + 1, and the skips and forced rows it licenses are exact.

    A faulty set reaches the ceiling only when neither extension rule skips
    it; a search with forced rows answers as one without them.
    """
    from kspend.fuzz import random_model

    ceilinged, forced_calls = [], []
    volumes, can_pack = trust._least_volumes, trust._Packer.can_pack

    def recording_volumes(by_size, keep, forced, need, least_size):
        ceilinged.append(keep)
        return volumes(by_size, keep, forced, need, least_size)

    def recording_can_pack(self, pids, need, used, failed, budget, forced=0):
        if forced:
            units = []
            for rows in (forced, 0):  # fresh memos: a memo is only valid for its own order
                fresh = trust._Budget(1 << 30)
                units.append((can_pack(self, pids, need, used, {}, fresh, rows),
                              (1 << 30) - fresh.remaining))
            assert units[0][0] == units[1][0]
            forced_calls.append(units[0][1] < units[1][1])
        return can_pack(self, pids, need, used, failed, budget, forced)

    monkeypatch.setattr(trust, "_least_volumes", recording_volumes)
    monkeypatch.setattr(trust._Packer, "can_pack", recording_can_pack)
    rng = random.Random(18)
    rules = []
    for _ in range(40):
        n = rng.randint(4, 8)
        drawn = random_model(rng, n=n)
        faults = [rng.sample(range(n), rng.randint(1, n // 2)) for _ in range(rng.randint(1, 3))]
        model = TrustModel.build(n, drawn.quorums, faults)
        closure = fault_closure(model)
        lam = {f: brute_inconsistency(model, faulty_sets=[f]) for f in closure}
        for f in closure:
            for x in set(range(n)) - f:
                if allows_faulty(model, f | {x}):
                    assert lam[f] <= lam[f | {x}] + 1, (model, f, x)
        ceilinged.clear()
        assert inconsistency_number(model) == max(lam.values())
        model_rules = _extension_rules(model, lam)
        everyone = (1 << n) - 1
        reached = [everyone & ~sum(1 << p for p in f) for f, rule in model_rules.items()
                   if not rule]
        assert ceilinged == reached, model
        rules.extend(model_rules.values())
    # each rule skipped some faulty sets and not all, and forced rows cut some searches
    assert rules.count("bound") > 5 and rules.count("too-many") > 5 and rules.count(None) > 50
    assert 0 < forced_calls.count(True) < len(forced_calls)


def test_dropped_bounds_change_no_value_or_witness(monkeypatch):
    """A bound only prunes: held two at a time, values and witnesses stay the same."""
    from kspend.fuzz import random_model

    rng = random.Random(19)
    models = [uniform_model(8, 5, 2), uniform_model(9, 6, 3)]
    models += [random_model(rng, n=rng.randint(6, 10)) for _ in range(30)]
    expected = [max_independent_set_witness(m) for m in models]
    monkeypatch.setattr(trust, "_MAX_BOUNDS", 2)
    for model, witness in zip(models, expected):
        assert inconsistency_number(model) == len(witness.independent_set)
        assert max_independent_set_witness(model) == witness


def test_witnesses_are_pinned():
    """Faulty set, quorum map and independent set on fixed fuzz models.

    The expected witnesses come from the search without any pruning of
    faulty sets; pruning must leave them as they are.
    """
    path = pathlib.Path(__file__).parent / "data" / "pinned_witnesses.json"
    for case in json.loads(path.read_text()):
        model = parse_model(case["model"])
        w = max_independent_set_witness(model)
        assert inconsistency_number(model) == case["value"]
        assert sorted(w.faulty_set) == case["faulty"]
        assert {str(p): sorted(q) for p, q in w.quorum_map.items()} == case["quorums"]
        assert sorted(w.independent_set) == case["independent"]


def test_search_units_are_pinned():
    """Value and units charged, with and without the witness, on fixed models.

    The cases are the uniform ladder through (11, 7, 3), 40 asymmetric
    n = 14-16 models of the analyze benchmark's fixed draw, 40 small fuzz
    models and example1. The units were counted on the search that bounds each faulty set
    by its one-fault extensions, forces their processes into the packing, and
    asks its volume ceiling, which counts the forced processes, before every
    packing search; a change to them is a change of how much the search
    visits, made on purpose by regenerating the file with
    ``tests/pinned_search_units.py``.
    """
    cases = json.loads(UNITS_FILE.read_text())
    assert len(cases) == 86
    for case in cases:
        model = uniform_model(*case["uniform"]) if "uniform" in case else parse_model(case["model"])
        value, units = charged_units(inconsistency_number, model)
        witness, witness_units = charged_units(max_independent_set_witness, model)
        assert (value, len(witness.independent_set)) == (case["value"], case["value"]), case
        assert (units, witness_units) == (case["value_units"], case["witness_units"]), case


def test_uniform_12_8_4_is_exact_within_the_default_budget():
    assert inconsistency_number(uniform_model(12, 8, 4)) == uniform_inconsistency(12, 8, 4)


def test_budget_binds_from_the_first_faulty_set(monkeypatch):
    # one maximal faulty set of 18 has 2^18 subsets; the budget must stop
    # the search long before the closure has been enumerated
    model = tiny(20, [[range(20)]] * 20, [range(18)])
    drawn = 0
    combinations = trust.combinations

    def counting(members, r):
        nonlocal drawn
        for combo in combinations(members, r):
            drawn += 1
            yield combo

    monkeypatch.setattr(trust, "combinations", counting)
    with pytest.raises(SizeLimitExceeded) as err:
        inconsistency_number(model, budget=1000)
    assert err.value.partial_maximum == 1
    assert drawn <= 1002  # at least one unit per faulty set visited


def test_budget_binds_inside_one_faulty_set(monkeypatch):
    # no faults, so one faulty set; quorums {p, s} over s in a hub of 4
    # pack 4 processes, and refuting 5 takes thousands of search nodes
    hub = [0, 1, 2, 3]
    model = tiny(20, [[hub]] * 4 + [[[p, s] for s in hub] for p in range(4, 20)], [])
    charged = 0
    spend = trust._Budget.spend

    def counting(self, units):
        nonlocal charged
        charged += units
        spend(self, units)

    monkeypatch.setattr(trust._Budget, "spend", counting)
    assert inconsistency_number(model) == 4
    assert charged > 5000
    charged = 0
    with pytest.raises(SizeLimitExceeded) as err:
        inconsistency_number(model, budget=1000)
    assert charged == err.value.units_spent == 1001  # the budget and the unit that overran
    assert err.value.faulty_sets_visited == 1
    assert err.value.partial_maximum == 4


def _random_rows(rng):
    # masks drawn from a small pool, so rows repeat masks and share them
    pool = [rng.randrange(1, 1 << 7) for _ in range(rng.randint(1, 8))] + [0]
    return [
        [rng.choice(pool) for _ in range(rng.choice((0, 1, 1, 2, 3, 4)))]
        for _ in range(rng.randint(0, 6))
    ]


def _quorums(rows):
    """The mask rows as member sets, one object per distinct mask, as a model shares them."""
    of = {}
    return [[of.setdefault(m, frozenset(b for b in range(m.bit_length()) if m >> b & 1))
             for m in row] for row in rows]


def test_clash_bits_match_the_transposed_oracle():
    """One set-up pass builds the masks, the clash bits and the size-sorted pairs."""
    rng = random.Random(3601)
    for width in (7, 7, 7, 12):
        for _ in range(200):
            rows = _random_rows(rng)
            if width > 7:  # wider rows, some masks reaching the top process
                rows = [[m << rng.randrange(6) for m in row] for row in rows]
            packer = trust._Packer(_quorums(rows), width)
            assert packer.hits == transposed_hits(rows, width), (rows, width)
            assert packer.masks == [m for row in rows for m in row]
            for row, pairs in zip(rows, packer.by_size, strict=True):
                assert sorted(pairs) == sorted((m.bit_count(), m) for m in row)
                assert [size for size, _ in pairs] == sorted(m.bit_count() for m in row)


def test_packing_search_matches_brute_force():
    rng = random.Random(31)

    def packer_of(rows):
        packer = trust._Packer(_quorums(rows), 7)
        packer.reduce(-1)  # no faulty set: each mask is its own reduced mask
        return packer

    def can_pack(packer, need, used, failed=None, first=0):
        # the rows from ``first`` on, as the witness rebuild asks suffixes
        pids = list(range(first, len(packer.runs)))
        return packer.can_pack(pids, need, used, {} if failed is None else failed,
                               trust._Budget(1 << 30))

    for _ in range(150):
        rows = _random_rows(rng)
        packer = packer_of(rows)  # one per row list, its clash sets reused across calls
        failed = {}  # one memo per row list, shared as the analyzer shares it
        for used in (0, rng.randrange(1 << 7), rng.randrange(1 << 7)):
            best = brute_pack(rows, used)
            for need in range(len(rows) + 2):
                assert can_pack(packer, need, used) == (need <= best), (rows, used, need)
                assert can_pack(packer, need, used, failed) == (need <= best)
        for i in range(len(rows) + 1):  # the witness rebuild asks suffixes
            used = rng.randrange(1 << 7)
            best = brute_pack(rows[i:], used)
            for need in range(len(rows) - i + 2):
                assert can_pack(packer, need, used, first=i) == (need <= best)
                assert can_pack(packer_of(rows[i:]), need, used) == (need <= best)


def test_active_vertices_match_the_summed_oracle():
    rng = random.Random(2902)
    for _ in range(300):
        rows = _random_rows(rng)
        packer = trust._Packer(_quorums(rows), 7)
        for keep in (-1, rng.randrange(1 << 7), rng.randrange(1 << 7)):
            packer.reduce(keep)
            assert packer.active == brute_active(rows, keep), (rows, keep)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_shrinking_the_faulty_set_never_removes_edges(data):
    """Edges are monotone in F: (q_a & q_b) - F' grows as F' shrinks."""
    n = data.draw(st.integers(3, 5))
    f = data.draw(st.integers(1, 2))
    model = uniform_model(n, data.draw(st.integers(max(2, f + 1), n)), f)
    closure = fault_closure(model)
    big = data.draw(st.sampled_from([s for s in closure if s]))
    small = frozenset(data.draw(st.sets(st.sampled_from(sorted(big)), max_size=len(big) - 1)))
    rng = random.Random(data.draw(st.integers(0, 999)))
    choice = {
        p: rng.choice(model.quorums[p]) for p in range(model.n) if p not in small
    }
    g_small = build_trust_graph(model, small, choice)
    g_big = build_trust_graph(
        model, big, {p: q for p, q in choice.items() if p not in big}
    )
    assert g_big.edges <= g_small.edges


# --- uniform closed form ---------------------------------------------------


def test_uniform_formula_validation():
    with pytest.raises(InvalidParameters):
        uniform_inconsistency(4, 0, 0)
    with pytest.raises(InvalidParameters):
        uniform_inconsistency(4, 5, 0)
    with pytest.raises(InvalidParameters):
        uniform_inconsistency(4, 3, 3)
    with pytest.raises(InvalidParameters):
        uniform_inconsistency(4, 3, -1)
    with pytest.raises(InvalidParameters):
        uniform_inconsistency(4.0, 3, 1)


def test_uniform_model_shape():
    m = uniform_model(4, 3, 1)
    for pid in range(4):
        assert len(m.quorums[pid]) == 3  # C(3, 2) quorums through pid
        assert all(pid in q and len(q) == 3 for q in m.quorums[pid])
    assert set(m.fault_model) == {frozenset({p}) for p in range(4)}


# the uniform ladder of perfbench's analyze workload
ANALYZE_LADDER = ((9, 5, 2), (9, 6, 2), (10, 6, 3), (10, 7, 3), (11, 7, 3), (11, 8, 4), (12, 8, 4))


def test_uniform_model_matches_the_per_process_oracle():
    small = [(n, q, f) for n in range(1, 10) for q in range(1, n + 1) for f in range(q)]
    for n, q, f in small + list(ANALYZE_LADDER):
        # equal tuples: the same quorums in the same order in every system
        model = uniform_model(n, q, f)
        assert model == brute_uniform_model(n, q, f), (n, q, f)
        # built without build's checks, it is what build makes of the raw sets, given
        # in reverse so that build sorts them
        raw = [[[*c] for c in combinations(range(n), q) if pid in c][::-1] for pid in range(n)]
        faults = list(combinations(range(n), f))[::-1]
        assert model == TrustModel.build(n, raw, faults), (n, q, f)


def test_uniform_model_holds_one_object_per_quorum():
    model = uniform_model(12, 8, 4)
    assert len({id(quorum) for system in model.quorums for quorum in system}) == comb(12, 8)
    oracle = brute_uniform_model(12, 8, 4)  # one object per reference: 12 * comb(11, 7) = 3,960
    for pid in range(12):
        assert model.quorums[pid] == oracle.quorums[pid]


def test_uniform_formula_matches_brute_force_small():
    for n in range(2, 6):
        for q in range(2, n + 1):
            for f in range(0, q):
                m = uniform_model(n, q, f)
                assert brute_inconsistency(m) == uniform_inconsistency(n, q, f), (n, q, f)


# --- serialization ---------------------------------------------------------


def test_model_roundtrip(tmp_path, example1):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_obj(example1)))
    assert load_model(str(path)) == example1
    assert parse_model(model_to_obj(example1)) == example1


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        {"n": 2, "quorums": [[[0]], [[1]]]},  # missing fault model
        {"n": 2, "quorums": [[[0]]], "fault_model_maximal": []},
        {"n": "two", "quorums": [], "fault_model_maximal": []},
        # rejected by its quorum count before range(n) is built
        {"n": 2**70, "quorums": [[[0]]], "fault_model_maximal": [[]]},
    ],
)
def test_parse_model_schema_errors(obj):
    with pytest.raises(SchemaError):
        parse_model(obj)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(SchemaError):
        load_model(str(tmp_path / "nope.json"))


def test_builtin_models():
    assert load_builtin_model("example1").n == 4
    with pytest.raises(SchemaError):
        load_builtin_model("does-not-exist")
