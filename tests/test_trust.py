import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspend import trust
from kspend.errors import InvalidParameters, SchemaError, SizeLimitExceeded
from kspend.trust import (
    TrustModel,
    allows_faulty,
    dump_model,
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
    brute_fault_closure,
    brute_inconsistency,
    brute_pack,
    build_trust_graph,
    subset_independence_number,
)


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


@pytest.mark.parametrize(
    "n,quorums,faults",
    [
        (0, [], []),
        (2, [[[0]]], []),  # one row short
        (2, [[[0]], []], []),  # empty quorum system
        (2, [[[0]], [[]]], []),  # empty quorum
        (2, [[[0]], [[2]]], []),  # member out of range
        (2, [[[0]], [[1]]], [[5]]),  # faulty set out of range
    ],
)
def test_build_rejects_malformed(n, quorums, faults):
    with pytest.raises(ValueError):
        TrustModel.build(n, quorums, faults)


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
    # six units find the value; the witness rebuild needs one more
    assert inconsistency_number(example1, budget=6) == 2
    with pytest.raises(SizeLimitExceeded) as err:
        max_independent_set_witness(example1, budget=6)
    assert err.value.partial_maximum == 2
    assert max_independent_set_witness(example1, budget=7).independent_set == frozenset({0, 3})


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


def test_packing_search_matches_brute_force():
    rng = random.Random(31)

    def can_pack(rows, need, used, failed=None):
        return trust._can_pack(rows, need, used, {} if failed is None else failed,
                               trust._Budget(1 << 30))

    for _ in range(150):
        rows = _random_rows(rng)
        failed = {}  # one memo per row list, shared as the analyzer shares it
        for used in (0, rng.randrange(1 << 7), rng.randrange(1 << 7)):
            best = brute_pack(rows, used)
            for need in range(len(rows) + 2):
                assert can_pack(rows, need, used) == (need <= best), (rows, used, need)
                assert can_pack(rows, need, used, failed) == (need <= best)
        for i in range(len(rows) + 1):  # the witness rebuild asks suffixes
            used = rng.randrange(1 << 7)
            best = brute_pack(rows[i:], used)
            for need in range(len(rows) - i + 2):
                assert can_pack(rows[i:], need, used) == (need <= best)


@settings(max_examples=60, deadline=None)
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


def test_uniform_formula_matches_brute_force_small():
    for n in range(2, 6):
        for q in range(2, n + 1):
            for f in range(0, q):
                m = uniform_model(n, q, f)
                assert brute_inconsistency(m) == uniform_inconsistency(n, q, f), (n, q, f)


# --- serialization ---------------------------------------------------------


def test_model_roundtrip(tmp_path, example1):
    path = tmp_path / "m.json"
    dump_model(example1, str(path))
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
