"""Acceptance gate: twelve checks, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; every check prints exactly
one line of the form ``criterion NN: PASS (...)`` or ``criterion NN: FAIL
(...)`` before asserting, so the full scorecard survives in the -rP summary
even on partial failures. Wall-clock limits are part of the checks and are
asserted, not just reported.
"""

import dataclasses
import random
import time

from click.testing import CliRunner

import kspend
from kspend import engine as eng
from kspend import trust
from kspend.cli import main as cli_main
from kspend.crypto import Verifier, keychain, make_scheme
from kspend.formats import load_scenario
from kspend.kcb import (
    byzantine_broadcast_scenario,
    correct_broadcast_scenario,
    delivered_values,
)
from kspend.ledger import (
    genesis_tx,
    make_tx,
    minimum_cover,
    tx_ref,
    well_formed_report,
)
from kspend.sim import DEFAULT_KEY_SEED
from kspend.trust import (
    inconsistency_number,
    is_live,
    max_independent_set_witness,
    uniform_inconsistency,
    uniform_model,
)

from helpers import balances, random_well_formed_history, spending_number, table, undelivered_live
from oracles import (
    brute_conflict_pairs,
    brute_cover_number,
    brute_spending_number,
    build_trust_graph,
    subset_independence_number,
)


def _report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d}: {status}{suffix}")
    assert ok, f"criterion {num:02d} failed{suffix}"


# frozen reference row for the symmetric 100-process model with quorum size 67
_TABLE_ROW = (
    (0, 33, 1), (34, 50, 2), (51, 55, 3), (56, 58, 4), (59, 60, 5),
    (61, 61, 6), (62, 62, 7), (63, 63, 9), (64, 64, 12), (65, 65, 17),
    (66, 66, 34),
)


def test_criterion_01_table_row():
    expected = "n=100 q=67\n" + "".join(
        (f"f {lo}-{hi}: k={k}\n" if lo != hi else f"f {lo}: k={k}\n")
        for lo, hi, k in _TABLE_ROW
    )
    start = time.perf_counter()
    result = CliRunner().invoke(cli_main, ["table", "--n", "100", "--q", "67"])
    elapsed = time.perf_counter() - start
    ok = result.exit_code == 0 and result.output == expected and elapsed < 1.0
    _report(1, ok, f"exact row match in {elapsed * 1000:.0f} ms")


def test_criterion_02_closed_form_matches_search():
    start = time.perf_counter()
    mismatches = []
    count = 0
    for n in range(1, 8):
        for q in range(1, n + 1):
            for f in range(q):
                count += 1
                searched = inconsistency_number(uniform_model(n, q, f))
                closed = (n - f) // (q - f)
                if searched != closed or uniform_inconsistency(n, q, f) != closed:
                    mismatches.append((n, q, f, searched, closed))
    elapsed = time.perf_counter() - start
    ok = not mismatches and count == 84 and elapsed < 60.0
    extra = f"; mismatches {mismatches[:3]}" if mismatches else ""
    _report(2, ok, f"{count} symmetric models in {elapsed:.1f} s{extra}")


def test_criterion_03_example_fixture(example1):
    s_one = {0: frozenset({0, 1, 2}), 1: frozenset({0, 1}), 3: frozenset({1, 3})}
    s_two = {0: frozenset({0, 1, 2}), 1: frozenset({1, 3}), 3: frozenset({2, 3})}
    start = time.perf_counter()
    graph_one = build_trust_graph(example1, {2}, s_one)
    graph_two = build_trust_graph(example1, {2}, s_two)
    alpha_one = subset_independence_number(graph_one.nodes, graph_one.adjacent)
    alpha_two = subset_independence_number(graph_two.nodes, graph_two.adjacent)
    bound = inconsistency_number(example1)
    witness = max_independent_set_witness(example1)
    elapsed = time.perf_counter() - start
    ok = (
        (alpha_one, alpha_two, bound) == (1, 2, 2)
        and witness.independent_set == frozenset({0, 3})
        and elapsed < 1.0
    )
    _report(
        3,
        ok,
        f"independence {alpha_one}/{alpha_two}, bound {bound}, "
        f"witness {sorted(witness.independent_set)}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_04_upper_bound_over_corpus(fuzz_corpus):
    unbounded = sum(1 for r in fuzz_corpus if r.k_bound is None)
    violations = sum(
        1
        for r in fuzz_corpus
        if r.k_bound is not None
        and (r.gamma_max > r.k_bound or any(g > r.k_bound for g in r.gamma_series))
    )
    ok = len(fuzz_corpus) >= 1000 and violations == 0 and unbounded == 0
    _report(
        4,
        ok,
        f"{len(fuzz_corpus)} scenarios, every prefix within the bound, "
        f"{violations} violations",
    )


def test_criterion_05_attack_tightness(attack_corpus):
    misses = [(k, r.gamma_max) for k, r in attack_corpus if r.gamma_max != k]
    ok = len(attack_corpus) >= 50 and not misses
    extra = f"; misses {misses[:3]}" if misses else ""
    _report(5, ok, f"{len(attack_corpus)} vulnerable models, gamma == bound{extra}")


def test_criterion_06_property_suite(fuzz_corpus, attack_corpus):
    quiescent = [r for r in fuzz_corpus if r.quiescent]
    quiescent += [r for _k, r in attack_corpus if r.quiescent]
    failures = sum(
        1
        for r in quiescent
        for v in r.verdicts.values()
        if v.status != "holds"
    )
    ok = failures == 0 and quiescent
    _report(
        6, ok, f"8 properties on {len(quiescent)} quiescent runs, {failures} failures"
    )


def test_criterion_07_balances_never_negative():
    rng = random.Random(1_000_003)
    negatives = 0
    for _ in range(10_000):
        history = random_well_formed_history(rng)
        if min(balances(history, range(6))) < 0:
            negatives += 1
    _report(7, negatives == 0, f"10000 histories, {negatives} negative balances")


def test_criterion_08_broadcast_reduction(example1):
    split = kspend.run(byzantine_broadcast_scenario(example1, sig_scheme="hmac"))
    split_ok = len(delivered_values(split)) == 2

    value = b"payload"
    honest = kspend.run(
        correct_broadcast_scenario(
            example1, 1, value, faulty_set=frozenset({2}), sig_scheme="hmac"
        )
    )
    live = {p for p in honest.histories if is_live(example1, p, frozenset({2}))}
    honest_ok = (
        live == {1, 3}
        and honest.delivered == {p: value for p in live}
        and undelivered_live(honest) == ()
    )
    everyone = kspend.run(
        correct_broadcast_scenario(example1, 0, value, sig_scheme="hmac")
    )
    everyone_ok = everyone.delivered == {p: value for p in range(4)}

    flat = kspend.run(
        byzantine_broadcast_scenario(uniform_model(4, 3, 1), sig_scheme="hmac")
    )
    flat_ok = flat.k_bound == 1 and len(delivered_values(flat)) <= 1

    ok = split_ok and honest_ok and everyone_ok and flat_ok
    _report(
        8,
        ok,
        f"byzantine split {len(delivered_values(split))}, live delivery to "
        f"{sorted(live)}, bound-1 model delivered {len(delivered_values(flat))}",
    )


def test_criterion_09_cluster_analysis(fuzz_corpus):
    cover_missing = 0
    below_gamma = 0
    malformed_unions = 0
    brute_checked = 0
    brute_mismatches = 0
    for report in fuzz_corpus:
        if not report.quiescent:
            continue
        if report.cover is None:
            cover_missing += 1
            continue
        if report.cover < report.gamma_max:
            below_gamma += 1
        for cluster in minimum_cover(report.histories):
            pooled = set().union(*(h.values() for h in cluster))
            if not well_formed_report(table(pooled), check_timestamps=True).ok:
                malformed_unions += 1
        if len(report.histories) <= 5:
            brute_checked += 1
            if brute_cover_number(report.histories.values()) != report.cover:
                brute_mismatches += 1
    ok = (
        cover_missing == 0
        and below_gamma == 0
        and malformed_unions == 0
        and brute_mismatches == 0
        and brute_checked > 0
    )
    _report(
        9,
        ok,
        f"cover >= spending everywhere, unions well-formed, "
        f"{brute_checked} families checked against the partition oracle",
    )


def test_criterion_10_oracle_equivalences(fuzz_corpus):
    rng = random.Random(424_242)

    graph_mismatches = 0
    for _ in range(100):
        size = rng.randint(1, 12)
        edges = frozenset(
            (a, b)
            for a in range(size)
            for b in range(a + 1, size)
            if rng.random() < rng.choice((0.15, 0.5, 0.85))
        )
        # the analyzer's packing search on the graph: vertex v is the one-quorum
        # row of itself and one member per incident edge, so two rows are
        # disjoint exactly when their vertices are not adjacent
        edge_ids = {edge: size + i for i, edge in enumerate(sorted(edges))}
        rows = [
            [frozenset({v} | {e for edge, e in edge_ids.items() if v in edge})]
            for v in range(size)
        ]
        packer = trust._Packer(rows, size + len(edges))
        packer.reduce(-1)  # no faulty set
        failed = {}
        packed = 0
        while packer.can_pack(
            list(range(size)), packed + 1, 0, failed, trust._Budget(trust.DEFAULT_ENUM_BUDGET)
        ):
            packed += 1
        slow = subset_independence_number(
            range(size), lambda a, b: (min(a, b), max(a, b)) in edges
        )
        if packed != slow:
            graph_mismatches += 1

    spending_mismatches = 0
    for report in fuzz_corpus[:300]:
        if spending_number(report.histories) != brute_spending_number(
            report.histories.values()
        ):
            spending_mismatches += 1

    scheme = make_scheme("hmac")
    keys, _pub = keychain(4, scheme, DEFAULT_KEY_SEED)
    genesis = genesis_tx({p: 50 for p in range(4)})
    refs = [tx_ref(genesis)] + [
        tx_ref(make_tx(3, {0: 1}, [tx_ref(genesis)], timestamp=i, message=bytes([i])))
        for i in range(1, 4)
    ]
    def fresh_state():
        return eng.initial_state(
            3, 4, (frozenset(range(4)),), keys[3], Verifier(scheme, _pub), genesis
        )

    def pairs_of(msgs):
        return [tuple(tx for tx, _sig in m.accusation.proof) for m in msgs]

    order_rng = random.Random(17)
    conflict_mismatches = 0
    incremental_mismatches = 0
    for _ in range(100):
        state = fresh_state()
        pool = []
        for issuer in range(3):
            for _t in range(rng.randint(0, 4)):
                inputs = rng.sample(refs, rng.randint(1, 2))
                tx = make_tx(
                    issuer,
                    {rng.randrange(4): rng.randint(1, 50)},
                    inputs,
                    timestamp=1,
                    message=rng.randbytes(2),
                )
                pool.append(tx)
                eng.record_request(state, tx, scheme.sign(keys[issuer], tx.encoding))
        got = {frozenset(pair) for pair in pairs_of(eng.detect_conflicts(state))}
        if got != brute_conflict_pairs(pool):
            conflict_mismatches += 1

        # the same pool recorded in random order, scanned after every few
        # requests: the scans together find every pair, each in canonical order
        state = fresh_state()
        shuffled = order_rng.sample(pool, len(pool))
        union = set()
        while shuffled:
            chunk = order_rng.randint(1, 3)
            for tx in shuffled[:chunk]:
                eng.record_request(state, tx, scheme.sign(keys[tx.issuer], tx.encoding))
            del shuffled[:chunk]
            found = pairs_of(eng.detect_conflicts(state))
            keys_in_order = [(a.issuer, tx_ref(a), tx_ref(b)) for a, b in found]
            if keys_in_order != sorted(keys_in_order):
                incremental_mismatches += 1
            union.update(frozenset(pair) for pair in found)
        if union != brute_conflict_pairs(pool):
            incremental_mismatches += 1

    ok = (
        graph_mismatches == 0
        and spending_mismatches == 0
        and conflict_mismatches == 0
        and incremental_mismatches == 0
    )
    _report(
        10,
        ok,
        f"independence {graph_mismatches}, spending {spending_mismatches}, "
        f"conflict-pair {conflict_mismatches}, incremental conflict-pair "
        f"{incremental_mismatches} mismatches",
    )


def test_criterion_11_replay_determinism(fuzz_corpus, attack_corpus, data_dir):
    cases = [
        (load_scenario(str(data_dir / "demo_scenario.json")), None, None),
        (load_scenario(str(data_dir / "mutant_probe.json")), None, None),
    ]
    cases += [(r.scenario, r.seed_used, r.trace_hash) for r in fuzz_corpus[:5]]
    cases += [(r.scenario, r.seed_used, r.trace_hash) for _k, r in attack_corpus[:3]]
    unstable = 0
    for scenario, seed, prior_hash in cases:
        hashes = {kspend.run(scenario, seed=seed).trace_hash for _ in range(3)}
        if prior_hash is not None:
            hashes.add(prior_hash)
        if len(hashes) != 1:
            unstable += 1
    _report(
        11, unstable == 0, f"{len(cases)} scenarios x 3 replays, {unstable} unstable"
    )


def test_criterion_12_mutant_sensitivity(data_dir):
    scenario = load_scenario(str(data_dir / "mutant_probe.json"))
    guarded = kspend.run(scenario)
    mutant = kspend.run(
        dataclasses.replace(scenario, disable_used_input_guard=True)
    )
    ok = (
        guarded.k_bound == 1
        and all(v.status == "holds" for v in guarded.verdicts.values())
        and mutant.verdicts["k-spending"].status == "violated"
        and mutant.gamma_max > mutant.k_bound
    )
    _report(
        12,
        ok,
        f"guard on: holds at bound {guarded.k_bound}; guard off: spending "
        f"{mutant.gamma_max} flags k-spending",
    )
