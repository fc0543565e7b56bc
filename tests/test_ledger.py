import collections
import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspend import fuzz, ledger, sim
from kspend.crypto import Verifier, content_hash, keychain, make_scheme
from kspend.errors import MalformedHistory, SizeLimitExceeded
from kspend.ledger import (
    Accusation,
    Transaction,
    conflicting_pairs,
    conflicts,
    encode_accusation,
    genesis_tx,
    is_genesis,
    make_tx,
    minimum_cover,
    out_value,
    tx_ref,
    verify_acc,
    well_formed_report,
)

from helpers import balances, clause_failed, random_well_formed_history, spending_number, table
from oracles import (
    brute_conflict_pairs,
    brute_cover_number,
    brute_spending_number,
    brute_tx_fault,
    brute_well_formed,
)

G = genesis_tx({0: 10, 1: 5})
GREF = tx_ref(G)


def spend(issuer, outputs, inputs, tm=1, message=None):
    return make_tx(issuer, outputs, inputs, timestamp=tm, message=message)


# --- transactions ----------------------------------------------------------


class _FourGiBMessage(bytes):
    """An empty message that reports 2**32 bytes, one more than the length field holds."""

    def __len__(self):
        return 1 << 32


def test_make_tx_normalizes():
    a = make_tx(1, {2: 3, 0: 0, 1: 2}, [GREF, GREF], timestamp=1)
    assert a.outputs == ((1, 2), (2, 3))  # zero output dropped, sorted
    assert a.inputs == (GREF,)
    b = make_tx(1, {1: 2, 2: 3}, (GREF,), timestamp=1)
    assert a == b and tx_ref(a) == tx_ref(b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(issuer=-2, outputs={0: 1}),
        dict(issuer=0, outputs={-1: 1}),
        dict(issuer=0, outputs={1: -1}),
        dict(issuer=0, outputs={1: 1 << 63}),
        dict(issuer=0, outputs={1: 1}, inputs=[b"short"]),
        dict(issuer=0, outputs={1: 1}, timestamp=0),
        # values the canonical encoding cannot hold, or holds ambiguously:
        # issuer 0xFFFFFFFF is the funding root's wire value
        dict(issuer=0xFFFFFFFF, outputs={0: 1}, timestamp=1),
        dict(issuer=0, outputs={1 << 32: 1}),
        dict(issuer=0, outputs={1: 1}, timestamp=1 << 64),
        dict(issuer=0, outputs={1: 1}, message="text"),
        dict(issuer=0, outputs={1: 1}, message=_FourGiBMessage()),
        # zero amounts are dropped, but only after they are checked
        dict(issuer=0, outputs={1: 1, -1: 0}),
        dict(issuer=0, outputs={1: 1, 2: None}),
        dict(issuer=0, outputs={1: 1, "2": 1}),  # unsortable, so checked before sorting
    ],
)
def test_make_tx_rejects(kwargs):
    with pytest.raises(ValueError):
        make_tx(**kwargs)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("issuer", dict(issuer=True)),
        ("output recipient", dict(outputs={False: 10})),
        ("output amount", dict(outputs={0: True})),
        ("timestamp", dict(timestamp=True)),
    ],
)
def test_transaction_refuses_bools(field, kwargs):
    # True == 1 and False == 0, so each would equal an all-int transaction,
    # but tx_to_obj would spell it true or "False" and the file would not load
    base = dict(issuer=1, outputs={0: 10}, inputs=[GREF], timestamp=1)
    make_tx(**base)
    bad = {**base, **kwargs}
    with pytest.raises(ValueError, match=f"bad {field}: (True|False)"):
        make_tx(**bad)
    with pytest.raises(ValueError, match=f"bad {field}: (True|False)"):
        Transaction(bad["issuer"], tuple(bad["outputs"].items()), (GREF,), bad["timestamp"])


def test_largest_wire_values_stay_distinct_from_the_funding_root():
    root = genesis_tx({0: 1})
    top = make_tx(0xFFFFFFFE, {(1 << 32) - 1: 1}, (), timestamp=(1 << 64) - 1)
    assert len(top.encoding) == len(root.encoding)
    assert tx_ref(top) != tx_ref(root)
    assert tx_ref(make_tx(0xFFFFFFFE, {0: 1}, (), timestamp=1)) != tx_ref(root)


@pytest.mark.parametrize("timestamp", [0, -1, "1"])
def test_directly_built_transaction_rejects_bad_timestamp(timestamp):
    # timestamp 0 would encode, and so hash, like no timestamp at all
    untimed = Transaction(issuer=0, outputs=((1, 10),), inputs=(GREF,))
    assert untimed.encoding == make_tx(0, {1: 10}, [GREF]).encoding
    with pytest.raises(ValueError, match="bad timestamp"):
        Transaction(issuer=0, outputs=((1, 10),), inputs=(GREF,), timestamp=timestamp)


@pytest.mark.parametrize(
    "fields",
    [
        dict(issuer=0xFFFFFFFF),  # the funding root's wire value
        dict(issuer=-2),
        dict(issuer="0"),
        dict(outputs=((-1, 10),)),
        dict(outputs=((1 << 32, 10),)),
        dict(outputs=((1, -1),)),
        dict(outputs=((1, 1 << 63),)),
        dict(outputs=((1, "10"),)),
        dict(inputs=(b"short",)),
        dict(inputs=(GREF + b"x",)),
        dict(inputs=(GREF.hex(),)),
        dict(message="text"),
        dict(message=_FourGiBMessage()),
    ],
)
def test_directly_built_transaction_rejects_values_the_encoding_cannot_hold(fields):
    base = dict(issuer=0, outputs=((1, 10),), inputs=(GREF,), timestamp=1)
    tx = Transaction(**base)
    with pytest.raises(ValueError):
        Transaction(**{**base, **fields})
    with pytest.raises(ValueError):
        dataclasses.replace(tx, **fields)


def test_no_directly_built_transaction_encodes_like_the_funding_root():
    root = genesis_tx({0: 1})
    with pytest.raises(ValueError, match="bad issuer"):
        Transaction(issuer=0xFFFFFFFF, outputs=root.outputs, inputs=(), timestamp=1)
    top = Transaction(issuer=0xFFFFFFFE, outputs=root.outputs, inputs=(), timestamp=1)
    assert top != root and not is_genesis(top)


def test_genesis_shape():
    assert is_genesis(G)
    assert G.issuer == -1 and G.inputs == ()
    assert not is_genesis(spend(0, {1: 10}, [GREF]))
    assert G.pays(0) == 10 and G.pays(7) == 0
    assert out_value(G) == 15


def test_encoding_separates_every_field():
    base = spend(0, {1: 10}, [GREF])
    variants = [
        spend(0, {1: 10}, [GREF], tm=2),
        spend(0, {1: 10}, [GREF], message=b""),
        spend(0, {1: 10}, [GREF], message=b"x"),
        spend(1, {1: 10}, [GREF]),
        spend(0, {1: 9, 0: 1}, [GREF]),
    ]
    encodings = {t.encoding for t in [base] + variants}
    assert len(encodings) == len(variants) + 1
    assert base.encoding == spend(0, {1: 10}, [GREF]).encoding
    assert len(tx_ref(base)) == 32


def test_conflicts_definition():
    a = spend(0, {1: 10}, [GREF])
    b = spend(0, {0: 10}, [GREF])
    c = spend(1, {0: 5}, [GREF])
    assert conflicts(a, b) and conflicts(b, a)
    assert not conflicts(a, a)  # identity is not a conflict
    assert not conflicts(a, c)  # different issuer
    d = spend(0, {1: 10}, [tx_ref(c)])
    assert not conflicts(a, d)  # disjoint inputs


def test_conflicting_pairs_matches_brute_oracle():
    rng = random.Random(3)
    refs = [GREF, tx_ref(spend(1, {0: 5}, [GREF]))]
    for _ in range(50):
        pool = [
            spend(rng.randint(0, 2), {rng.randint(0, 2): rng.randint(1, 4)},
                  rng.sample(refs, rng.randint(1, 2)))
            for _ in range(rng.randint(0, 8))
        ]
        pairs = conflicting_pairs(pool)
        assert {frozenset(p) for p in pairs} == brute_conflict_pairs(pool)
        # ordered by reference within each pair and across pairs
        keys = [(tx_ref(a), tx_ref(b)) for a, b in pairs]
        assert keys == sorted(keys) and all(ra < rb for ra, rb in keys)
    ordered = conflicting_pairs([spend(0, {1: 1}, [GREF]), spend(0, {0: 1}, [GREF])])
    for a, b in ordered:
        assert tx_ref(a) < tx_ref(b)


# --- identities -----------------------------------------------------------


def test_equal_content_is_one_transaction():
    a = spend(0, {1: 10}, [GREF], message=b"m")
    b = make_tx(0, {1: 10}, (GREF,), timestamp=1, message=b"m")
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert a != spend(0, {1: 10}, [GREF], tm=2, message=b"m")
    assert a != spend(0, {1: 10}, [GREF], message=b"n")
    assert a != spend(0, {1: 10}, [GREF])
    assert a != "a transaction" and a != a.encoding


def test_copies_keep_the_encoding():
    tx = spend(0, {1: 10}, [GREF], message=b"m")
    for twin in (copy.deepcopy(tx), pickle.loads(pickle.dumps(tx)), dataclasses.replace(tx)):
        assert twin == tx and hash(twin) == hash(tx)
        assert twin.encoding == tx.encoding and tx_ref(twin) == tx_ref(tx)
    later = dataclasses.replace(tx, timestamp=2)
    assert later.encoding == spend(0, {1: 10}, [GREF], tm=2, message=b"m").encoding
    assert later != tx
    with pytest.raises(ValueError, match="bad timestamp"):
        dataclasses.replace(tx, timestamp=0)


def test_accusation_keeps_its_digest():
    a, b, sig, _, _ = _signed_conflict()
    acc = Accusation.build({2}, [(a, sig(a)), (b, sig(b))])
    assert acc.digest == content_hash(encode_accusation(acc))
    twin = Accusation.build({2}, [(b, sig(b)), (a, sig(a))])
    assert twin is not acc and twin == acc and hash(twin) == hash(acc)
    assert len({acc, twin}) == 1
    for copied in (copy.deepcopy(acc), pickle.loads(pickle.dumps(acc)), dataclasses.replace(acc)):
        assert copied == acc and copied.digest == acc.digest
    wider = dataclasses.replace(acc, accused=frozenset({2, 3}))
    assert wider != acc
    assert wider.digest == content_hash(encode_accusation(wider))
    assert wider.digest != acc.digest


@pytest.mark.parametrize("seed", range(8))
def test_extended_index_matches_a_rebuilt_one(seed):
    """A process extends its table in place on every acceptance of a run;
    each report history keys every transaction as a rebuilt one does."""
    rng = random.Random(seed)
    grown = 0
    for _ in range(4):
        for h in sim.run(fuzz.random_scenario(rng)).histories.values():
            assert h == table(h.values())
            grown += len(h) > 1
    assert grown


def test_history_equality_and_hash_ignore_the_order_of_additions():
    """The cover drops a duplicate table by its content, whatever order it
    was filled in; a table with a good one's keys but a forged value is no
    duplicate, so it is judged, and refused, in any position."""
    a = spend(0, {1: 4, 0: 6}, [GREF], tm=1)
    b = spend(1, {0: 5}, [GREF], tm=1)
    good = table([G, a, b])
    assert good == table([b, G, a]) and good != table([G, a])
    assert minimum_cover([good, table([b, G, a]), table([a, b, G])]) == ((good,),)
    forged = {**good, tx_ref(b): spend(1, {0: 5}, [GREF], tm=1, message=b"forged")}
    assert forged.keys() == good.keys()
    for family in ([good, forged], [forged, good], {0: good, 1: forged}):
        with pytest.raises(MalformedHistory):
            minimum_cover(family)


@pytest.mark.parametrize("seed", range(8))
def test_history_of_keeps_the_order_given(seed):
    """A table iterates in the order it was filled; equal tables filled in
    any order count once in the cover, 13 copies of one too, one more than
    the cap on distinct histories."""
    rng = random.Random(seed)
    txs = list(random_well_formed_history(rng).values())
    copies = [table(txs)]
    while len(copies) < ledger.COVER_EXACT_CAP + 1:
        rng.shuffle(txs)
        copies.append(table(txs))
        assert list(copies[-1].values()) == txs and copies[-1] == copies[0]
    assert minimum_cover(copies) == ((copies[0],),)
    assert minimum_cover(dict(enumerate(copies))) == ((copies[0],),)


def test_tx_ref_cache_is_bounded():
    bound = tx_ref.cache_info().maxsize
    assert bound is not None
    for amount in range(1, bound + 11):
        tx_ref(spend(0, {1: amount}, [GREF]))
    assert tx_ref.cache_info().currsize == bound


# --- histories and well-formedness ----------------------------------------


def test_history_resolution():
    t = spend(0, {1: 10}, [GREF])
    h = table([G, t])
    assert tx_ref(t) in h and len(h) == 2
    assert h[GREF] == G
    assert h.get(b"\x00" * 32) is None


def test_well_formed_happy_path():
    t1 = spend(0, {1: 4, 0: 6}, [GREF], tm=1)
    t2 = spend(0, {2: 6}, [tx_ref(t1)], tm=2)
    h = table([G, t1, t2])
    assert well_formed_report(h, check_timestamps=True).ok


def test_clause_failures_are_reported_individually():
    t = spend(0, {1: 10}, [GREF])
    no_root = table([t])
    assert clause_failed(well_formed_report(no_root), "t-validity")
    assert clause_failed(well_formed_report(no_root), "completeness")

    dangling = table([G, spend(0, {1: 10}, [b"\x01" * 32])])
    assert clause_failed(well_formed_report(dangling), "completeness")

    # spending an input that pays someone else
    theft = table([G, spend(2, {0: 10}, [GREF])])
    assert clause_failed(well_formed_report(theft), "t-validity")

    unbalanced = table([G, spend(0, {1: 7}, [GREF])])
    assert clause_failed(well_formed_report(unbalanced), "t-validity")

    double = table([G, spend(0, {1: 10}, [GREF]), spend(0, {0: 10}, [GREF])])
    assert clause_failed(well_formed_report(double), "no-conflict")

    untimed = table([G, make_tx(0, {1: 10}, [GREF])])
    assert well_formed_report(untimed).ok
    report = well_formed_report(untimed, check_timestamps=True)
    assert clause_failed(report, "predecessor")

    t1 = spend(0, {1: 4, 0: 6}, [GREF], tm=1)
    gap = table([G, t1, spend(0, {2: 6}, [tx_ref(t1)], tm=3)])
    assert clause_failed(well_formed_report(gap, check_timestamps=True), "predecessor")


def test_dependency_chain_as_long_as_a_long_run_is_well_formed():
    chain = [genesis_tx({0: 1})]
    for t in range(3000):
        chain.append(spend(0, {0: 1}, [tx_ref(chain[-1])], tm=t + 1))
    assert well_formed_report(table(chain)).ok
    # each transaction's predecessor is found in one set, not by a scan of the history
    assert well_formed_report(table(chain), check_timestamps=True).ok
    gap = chain[:1500] + [spend(0, {0: 1}, [tx_ref(chain[1499])], tm=1501)]
    failures = well_formed_report(table(gap), check_timestamps=True).failures
    assert [clause for clause, _ in failures] == ["predecessor"]


def test_failures_come_in_reference_order():
    """A history's failures name its transactions in reference order, not set order."""
    dangling = [spend(0, {1: 10}, [content_hash(bytes([i]))]) for i in range(6)]
    theft = [spend(2, {0: 10}, [GREF], message=bytes([i])) for i in range(4)]
    failures = well_formed_report(table([G, *dangling, *theft])).failures
    expected = sorted((tx_ref(tx).hex()[:12], "completeness" if tx in dangling else "t-validity")
                      for tx in dangling + theft)
    assert [(detail[:12], clause) for clause, detail in failures if clause != "no-conflict"] == (
        expected
    )


def _admission_case(rng):
    """A random (transaction, history) pair and the shapes it was drawn with.

    The history is a funding root plus a few spends paying anyone; the
    transaction spends some of its entries, some references it lacks, or
    nothing, and pays out exactly what its present inputs pay, one more,
    one less, nothing, or a random amount.
    """
    txs = [genesis_tx({p: rng.randint(0, 3) for p in range(3)})]
    for tm in range(1, rng.randint(1, 5)):
        source = tx_ref(rng.choice(txs))
        txs.append(spend(rng.randrange(3), {p: rng.randint(0, 3) for p in range(3)}, [source], tm))
    history = table(txs)
    issuer = rng.randrange(3)
    present = rng.sample(list(history), rng.randint(0, len(history)))
    absent = [content_hash(b"absent %d" % rng.randrange(9)) for _ in range(rng.choice((0, 0, 1, 2)))]
    paid = [history[ref].pays(issuer) for ref in present]
    total = rng.choice((sum(paid), sum(paid) + 1, sum(paid) - 1, 0, rng.randint(0, 9)))
    first = rng.randint(0, max(total, 0))
    tx = spend(issuer, {0: first, rng.randint(1, 2): max(total, 0) - first}, present + absent)
    shapes = {
        "missing": bool(absent) and not present,
        "partly missing": bool(absent) and bool(present),
        "input paying someone else": not absent and 0 in paid,
        "empty outputs": not tx.outputs,
        "overspend": not absent and out_value(tx) > sum(paid),
        "underspend": not absent and 0 < out_value(tx) < sum(paid),
    }
    return tx, history, shapes


def test_tx_fault_matches_the_brute_rule():
    """The ledger's admission rule names the first clause the three-scan
    oracle names, over pairs that draw every way of breaking it."""
    rng = random.Random(2401)
    seen = dict.fromkeys(["missing", "partly missing", "input paying someone else",
                          "empty outputs", "overspend", "underspend", "admitted"], 0)
    for _ in range(2500):
        tx, history, shapes = _admission_case(rng)
        expected = brute_tx_fault(tx, history)
        fault = ledger.tx_fault(tx, history)
        assert (fault and fault[0]) == expected, (tx, list(history.values()))
        seen["admitted"] += expected is None
        for shape, drawn in shapes.items():
            seen[shape] += drawn
    assert min(seen.values()) >= 50, seen


def _mutants(h, rng):
    """``h`` broken, perhaps, one way each: a transaction under a second,
    forged key; an input's entry dropped; a second spend of a transaction's
    inputs; a leaf restamped one later, which leaves a timestamp gap."""
    spends = [tx for tx in h.values() if not is_genesis(tx)]
    spent = {ref for tx in h.values() for ref in tx.inputs}
    yield "forged key", {**h, rng.randbytes(32): rng.choice(list(h.values()))}
    if not spends:
        return
    tx = rng.choice(spends)
    dropped = rng.choice(tx.inputs)
    yield "dropped input", {ref: t for ref, t in h.items() if ref != dropped}
    twin = make_tx(tx.issuer, dict(tx.outputs), tx.inputs, tx.timestamp, message=b"twin")
    yield "conflicting spend", {**h, tx_ref(twin): twin}
    leaf = rng.choice([tx for tx in spends if tx_ref(tx) not in spent])
    later = dataclasses.replace(leaf, timestamp=leaf.timestamp + 1)
    yield "timestamp gap", table(later if t is leaf else t for t in h.values())


def test_well_formed_report_matches_the_brute_clauses():
    """The one-pass report passes exactly the histories the clause-by-clause
    oracle passes, with and without timestamps, over random well-formed
    histories and a mutant of each kind."""
    rng = random.Random(2701)
    refused = collections.Counter()
    for _ in range(300):
        h = random_well_formed_history(rng)
        for kind, mutant in [("none", h), *_mutants(h, rng)]:
            for check_timestamps in (False, True):
                ok = well_formed_report(mutant, check_timestamps=check_timestamps).ok
                assert ok == brute_well_formed(mutant, check_timestamps), (
                    kind, list(mutant.values())
                )
                refused[kind, check_timestamps] += not ok
    kinds = ["forged key", "dropped input", "conflicting spend", "timestamp gap"]
    assert min(refused[kind, True] for kind in kinds) >= 250, refused
    assert refused["none", False] == refused["none", True] == refused["timestamp gap", False] == 0


def test_a_forged_key_is_named_at_any_depth():
    """References are content hashes, so a dependency cycle needs a key that
    is not its transaction's reference. Closing a chain 3,000 hops long
    through such a key is found by the key alone, and the clause names it."""
    forged = content_hash(b"forged reference")
    loop = [spend(0, {0: 1}, [forged], tm=1)]
    for t in range(2999):
        loop.append(spend(0, {0: 1}, [tx_ref(loop[-1])], tm=t + 2))
    tail = spend(0, {0: 1}, [tx_ref(loop[1500])], tm=1)  # reaches the loop, not on it
    clear = spend(1, {1: 5}, [GREF], tm=1)  # reaches no cycle
    txs = [G, clear, tail, *loop]
    h = {**table(txs), forged: loop[-1]}
    detail = f"{forged.hex()[:12]} keys a transaction of another reference"
    assert [f for f in well_formed_report(h).failures if f[0] == "cycle-freedom"] == [
        ("cycle-freedom", detail)
    ]


def test_a_forged_key_without_a_cycle_is_named():
    """A key standing in for another transaction's reference closes no
    cycle, yet it pays its spender as that transaction would."""
    t1 = spend(0, {1: 10}, [GREF], tm=1)
    forged = content_hash(b"forged reference")
    t2 = spend(1, {0: 10}, [forged], tm=1)
    h = {**table([G, t1, t2]), forged: t1}
    assert ledger.tx_fault(t2, h) is None
    assert well_formed_report(h).failures == (
        ("cycle-freedom", f"{forged.hex()[:12]} keys a transaction of another reference"),
    )


def test_balance_arithmetic():
    t1 = spend(0, {1: 4, 0: 6}, [GREF])
    h = table([G, t1])
    assert balances(h, [0, 1, 2]) == [6, 9, 0]
    assert balances(table([G]), [0]) == [10]


def test_balance_requires_well_formedness():
    with pytest.raises(MalformedHistory):
        balances(table([spend(0, {1: 10}, [GREF])]), [0])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32))
def test_balances_nonnegative_and_conserved(seed):
    h = random_well_formed_history(random.Random(seed))
    assert well_formed_report(h, check_timestamps=True).ok
    g = next(tx for tx in h.values() if is_genesis(tx))
    pids = {p for tx in h.values() for p, _ in tx.outputs}
    totals = balances(h, pids)
    assert all(b >= 0 for b in totals)
    assert sum(totals) == out_value(g)


# --- spending number -------------------------------------------------------


def test_spending_number_basics():
    a = spend(0, {1: 10}, [GREF])
    b = spend(0, {0: 10}, [GREF])
    assert spending_number([table([G])]) == 0
    assert spending_number([table([G, a])]) == 1
    assert spending_number([table([G, a]), table([G, b])]) == 2
    # mapping form and duplicate histories collapse the same way
    assert spending_number({1: table([G, a]), 2: table([G, a])}) == 1


def test_spending_number_rejects_malformed():
    with pytest.raises(MalformedHistory):
        spending_number([table([spend(0, {1: 10}, [GREF])])])


def test_spending_number_matches_double_loop_oracle():
    rng = random.Random(11)
    for _ in range(40):
        histories = [random_well_formed_history(rng) for _ in range(rng.randint(1, 3))]
        assert spending_number(histories) == brute_spending_number(histories)


# --- cover analysis --------------------------------------------------------


def fork(i):
    # distinct payloads keep value conserved while forcing distinct refs
    return spend(0, {1: 5, 0: 5}, [GREF], message=bytes([i]))


def test_cover_of_compatible_family_is_one():
    t1 = spend(0, {1: 4, 0: 6}, [GREF], tm=1)
    t2 = spend(1, {0: 5}, [GREF], tm=1)
    shorter = table([G, t1])
    longer = table([G, t1, t2])
    cover = minimum_cover([shorter, longer, shorter])
    assert len(cover) == 1
    assert sorted(cover[0], key=len) == [shorter, longer]


def test_cover_splits_incomparable_branches():
    left = table([G, fork(1)])
    right = table([G, fork(2)])
    empty = table([G])
    assert len(minimum_cover([left, right])) == 2
    assert len(minimum_cover([left, right, empty])) == 2
    clusters = minimum_cover({0: left, 1: right, 2: empty})
    assert sorted(len(c) for c in clusters) == [1, 2]
    covered = [h for cluster in clusters for h in cluster]
    assert len(covered) == 3 and all(h in covered for h in (left, right, empty))


def test_cover_matches_partition_oracle():
    rng = random.Random(13)
    txs = [fork(i) for i in range(1, 6)]
    other = spend(1, {0: 5}, [GREF], tm=1)
    for _ in range(60):
        histories = []
        for _ in range(rng.randint(1, 5)):
            picks = [G] + rng.sample(txs, rng.randint(0, 1))
            if rng.random() < 0.5:
                picks.append(other)
            histories.append(table(picks))
        assert len(minimum_cover(histories)) == brute_cover_number(histories)


def test_cover_cap_and_timestamp_gate(monkeypatch):
    many = [table([G, fork(i)]) for i in range(13)]
    with pytest.raises(SizeLimitExceeded):
        minimum_cover(many)
    monkeypatch.setattr(ledger, "COVER_EXACT_CAP", 16)  # read at call time
    assert len(minimum_cover(many)) == 13

    untimed = table([G, make_tx(0, {1: 10}, [GREF])])
    with pytest.raises(MalformedHistory):
        minimum_cover([untimed])


def test_cover_of_empty_collection():
    assert minimum_cover([]) == ()


# --- accusations -----------------------------------------------------------


def _signed_conflict(issuer=2, scheme_name="hmac"):
    scheme = make_scheme(scheme_name)
    keys, directory = keychain(4, scheme, b"acc-test")
    a = spend(issuer, {1: 10}, [GREF])
    b = spend(issuer, {0: 10}, [GREF])
    sig = lambda t: scheme.sign(keys[issuer], t.encoding)
    return a, b, sig, directory, scheme


def test_accusation_build_is_canonical():
    a, b, sig, _, _ = _signed_conflict()
    one = Accusation.build({2}, [(a, sig(a)), (b, sig(b))])
    two = Accusation.build({2}, [(b, sig(b)), (a, sig(a)), (a, sig(a))])
    assert one == two
    assert [tx_ref(t) for t, _ in one.proof] == sorted(tx_ref(t) for t in (a, b))


def test_verify_acc_accepts_real_evidence():
    a, b, sig, directory, scheme = _signed_conflict()
    acc = Accusation.build({2}, [(a, sig(a)), (b, sig(b))])
    assert verify_acc(acc, Verifier(scheme, directory))


def test_verify_acc_rejects_bad_evidence():
    a, b, sig, directory, scheme = _signed_conflict()
    good = [(a, sig(a)), (b, sig(b))]
    assert not verify_acc(Accusation.build({2}, []), Verifier(scheme, directory))
    assert not verify_acc(Accusation.build(set(), good), Verifier(scheme, directory))
    # proof signed by a process outside the accused set
    assert not verify_acc(Accusation.build({1}, good), Verifier(scheme, directory))
    # a single transaction proves nothing
    assert not verify_acc(Accusation.build({2}, [(a, sig(a))]), Verifier(scheme, directory))
    # forged signature
    assert not verify_acc(
        Accusation.build({2}, [(a, sig(a)), (b, b"\x00" * 32)]), Verifier(scheme, directory)
    )
    # non-conflicting pair
    c = spend(2, {0: 10}, [tx_ref(a)])
    assert not verify_acc(
        Accusation.build({2}, [(a, sig(a)), (c, sig(c))]), Verifier(scheme, directory)
    )
    # signer unknown to the directory
    assert not verify_acc(acc_unknown(sig), Verifier(scheme, {0: directory[0]}))


def acc_unknown(sig):
    a = spend(2, {1: 10}, [GREF])
    b = spend(2, {0: 10}, [GREF])
    return Accusation.build({2}, [(a, sig(a)), (b, sig(b))])
