"""State-machine tests driven by hand-delivered messages.

Three processes, every quorum the full set {0,1,2}, so acceptance needs an
echo from everyone and each handshake step is observable.
"""

import copy

import pytest

from kspend import engine as eng
from kspend.crypto import Verifier, keychain, make_scheme
from kspend.errors import InvalidTransaction
from kspend.ledger import Accusation, genesis_tx, make_tx, tx_ref

from oracles import member_quorum_check

N = 3
SCHEME = make_scheme("hmac")
KEYS, DIRECTORY = keychain(N, SCHEME, b"engine-test")
GENESIS = genesis_tx({p: 10 for p in range(N)})
FULL = (frozenset(range(N)),)


def fresh(pid, quorums=FULL, mutant=False):
    return eng.initial_state(
        pid, N, quorums, KEYS[pid], Verifier(SCHEME, DIRECTORY), GENESIS,
        disable_used_input_guard=mutant,
    )


def pay(issuer, outputs, inputs=None, tm=1):
    return make_tx(issuer, outputs, inputs or [tx_ref(GENESIS)], timestamp=tm)


def echoed(state, p, tx):
    """Does state hold a verified echo of tx from process p?"""
    record = state.records.get(tx.encoding)
    return record is not None and bool(record.echoers >> p & 1)


def deliver(states, msgs):
    """Fan messages out to their recipients, collecting everything emitted."""
    emitted = []
    for msg in msgs:
        for r in sorted(msg.recipients):
            if r == msg.sender:
                continue
            emitted.extend(eng.handle_message(states[r], msg))
    return emitted


def test_transfer_broadcasts_request_and_own_echo():
    s = fresh(0)
    tx = pay(0, {1: 10})
    out = eng.transfer(s, tx)
    assert [m.kind for m in out] == [eng.REQ, eng.ECHO]
    assert all(m.recipients == frozenset({1, 2}) for m in out)
    assert echoed(s, 0, tx)
    assert tx_ref(tx) not in s.by_ref  # own echo alone is not a full quorum


def test_acceptance_waits_for_the_last_echo():
    states = {p: fresh(p) for p in range(N)}
    tx = pay(0, {1: 10})
    req, echo0 = eng.transfer(states[0], tx)

    echoes = deliver(states, [req])
    assert sorted(m.sender for m in echoes) == [1, 2]
    assert all(tx_ref(tx) not in states[p].by_ref for p in range(N))

    deliver(states, [echo0] + echoes)
    for p in range(N):
        assert tx_ref(tx) in states[p].by_ref, p
    assert member_quorum_check(states[0], FULL, tx) and states[0].records[tx.encoding].pended


def test_singleton_quorum_accepts_immediately():
    s = fresh(0, quorums=(frozenset({0}),))
    tx = pay(0, {1: 10})
    eng.transfer(s, tx)
    assert tx_ref(tx) in s.by_ref


def test_handlers_are_deterministic_and_pure_on_rejects():
    s = fresh(1)
    tx = pay(0, {1: 10})
    bad = eng.Message(kind=eng.REQ, sender=0, recipients=frozenset({1}), tx=tx,
                      issuer_sig=b"\x00" * 32)
    before = copy.deepcopy(s)
    assert eng.handle_message(s, bad) == []
    assert s == before

    sig = SCHEME.sign(KEYS[0], tx.encoding)
    good = eng.Message(kind=eng.REQ, sender=0, recipients=frozenset({1}), tx=tx,
                       issuer_sig=sig)
    a, b = copy.deepcopy(s), copy.deepcopy(s)
    out_a = eng.handle_message(a, good)
    out_b = eng.handle_message(b, good)
    assert out_a == out_b and a == b


def _signed_then_conflicting(s):
    eng.transfer(s, pay(0, {1: 10}))
    return pay(0, {2: 10})


# the clause each refusal's message opens with
REFUSED_CLAUSE = {
    "foreign issuer": "issuer: ",
    "genesis reissue": "issuer: ",
    "unknown input": "completeness: ",
    "value mismatch": "t-validity: ",
    "empty spend": "t-validity: ",
    "already signed": "already signed: ",
}


@pytest.mark.parametrize(
    "builder,reason",
    [
        (lambda s: pay(1, {0: 10}), "foreign issuer"),
        (lambda s: GENESIS, "genesis reissue"),
        (lambda s: pay(0, {1: 10}, [b"\x07" * 32]), "unknown input"),
        (lambda s: make_tx(0, {1: 5}, [tx_ref(genesis_tx({1: 5}))], timestamp=1),
         "unknown input"),
        (lambda s: pay(0, {1: 7}), "value mismatch"),
        (lambda s: pay(0, {}), "empty spend"),
        (_signed_then_conflicting, "already signed"),
    ],
)
def test_transfer_rejections(builder, reason):
    s = fresh(0)
    tx = builder(s)
    assert not eng.can_transfer(s, tx), reason
    with pytest.raises(InvalidTransaction) as err:
        eng.transfer(s, tx)
    assert str(err.value).startswith(REFUSED_CLAUSE[reason]), str(err.value)


def test_transfer_refuses_inputs_paying_someone_else():
    # process 1 holds the grant; 0 cannot move it
    s = fresh(0)
    theft = make_tx(0, {0: 10}, [tx_ref(genesis_tx({1: 10}))], timestamp=1)
    assert not eng.can_transfer(s, theft)


def test_transfer_never_self_conflicts():
    s = fresh(0)
    eng.transfer(s, pay(0, {1: 10}))
    with pytest.raises(InvalidTransaction):
        eng.transfer(s, pay(0, {2: 10}))


def test_used_input_guard_blocks_second_echo():
    s = fresh(1)
    a, b = pay(0, {1: 10}), pay(0, {2: 10})
    sig = lambda t: SCHEME.sign(KEYS[0], t.encoding)
    req = lambda t: eng.Message(kind=eng.REQ, sender=0, recipients=frozenset({1}),
                                tx=t, issuer_sig=sig(t))
    first = eng.handle_message(s, req(a))
    assert any(m.kind == eng.ECHO and m.tx == a for m in first)
    second = eng.handle_message(s, req(b))
    assert not any(m.kind == eng.ECHO for m in second)
    # the equivocation is still stored as evidence and converted to an accusation
    assert any(m.kind == eng.ACC for m in second)
    assert len(s.accusations) == 1
    acc = next(iter(s.accusations))
    assert acc.accused == frozenset({0})
    assert {t for t, _ in acc.proof} == {a, b}


def test_mutant_echoes_conflicting_requests():
    s = fresh(1, mutant=True)
    a, b = pay(0, {1: 10}), pay(0, {2: 10})
    sig = lambda t: SCHEME.sign(KEYS[0], t.encoding)
    for t in (a, b):
        out = eng.handle_message(
            s,
            eng.Message(kind=eng.REQ, sender=0, recipients=frozenset({1}),
                        tx=t, issuer_sig=sig(t)),
        )
        assert any(m.kind == eng.ECHO and m.tx == t for m in out), t
    # idempotence still holds per transaction
    repeat = eng.handle_message(
        s,
        eng.Message(kind=eng.REQ, sender=0, recipients=frozenset({1}),
                    tx=a, issuer_sig=sig(a)),
    )
    assert not any(m.kind == eng.ECHO for m in repeat)


def test_echo_requires_both_signatures():
    s = fresh(2)
    tx = pay(0, {1: 10})
    issuer_sig = SCHEME.sign(KEYS[0], tx.encoding)
    echo_sig = SCHEME.sign(KEYS[1], tx.encoding)
    wrong_echoer = eng.Message(kind=eng.ECHO, sender=1, recipients=frozenset({2}),
                               tx=tx, issuer_sig=issuer_sig, echoer_sig=issuer_sig)
    assert eng.handle_message(s, wrong_echoer) == []
    assert not echoed(s, 1, tx)
    wrong_issuer = eng.Message(kind=eng.ECHO, sender=1, recipients=frozenset({2}),
                               tx=tx, issuer_sig=echo_sig, echoer_sig=echo_sig)
    assert eng.handle_message(s, wrong_issuer) == []
    ok = eng.Message(kind=eng.ECHO, sender=1, recipients=frozenset({2}),
                     tx=tx, issuer_sig=issuer_sig, echoer_sig=echo_sig)
    out = eng.handle_message(s, ok)
    assert echoed(s, 1, tx)
    assert any(m.kind == eng.ECHO and m.sender == 2 for m in out)


def test_detect_conflicts_is_idempotent():
    s = fresh(1)
    a, b = pay(0, {1: 10}), pay(0, {2: 10})
    for t in (a, b):
        assert eng.record_request(s, t, SCHEME.sign(KEYS[0], t.encoding))
    assert not eng.record_request(s, a, SCHEME.sign(KEYS[0], a.encoding))
    first = eng.detect_conflicts(s)
    assert len(first) == 1 and first[0].kind == eng.ACC
    assert eng.detect_conflicts(s) == []
    assert len(s.accusations) == 1


def test_detect_conflicts_emits_only_unknown_pairs_in_order():
    sig = lambda t: SCHEME.sign(KEYS[0], t.encoding)
    a, b, c = pay(0, {1: 10}), pay(0, {2: 10}), pay(0, {0: 10})
    s = fresh(1)
    # the pair (a, b) is already known from a received accusation
    known = Accusation.build({0}, [(a, sig(a)), (b, sig(b))])
    eng.handle_message(
        s, eng.Message(kind=eng.ACC, sender=2, recipients=frozenset({1}), accusation=known)
    )
    for t in (a, b):
        eng.record_request(s, t, sig(t))
    assert eng.detect_conflicts(s) == []
    eng.record_request(s, c, sig(c))
    fresh_pairs = [
        tuple(tx_ref(t) for t, _sig in m.accusation.proof) for m in eng.detect_conflicts(s)
    ]
    assert fresh_pairs == sorted(tuple(sorted((tx_ref(c), tx_ref(t)))) for t in (a, b))
    assert len(s.accusations) == 3


def test_accusations_rebroadcast_once():
    a, b = pay(0, {1: 10}), pay(0, {2: 10})
    sig = lambda t: SCHEME.sign(KEYS[0], t.encoding)
    acc = Accusation.build({0}, [(a, sig(a)), (b, sig(b))])
    msg = eng.Message(kind=eng.ACC, sender=1, recipients=frozenset({2}), accusation=acc)
    s = fresh(2)
    out = eng.handle_message(s, msg)
    assert [m.kind for m in out] == [eng.ACC]
    assert out[0].accusation == acc
    assert eng.handle_message(s, msg) == []

    forged = Accusation.build({0}, [(a, b"junk"), (b, sig(b))])
    bad = eng.Message(kind=eng.ACC, sender=1, recipients=frozenset({2}), accusation=forged)
    assert eng.handle_message(fresh(2), bad) == []


def test_unknown_message_kinds_ignored():
    s = fresh(0)
    odd = eng.Message(kind="PING", sender=1, recipients=frozenset({0}))
    assert eng.handle_message(s, odd) == []
