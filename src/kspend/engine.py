"""Per-process state machine for quorum-gated asset transfer.

Each correct process signs and broadcasts its transfer requests, echoes the
first request it sees per (issuer, input), accepts a transaction once some
quorum of its own trust assumption echoed it and the transaction is ready
against its history, and converts any pair of conflicting signed requests
into a broadcast accusation. Handlers are deterministic transitions from
(state, event) to (state, outbound messages): no clocks, no I/O, and no
iteration over unordered containers when emitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import KeyPair, make_scheme, verify_once
from .errors import InvalidTransaction
from .ledger import (
    Accusation,
    History,
    Transaction,
    conflicts,
    encode_tx,
    inputs_incoming,
    is_genesis,
    tx_ref,
    tx_valid,
    verify_acc,
)

REQ = "REQ"
ECHO = "ECHO"
ACC = "ACC"


@dataclass(frozen=True)
class Message:
    kind: str
    sender: int
    recipients: frozenset[int]
    tx: Transaction | None = None
    issuer_sig: bytes | None = None
    echoer_sig: bytes | None = None
    accusation: Accusation | None = None


@dataclass
class ProcessState:
    pid: int
    n: int
    quorums: tuple[frozenset[int], ...]
    key_private: bytes
    public_keys: dict[int, bytes]
    scheme_name: str
    history: History
    echoes: dict[int, set[Transaction]]
    pending: set[Transaction] = field(default_factory=set)
    pended: bool = False  # a transaction was pended since the last settle
    # the spend index: every verified request, under each (issuer, input) it
    # spends, with the first signature seen for it; (issuer, None) holds
    # requests that spend nothing. An input is used once this process echoed
    # some request in its bucket.
    requests: dict[tuple[int, bytes | None], dict[Transaction, bytes]] = field(default_factory=dict)
    unscanned: list[Transaction] = field(default_factory=list)  # recorded since detect_conflicts
    # the accepted spend of each (issuer, input) in the history
    accepted: dict[tuple[int, bytes], Transaction] = field(default_factory=dict)
    accusations: set[Accusation] = field(default_factory=set)
    disable_used_input_guard: bool = False  # test-only mutant switch
    # (public key, signed bytes, signature) triples that passed verification;
    # shared by every process of one run, so each is checked once per run
    verified: set[tuple[bytes, bytes, bytes]] = field(
        default_factory=set, compare=False, repr=False
    )


def initial_state(
    pid: int,
    n: int,
    quorums: tuple[frozenset[int], ...],
    key_private: bytes,
    public_keys: dict[int, bytes],
    scheme_name: str,
    genesis: Transaction,
    *,
    disable_used_input_guard: bool = False,
    verified: set[tuple[bytes, bytes, bytes]] | None = None,
) -> ProcessState:
    return ProcessState(
        pid=pid,
        n=n,
        quorums=quorums,
        key_private=key_private,
        public_keys=dict(public_keys),
        scheme_name=scheme_name,
        history=History.of([genesis]),
        echoes={p: set() for p in range(n)},
        disable_used_input_guard=disable_used_input_guard,
        verified=set() if verified is None else verified,
    )


def _scheme(state: ProcessState):
    return make_scheme(state.scheme_name)


def _sign(state: ProcessState, tx: Transaction) -> bytes:
    keys = KeyPair(public=state.public_keys[state.pid], private=state.key_private)
    return _scheme(state).sign(keys, encode_tx(tx))


def _verify(state: ProcessState, signer: int, tx: Transaction, sig: bytes | None) -> bool:
    if sig is None:
        return False
    public = state.public_keys.get(signer)
    if public is None:
        return False
    return verify_once(_scheme(state), state.verified, public, encode_tx(tx), sig)


def _others(state: ProcessState) -> frozenset[int]:
    return frozenset(p for p in range(state.n) if p != state.pid)


def quorum_check(state: ProcessState, tx: Transaction) -> bool:
    """Did every member of some quorum echo tx? Own echoes count."""
    return any(all(tx in state.echoes[q] for q in quorum) for quorum in state.quorums)


def _ready(state: ProcessState, tx: Transaction) -> bool:
    # c1: inputs already accepted
    if any(ref not in state.history.by_ref for ref in tx.inputs):
        return False
    # c2: a transaction at all (inputs pay the issuer) and value-conserving
    if not inputs_incoming(tx, state.history) or not tx_valid(tx, state.history):
        return False
    # c3: accepting it must not put conflicting spends in the history
    return all(state.accepted.get((tx.issuer, ref), tx) == tx for ref in tx.inputs)


def _maybe_pend(state: ProcessState, tx: Transaction) -> None:
    if tx not in state.history.txs and tx not in state.pending and quorum_check(state, tx):
        state.pending.add(tx)
        state.pended = True


def _record_own_echo(state: ProcessState, tx: Transaction) -> None:
    state.echoes[state.pid].add(tx)
    _maybe_pend(state, tx)


def _try_echo(state: ProcessState, tx: Transaction, issuer_sig: bytes, out: list[Message]) -> None:
    """Echo unless tx spends nothing or some input of this issuer was already used.

    A request that spends no input can never be accepted (it conserves no
    value), and with no input that could count as used it would be echoed
    again on every ECHO of it.
    """
    if not tx.inputs:
        return
    own = state.echoes[state.pid]
    if state.disable_used_input_guard:
        # mutant: drop the per-input protection, keep per-tx idempotence
        if tx in own:
            return
    else:
        # an input is used once this process echoed some request spending it
        for ref in tx.inputs:
            if not own.isdisjoint(state.requests[tx.issuer, ref]):
                return
    echo_sig = _sign(state, tx)
    out.append(
        Message(
            kind=ECHO,
            sender=state.pid,
            recipients=_others(state),
            tx=tx,
            issuer_sig=issuer_sig,
            echoer_sig=echo_sig,
        )
    )
    _record_own_echo(state, tx)


def record_request(state: ProcessState, tx: Transaction, issuer_sig: bytes) -> bool:
    """Index a verified signed request; False if tx was already recorded."""
    keys = [(tx.issuer, ref) for ref in tx.inputs] or [(tx.issuer, None)]
    if tx in state.requests.get(keys[0], ()):
        return False
    for key in keys:
        state.requests.setdefault(key, {})[tx] = issuer_sig
    state.unscanned.append(tx)
    return True


def _absorb_request(state: ProcessState, tx: Transaction, issuer_sig: bytes, out: list[Message]) -> None:
    """Store a signed request if new, then echo it if its inputs are fresh."""
    if record_request(state, tx, issuer_sig):
        _try_echo(state, tx, issuer_sig, out)


def detect_conflicts(state: ProcessState) -> list[Message]:
    """Turn conflicting signed requests recorded since the last call into accusations.

    Every conflicting pair that involves a newly recorded request becomes its
    own accusation; already-known ones are skipped, new ones are broadcast in
    (issuer, reference, reference) order.
    """
    proofs: dict[tuple[int, bytes, bytes], tuple[tuple[Transaction, bytes], ...]] = {}
    for tx in state.unscanned:
        for ref in tx.inputs:
            bucket = state.requests[(tx.issuer, ref)]
            for other in bucket:
                if other != tx:
                    key = (tx.issuer, *sorted((tx_ref(tx), tx_ref(other))))
                    proofs[key] = ((tx, bucket[tx]), (other, bucket[other]))
    state.unscanned.clear()
    out: list[Message] = []
    for key in sorted(proofs):
        acc = Accusation.build({key[0]}, proofs[key])
        if acc in state.accusations:
            continue
        state.accusations.add(acc)
        out.append(Message(kind=ACC, sender=state.pid, recipients=_others(state), accusation=acc))
    return out


def _settle(state: ProcessState, out: list[Message]) -> None:
    """Promote ready pending transactions to a fixpoint, then scan for conflicts.

    Readiness reads only the history and ``accepted``, which change only
    here, so pending stays a fixpoint until something new is pended.
    """
    progressed, state.pended = state.pended, False
    while progressed:
        progressed = False
        for tx in sorted(state.pending, key=tx_ref):
            if _ready(state, tx):
                state.history = state.history.with_tx(tx)
                state.accepted.update(((tx.issuer, ref), tx) for ref in tx.inputs)
                state.pending.discard(tx)
                progressed = True
    out.extend(detect_conflicts(state))


def can_transfer(state: ProcessState, tx: Transaction) -> bool:
    try:
        _check_transfer(state, tx)
    except InvalidTransaction:
        return False
    return True


def _check_transfer(state: ProcessState, tx: Transaction) -> None:
    if tx.issuer != state.pid:
        raise InvalidTransaction(f"process {state.pid} cannot issue for {tx.issuer}")
    if is_genesis(tx):
        raise InvalidTransaction("the funding root cannot be reissued")
    if any(ref not in state.history.by_ref for ref in tx.inputs):
        raise InvalidTransaction("inputs must already be in the issuer's history")
    if not inputs_incoming(tx, state.history):
        raise InvalidTransaction("every input must pay the issuer")
    if not tx_valid(tx, state.history):
        raise InvalidTransaction("outputs must be positive and conserve value")
    signed = (state.requests.get((state.pid, ref), ()) for ref in tx.inputs)
    if any(conflicts(tx, prior) for bucket in signed for prior in bucket):
        raise InvalidTransaction("conflicts with a transaction this process already signed")


def transfer(state: ProcessState, tx: Transaction) -> list[Message]:
    """Sign and broadcast a request, processing our own copy inline."""
    _check_transfer(state, tx)
    sig = _sign(state, tx)
    out: list[Message] = [
        Message(kind=REQ, sender=state.pid, recipients=_others(state), tx=tx, issuer_sig=sig)
    ]
    _absorb_request(state, tx, sig, out)
    _settle(state, out)
    return out


def handle_req(state: ProcessState, msg: Message) -> list[Message]:
    tx = msg.tx
    if tx is None or is_genesis(tx) or not _verify(state, tx.issuer, tx, msg.issuer_sig):
        return []
    out: list[Message] = []
    _absorb_request(state, tx, msg.issuer_sig, out)
    _settle(state, out)
    return out


def handle_echo(state: ProcessState, msg: Message) -> list[Message]:
    tx = msg.tx
    if tx is None or is_genesis(tx):
        return []
    if not _verify(state, msg.sender, tx, msg.echoer_sig):
        return []
    if not _verify(state, tx.issuer, tx, msg.issuer_sig):
        return []
    out: list[Message] = []
    state.echoes[msg.sender].add(tx)
    record_request(state, tx, msg.issuer_sig)
    _try_echo(state, tx, msg.issuer_sig, out)
    _maybe_pend(state, tx)
    _settle(state, out)
    return out


def handle_acc(state: ProcessState, msg: Message) -> list[Message]:
    acc = msg.accusation
    if acc is None or acc in state.accusations:
        return []
    if not verify_acc(acc, state.public_keys, _scheme(state), state.verified):
        return []
    state.accusations.add(acc)
    return [Message(kind=ACC, sender=state.pid, recipients=_others(state), accusation=acc)]


def handle_message(state: ProcessState, msg: Message) -> list[Message]:
    if msg.kind == REQ:
        return handle_req(state, msg)
    if msg.kind == ECHO:
        return handle_echo(state, msg)
    if msg.kind == ACC:
        return handle_acc(state, msg)
    return []
