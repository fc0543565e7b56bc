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
from operator import attrgetter

from .crypto import KeyPair, Verifier
from .errors import InvalidTransaction
from .ledger import Accusation, Transaction, conflicts, tx_fault, verify_acc

REQ = "REQ"
ECHO = "ECHO"
ACC = "ACC"


# slots, not frozen: a frozen init costs about three times as much. No code
# hashes a message, and the one field assigned after init is verified
@dataclass(slots=True)
class Message:
    kind: str
    sender: int
    recipients: frozenset[int]
    tx: Transaction | None = None
    issuer_sig: bytes | None = None
    echoer_sig: bytes | None = None
    accusation: Accusation | None = None
    # its own signature, a REQ's issuer_sig or an ECHO's echoer_sig, passed a check
    verified: bool = field(default=False, compare=False, repr=False)


# what one process knows of one recorded request
@dataclass(slots=True)
class Record:
    tx: Transaction
    sig: bytes  # the first issuer signature seen for it
    echoers: int = 0  # the processes whose verified echo of it this one holds, itself included
    pended: bool = False  # set once a quorum echoed it, never cleared: pending or accepted


@dataclass
class ProcessState:
    pid: int
    n: int
    quorum_masks: tuple[int, ...]  # one bitmask of members per quorum
    audience: frozenset[int]  # every other process, which each broadcast addresses
    keys: KeyPair
    # the run's scheme, directory and signature memo, shared by its processes
    verifier: Verifier = field(compare=False, repr=False)
    # the history: each accepted transaction under its reference, in the
    # order accepted. It only grows, so what a handler accepted is its tail.
    by_ref: dict[bytes, Transaction]
    # every verified request's record, keyed by encoding, the transaction's
    # identity, whose hash bytes cache
    records: dict[bytes, Record] = field(default_factory=dict)
    # the pended transactions not yet accepted: _settle's work list
    pending: dict[bytes, Transaction] = field(default_factory=dict)
    unsettled: bool = False  # a transaction was pended since the last settle
    # the spend index: the same records under each (issuer, input) they
    # spend. An input is used once this process echoed some request in its bucket.
    requests: dict[tuple[int, bytes], dict[bytes, Record]] = field(default_factory=dict)
    # recorded since detect_conflicts and sharing a bucket with another request
    unscanned: list[Transaction] = field(default_factory=list)
    # the accepted spend of each (issuer, input) in the history
    accepted: dict[tuple[int, bytes], Transaction] = field(default_factory=dict)
    accusations: set[Accusation] = field(default_factory=set)
    disable_used_input_guard: bool = False  # test-only mutant switch


def initial_state(
    pid: int,
    n: int,
    quorums: tuple[frozenset[int], ...],
    keys: KeyPair,
    verifier: Verifier,
    genesis: Transaction,
    *,
    disable_used_input_guard: bool = False,
) -> ProcessState:
    return ProcessState(
        pid=pid,
        n=n,
        quorum_masks=tuple(sum(1 << q for q in quorum) for quorum in quorums),
        audience=frozenset(range(n)) - {pid},
        keys=keys,
        verifier=verifier,
        by_ref={genesis.ref: genesis},
        disable_used_input_guard=disable_used_input_guard,
    )


def _ready(state: ProcessState, tx: Transaction) -> bool:
    # c1 and c2: inputs already accepted, paying the issuer, value conserved
    if tx_fault(tx, state.by_ref) is not None:
        return False
    # c3: accepting it must not put conflicting spends in the history
    return all(state.accepted.get((tx.issuer, ref), tx) == tx for ref in tx.inputs)


def _pend(state: ProcessState, record: Record) -> None:
    """Pend the record's transaction if every member of some quorum echoed it. Own echoes count."""
    echoers = record.echoers
    for mask in state.quorum_masks:
        if echoers & mask == mask:
            record.pended = state.unsettled = True
            state.pending[record.tx.encoding] = record.tx
            return


def _try_echo(state: ProcessState, record: Record, out: list[Message]) -> None:
    """Echo unless some input of this issuer was already used, then pend if a quorum echoed."""
    own = 1 << state.pid
    tx = record.tx
    if state.disable_used_input_guard:
        # mutant: drop the per-input protection, keep per-tx idempotence
        if record.echoers & own:
            return
    else:
        # an input is used once this process echoed some request spending it
        for ref in tx.inputs:
            if any(r.echoers & own for r in state.requests[tx.issuer, ref].values()):
                return
    # the issuer's own echo signs the request's bytes with the request's key,
    # and both schemes are deterministic, so the request signature is the echo's
    echo_sig = record.sig if tx.issuer == state.pid else state.verifier.sign(state.keys, tx.encoding)
    out.append(
        Message(
            kind=ECHO,
            sender=state.pid,
            recipients=state.audience,
            tx=tx,
            issuer_sig=record.sig,
            echoer_sig=echo_sig,
        )
    )
    record.echoers |= own
    _pend(state, record)


def record_request(state: ProcessState, tx: Transaction, issuer_sig: bytes) -> Record | None:
    """Record and index a verified signed request; None if tx was already recorded.

    Queue it for the conflict scan only if it shares an (issuer, input) bucket:
    alone, it pairs with nothing yet, and a later rival finds it from its bucket.
    """
    enc = tx.encoding
    if enc in state.records:
        return None
    record = state.records[enc] = Record(tx, issuer_sig)
    shared = False
    for ref in tx.inputs:
        bucket = state.requests.setdefault((tx.issuer, ref), {})
        bucket[enc] = record
        shared = shared or len(bucket) > 1
    if shared:
        state.unscanned.append(tx)
    return record


def detect_conflicts(state: ProcessState) -> list[Message]:
    """Turn conflicting signed requests recorded since the last call into accusations.

    Every conflicting pair that involves a newly recorded request becomes its
    own accusation; already-known ones are skipped, new ones are broadcast in
    (issuer, reference, reference) order. The run's verifier keeps the one
    accusation built per proof, keyed by (issuer, lower reference, its
    signature, higher reference, its signature), so the run's processes
    relay one object and a store lookup matches it by identity.
    """
    found: dict[tuple[int, bytes, bytes, bytes, bytes], tuple[Record, Record]] = {}
    for tx in state.unscanned:
        mine = state.records[tx.encoding]
        for ref in tx.inputs:
            for enc, theirs in state.requests[(tx.issuer, ref)].items():
                if enc != tx.encoding:
                    lo, hi = (mine, theirs) if tx.ref < theirs.tx.ref else (theirs, mine)
                    found[tx.issuer, lo.tx.ref, lo.sig, hi.tx.ref, hi.sig] = (lo, hi)
    state.unscanned.clear()
    built = state.verifier.proofs
    out: list[Message] = []
    for key in sorted(found):  # one signature per recorded reference: sorted as the refs
        acc = built.get(key)
        if acc is None:
            lo, hi = found[key]
            acc = built[key] = Accusation.build({key[0]}, ((lo.tx, lo.sig), (hi.tx, hi.sig)))
        if acc in state.accusations:
            continue
        state.accusations.add(acc)
        out.append(Message(kind=ACC, sender=state.pid, recipients=state.audience, accusation=acc))
    return out


def _settle(state: ProcessState, out: list[Message]) -> None:
    """Promote ready pending transactions to a fixpoint, then scan for conflicts.

    Readiness reads only the history and ``accepted``, which change only
    here, so pending stays a fixpoint until something new is pended. An
    accepted transaction leaves pending, and its record stays pended.
    """
    progressed, state.unsettled = state.unsettled, False
    while progressed:
        progressed = False
        for tx in sorted(state.pending.values(), key=attrgetter("ref")):
            if _ready(state, tx):
                state.by_ref[tx.ref] = tx
                state.accepted.update(((tx.issuer, ref), tx) for ref in tx.inputs)
                del state.pending[tx.encoding]
                progressed = True
    if state.unscanned:
        out.extend(detect_conflicts(state))


def _refusal(state: ProcessState, tx: Transaction) -> str | None:
    """Why this process may not issue tx now, opening with the clause; None if it may."""
    if tx.issuer != state.pid:
        return f"issuer: process {state.pid} cannot issue for {tx.issuer}"
    fault = tx_fault(tx, state.by_ref)
    if fault is not None:
        return f"{fault[0]}: the transaction {fault[1]}"
    signed = (state.requests.get((state.pid, ref), {}) for ref in tx.inputs)
    if any(conflicts(tx, prior.tx) for bucket in signed for prior in bucket.values()):
        return "already signed: the transaction conflicts with one this process signed"
    return None


def can_transfer(state: ProcessState, tx: Transaction) -> bool:
    return _refusal(state, tx) is None


def transfer(state: ProcessState, tx: Transaction) -> list[Message]:
    """Sign and broadcast a request, processing our own copy inline."""
    refusal = _refusal(state, tx)
    if refusal is not None:
        raise InvalidTransaction(refusal)
    sig = state.verifier.sign(state.keys, tx.encoding)
    out: list[Message] = [
        Message(kind=REQ, sender=state.pid, recipients=state.audience, tx=tx, issuer_sig=sig)
    ]
    record = record_request(state, tx, sig)
    if record is not None:
        _try_echo(state, record, out)
    _settle(state, out)
    return out


def handle_req(state: ProcessState, msg: Message) -> list[Message]:
    """Record and echo a new signed request.

    A request that spends nothing, the funding root among them, can never
    be accepted (it conserves no value), so it is dropped at the door. A
    request already recorded can change nothing: it was offered to
    ``_try_echo`` when recorded, which never echoes it twice, and between
    handlers nothing is pended or unscanned. So both return before any
    signature is checked, and a message whose signature passed once is
    marked. A new request that pended nothing and shares no bucket with
    another skips ``_settle``, which would find nothing to do.
    """
    tx = msg.tx
    if tx is None or not tx.inputs or tx.encoding in state.records:
        return []
    if not (msg.verified or state.verifier.verify(tx.issuer, tx.encoding, msg.issuer_sig)):
        return []
    msg.verified = True
    out: list[Message] = []
    record = record_request(state, tx, msg.issuer_sig)
    if record is not None:
        _try_echo(state, record, out)
    if state.unsettled or state.unscanned:
        _settle(state, out)
    return out


def handle_echo(state: ProcessState, msg: Message) -> list[Message]:
    """Count a verified echo, recording and echoing its request if new.

    The echo of a request that spends nothing is dropped, as the request
    is. The echo of a pended transaction, pending or accepted, can change
    nothing: its quorum is never read again, and its request is recorded
    and was offered to ``_try_echo`` already. So both return before any
    signature is checked. An echoer signature is checked once per message:
    a pass marks it, and a forged one is checked at every recipient.
    An issuer signature byte-identical to the one recorded with the request
    was verified, or made by this process, when it was recorded, so it is
    not checked again. Only a record this echo creates is offered to
    ``_try_echo``: each is offered it at creation, and echo bits are never
    cleared, so a later offer could only return, in either guard mode.
    With nothing pended or unscanned ``_settle`` does nothing.
    """
    tx = msg.tx
    if tx is None or not tx.inputs:
        return []
    enc = tx.encoding
    record = state.records.get(enc)
    if record is not None and record.pended:
        return []
    if not (msg.verified or state.verifier.verify(msg.sender, enc, msg.echoer_sig)):
        return []
    msg.verified = True
    if record is None or record.sig != msg.issuer_sig:
        if not state.verifier.verify(tx.issuer, enc, msg.issuer_sig):
            return []
    out: list[Message] = []
    if record is None:
        record = record_request(state, tx, msg.issuer_sig)
        record.echoers = 1 << msg.sender
        _try_echo(state, record, out)
    else:
        record.echoers |= 1 << msg.sender
    if not record.pended:
        _pend(state, record)
    if state.unsettled or state.unscanned:
        _settle(state, out)
    return out


def handle_acc(state: ProcessState, msg: Message) -> list[Message]:
    acc = msg.accusation
    if acc is None or acc in state.accusations:
        return []
    if not verify_acc(acc, state.verifier):
        return []
    state.accusations.add(acc)
    return [Message(kind=ACC, sender=state.pid, recipients=state.audience, accusation=acc)]


def handle_message(state: ProcessState, msg: Message) -> list[Message]:
    if msg.kind == REQ:
        return handle_req(state, msg)
    if msg.kind == ECHO:
        return handle_echo(state, msg)
    if msg.kind == ACC:
        return handle_acc(state, msg)
    return []
