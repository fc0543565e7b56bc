"""Transactions, histories, and the damage metrics computed over them.

A transaction moves value from previously received transactions (its
inputs) to a new output map. A history is a plain ``{ref: tx}`` table,
each transaction under its reference, closed under the well-formedness
clauses below; the cover number measures how many mutually consistent
"branches" a family of such tables splits into. The simulator counts the
spending number, how many conflicting spends of one input made it in, as
a run goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from .crypto import Verifier, content_hash
from .errors import MalformedHistory, SizeLimitExceeded

GENESIS_ISSUER = -1

# wire widths for the canonical encoding; the issuer field's top value is
# the funding root's, so no process may take it
_MAX_AMOUNT = 1 << 63
_MAX_U32 = 1 << 32
_MAX_TIMESTAMP = 1 << 64
_GENESIS_WIRE = 0xFFFFFFFF

COVER_EXACT_CAP = 12


@dataclass(frozen=True, slots=True)
class Transaction:
    """Immutable transfer record.

    ``outputs`` is stored sorted by recipient with zero amounts dropped and
    ``inputs`` as sorted 32-byte references, so equal content means equal
    value and equal canonical encoding. ``timestamp`` is optional; it only
    matters for the per-issuer predecessor clause of cluster analysis.

    The canonical encoding is computed once, at construction, and is the
    transaction's identity: equal encodings are equal transactions, and the
    hash is the encoding's (which bytes cache). Every value must fit its
    field of the encoding, so that two transactions encode alike only when
    they are alike; construction refuses any that does not.
    """

    issuer: int
    outputs: tuple[tuple[int, int], ...]
    inputs: tuple[bytes, ...]
    timestamp: int | None = None
    message: bytes | None = None
    encoding: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # exact ints (tx_to_obj spells True true); the top issuer is the root's wire value
        issuer = self.issuer
        if type(issuer) is not int or not GENESIS_ISSUER <= issuer < _GENESIS_WIRE:
            raise ValueError(f"bad issuer: {issuer!r}")
        for recipient, amount in self.outputs:
            if type(recipient) is not int or not 0 <= recipient < _MAX_U32:
                raise ValueError(f"bad output recipient: {recipient!r}")
            if type(amount) is not int or amount < 0 or amount >= _MAX_AMOUNT:
                raise ValueError(f"bad output amount: {amount!r}")
        for ref in self.inputs:
            if not isinstance(ref, bytes) or len(ref) != 32:
                raise ValueError("input references must be 32-byte digests")
        # the encoding writes None as 0, so 0 would collide with None
        tm = self.timestamp
        if tm is not None and (type(tm) is not int or not 1 <= tm < _MAX_TIMESTAMP):
            raise ValueError(f"bad timestamp: {tm!r}")
        message = self.message
        if message is not None and (not isinstance(message, bytes) or len(message) >= _MAX_U32):
            raise ValueError("bad message: expected bytes shorter than 2**32")
        object.__setattr__(self, "encoding", _encode(self))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Transaction):
            return NotImplemented
        return self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def pays(self, pid: int) -> int:
        for recipient, amount in self.outputs:
            if recipient == pid:
                return amount
        return 0


def make_tx(
    issuer: int,
    outputs: Mapping[int, int],
    inputs: Iterable[bytes] = (),
    timestamp: int | None = None,
    message: bytes | None = None,
) -> Transaction:
    """Normalize the pieces of a transaction: outputs sorted by recipient
    with zero amounts dropped, inputs sorted and deduplicated.

    Construction validates every value, a dropped output's too, before the
    outputs are sorted.
    """
    out = tuple(outputs.items())
    tx = Transaction(issuer, out, tuple(sorted(set(inputs))), timestamp, message)
    normal = tuple(sorted(pair for pair in out if pair[1]))
    return tx if normal == out else replace(tx, outputs=normal)


def genesis_tx(outputs: Mapping[int, int]) -> Transaction:
    """The funding root: no issuer, no inputs, exempt from validity."""
    return make_tx(GENESIS_ISSUER, outputs, (), timestamp=1)


def is_genesis(tx: Transaction) -> bool:
    return tx.issuer == GENESIS_ISSUER and not tx.inputs


def _be(value: int, width: int) -> bytes:
    return value.to_bytes(width, "big")


def _encode(tx: Transaction) -> bytes:
    wire_issuer = _GENESIS_WIRE if tx.issuer == GENESIS_ISSUER else tx.issuer
    parts = [_be(wire_issuer, 4), _be(len(tx.outputs), 4)]
    for recipient, amount in tx.outputs:
        parts.append(_be(recipient, 4))
        parts.append(_be(amount, 8))
    parts.append(_be(len(tx.inputs), 4))
    parts.extend(tx.inputs)
    parts.append(_be(tx.timestamp or 0, 8))
    if tx.message is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(_be(len(tx.message), 4))
        parts.append(tx.message)
    return b"".join(parts)


@lru_cache(maxsize=4096)
def tx_ref(tx: Transaction) -> bytes:
    """Content hash of the canonical encoding."""
    return content_hash(tx.encoding)


def out_value(tx: Transaction) -> int:
    return sum(amount for _, amount in tx.outputs)


def conflicts(a: Transaction, b: Transaction) -> bool:
    """Distinct transactions by one issuer spending a shared input."""
    if a == b or a.issuer != b.issuer:
        return False
    return bool(set(a.inputs) & set(b.inputs))


def conflicting_pairs(
    txs: Iterable[Transaction],
) -> tuple[tuple[Transaction, Transaction], ...]:
    """Every conflicting pair among txs, ordered by reference within and across pairs.

    Only transactions of one issuer spending one input can conflict, so
    pairs are drawn from each (issuer, input) group.
    """
    spends: dict[tuple[int, bytes], set[Transaction]] = {}
    for tx in txs:
        for ref in tx.inputs:
            spends.setdefault((tx.issuer, ref), set()).add(tx)
    pairs: dict[tuple[bytes, bytes], tuple[Transaction, Transaction]] = {}
    for group in spends.values():
        for a, b in combinations(sorted(group, key=tx_ref), 2):
            pairs[tx_ref(a), tx_ref(b)] = (a, b)
    return tuple(pairs[refs] for refs in sorted(pairs))


@dataclass(frozen=True)
class WellFormedness:
    ok: bool
    failures: tuple[tuple[str, str], ...] = ()


def tx_fault(tx: Transaction, by_ref: Mapping[bytes, Transaction]) -> tuple[str, str] | None:
    """The first clause a transaction other than the funding root breaks
    against a history's table ``by_ref``, as (clause, reason), or None if
    it may join it.

    Completeness: every input is in the history. Then t-validity: every
    input pays the issuer, and the outputs are positive and spend exactly
    what the inputs pay. Well-formedness, the engine's readiness check and
    its transfer check all ask this one function.
    """
    paid = 0
    unpaid = False
    for ref in tx.inputs:
        source = by_ref.get(ref)
        if source is None:
            return "completeness", "has an unresolved input"
        amount = source.pays(tx.issuer)
        unpaid = unpaid or not amount
        paid += amount
    if unpaid:
        return "t-validity", "spends an input not paid to its issuer"
    out = out_value(tx)
    if out <= 0 or out != paid:
        return "t-validity", "breaks value conservation"
    return None


def well_formed_report(
    table: Mapping[bytes, Transaction], *, check_timestamps: bool = False
) -> WellFormedness:
    """Evaluate every clause in one pass over the table in reference order,
    returning which ones failed and why.

    An entry's key must be its transaction's reference: a dependency cycle
    would then need a content hash that is its own ancestor's input, so the
    key check stands for cycle-freedom. Under ``check_timestamps`` each
    transaction also needs a same-issuer predecessor stamped one less.
    """
    failures: list[tuple[str, str]] = []
    stamps = {(tx.issuer, tx.timestamp) for tx in table.values() if not is_genesis(tx)}
    roots = 0
    for ref, tx in sorted(table.items()):
        name = ref.hex()[:12]
        if tx_ref(tx) != ref:
            failures.append(("cycle-freedom", f"{name} keys a transaction of another reference"))
        if is_genesis(tx):
            roots += 1
            continue
        fault = tx_fault(tx, table)
        if fault is not None:
            failures.append((fault[0], f"{name} {fault[1]}"))
        if not check_timestamps:
            continue
        if tx.timestamp is None:
            failures.append(("predecessor", f"{name} carries no timestamp"))
        elif tx.timestamp > 1 and (tx.issuer, tx.timestamp - 1) not in stamps:
            failures.append(
                ("predecessor", f"{name} (t={tx.timestamp}) lacks a same-issuer predecessor")
            )
    if roots != 1:
        failures.append(("t-validity", f"expected exactly one funding root, found {roots}"))
    for a, b in conflicting_pairs(table.values()):
        failures.append(
            ("no-conflict", f"{tx_ref(a).hex()[:12]} and {tx_ref(b).hex()[:12]} share an input")
        )
    return WellFormedness(ok=not failures, failures=tuple(failures))


def _as_histories(collection: Mapping[int, dict] | Iterable[dict]) -> list[dict]:
    if isinstance(collection, Mapping):
        collection = [collection[k] for k in sorted(collection)]
    # a duplicate has equal content, not just equal keys: a table forging a
    # value under a good table's keys must stay to be judged
    return list({frozenset(h.items()): h for h in collection}.values())


def _fragments(table: Mapping[bytes, Transaction]) -> dict[int, set[bytes]]:
    """The references of a table per issuer, the funding root's left out."""
    fragments: dict[int, set[bytes]] = {}
    for ref, tx in table.items():
        if not is_genesis(tx):
            fragments.setdefault(tx.issuer, set()).add(ref)
    return fragments


def _compatible(a: dict[int, set[bytes]], b: dict[int, set[bytes]]) -> bool:
    # pairwise cluster condition: per-issuer fragments form a chain; an
    # issuer only one side has is a chain with the empty fragment
    return all(a[i] <= b[i] or b[i] <= a[i] for i in a.keys() & b.keys())


def minimum_cover(
    collection: Mapping[int, dict] | Iterable[dict],
) -> tuple[tuple[dict[bytes, Transaction], ...], ...]:
    """Fewest clusters whose union is the collection of ``{ref: tx}`` tables.

    A cluster is a set of histories whose per-issuer projections are
    pairwise comparable, so clusters are exactly the cliques of the
    compatibility graph and the minimum cover is an exact minimum clique
    cover (computed as a coloring of the incompatibility graph). Every
    history must be well formed, timestamps included, and there may be at
    most ``COVER_EXACT_CAP`` distinct ones.
    """
    histories = sorted(_as_histories(collection), key=sorted)
    for h in histories:
        if not well_formed_report(h, check_timestamps=True).ok:
            raise MalformedHistory("cover analysis requires well-formed histories")
    m = len(histories)
    if m == 0:
        return ()
    if m > COVER_EXACT_CAP:
        raise SizeLimitExceeded(f"cover search capped at {COVER_EXACT_CAP} histories, got {m}")

    fragments = [_fragments(h) for h in histories]
    incompat = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if not _compatible(fragments[i], fragments[j]):
                incompat[i].add(j)
                incompat[j].add(i)

    order = sorted(range(m), key=lambda v: (-len(incompat[v]), v))
    colors = [-1] * m

    def assign(idx: int, k: int) -> bool:
        if idx == m:
            return True
        v = order[idx]
        used = {colors[u] for u in incompat[v] if colors[u] != -1}
        limit = min(k, max((colors[u] for u in order[:idx] if colors[u] != -1), default=-1) + 2)
        for c in range(limit):
            if c in used:
                continue
            colors[v] = c
            if assign(idx + 1, k):
                return True
            colors[v] = -1
        return False

    try:  # a failed k leaves every vertex uncolored, and k = m always succeeds
        next(k for k in range(1, m + 1) if assign(0, k))
    finally:
        del assign  # it holds itself through its cell: no cycle outlives the call
    classes: dict[int, list[dict[bytes, Transaction]]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(histories[v])
    return tuple(sorted(map(tuple, classes.values()), key=lambda cls: sorted(cls[0])))


@dataclass(frozen=True, slots=True)
class Accusation:
    """Claim that the accused processes signed conflicting transactions.

    The proof carries (transaction, issuer signature) pairs in canonical
    order by transaction hash so equal evidence compares equal. The digest
    of the canonical encoding is computed once, at construction, and is
    the hash; equality compares the accused set and the proof.
    """

    accused: frozenset[int]
    proof: tuple[tuple[Transaction, bytes], ...]
    digest: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "digest", content_hash(encode_accusation(self)))

    def __hash__(self):
        return hash(self.digest)

    @staticmethod
    def build(accused: Iterable[int], proof: Iterable[tuple[Transaction, bytes]]) -> "Accusation":
        canonical = tuple(sorted(set(proof), key=lambda pair: tx_ref(pair[0])))
        return Accusation(accused=frozenset(accused), proof=canonical)


def encode_accusation(acc: Accusation) -> bytes:
    parts = [_be(len(acc.accused), 4)]
    parts.extend(_be(pid, 4) for pid in sorted(acc.accused))
    parts.append(_be(len(acc.proof), 4))
    for tx, sig in acc.proof:
        parts.append(tx_ref(tx))
        parts.append(_be(len(sig), 4))
        parts.append(sig)
    return b"".join(parts)


def verify_acc(acc: Accusation, verifier: Verifier) -> bool:
    """Check an accusation on evidence alone; no trust model involved.

    Every proof pair must be validly signed by its issuer, every issuer
    must be among the accused, and each accused process must have at least
    two distinct pairwise-conflicting transactions in the proof. Signatures
    go through ``verifier``, so a triple it already passed is not checked
    again, and so does the verdict: an accusation that passed is not judged
    again, one that failed is judged each time it is presented.
    """
    if acc.digest in verifier.accusations:
        return True
    if not _acc_holds(acc, verifier):
        return False
    verifier.accusations.add(acc.digest)
    return True


def _acc_holds(acc: Accusation, verifier: Verifier) -> bool:
    if not acc.accused or not acc.proof:
        return False
    by_issuer: dict[int, list[Transaction]] = {}
    for tx, sig in acc.proof:
        if not verifier.verify(tx.issuer, tx.encoding, sig):
            return False
        if tx.issuer not in acc.accused:
            return False
        by_issuer.setdefault(tx.issuer, []).append(tx)
    for pid in acc.accused:
        txs = by_issuer.get(pid, [])
        if len(set(txs)) < 2:
            return False
        if not all(conflicts(a, b) for i, a in enumerate(txs) for b in txs[i + 1 :]):
            return False
    return True
