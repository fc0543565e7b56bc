"""Outside-in tracing of kspend: spans and counts recorded at module boundaries.

Nothing under ``src/kspend`` knows about this module. A traced process
replaces the module attributes that kspend's call sites resolve at call
time (``kspend.engine.handle_message``, ``kspend.sim.minimum_cover``, the
scheme ``sign``/``verify`` methods, ...) with wrappers that record a span
(name, start, end, parent, op id) or bump a counter. Spans are kept in
flat arrays in memory and written out once the run ends.

A span's self time is its duration minus the durations of its child
spans; calls are synchronous and single-threaded, so children never
overlap.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from array import array
from collections import Counter
from time import perf_counter

SETUP_OP = -1  # op id of spans recorded while generating inputs


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self._verified: set[bytes] = set()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner: object, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- wiring ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary of the imported kspend package."""
        from kspend import attack, crypto, engine, fuzz, kcb, ledger, properties, sim, trust

        span = self.span
        self.patch(sim, "run", self._run_span)
        self.patch(sim, "inconsistency_number", lambda f: span("trust.bound", f))
        self.patch(trust, "inconsistency_number", lambda f: span("trust.analyze", f))
        self.patch(attack, "max_independent_set_witness", lambda f: span("trust.witness", f))
        self.patch(sim, "minimum_cover", lambda f: span("ledger.cover", f))
        self.patch(sim, "compute_trace_hash", lambda f: span("sim.trace_hash", f))
        self.patch(properties, "evaluate_properties", lambda f: span("properties", f))
        self.patch(engine, "transfer", lambda f: span("engine.transfer", f))
        self.patch(engine, "can_transfer", lambda f: span("engine.can_transfer", f))
        self.patch(engine, "handle_message", self._message_span)
        for owner in (attack, kcb):
            self.patch(owner, "synthesize_multispend_attack", lambda f: span("attack.synth", f))
        self.patch(kcb, "byzantine_broadcast_scenario", lambda f: span("kcb.scenario", f))
        for name in ("random_model", "random_scenario", "random_vulnerable_model"):
            self.patch(fuzz, name, lambda f: span("fuzz.gen", f))
        # conflicts is imported by name into engine and properties; ledger's
        # own helpers resolve it through ledger's globals
        for owner in (engine, ledger, properties):
            self.patch(owner, "conflicts", lambda f: self.counted("ledger.conflicts", f))
        for scheme in (crypto.Ed25519Scheme, crypto.HmacScheme):
            self.patch(scheme, "sign", lambda f: span("crypto.sign", f))
            self.patch(scheme, "verify", self._verify_span)

    def _run_span(self, fn):
        traced_run = self.span("sim.run", fn)
        counts = self.counts

        def traced(*args, **kwargs):
            report = traced_run(*args, **kwargs)
            counts["sim.events"] += report.events
            return report

        return traced

    def _message_span(self, fn):
        kinds = {kind: self._name_id(f"engine.{kind.lower()}") for kind in ("REQ", "ECHO", "ACC")}

        def traced(state, msg):
            idx = self._open(kinds[msg.kind])
            try:
                return fn(state, msg)
            finally:
                self._close(idx)

        return traced

    def _verify_span(self, fn):
        nid = self._name_id("crypto.verify")
        seen = self._verified

        def traced(scheme, public, message, signature):
            seen.add(hashlib.blake2b(public + b"|" + message + b"|" + signature,
                                     digest_size=16).digest())
            idx = self._open(nid)
            try:
                return fn(scheme, public, message, signature)
            finally:
                self._close(idx)

        return traced

    # --- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def summary(self) -> dict:
        """Per span name: calls and self seconds, for op spans and set-up spans."""
        selfs = self.self_times()
        ops: dict[str, list] = {}
        setup: dict[str, list] = {}
        for idx, nid in enumerate(self.name):
            bucket = setup if self.op[idx] == SETUP_OP else ops
            entry = bucket.setdefault(self.names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += selfs[idx]
        return {"ops": ops, "setup": setup}

    def message_quarters(self) -> tuple[float, float, int]:
        """Mean handler µs per message over each op's first and last quarter.

        Pools every op of the traced pass; returns (q1_us, q4_us, messages
        per quarter summed over ops).
        """
        msg_ids = {self._ids[n] for n in ("engine.req", "engine.echo", "engine.acc")
                   if n in self._ids}
        per_op: dict[int, list[float]] = {}
        for idx, nid in enumerate(self.name):
            if nid in msg_ids and self.op[idx] != SETUP_OP:
                per_op.setdefault(self.op[idx], []).append(self.end[idx] - self.start[idx])
        first = last = 0.0
        count = 0
        for durations in per_op.values():
            quarter = len(durations) // 4
            if quarter == 0:
                continue
            first += sum(durations[:quarter])
            last += sum(durations[-quarter:])
            count += quarter
        if count == 0:
            return 0.0, 0.0, 0
        return first / count * 1e6, last / count * 1e6, count

    def distinct_verifies(self) -> int:
        return len(self._verified)

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            names = self.names
            for idx in range(len(self.start)):
                fh.write(json.dumps([names[self.name[idx]], self.start[idx], self.end[idx],
                                     self.parent[idx], self.op[idx]]) + "\n")
