"""kspend benchmark: one workload, timed end to end, or traced layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

kspend is imported from ``src`` of that checkout. The workload's inputs
are generated from ``--seed`` during set-up; then whole passes over the
inputs run for about ``--seconds`` seconds (at least one pass, and no pass
that is expected to end past the deadline). Every op's output is checked.
End-to-end times are scaled to a reference host speed (see hostspeed.py).
With ``--trace 1`` the process instead runs one untraced pass and one
traced pass over the same inputs and reports per-layer metrics.

Standard output ends with a readable table, one JSON line with the
environment and the outputs digest, and a last JSON line with the result.
Exit status: 0 when the workload ran (even with failed ops), 2 when the
checkout has no kspend sources to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_kspend() -> None:
    """Import kspend from this checkout's src, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "kspend", "__init__.py")):
        fail(f"no kspend sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    kspend = importlib.import_module("kspend")
    if os.path.dirname(os.path.abspath(kspend.__file__)) != os.path.join(SRC, "kspend"):
        fail(f"kspend was imported from {kspend.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    try:
        from importlib.metadata import version

        crypto_version = version("cryptography")
    except ImportError:
        crypto_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cryptography": crypto_version,
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:  # not a git checkout, or the ref is packed
        return "unknown"


def tail(values: list[float]) -> tuple[float, str]:
    """The value at the highest ladder percentile with >= 10 values beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            pos = pct / 100.0 * (count - 1)
            low = int(pos)
            high = min(low + 1, count - 1)
            return ordered[low] + (ordered[high] - ordered[low]) * (pos - low), f"p{pct:g}"
    return ordered[-1], "max"  # too few values for any percentile


class Tally:
    """Timings and outcomes of every op attempted in one phase."""

    def __init__(self):
        self.starts: list[list[float]] = []  # per op index, one per pass
        self.ends: list[list[float]] = []
        self.pass_walls: list[float] = []
        self.ok = self.budget = self.failed = self.events = 0
        self.failures: list[str] = []
        self.first_tokens: list[str] | None = None

    @property
    def attempted(self) -> int:
        return sum(len(samples) for samples in self.starts)

    def run_pass(self, ops, tracer=None) -> None:
        if not self.starts:
            self.starts = [[] for _ in ops]
            self.ends = [[] for _ in ops]
        tokens = []
        started = perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a crashing op is a counted failure
                out = exc
            self.ends[index].append(perf_counter())
            self.starts[index].append(t0)
            outcome = op.check(out)
            tokens.append(outcome.token)
            expected = self.first_tokens[index] if self.first_tokens else outcome.token
            failure = outcome.failure
            if failure is None and outcome.token != expected:
                failure = f"output changed between passes: {expected} then {outcome.token}"
            if failure is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{op.label}: {failure}")
            elif outcome.budget:
                self.budget += 1
            else:
                self.ok += 1
                self.events += outcome.events
        self.pass_walls.append(perf_counter() - started)
        if self.first_tokens is None:
            self.first_tokens = tokens

    def op_latencies(self, speed: hostspeed.HostSpeed) -> list[float]:
        """Each op's median latency over the passes, at the reference speed."""
        return [statistics.median(speed.scaled(s, e) for s, e in zip(starts, ends))
                for starts, ends in zip(self.starts, self.ends)]

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.first_tokens or ()).encode()).hexdigest()


def measure(ops, seconds: float) -> tuple[Tally, hostspeed.HostSpeed]:
    """Whole passes for about `seconds`: at least one, none expected to overrun."""
    tally = Tally()
    started = perf_counter()
    with hostspeed.HostSpeed() as speed:
        while True:
            tally.run_pass(ops)
            elapsed = perf_counter() - started
            if elapsed + statistics.fmean(tally.pass_walls) > seconds:
                return tally, speed


def end_to_end(tally: Tally, latencies: list[float], setup_s: float) -> dict[str, tuple]:
    """End-to-end metrics as (value, unit), from per-op latencies of one pass."""
    wall = sum(latencies)
    passes = len(tally.pass_walls)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (tally.ok / passes / wall, "1/s"),
        "events_per_s": (tally.events / passes / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail(latencies)[0] * 1e3, "ms"),
        "ok_ratio": (tally.ok / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, tally: Tally, ledger) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass, plus the bases of its ratios.

    The tally holds the untraced reference pass, then the traced pass.
    """
    summary = tracer.summary()
    ops, setup = summary["ops"], summary["setup"]

    def calls(name):
        return ops.get(name, (0, 0.0))[0]

    def self_s(name):
        return ops.get(name, (0, 0.0))[1]

    q1, q4, per_quarter = tracer.message_quarters()
    verify_n = calls("crypto.verify")
    can_transfer_n = calls("engine.can_transfer")
    untraced_wall, traced_wall = tally.pass_walls
    metrics = {
        "trust.bound_s": (self_s("trust.bound"), "s"),
        "trust.analyze_s": (self_s("trust.analyze"), "s"),
        "trust.witness_s": (self_s("trust.witness"), "s"),
        "trust.calls": (calls("trust.bound") + calls("trust.analyze") + calls("trust.witness"),
                        "count"),
        "engine.req_s": (self_s("engine.req"), "s"),
        "engine.echo_s": (self_s("engine.echo"), "s"),
        "engine.acc_s": (self_s("engine.acc"), "s"),
        "engine.transfer_s": (self_s("engine.transfer"), "s"),
        "engine.can_transfer_s": (self_s("engine.can_transfer"), "s"),
        "engine.req_n": (calls("engine.req"), "count"),
        "engine.echo_n": (calls("engine.echo"), "count"),
        "engine.acc_n": (calls("engine.acc"), "count"),
        "engine.transfer_n": (calls("engine.transfer"), "count"),
        "engine.can_transfer_n": (can_transfer_n, "count"),
        "engine.msg_us_q1": (q1, "us"),
        "engine.msg_us_q4": (q4, "us"),
        "sim.action_yield": (calls("engine.transfer") / can_transfer_n if can_transfer_n else 0.0,
                             "ratio"),
        "crypto.sign_n": (calls("crypto.sign"), "count"),
        "crypto.sign_s": (self_s("crypto.sign"), "s"),
        "crypto.verify_n": (verify_n, "count"),
        "crypto.verify_s": (self_s("crypto.verify"), "s"),
        "crypto.verify_distinct_ratio": (
            tracer.distinct_verifies() / verify_n if verify_n else 0.0, "ratio"),
        "ledger.conflicts_n": (tracer.counts["ledger.conflicts"], "count"),
        "ledger.cover_s": (self_s("ledger.cover"), "s"),
        "ledger.tx_ref_cache_entries": (ledger.tx_ref.cache_info().currsize, "count"),
        "sim.self_s": (self_s("sim.run"), "s"),
        "sim.trace_hash_s": (self_s("sim.trace_hash"), "s"),
        "sim.events": (tracer.counts["sim.events"], "count"),
        "properties.s": (self_s("properties"), "s"),
        "attack.synth_s": (self_s("attack.synth"), "s"),
        "kcb.scenario_s": (self_s("kcb.scenario"), "s"),
        "fuzz.gen_s": (setup.get("fuzz.gen", (0, 0.0))[1], "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }
    bases = {
        "engine.msg_us_q4_over_q1": q4 / q1 if q1 else None,
        "engine.msg_quarter_messages": per_quarter,
        "crypto.verify_distinct": tracer.distinct_verifies(),
        "sim.actions_executed": calls("engine.transfer"),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "spans": len(tracer.start),
    }
    return metrics, bases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 replays the test suite's corpus schedules")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase; ignored with --trace 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-check's input size")
    args = parser.parse_args(argv)

    with hostspeed.HostSpeed() as setup_speed:
        started = perf_counter()
        import_kspend()
        import_span = (started, perf_counter())
        import workloads
        from kspend import ledger

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
        seed = args.seed
        size = workloads.FULL if args.size == "full" else workloads.TINY
        build = workloads.WORKLOADS[args.workload]
        gen_spans = []
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            ops = build(seed, size)
            gen_spans.append((started, perf_counter()))
    import_s = setup_speed.scaled(*import_span)
    gen_times = [setup_speed.scaled(*span) for span in gen_spans]
    setup_s = import_s + statistics.median(gen_times)

    info = {"workload": args.workload, "size": args.size, "env": environment(seed),
            "setup": {"import_s": import_s, "generate_s": gen_times}}
    if args.trace:
        import spans

        tally = Tally()
        tally.run_pass(ops)  # the untraced reference pass
        tracer = spans.Tracer()
        tracer.install()
        try:
            ops = build(seed, size)  # traced set-up, for fuzz.gen_s
            tally.run_pass(ops, tracer)
        finally:
            tracer.unpatch()
        metrics, bases = per_layer(tracer, tally, ledger)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.size}-{seed}.jsonl.gz")
        tracer.write(spans_path)
        info.update(bases=bases, spans_file=os.path.relpath(spans_path, ROOT))
    else:
        tally, speed = measure(ops, args.seconds)
        latencies = tally.op_latencies(speed)
        metrics = end_to_end(tally, latencies, setup_s)
        info.update(op_tail_percentile=tail(latencies)[1], passes=len(tally.pass_walls),
                    host_pass_walls_s=tally.pass_walls, probes=len(speed.took),
                    median_probe_s=speed.median_probe(),
                    reference_probe_s=hostspeed.REFERENCE_PROBE_S)

    info.update(
        outputs_digest=tally.digest(),
        ops_per_pass=len(ops),
        latency_samples=tally.attempted,
        outcomes={"ok": tally.ok, "budget_exceeded": tally.budget, "failed": tally.failed},
        failed_ratio=(tally.budget + tally.failed) / tally.attempted,
        failures=tally.failures,
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10}  {name:<30} {value:>16.6f} {unit}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
