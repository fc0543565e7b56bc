"""The property checker's verdicts on the golden runs, pinned in data/pinned_verdicts.json.

Each golden run (``golden_traces.golden_reports``) is judged as it ran and
after each tampering below that applies to it; a few directed tamperings
of the demo report put two candidates for one detail side by side. Only
verdicts other than "holds" are written, as [status, detail]. Any change
to the file is a change of what the checker reports. Regenerate it only
when that is the intent:

    PYTHONPATH=src python tests/pinned_verdicts.py > tests/data/pinned_verdicts.json
"""

import dataclasses
import json
import pathlib
import sys

from kspend.crypto import keychain, make_scheme
from kspend.ledger import Accusation, make_tx, tx_ref
from kspend.properties import HOLDS
from kspend.trust import is_live

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from golden_traces import golden_reports  # noqa: E402
from helpers import judge  # noqa: E402

VERDICTS_FILE = pathlib.Path(__file__).parent / "data" / "pinned_verdicts.json"


def _trace_accusations(report):
    """(actor, digest) of every accusation the trace records as new, in trace order."""
    for rec in report.trace:
        if rec[0] == "action":
            yield from ((rec[2], d) for d in rec[5])
        elif rec[0] == "deliver":
            yield from ((rec[4], d) for d in rec[7])


def tamperings(report):
    """(label, report) for the run as it ran and each tampering that applies to it."""
    replace = dataclasses.replace
    yield "as-run", report
    scenario = report.scenario
    pids = sorted(report.histories)
    live = [p for p in pids if is_live(scenario.model, p, scenario.faulty_set)]
    executed = [scenario.honest_actions[rec[1]] for rec in report.trace if rec[0] == "action"]
    # an accepted spend dropped: the last executed transfer, at the first
    # live process other than its issuer that holds it
    for issuer, tx in executed[-1:]:
        ref = tx_ref(tx)
        holder = next((p for p in live if p != issuer and ref in report.histories[p]), None)
        if holder is not None:
            kept = {r: t for r, t in report.histories[holder].items() if r != ref}
            yield "drop-spend", replace(report, histories={**report.histories, holder: kept})
    # one store stripped, for each process that has one
    for p in pids:
        if report.accusations[p]:
            stripped = {**report.accusations, p: frozenset()}
            yield f"strip-store-{p}", replace(report, accusations=stripped)
    # a conflict planted: two spends of the funding root by the highest
    # process, one in each of the first two histories, convicted nowhere
    issuer = scenario.model.n - 1
    root = tx_ref(scenario.genesis)
    a = make_tx(issuer, {0: 1}, [root], timestamp=1)
    b = make_tx(issuer, {1: 1}, [root], timestamp=1)
    planted = {**report.histories, pids[0]: {**report.histories[pids[0]], tx_ref(a): a}}
    if len(pids) > 1:
        planted[pids[1]] = {**planted[pids[1]], tx_ref(b): b}
    yield "plant-conflict", replace(report, histories=planted)
    yield "capped", replace(report, quiescent=False)
    yield "k-bound-0", replace(report, k_bound=0)
    # two accusations replayed: the first two the trace records, re-added
    # by their actors in one extra delivery each
    replayed = tuple(
        ("deliver", 10**9 + i, "ACC", 0, actor, "", (), (digest,))
        for i, (actor, digest) in enumerate(list(_trace_accusations(report))[:2])
    )
    if len(replayed) == 2:
        yield "replay-accusations", replace(report, trace=report.trace + replayed)


def directed(report):
    """Tamperings of one report that leave a detail two candidates to name."""
    replace = dataclasses.replace
    scenario = report.scenario
    root = tx_ref(scenario.genesis)
    first = min(report.histories)
    # two transactions by process 1 credited at one process only: both are
    # unissued (integrity) and neither settles anywhere else (termination)
    extra = [make_tx(1, {0: 1}, [root], timestamp=1, message=bytes([i])) for i in range(2)]
    credited = {**report.histories[first], **{tx_ref(t): t for t in extra}}
    yield "two-unsettled-unissued", replace(
        report, histories={**report.histories, first: credited}
    )
    # one unverifiable accusation and one that names a correct process,
    # stored side by side at one process
    scheme = make_scheme(scenario.sig_scheme)
    keys, _ = keychain(scenario.model.n, scheme, scenario.key_seed)
    a = make_tx(1, {0: 10}, [root], timestamp=1)
    b = make_tx(1, {2: 10}, [root], timestamp=1)
    signed = [(tx, scheme.sign(keys[1], tx.encoding)) for tx in (a, b)]
    wrong = Accusation.build({1}, signed)
    fake = Accusation.build({1}, [(tx, b"\x00" * 8) for tx in (a, b)])
    store = report.accusations[first] | {wrong, fake}
    yield "unverifiable-and-wrong-accusation", replace(
        report, accusations={**report.accusations, first: store}
    )


def _judged(report) -> dict:
    return {
        name: [v.status, v.detail]
        for name, v in judge(report).items()
        if v.status != HOLDS
    }


def pinned_verdicts(reports) -> dict[str, dict]:
    """The judged tamperings of each (name, report) of ``golden_traces.golden_reports``."""
    out = {}
    for name, report in reports:
        for label, variant in tamperings(report):
            out[f"{name}|{label}"] = _judged(variant)
        if name == "demo_scenario":
            for label, variant in directed(report):
                out[f"{name}|{label}"] = _judged(variant)
    return out


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pinned_verdicts(golden_reports()).items()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
