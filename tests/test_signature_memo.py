"""The per-run memo of verified signatures.

Every process of one run shares one verifier, and so one set of verified
(public key, signed bytes, signature) triples. These tests give two
processes one verifier, let the first verify real evidence, then show the
second tampered or misattributed evidence: a memo keyed on less than the
whole triple would let it through. A run signs through its verifier,
which files each triple it makes: the filing tests show that only
genuine triples are filed. The scope tests count real verifications and
signatures: no triple the run signed reaches the scheme, in the engine
or the property checker, each distinct (key, signed bytes) pair is
signed once per run, and both again in the next run. The checker judges
a tampered accusation the same with the run's memo as with a fresh one.
The verifier memoizes passed accusations too: each distinct accusation is
judged once per run, a failing one every time it is presented.
"""

import dataclasses
import json
import random
from collections import Counter

import pytest

import kspend
from kspend import crypto, engine as eng, fuzz, ledger, properties, sim
from kspend.crypto import Verifier, keychain, make_scheme
from kspend.ledger import genesis_tx, make_tx, tx_ref
from kspend.sim import report_from_obj, report_to_obj
from kspend.trust import load_builtin_model

from conftest import ATTACK_CORPUS_SIZE, CORPUS_SEED, CORPUS_SIZE
from golden_traces import golden_cases, honest_ring
from helpers import judge
from pinned_verdicts import VERDICTS_FILE, directed, tamperings

N = 3
GENESIS = genesis_tx({p: 10 for p in range(N)})
FULL = (frozenset(range(N)),)
SCHEMES = ["hmac", "ed25519"]


def sharing_states(scheme_name):
    """Processes 0-2 on one signature memo, with their keys."""
    scheme = make_scheme(scheme_name)
    keys, directory = keychain(N, scheme, b"memo-test")
    verifier = Verifier(scheme, directory)
    states = {p: eng.initial_state(p, N, FULL, keys[p], verifier, GENESIS) for p in range(N)}
    sign = lambda signer, tx: scheme.sign(keys[signer], tx.encoding)
    return states, sign, verifier.verified


def echoed(state, p, tx):
    """Does state hold a verified echo of tx from process p?"""
    record = state.records.get(tx.encoding)
    return record is not None and bool(record.echoers >> p & 1)


def tampered(sig):
    return bytes([sig[0] ^ 1]) + sig[1:]


def pay(issuer, outputs):
    return make_tx(issuer, outputs, [tx_ref(GENESIS)], timestamp=1)


def req(sender, tx, issuer_sig, to):
    return eng.Message(kind=eng.REQ, sender=sender, recipients=frozenset({to}), tx=tx,
                       issuer_sig=issuer_sig)


def echo(sender, tx, issuer_sig, echoer_sig, to):
    return eng.Message(kind=eng.ECHO, sender=sender, recipients=frozenset({to}), tx=tx,
                       issuer_sig=issuer_sig, echoer_sig=echoer_sig)


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_tampered_request_rejected_after_valid_one(scheme_name):
    states, sign, verified = sharing_states(scheme_name)
    tx = pay(0, {1: 10})
    good = sign(0, tx)
    assert eng.handle_message(states[1], req(0, tx, good, 1))  # echoed
    assert verified
    assert eng.handle_message(states[2], req(0, tx, tampered(good), 2)) == []
    assert not states[2].requests and not echoed(states[2], 2, tx)
    assert all(triple[2] != tampered(good) for triple in verified)


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_echo_with_forged_echoer_signature_rejected(scheme_name):
    states, sign, _ = sharing_states(scheme_name)
    tx = pay(0, {1: 10})
    issuer_sig = sign(0, tx)
    # process 0's own echo signs the same bytes with the same key
    assert eng.handle_message(states[1], echo(0, tx, issuer_sig, sign(0, tx), 1))
    forged = echo(0, tx, issuer_sig, tampered(sign(0, tx)), 2)
    assert eng.handle_message(states[2], forged) == []
    assert not echoed(states[2], 0, tx) and not states[2].requests


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_echo_message_checked_once_a_forged_one_at_every_recipient(monkeypatch, scheme_name):
    """A REQ's issuer signature and an ECHO's echoer signature, each the
    message's own, are checked by its first recipient that passes them; a
    forged one is checked and refused at every recipient."""
    states, sign, _ = sharing_states(scheme_name)
    tx = pay(0, {1: 10})
    issuer_sig = sign(0, tx)
    checks = []  # process 1's signatures presented to the verifier
    real_verify = Verifier.verify

    def counting(self, signer, message, sig):
        if signer == 1:
            checks.append(sig)
        return real_verify(self, signer, message, sig)

    monkeypatch.setattr(Verifier, "verify", counting)
    # one broadcast object, as the runtime delivers it to each recipient
    forged = dataclasses.replace(echo(1, tx, issuer_sig, tampered(sign(1, tx)), 0),
                                 recipients=frozenset({0, 2}))
    for to in (0, 2, 0):
        assert eng.handle_message(states[to], forged) == []
        assert not echoed(states[to], 1, tx)
    assert checks == [forged.echoer_sig] * 3 and not forged.verified
    checks.clear()
    genuine = dataclasses.replace(forged, echoer_sig=sign(1, tx))
    for to in (0, 2):
        assert eng.handle_message(states[to], genuine)  # recorded, and echoed back
        assert echoed(states[to], 1, tx)
    assert checks == [genuine.echoer_sig] and genuine.verified

    # a request process 1 issued, its issuer signature forged, then genuine
    tx1 = pay(1, {2: 10})
    checks.clear()
    forged = dataclasses.replace(req(1, tx1, tampered(sign(1, tx1)), 0),
                                 recipients=frozenset({0, 2}))
    for to in (0, 2, 0):
        assert eng.handle_message(states[to], forged) == []
        assert tx1.encoding not in states[to].records
    assert checks == [forged.issuer_sig] * 3 and not forged.verified
    checks.clear()
    genuine = dataclasses.replace(forged, issuer_sig=sign(1, tx1))
    for to in (0, 2):
        assert eng.handle_message(states[to], genuine)  # recorded, and echoed
        assert echoed(states[to], to, tx1)
    assert checks == [genuine.issuer_sig] and genuine.verified


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_recorded_request_vouches_only_for_its_own_issuer_signature(monkeypatch, scheme_name):
    states, sign, _ = sharing_states(scheme_name)
    tx = pay(0, {1: 10})
    good = sign(0, tx)
    assert eng.handle_message(states[2], req(0, tx, good, 2))  # recorded and echoed
    issuer_checks = []
    real_verify = Verifier.verify

    def counting(self, signer, message, sig):
        if signer == tx.issuer:
            issuer_checks.append(sig)
        return real_verify(self, signer, message, sig)

    monkeypatch.setattr(Verifier, "verify", counting)
    # another issuer signature on the recorded request is checked, and a forged one fails
    assert eng.handle_message(states[2], echo(1, tx, tampered(good), sign(1, tx), 2)) == []
    assert issuer_checks == [tampered(good)] and not echoed(states[2], 1, tx)
    # the recorded signature is not checked again
    eng.handle_message(states[2], echo(1, tx, good, sign(1, tx), 2))
    assert issuer_checks == [tampered(good)] and echoed(states[2], 1, tx)


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_signature_of_one_signer_rejected_as_another(scheme_name):
    states, sign, _ = sharing_states(scheme_name)
    tx = pay(0, {1: 10})
    sig0 = sign(0, tx)
    # process 1 verifies 0's signature over tx, as issuer and as echoer
    assert eng.handle_message(states[1], echo(0, tx, sig0, sig0, 1))
    # the same bytes and signature, claimed as process 1's echo
    assert eng.handle_message(states[2], echo(1, tx, sig0, sig0, 2)) == []
    assert not echoed(states[2], 1, tx)
    # and as the issuer signature of a transaction process 1 issued
    tx1 = pay(1, {2: 10})
    sig0_on_tx1 = sign(0, tx1)
    assert eng.handle_message(states[2], echo(0, tx1, sign(1, tx1), sig0_on_tx1, 2))
    assert eng.handle_message(states[0], req(1, tx1, sig0_on_tx1, 0)) == []
    assert not states[0].requests


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_accusation_with_misattributed_proof_rejected(scheme_name):
    states, sign, _ = sharing_states(scheme_name)
    a, b = pay(0, {1: 10}), pay(0, {2: 10})
    good = ledger.Accusation.build({0}, [(a, sign(0, a)), (b, sign(0, b))])
    acc = lambda accusation, to: eng.Message(kind=eng.ACC, sender=0, recipients=frozenset({to}),
                                             accusation=accusation)
    assert eng.handle_message(states[1], acc(good, 1))
    # 0's signatures over 1's conflicting pair: every triple has a wrong key
    c, d = pay(1, {0: 10}), pay(1, {2: 10})
    framed = ledger.Accusation.build({1}, [(c, sign(0, c)), (d, sign(0, d))])
    for tx in (c, d):  # put 0's signatures over them in the memo first
        assert eng.handle_message(states[1], echo(0, tx, sign(1, tx), sign(0, tx), 1))
    assert eng.handle_message(states[2], acc(framed, 2)) == []
    assert framed not in states[2].accusations


def with_a_tampered_accusation(report):
    """The report with its least stored accusation's first signature flipped,
    and the genuine triple that one replaces."""
    first = min(p for p, store in report.accusations.items() if store)
    genuine = min(report.accusations[first], key=lambda acc: acc.digest)
    (tx, sig), *rest = genuine.proof
    forged = ledger.Accusation.build(genuine.accused, [(tx, tampered(sig)), *rest])
    scenario = report.scenario
    _, public_keys = keychain(scenario.model.n, make_scheme(scenario.sig_scheme), scenario.key_seed)
    store = report.accusations[first] - {genuine} | {forged}
    tampered_report = dataclasses.replace(report, accusations={**report.accusations, first: store})
    return tampered_report, (public_keys[tx.issuer], tx.encoding, sig)


def test_each_triple_verified_once_per_run(monkeypatch):
    """No signature the run made reaches the scheme, in any run.

    The engine and the property checker share the run's verifier, which
    files each triple the run signs, so every triple they are shown is
    found in its memo, and the run builds one keychain. A report loaded
    from JSON is a re-run of its scenario: it signs the same triples and
    verifies none of them with the scheme. Each (key, signed bytes) pair is
    signed once per run. A tampered accusation, judged with the run's own
    verifier, still reaches the scheme and is refused.
    """
    calls, presented, signs = [], [], []
    keychains = []  # keychain builds by phase
    built, handed = [], []  # the verifiers runs build, and those the checker is handed
    phase = {"name": "engine"}
    real_verify = crypto.Ed25519Scheme.verify
    real_sign = crypto.Ed25519Scheme.sign
    real_once = Verifier.verify
    real_evaluate = properties.evaluate_properties
    real_keychain = crypto.keychain

    def counting_verify(self, public, message, signature):
        calls.append((public, message, signature))
        return real_verify(self, public, message, signature)

    def counting_sign(self, keys, message):
        signature = real_sign(self, keys, message)
        signs.append((keys.public, message, signature))
        return signature

    def counting_once(self, signer, message, signature):
        presented.append((phase["name"], (self.public[signer], message, signature)))
        return real_once(self, signer, message, signature)

    def counting_keychain(*args):
        keychains.append(phase["name"])
        return real_keychain(*args)

    def building(*args):
        built.append(Verifier(*args))
        return built[-1]

    def in_properties(report, verifier):
        handed.append(verifier)
        phase["name"] = "properties"
        try:
            return real_evaluate(report, verifier)
        finally:
            phase["name"] = "engine"

    def reset():
        for log in (calls, presented, signs, keychains, built, handed):
            log.clear()

    def one_run_checked():
        # one keychain per run, and the checker gets the run's own verifier
        assert keychains == ["engine"]
        assert len(built) == 1 and len(handed) == 1 and handed[0] is built[0]
        # each (key, signed bytes) pair signed once, and no signed triple verified
        assert len(signs) == len({(public, message) for public, message, _ in signs}) > 0
        assert calls == []
        # every triple shown, to the engine or the checker, is one the run signed
        assert {t for _p, t in presented} <= set(signs)

    monkeypatch.setattr(crypto.Ed25519Scheme, "verify", counting_verify)
    monkeypatch.setattr(crypto.Ed25519Scheme, "sign", counting_sign)
    monkeypatch.setattr(Verifier, "verify", counting_once)
    monkeypatch.setattr(properties, "evaluate_properties", in_properties)
    monkeypatch.setattr(sim, "keychain", counting_keychain)
    monkeypatch.setattr(sim, "Verifier", building)

    scenario = kspend.synthesize_multispend_attack(load_builtin_model("example1"))
    assert scenario.sig_scheme == "ed25519"
    per_run = []
    for _ in range(2):
        reset()
        report = kspend.run(scenario)
        one_run_checked()
        assert report.quiescent and report.accusations
        assert all(v.status != "violated" for v in report.verdicts.values())
        shown = {p: [t for q, t in presented if q == p] for p in ("engine", "properties")}
        assert len(shown["engine"]) > len(set(shown["engine"]))
        # every triple the checker is shown was shown while the run ran
        assert shown["properties"] and set(shown["properties"]) <= set(shown["engine"])
        per_run.append((len(presented), sorted(signs)))
    assert per_run[0] == per_run[1]

    # a loaded report is a re-run: the same signatures, none of them verified
    run_signed = set(signs)
    reset()
    clone = report_from_obj(json.loads(json.dumps(report_to_obj(report))))
    assert clone.verdicts == report.verdicts
    one_run_checked()
    triples = {
        (built[0].public[tx.issuer], tx.encoding, sig)
        for store in report.accusations.values() for acc in store for tx, sig in acc.proof
    }
    assert set(signs) == run_signed and triples <= run_signed

    # a tampered accusation reaches the scheme, and is refused, under the run's verifier
    tampered_report, (public, message, sig) = with_a_tampered_accusation(report)
    verdicts = real_evaluate(tampered_report, built[0])
    assert verdicts["accuracy"].status == properties.VIOLATED
    assert calls == [(public, message, tampered(sig))]


def test_honest_ring_signs_each_message_once_per_run(monkeypatch):
    """An issuer's own echo reuses its request signature: no (key, bytes) is signed twice."""
    signs = []
    real_sign = crypto.HmacScheme.sign

    def counting_sign(self, keys, message):
        signs.append((keys.public, message))
        return real_sign(self, keys, message)

    monkeypatch.setattr(crypto.HmacScheme, "sign", counting_sign)
    scenario = honest_ring(8, 64)
    counts = []
    for _ in range(2):
        signs.clear()
        report = kspend.run(scenario)
        assert report.quiescent and not report.unexecuted_actions
        assert len(signs) == len(set(signs)) > len(scenario.honest_actions)
        counts.append(len(signs))
    assert counts[0] == counts[1]


def test_shared_memo_does_not_vouch_for_a_tampered_accusation(monkeypatch):
    """A run's memo holds the genuine signature; a tampered copy still fails."""
    captured = {}
    real_evaluate = properties.evaluate_properties

    def capturing(report, verifier):
        captured["verifier"] = verifier
        return real_evaluate(report, verifier)

    monkeypatch.setattr(properties, "evaluate_properties", capturing)
    scenario = kspend.synthesize_multispend_attack(load_builtin_model("example1"))
    assert scenario.sig_scheme == "ed25519"
    report = kspend.run(scenario)
    verifier = captured["verifier"]
    memo = verifier.verified
    assert report.verdicts["accuracy"].status == properties.HOLDS

    report, genuine = with_a_tampered_accusation(report)
    assert genuine in memo

    shared = real_evaluate(report, verifier)["accuracy"]
    fresh = judge(report)["accuracy"]
    assert shared.status == properties.VIOLATED
    assert shared == fresh
    assert all(triple[2] != tampered(genuine[2]) for triple in memo)


def corpora_scenarios():
    """(scenario, seed) of the golden runs, the fuzz corpus and the attack corpus."""
    yield from ((scenario, seed) for _name, scenario, seed in golden_cases())
    rng = random.Random(CORPUS_SEED)
    yield from ((fuzz.random_scenario(rng), i) for i in range(CORPUS_SIZE))
    rng = random.Random(CORPUS_SEED + 1)
    for _ in range(ATTACK_CORPUS_SIZE):
        model, _k = fuzz.random_vulnerable_model(rng)
        yield kspend.synthesize_multispend_attack(model, sig_scheme="hmac"), None


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_signing_files_only_genuine_triples(monkeypatch, scheme_name):
    """Every triple ``Verifier.sign`` files passes the scheme, and no copy
    of a signed triple with its signature flipped, or under another
    process's public key, is in the run's memo when the run ends."""
    filed = []  # (verifier, keys, message, signature, the triples filed)
    real_sign = Verifier.sign

    def filing(self, keys, message):
        memo, self.verified = self.verified, set()
        try:
            signature = real_sign(self, keys, message)
        finally:
            added, self.verified = self.verified, memo
        memo |= added
        filed.append((self, keys, message, signature, added))
        return signature

    monkeypatch.setattr(Verifier, "sign", filing)
    scheme = make_scheme(scheme_name)
    signed = 0
    for scenario, seed in corpora_scenarios():
        filed.clear()
        kspend.run(dataclasses.replace(scenario, sig_scheme=scheme_name), seed=seed)
        for verifier, keys, message, signature, added in filed:
            assert added and all(scheme.verify(*triple) for triple in added)
            memo = verifier.verified
            assert (keys.public, message, tampered(signature)) not in memo
            others = set(verifier.public.values()) - {keys.public}
            assert not any((public, message, signature) in memo for public in others)
        signed += len(filed)
    assert signed > CORPUS_SIZE


def test_shared_memo_verdicts_equal_a_fresh_judgement(golden_reports):
    for name, report in golden_reports:
        assert report.verdicts == judge(report), name


def counted_judgements(monkeypatch) -> Counter:
    """Count, by digest, the accusations that reach the body of ``verify_acc``."""
    judged = Counter()
    real = ledger._acc_holds

    def counting(acc, verifier):
        judged[acc.digest] += 1
        return real(acc, verifier)

    monkeypatch.setattr(ledger, "_acc_holds", counting)
    return judged


def stored_digests(report) -> set[bytes]:
    return {acc.digest for store in report.accusations.values() for acc in store}


def test_each_accusation_judged_once_per_run(monkeypatch):
    """Engines and checker together judge each distinct accusation once, though
    it is presented once per receiving process and once per store."""
    judged = counted_judgements(monkeypatch)
    presented = []
    for owner in (eng, properties):

        def presenting(acc, verifier, real=owner.verify_acc):
            presented.append(acc)
            return real(acc, verifier)

        monkeypatch.setattr(owner, "verify_acc", presenting)
    runs = 0
    for name, scenario, seed in golden_cases():
        judged.clear()
        presented.clear()
        report = kspend.run(scenario, seed=seed)
        if not stored_digests(report):
            continue
        runs += 1
        # every accusation stored anywhere is judged, by an engine or the checker
        assert set(judged) == stored_digests(report) == {acc.digest for acc in presented}, name
        assert set(judged.values()) == {1}, name
        assert len(presented) > len(judged), name
    assert runs >= 10


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_accusation_with_a_zeroed_signature_refused_each_time(monkeypatch, scheme_name):
    judged = counted_judgements(monkeypatch)
    states, sign, _ = sharing_states(scheme_name)
    verifier = states[0].verifier
    a, b = pay(0, {1: 10}), pay(0, {2: 10})
    sig_a, sig_b = sign(0, a), sign(0, b)
    zeroed = ledger.Accusation.build({0}, [(a, bytes(len(sig_a))), (b, sig_b)])
    acc = lambda accusation, to: eng.Message(kind=eng.ACC, sender=0, recipients=frozenset({to}),
                                             accusation=accusation)
    for to in (1, 2, 1, 2):
        assert eng.handle_message(states[to], acc(zeroed, to)) == []
    assert not ledger.verify_acc(zeroed, verifier)
    assert judged[zeroed.digest] == 5 and not verifier.accusations
    assert not states[1].accusations and not states[2].accusations
    # the genuine accusation is judged at its first presentation only
    genuine = ledger.Accusation.build({0}, [(a, sig_a), (b, sig_b)])
    for to in (1, 2):
        assert eng.handle_message(states[to], acc(genuine, to))
    assert ledger.verify_acc(genuine, verifier)
    assert judged[genuine.digest] == 1 and verifier.accusations == {genuine.digest}


def test_a_fresh_verifier_judges_every_accusation_again(monkeypatch):
    judged = counted_judgements(monkeypatch)
    scenario = kspend.synthesize_multispend_attack(load_builtin_model("example1"))
    report = kspend.run(scenario)
    stored = stored_digests(report)
    assert stored and set(judged) == stored and set(judged.values()) == {1}
    judged.clear()
    assert judge(report) == report.verdicts
    assert set(judged) == stored and set(judged.values()) == {1}
    # a tampered copy: the forged accusation fails under a fresh verifier
    first = min(p for p, store in report.accusations.items() if store)
    genuine = min(report.accusations[first], key=lambda acc: acc.digest)
    (tx, sig), *rest = genuine.proof
    forged = ledger.Accusation.build(genuine.accused, [(tx, bytes(len(sig))), *rest])
    store = report.accusations[first] - {genuine} | {forged}
    judged.clear()
    tampered_report = dataclasses.replace(report, accusations={**report.accusations, first: store})
    assert judge(tampered_report)["accuracy"].status == properties.VIOLATED
    assert judged[forged.digest] == 1


def test_run_memo_leaves_the_pinned_verdicts(monkeypatch):
    """Judged with its own run's verifier, whose memo holds every accusation
    the run passed, each golden run and each of its tamperings reads the
    verdicts pinned under a fresh verifier."""
    verifiers = []
    real_evaluate = properties.evaluate_properties

    def capturing(report, verifier):
        verifiers.append(verifier)
        return real_evaluate(report, verifier)

    monkeypatch.setattr(properties, "evaluate_properties", capturing)
    got = {}
    for name, scenario, seed in golden_cases():
        report = kspend.run(scenario, seed=seed)
        verifier = verifiers[-1]
        variants = [*tamperings(report), *(directed(report) if name == "demo_scenario" else ())]
        for label, variant in variants:
            verdicts = real_evaluate(variant, verifier)
            got[f"{name}|{label}"] = {
                prop: [v.status, v.detail] for prop, v in verdicts.items()
                if v.status != properties.HOLDS
            }
    assert any(v.accusations for v in verifiers)
    assert got == json.loads(VERDICTS_FILE.read_text())
