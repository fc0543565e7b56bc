import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import kspend
from kspend import fuzz
from kspend.trust import load_builtin_model

CORPUS_SEED = 20240817
CORPUS_SIZE = 1000  # floor demanded by the randomized upper-bound sweep
ATTACK_CORPUS_SIZE = 50
GOLDEN_HASH_SEEDS = ("0", "1")


@pytest.fixture(scope="session")
def example1():
    return load_builtin_model("example1")


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return pathlib.Path(kspend.__file__).parent / "data"


@pytest.fixture(scope="session")
def golden_children() -> dict[str, dict]:
    """Per hash seed, the golden runs' trace hashes and verdicts (``golden_child.py``).

    One child process per seed, started side by side, so set iteration
    order can leak into neither a trace nor a verdict.
    """
    script = pathlib.Path(__file__).parent / "golden_child.py"
    src_root = str(pathlib.Path(kspend.__file__).parents[1])
    children = {}
    for seed in GOLDEN_HASH_SEEDS:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = seed
        children[seed] = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
    out = {}
    for seed, child in children.items():
        stdout, stderr = child.communicate()
        assert child.returncode == 0, stderr
        out[seed] = json.loads(stdout)
    return out


@pytest.fixture(scope="session")
def golden_reports() -> list:
    """(name, report) of every golden run (``golden_traces.py``), run once, shared."""
    from golden_traces import golden_reports as run_golden  # golden_traces imports conftest

    return list(run_golden())


@pytest.fixture(scope="session")
def fuzz_corpus():
    """Randomized scenarios with equivocating scripts, run once, shared.

    The HMAC scheme keeps a thousand runs in the low seconds; the scheme
    choice is irrelevant to what the sweeps measure (ordering attacks).
    """
    rng = random.Random(CORPUS_SEED)
    reports = []
    for i in range(CORPUS_SIZE):
        scenario = fuzz.random_scenario(rng)
        reports.append(kspend.run(scenario, seed=i))
    return reports


@pytest.fixture(scope="session")
def attack_corpus():
    """(expected bound, report) pairs for synthesized attacks on random models."""
    rng = random.Random(CORPUS_SEED + 1)
    out = []
    while len(out) < ATTACK_CORPUS_SIZE:
        model, k = fuzz.random_vulnerable_model(rng)
        scenario = kspend.synthesize_multispend_attack(model, sig_scheme="hmac")
        out.append((k, kspend.run(scenario)))
    return out
