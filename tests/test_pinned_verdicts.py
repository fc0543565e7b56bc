"""Pinned verdicts: the property checker reports only what it is meant to.

The golden runs, as run and tampered (``tests/pinned_verdicts.py``), are
judged in child processes under two hash seeds, started side by side, so
set iteration order can leak into no status and no detail.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import kspend

from pinned_verdicts import VERDICTS_FILE

HASH_SEEDS = ("0", "1")


@pytest.fixture(scope="module")
def judged():
    script = pathlib.Path(__file__).parent / "pinned_verdicts.py"
    src_root = str(pathlib.Path(kspend.__file__).parents[1])
    children = {}
    for seed in HASH_SEEDS:
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


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_pinned_verdicts(judged, hash_seed):
    got = judged[hash_seed]
    pinned = json.loads(VERDICTS_FILE.read_text())
    assert list(got) == list(pinned)
    changed = sorted(name for name in pinned if got[name] != pinned[name])
    assert not changed, f"verdicts moved for {changed}"
