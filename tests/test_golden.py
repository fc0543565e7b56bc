"""Pinned trace hashes: behaviour changes only on purpose.

The golden set (bundled scenarios, a slice of the fuzz and attack corpora,
an honest ring, and runs under every scheduler) is replayed in child
processes under two hash seeds, so set iteration order can leak into
neither the trace nor the pinned file.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import kspend

from golden_traces import HASHES_FILE


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_golden_trace_hashes(hash_seed):
    script = pathlib.Path(__file__).parent / "golden_traces.py"
    src_root = str(pathlib.Path(kspend.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    pinned = json.loads(HASHES_FILE.read_text())
    assert list(got) == list(pinned)
    changed = sorted(name for name in pinned if got[name] != pinned[name])
    assert not changed, f"trace hashes moved for {changed}"
