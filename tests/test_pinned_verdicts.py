"""Pinned verdicts: the property checker reports only what it is meant to.

The golden runs, as run and tampered (``tests/pinned_verdicts.py``), are
judged in the ``golden_children`` processes, one per hash seed, so set
iteration order can leak into no status and no detail.
"""

import json

import pytest

from conftest import GOLDEN_HASH_SEEDS
from pinned_verdicts import VERDICTS_FILE


@pytest.mark.parametrize("hash_seed", GOLDEN_HASH_SEEDS)
def test_pinned_verdicts(golden_children, hash_seed):
    got = golden_children[hash_seed]["verdicts"]
    pinned = json.loads(VERDICTS_FILE.read_text())
    assert list(got) == list(pinned)
    changed = sorted(name for name in pinned if got[name] != pinned[name])
    assert not changed, f"verdicts moved for {changed}"
