"""Trace hashes and verdicts of the golden runs, printed as one JSON object.

Each golden run executes once: its trace hash (``golden_traces``) and its
verdicts as run and tampered (``pinned_verdicts``) come from one report.
``tests/conftest.py`` runs this once per pinned hash seed, for example

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/golden_child.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from golden_traces import golden_hashes, golden_reports  # noqa: E402
from pinned_verdicts import pinned_verdicts  # noqa: E402

if __name__ == "__main__":
    reports = list(golden_reports())
    json.dump({"hashes": golden_hashes(reports), "verdicts": pinned_verdicts(reports)}, sys.stdout)
