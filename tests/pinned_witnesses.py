"""The analyzer's witnesses on fixed models, pinned in data/pinned_witnesses.json.

Each case records a model, its inconsistency number and the witness
``max_independent_set_witness`` returns: the faulty set, the quorum map
and the independent set. The models are the ones the file already holds,
so the script reprints the file from itself; any change to its output is a
change of which witness the exact search picks. Regenerate it only when
that is the intent:

    PYTHONPATH=src python tests/pinned_witnesses.py > tests/data/pinned_witnesses.json
"""

import json
import pathlib
import sys

from kspend.formats import parse_model
from kspend.trust import max_independent_set_witness

WITNESSES_FILE = pathlib.Path(__file__).parent / "data" / "pinned_witnesses.json"


def measured(model_obj: dict) -> dict:
    """The case for one model object: its value and its witness."""
    witness = max_independent_set_witness(parse_model(model_obj))
    return {
        "faulty": sorted(witness.faulty_set),
        "independent": sorted(witness.independent_set),
        "model": model_obj,
        "quorums": {str(p): sorted(q) for p, q in witness.quorum_map.items()},
        "value": len(witness.independent_set),
    }


if __name__ == "__main__":
    cases = json.loads(WITNESSES_FILE.read_text())
    lines = [json.dumps(measured(case["model"]), sort_keys=True, separators=(",", ":"))
             for case in cases]
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")
