"""The analyzer's budget units on fixed models, pinned in data/pinned_search_units.json.

Each case records the value and the units that ``inconsistency_number``
and ``max_independent_set_witness`` charge: the uniform ladder through
(11, 7, 3), the first 40 asymmetric models of the analyze benchmark's
fixed draw, 40 small fuzz models and, last, the bundled example1, whose
figures the budget tests read (``example1_case``). Any change to the file
is a change of how much the exact search visits. Regenerate it only when
that is the intent:

    PYTHONPATH=src python tests/pinned_search_units.py > tests/data/pinned_search_units.json
"""

import json
import pathlib
import random
import sys

from kspend import fuzz, trust
from kspend.formats import load_builtin_model, model_to_obj
from kspend.trust import inconsistency_number, max_independent_set_witness

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from conftest import CORPUS_SEED  # noqa: E402

UNITS_FILE = pathlib.Path(__file__).parent / "data" / "pinned_search_units.json"
LADDER = ((9, 5, 2), (9, 6, 2), (10, 6, 3), (10, 7, 3), (11, 7, 3))


def charged_units(search, model):
    """What ``search(model)`` returns, and the budget units it charged."""
    charged = 0
    spend = trust._Budget.spend

    def counting(self, units):
        nonlocal charged
        charged += units
        spend(self, units)

    trust._Budget.spend = counting
    try:
        return search(model), charged
    finally:
        trust._Budget.spend = spend


def unit_cases():
    """(case without its measurements, model) for every pinned model, in file order."""
    for nqf in LADDER:
        yield {"kind": "uniform", "uniform": list(nqf)}, trust.uniform_model(*nqf)
    rng = random.Random(CORPUS_SEED)  # the analyze workload's draw
    for _ in range(40):
        model = fuzz.random_model(rng, n=rng.randint(14, 16))
        yield {"kind": "asymmetric", "model": model_to_obj(model)}, model
    rng = random.Random(1212)
    for _ in range(40):
        model = fuzz.random_model(rng)
        yield {"kind": "fuzz", "model": model_to_obj(model)}, model
    model = load_builtin_model("example1")
    yield {"kind": "example1", "model": model_to_obj(model)}, model


def example1_case() -> dict:
    """The pinned case of example1: its value and the units each search charges."""
    case = json.loads(UNITS_FILE.read_text())[-1]
    assert case["kind"] == "example1"
    return case


def measured(case, model) -> dict:
    """``case`` with the value and both searches' units."""
    value, units = charged_units(inconsistency_number, model)
    witness, witness_units = charged_units(max_independent_set_witness, model)
    assert len(witness.independent_set) == value
    return {**case, "value": value, "value_units": units, "witness_units": witness_units}


if __name__ == "__main__":
    lines = [json.dumps(measured(*pair), sort_keys=True, separators=(",", ":"))
             for pair in unit_cases()]
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")
