"""Every Python file parses under the grammar of the oldest supported Python.

``pyproject.toml`` declares ``requires-python >=3.10``. Parsing each file of
``src/kspend``, ``tests`` and ``perfbench`` with
``ast.parse(..., feature_version=(3, 10))`` catches syntax newer than 3.10
(``except*``, for one) on whichever interpreter runs the suite. It checks
grammar only: a standard-library module, function or argument added after
3.10 still passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_every_file_parses_under_the_oldest_supported_grammar():
    files = sorted(p for d in ("src/kspend", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
