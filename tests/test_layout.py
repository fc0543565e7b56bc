"""One module owns the file formats.

``kspend.formats`` reads and writes every trust model, scenario and report,
so it alone raises ``SchemaError``, beside ``errors``, which defines it, and
``cli``, whose ``KSAT_SEED`` check raises it. The analyzer (``kspend.trust``)
and the runner (``kspend.sim``) keep no reader, writer or alias of one.
"""

import ast
from pathlib import Path

from kspend import sim, trust

SRC = Path(__file__).resolve().parent.parent / "src" / "kspend"

PUBLIC_FORMAT_NAMES = {
    "parse_model", "model_to_obj", "read_json", "load_model", "load_builtin_model",
    "tx_to_obj", "scenario_to_obj", "scenario_from_obj", "load_scenario",
    "report_to_obj", "report_from_obj",
}


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def _identifiers(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.ClassDef, ast.alias)):
            yield node.name


def test_only_formats_cli_and_errors_name_schema_error():
    naming = {p.name for p in SRC.glob("*.py") if "SchemaError" in _identifiers(_tree(p.name))}
    assert naming == {"formats.py", "cli.py", "errors.py"}


def test_trust_and_sim_hold_no_format_name():
    defined = set()
    for node in _tree("formats.py").body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert PUBLIC_FORMAT_NAMES <= defined
    assert "_obj" in defined and "_HEX" in defined  # the private helpers count too
    for module in (sim, trust):
        assert sorted(name for name in defined if hasattr(module, name)) == [], module.__name__
