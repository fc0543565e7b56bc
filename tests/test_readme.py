"""The README's library example runs as written against the package surface."""

import pathlib
import re

import kspend

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_readme_library_example_runs():
    exec(compile(_library_block(), str(README), "exec"), {})


def test_package_level_names_resolve():
    missing = [name for name in kspend.__all__ if not hasattr(kspend, name)]
    assert not missing
    # the names README uses at package level
    documented = {
        "run", "synthesize_multispend_attack", "RunReport", "report_to_obj", "report_from_obj"
    }
    assert documented <= set(kspend.__all__)
