"""Trust-graph analysis and adversarial simulation for quorum-based transfer.

The package answers three questions about a decentralized trust model:
how inconsistent can correct processes' views get (the inconsistency
number), what does an execution realizing that worst case look like (the
synthesized multi-spend attack), and how does the bound carry over to
broadcast (the consistent-broadcast adapter). A deterministic simulator
plus an eight-property checker back the answers with replayable runs.

Only the entry points below live at package level. Everything else is
imported from its own module: the analyzer from ``kspend.trust``, the runner
from ``kspend.sim``, model, scenario and report files from ``kspend.formats``.
"""

from .attack import synthesize_multispend_attack
from .formats import report_from_obj, report_to_obj
from .sim import RunReport, Scenario, run


def __getattr__(name: str) -> str:
    """``__version__``, read from the installed metadata on access (PEP 562)."""
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import metadata

    try:
        return metadata.version("kspend")
    except metadata.PackageNotFoundError:  # running from a source tree
        return "0.0.0"


__all__ = [
    "RunReport",
    "Scenario",
    "report_from_obj",
    "report_to_obj",
    "run",
    "synthesize_multispend_attack",
]
