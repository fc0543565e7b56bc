"""Trust-graph analysis and adversarial simulation for quorum-based transfer.

The package answers three questions about a decentralized trust model:
how inconsistent can correct processes' views get (the inconsistency
number), what does an execution realizing that worst case look like (the
synthesized multi-spend attack), and how does the bound carry over to
broadcast (the consistent-broadcast adapter). A deterministic simulator
plus an eight-property checker back the answers with replayable runs.

Only the entry points below live at package level; everything else is
imported from its own module (``kspend.trust``, ``kspend.sim``, ...).
"""

from importlib import metadata

from .attack import synthesize_multispend_attack
from .sim import RunReport, Scenario, report_from_obj, report_to_obj, run

try:
    __version__ = metadata.version("kspend")
except metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0"

__all__ = [
    "RunReport",
    "Scenario",
    "report_from_obj",
    "report_to_obj",
    "run",
    "synthesize_multispend_attack",
]
