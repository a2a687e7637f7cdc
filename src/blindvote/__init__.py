"""Desk-scale blind-signature e-voting simulator.

A Chaum-style RSA blind signature core, a deterministic single-node
ledger with an election contract state machine, organizer/voter actors,
and a scenario runner that grades full elections and named attacks
against the protocol's security-property table.

The package root re-exports nothing: import names from the submodules.
"""

# The benchmark's setup_s times ``import blindvote``; importing attacks loads
# every module but cli, so that import still costs what the package costs
# until the benchmark times the submodules instead (ROADMAP item 1).
from . import attacks  # noqa: F401

__version__ = "0.1.0"
