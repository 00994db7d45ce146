"""Reversible truth tables and gate decomposition."""

from .decompose import (
    ccx_decomposition,
    expand_mcx_gates,
    mcx_decomposition,
    mcz_parity_network,
)
from .truthtable import TruthTable, simulate_reversible

__all__ = [
    "TruthTable",
    "simulate_reversible",
    "ccx_decomposition",
    "mcx_decomposition",
    "mcz_parity_network",
    "expand_mcx_gates",
]
