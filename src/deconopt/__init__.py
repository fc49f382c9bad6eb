"""Decentralized consensus optimization toolkit.

Builds communication graphs with their arc operator and graph matrices, runs
generalized distributed ADMM and its relatives (three-block ADMM,
exact/approximated method of multipliers, P-EXTRA, the general two-matrix
form) on simulated synchronous networks, and verifies per-round Q-linear
contraction against computed rate certificates.
"""

# `cli` is imported on first use, so `python -m deconopt.cli` runs it once
from . import analysis, denselin, harness, netgraph, objective, solvers, tolerances
from .errors import DeconoptError

__all__ = [
    "analysis",
    "cli",
    "denselin",
    "harness",
    "netgraph",
    "objective",
    "solvers",
    "tolerances",
    "DeconoptError",
]

__version__ = "0.1.0"
