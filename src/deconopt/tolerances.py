"""Central tolerance record.

Every numerical threshold used across the package lives here so that tests,
the CLI, and library callers agree on one set of defaults. A run config
overrides single fields in its ``[tolerances]`` section, the only other
source; an unknown field name there is a ConfigError.
"""

from __future__ import annotations

import dataclasses

from .errors import ConfigError


@dataclasses.dataclass(frozen=True)
class Tolerances:
    # relative cutoff separating "zero" eigenvalues from the rest
    spectrum_zero: float = 1e-9
    # relative consistency requirement for min-norm transpose solves and for
    # the verification's final dual, E_o^T alpha of the primal trace
    minnorm_consistency: float = 1e-8
    # maximum accepted absolute asymmetry before symmetrization is refused
    symmetry: float = 1e-12
    # per-agent subproblem stationarity norm; contraction verification needs
    # iterates accurate well below the per-step contraction margin
    subproblem: float = 1e-11
    # central solves (reference solutions, exact method of multipliers)
    central_solve: float = 1e-12
    newton_armijo: float = 1e-4
    newton_max_iter: int = 200
    # additive slack budget when checking per-round contraction
    contraction_slack: float = 1e-7
    # eigenvalue tolerance for mixing-matrix condition checks
    mixing_eigen: float = 1e-9

    def replace(self, **overrides) -> "Tolerances":
        bad = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if bad:
            raise ConfigError(f"unknown tolerance name(s): {sorted(bad)}")
        return dataclasses.replace(self, **overrides)


DEFAULT = Tolerances()

