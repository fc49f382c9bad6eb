"""The two thresholds a verified run's verdict reads.

`minnorm_consistency` is the range test of the reference multiplier alpha*
and of the run's final dual; `contraction_slack` is the per-round slack of
the contraction check. The package's other numerical thresholds are
constants of the one module that reads them (`objective`, `denselin`,
`analysis`). A run config overrides single fields in its ``[tolerances]``
section, the only other source; an unknown field name or a value that is
not a finite nonnegative number there is a ConfigError.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigError


@dataclasses.dataclass(frozen=True)
class Tolerances:
    # relative consistency requirement for min-norm transpose solves and for
    # the verification's final dual, E_o^T alpha of the primal trace
    minnorm_consistency: float = 1e-8
    # additive slack budget when checking per-round contraction
    contraction_slack: float = 1e-7

    def replace(self, **overrides) -> "Tolerances":
        bad = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if bad:
            raise ConfigError(f"unknown tolerance name(s): {sorted(bad)}")
        for name, value in sorted(overrides.items()):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"tolerance {name} must be finite and nonnegative, "
                                  f"got {value!r}")
        return dataclasses.replace(self, **overrides)


DEFAULT = Tolerances()
