"""The two thresholds a verified run's verdict reads.

`minnorm_consistency` is the range test of the reference multiplier alpha*
and of the run's final dual; `contraction_slack` is the per-round slack of
the contraction check. The package's other numerical thresholds are
constants of the one module that reads them (`objective`, `denselin`,
`analysis`). A run config holds one `Tolerances`, its ``[tolerances]``
section setting single fields over the defaults; a value that is not a
finite nonnegative number is a ConfigError when the `Tolerances` is made.
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

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"tolerance {field.name} must be finite and nonnegative, "
                                  f"got {value!r}")


DEFAULT = Tolerances()
