"""Exception hierarchy shared by all deconopt modules."""


class DeconoptError(Exception):
    """Base class for all package-specific errors."""


# -- graph construction -------------------------------------------------------

class EmptyGraph(DeconoptError):
    pass


class SelfLoop(DeconoptError):
    pass


class DuplicateEdge(DeconoptError):
    pass


class Disconnected(DeconoptError):
    pass


class DimensionMismatch(DeconoptError):
    pass


# -- dense linear algebra ------------------------------------------------------

class NonFinite(DeconoptError):
    pass


class AllZero(DeconoptError):
    pass


class IndefiniteInput(DeconoptError):
    pass


class NotPositiveDefinite(DeconoptError):
    pass


class Inconsistent(DeconoptError):
    pass


# -- objectives and subproblems ------------------------------------------------

class NoUniqueMinimizer(DeconoptError):
    pass


class NewtonStall(DeconoptError):
    pass


class NotStronglyConvex(DeconoptError):
    pass


# -- solvers ---------------------------------------------------------------------

class ConditionViolation(DeconoptError):
    """A mixing-matrix condition required by the general iterates fails."""


# -- analysis ----------------------------------------------------------------------

class GammaOutOfRange(DeconoptError):
    pass


class EtaOutOfRange(DeconoptError):
    pass


class CertificateUnavailable(DeconoptError):
    pass


# -- cli -----------------------------------------------------------------------------

class ConfigError(DeconoptError):
    pass
