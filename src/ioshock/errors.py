"""Exception hierarchy shared across the package."""


class IoShockError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(IoShockError):
    """Array shapes do not agree with the economy's industry count."""


class NegativeEntry(IoShockError):
    """A flow or final-demand entry is negative."""


class ZeroOutputWithInputs(IoShockError):
    """An industry has zero gross output but a nonzero input column."""


class NonProductive(IoShockError):
    """(I - A) is singular or the Leontief inverse has negative entries."""


class KTooLarge(IoShockError):
    """More links requested than strictly positive entries exist."""


class OutOfRange(IoShockError):
    """A shock fraction or scaling factor lies outside [0, 1]."""


class ZeroAggregate(IoShockError):
    """Aggregate shock undefined because total baseline output is zero."""


class SolverFailure(IoShockError):
    """The simplex reached no optimum: an infeasible start, an exhausted
    pivot budget, a singular basis or an end point outside its bounds."""


class SingularBlock(IoShockError):
    """The demand-demand block (I - A_dd) is numerically singular."""


class ParseError(IoShockError):
    """Malformed input file; message carries row/column location."""


class IdentityViolation(IoShockError):
    """Declared gross output disagrees with the derived accounting value."""


class UnknownIndustry(IoShockError):
    """Shock file references an industry label not present in the economy."""


class MissingIndustry(IoShockError):
    """Shock file omits an industry present in the economy."""
