"""Exception hierarchy shared across the package."""


class IoShockError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IoShockError):
    """Bad input: the files, the flag values or the economy's own
    numbers. Any other IoShockError is a computation failing on valid input."""


class DimensionMismatch(InputError):
    """Array shapes do not agree with the economy's industry count."""


class NegativeEntry(InputError):
    """A flow or final-demand entry is negative."""


class ZeroOutputWithInputs(InputError):
    """An industry has zero gross output but a nonzero input column."""


class NonProductive(InputError):
    """(I - A) is singular or the Leontief inverse has negative entries."""


class KTooLarge(IoShockError):
    """More links requested than strictly positive entries exist."""


class OutOfRange(InputError):
    """A shock fraction or scaling factor lies outside [0, 1]."""


class ZeroAggregate(InputError):
    """Aggregate shock undefined because total baseline output is zero."""


class SolverFailure(IoShockError):
    """The simplex reached no optimum: an exhausted pivot budget, a
    singular basis, no entering variable or an end point outside its
    bounds."""


class SingularBlock(IoShockError):
    """The demand-demand block (I - A_dd) is numerically singular."""


class ParseError(InputError):
    """Malformed input file; message carries row/column location."""


class IdentityViolation(InputError):
    """Declared gross output disagrees with the derived accounting value."""


class UnknownIndustry(InputError):
    """Shock file references an industry label not present in the economy."""


class MissingIndustry(InputError):
    """Shock file omits an industry present in the economy."""
