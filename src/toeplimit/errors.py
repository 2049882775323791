"""Exception hierarchy shared across the package."""


class ToeplimitError(Exception):
    """Base class for all errors raised by this package."""


class NonSquare(ToeplimitError):
    """A square matrix was required."""


class ConvergenceFailure(ToeplimitError):
    """The eigensolver backend failed to converge."""


class SingularMatrix(ToeplimitError):
    """A matrix required to be invertible is numerically singular."""


class ZeroArgument(ToeplimitError):
    """The symbol cannot be evaluated at z = 0."""


class DegenerateSplit(ToeplimitError):
    """The requested index set splits a numerically degenerate eigenvalue
    cluster (energy too close to the degeneracy set)."""


class OnCurve(ToeplimitError):
    """The winding number is undefined: the symbol determinant vanishes on
    the unit circle, i.e. the energy lies on the periodic spectrum."""


class NotSimpleSpectrum(ToeplimitError):
    """The sub/super-diagonal blocks do not have simple spectrum with
    strictly ordered moduli, so the large-energy evaluators refuse."""


class NotAProjection(ToeplimitError):
    """The given matrix is not idempotent within tolerance."""


class RankMismatch(ToeplimitError):
    """Numerical rank disagrees with the requested rank."""


class BadConfig(ToeplimitError):
    """A model configuration file is malformed or inconsistent."""
