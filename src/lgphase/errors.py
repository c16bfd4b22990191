"""Typed exceptions raised across the package."""

__all__ = [
    "LgPhaseError",
    "NotSquare",
    "SingularMatrix",
    "EmptyMatrix",
    "DimensionMismatch",
    "SingularChoice",
    "NotNegativeCone",
    "RankDeficientGaugeGroup",
    "LevelNotInImage",
    "NotInterior",
    "RejectionBudgetExceeded",
    "ParseError",
    "InternalCheckFailed",
]


class LgPhaseError(Exception):
    """Base class for every error this package raises on purpose."""


class NotSquare(LgPhaseError):
    """A square matrix was required."""


class SingularMatrix(LgPhaseError):
    """A nonsingular matrix was required."""


class EmptyMatrix(LgPhaseError):
    """A charge matrix needs at least one row and one column."""


class DimensionMismatch(LgPhaseError):
    """Operands have incompatible shapes or lengths."""


class SingularChoice(LgPhaseError):
    """The chosen columns are linearly dependent, so they cut out no witness."""


class NotNegativeCone(LgPhaseError):
    """Some non-chosen column leaves the negative cone of the chosen block.

    Attributes `row` and `col` locate the offending entry of the row-reduced
    matrix: gauge row `row`, field column `col`.
    """

    def __init__(self, row, col, message=None):
        self.row = row
        self.col = col
        super().__init__(message or f"positive entry at gauge row {row}, field column {col}")


class RankDeficientGaugeGroup(LgPhaseError):
    """The orbifold group is only defined when the charge matrix has full rank."""


class LevelNotInImage(LgPhaseError):
    """The requested moment level is not in the image of the charge matrix."""


class NotInterior(LgPhaseError):
    """The level must sit in the open interior of the phase cone."""


class RejectionBudgetExceeded(LgPhaseError):
    """Rejection sampling used up its attempt budget.

    Attribute `budget` records the number of attempts that were allowed.
    """

    def __init__(self, budget, message=None):
        self.budget = budget
        super().__init__(message or f"no admissible draw within {budget} attempts")


class ParseError(LgPhaseError):
    """Input text could not be parsed as a charge matrix or level."""


class InternalCheckFailed(LgPhaseError):
    """An exact identity the computation relies on did not hold.

    This signals a defect in the package, not bad input: the result that
    failed the check is withheld rather than returned wrong.
    """
