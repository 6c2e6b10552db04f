"""Exception types shared across the toolkit.

Names follow the error contracts of the individual operations; everything
derives from CurvefamError so callers can catch toolkit failures wholesale.
"""

from __future__ import annotations


class CurvefamError(Exception):
    """Base class for all toolkit errors."""


class GeometryError(CurvefamError):
    """Base class for exact-geometry failures."""


class OverlapError(GeometryError):
    """Two polylines share a segment of positive length (degenerate input)."""


class TangencyError(GeometryError):
    """A curve touches the baseline without crossing it."""


class CollinearError(GeometryError):
    """A polyline edge lies on the baseline."""


class ContractError(CurvefamError):
    """An operation precondition was violated by the caller."""


class OddCrossingError(CurvefamError):
    """A curve presented as an even-curve has an odd number of baseline crossings."""


class FamilyValidationError(CurvefamError):
    """A curve family violates its declared kind certificate."""


class IntervalCrossingError(CurvefamError):
    """Baseline intervals cross (neither nested nor disjoint)."""

    def __init__(self, id1: str, id2: str):
        super().__init__(f"intervals of {id1!r} and {id2!r} cross")
        self.pair = (id1, id2)


class BelowBaselineIntersectionError(CurvefamError):
    """Two family members intersect strictly below the baseline."""

    def __init__(self, id1: str, id2: str, point=None):
        super().__init__(f"{id1!r} and {id2!r} intersect below the baseline")
        self.pair = (id1, id2)
        self.point = point


class AuxiliaryNotFourColorable(CurvefamError):
    """The component auxiliary graph needed more than 4 colors.

    Signals an LR-validation bug upstream; never expected on valid input.
    """


class ImproperCellColoring(CurvefamError):
    """A cell colorer returned a coloring with a monochromatic edge."""


class ImproperColoring(CurvefamError):
    """A coloring passed as proper has a monochromatic edge."""

    def __init__(self, edge):
        super().__init__(f"monochromatic edge {edge}")
        self.edge = edge


class CertificateError(CurvefamError):
    """A computed result failed the recheck of its certificate.

    Signals a solver or reduction bug; never expected on valid input.
    """


class PreconditionUnmet(CurvefamError):
    """A reduction's verified numeric precondition does not hold."""


class SolverBudgetExceeded(CurvefamError):
    """An exact solver ran out of its node or time budget.

    Carries the best bounds found so far.
    """

    def __init__(self, message: str, lower: int | None = None, upper: int | None = None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class FileFormatError(CurvefamError):
    """A family or graph file does not conform to the documented format."""
