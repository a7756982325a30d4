"""Exception hierarchy shared across the package."""

from __future__ import annotations


class AntictxError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioParseError(AntictxError):
    """The scenario/state/vector document is malformed."""


class ScenarioValidationError(AntictxError):
    """A scenario candidate violates structural rules; carries the report."""

    def __init__(self, report):
        self.report = report
        rules = ", ".join(f.rule for f in report.violations)
        super().__init__(f"invalid scenario: {rules}")


class UnknownLabelError(AntictxError):
    """An outcome label does not belong to the scenario or state set."""


class EmptyPolytopeError(AntictxError):
    """The scenario admits no value functions, so the bound is undefined."""


class NotAStateError(AntictxError):
    """The probability assignment violates a (partial) context normalization."""


class ResourceLimitError(AntictxError):
    """The enumeration exceeded its configured search-node budget."""


class DimensionMismatchError(AntictxError):
    """Vector/matrix dimensions are inconsistent."""


class DuplicateRayError(AntictxError):
    """Two input states describe the same ray (equal up to global phase)."""


class ToleranceAmbiguityError(AntictxError):
    """An overlap falls inside the guard band around the orthogonality cut."""


class NotABasisError(AntictxError):
    """The given labels do not form an orthonormal basis of the space."""


class FailedTripleError(AntictxError):
    """A required triple is not antidistinguishable; carries the evidence."""

    def __init__(self, triple, verdict):
        self.triple = triple
        self.verdict = verdict
        a, b, c = triple
        super().__init__(
            f"triple ({a}, {b}, {c}) is not antidistinguishable "
            f"(margin_strict={verdict.margin_strict:.3g}, "
            f"margin_quadratic={verdict.margin_quadratic:.3g})"
        )


class ConstraintMismatchError(AntictxError):
    """An augmentation names an outcome without a matching side constraint."""


class MissingLabelError(AntictxError):
    """An inequality coefficient or side constraint names a label absent from the state set."""


class UnsupportedParameterError(AntictxError):
    """A generator family does not support the requested parameters."""


class OverlapRangeError(AntictxError):
    """A squared overlap lies outside [0, 1] beyond tolerance."""
