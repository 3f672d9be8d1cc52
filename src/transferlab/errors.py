"""Exception hierarchy for the workbench.

Every error raised by the library derives from :class:`TransferLabError`,
so callers can catch one type at an API boundary.  Construction-time
invariant failures use :class:`ValidationError` unless a more specific
class below applies.
"""


class TransferLabError(Exception):
    """Base class for all workbench errors."""


class ValidationError(TransferLabError):
    """A value failed a construction invariant."""


# -- finite relations ----------------------------------------------------

class EmptyComponent(ValidationError):
    """A component set (or component list) is empty."""


class ArityMismatch(ValidationError):
    """A tuple's arity does not match the number of component sets."""


class UnknownElement(ValidationError):
    """An element does not belong to its declared carrier set."""


class NotAPartition(ValidationError):
    """The requested input/output index split is not a partition."""


class NoPartition(TransferLabError):
    """The operation requires an input/output partition that is absent."""


class CouplingMismatch(TransferLabError):
    """The coupling sets of a cascade composition are unequal."""


class IncompatibleCarriers(TransferLabError):
    """Relations passed to a consistency check live on mismatched sets."""


class CapExceeded(TransferLabError):
    """An exhaustive enumeration would exceed the configured size cap."""


# -- learning ------------------------------------------------------------

class EmptyDataset(TransferLabError):
    """The operation requires at least one data pair."""


class EstimationError(TransferLabError):
    """A probability table could not be estimated from the given data."""


# -- transfer ------------------------------------------------------------

class MissingSourceArtifact(TransferLabError):
    """The requested knowledge piece was not provided by the source."""


class IncompatibleSupport(TransferLabError):
    """Data from two systems cannot be pooled on a common sample space."""


class MissingMeasure(TransferLabError):
    """A declared probability measure required by the analysis is absent."""


# -- measures and divergences --------------------------------------------

class SupportMismatch(TransferLabError):
    """Two measures do not share a common support and no alignment applies."""


class MissingOrder(TransferLabError):
    """The support's atoms are not all numbers, so it has no order on a line (needed for W1)."""


class HeterogeneousSetting(TransferLabError):
    """The analysis is only defined when source and target spaces agree."""


class IncompatibleMorphism(TransferLabError):
    """A morphism's declared carriers do not match the systems at hand."""


# -- scenarios -----------------------------------------------------------

class InvalidSpec(TransferLabError):
    """A scenario specification is out of range or internally inconsistent."""


# -- document handling / CLI ---------------------------------------------

class ParseError(TransferLabError):
    """A document could not be parsed against the schema."""


class ResolutionError(TransferLabError):
    """A reference inside a document does not resolve."""


class InvariantViolation(TransferLabError):
    """A parsed document violates a construction invariant."""


class AnalysisError(TransferLabError):
    """An analysis failed at run time."""
