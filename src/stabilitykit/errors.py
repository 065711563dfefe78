"""Exception taxonomy shared by every stabilitykit module.

Each class carries, as ``exit_code``, the process exit code that the CLI
returns for it; these attributes are the one statement of the exit codes.
0 is success.  2, the default, is an input error: a malformed or missing
file, or a bad config value or option (the CLI also returns 2 for any
``OSError``).  3 is ``MissingModel``, 4 is degenerate content (including
a training run that diverges to a non-finite loss or weight) and 5 is
insufficient data.
"""


class StabilityKitError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 2


class ParseError(StabilityKitError):
    """Malformed input file (bad magic, unparseable header, ...)."""


class TruncatedError(ParseError):
    """Input stream ended mid-payload."""


class DimensionMismatch(StabilityKitError):
    """Operands or frames do not share the required dimensions."""


class EmptyInput(StabilityKitError):
    """An input collection contained nothing usable."""


class InsufficientFrames(StabilityKitError):
    """Sequence too short for the requested operation.

    ``required`` carries the minimum frame count when known.
    """
    exit_code = 5

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class DegenerateScene(StabilityKitError):
    """Frame content has too little texture for motion analysis."""
    exit_code = 4


class TrackingFailure(StabilityKitError):
    """Every tracked point was rejected."""
    exit_code = 4


class UnderDetermined(StabilityKitError):
    """Not enough inlier matches to fit the requested motion model."""
    exit_code = 4


class ConfigError(StabilityKitError, ValueError):
    """Invalid or inconsistent configuration values or arguments."""


class MarginError(StabilityKitError):
    """Synthetic warp would sample outside the source image."""


class MissingModel(StabilityKitError):
    """The model checkpoint does not exist."""
    exit_code = 3


class InsufficientData(StabilityKitError):
    """Dataset too small (or too degenerate) to train or aggregate."""
    exit_code = 5


class DegenerateInput(StabilityKitError):
    """Statistic undefined for this input (e.g. constant vector)."""
    exit_code = 4


class InsufficientRatings(StabilityKitError):
    """A video has fewer ratings than MOS aggregation requires."""
    exit_code = 5


class EmptyAfterCleaning(StabilityKitError):
    """Outlier rejection removed every subject."""
    exit_code = 5
