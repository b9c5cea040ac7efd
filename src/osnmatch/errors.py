"""Exception types shared across the osnmatch package, and the helper that
finds the line an input file's decoding failed on."""


NOT_UTF8 = "not valid UTF-8"  # the message of a ParseError at such a line


def undecodable_line(path) -> int:
    """The number of the first line of ``path`` that is not valid UTF-8,
    with lines ended as text mode ends them (\\n, \\r\\n or \\r). Called
    after a read failed, so that the read loop itself stays unchanged."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    line_no = 0
    for line_no, raw in enumerate(lines, 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            break
    return line_no


class OsnMatchError(Exception):
    """Base class for all osnmatch errors."""


class SamePlatformError(OsnMatchError):
    """Both accounts of a candidate pair live on the same platform."""


class ModeMismatchError(OsnMatchError):
    """Two activity histograms/masks use different binning modes."""


class MalformedLineError(OsnMatchError):
    """An embedding file line could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class DimensionMismatchError(OsnMatchError):
    """A vector or matrix has an unexpected dimension."""


class ModelFormatError(OsnMatchError, ValueError):
    """A saved model file is malformed, truncated or of another format."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class ParseError(OsnMatchError):
    """A corpus input file could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class EmptyCorpusError(OsnMatchError):
    """No usable positive pairs remained after loading."""


class InsufficientPoolError(OsnMatchError):
    """The negative-pair pool cannot satisfy the requested ratio."""

    def __init__(self, requested_ratio, achievable_ratio):
        super().__init__(
            f"cannot reach a 1:{requested_ratio} ratio; "
            f"at most 1:{achievable_ratio:.2f} is achievable"
        )
        self.requested_ratio = requested_ratio
        self.achievable_ratio = achievable_ratio


class DegenerateSplitError(OsnMatchError):
    """A train/test split would leave one side without a class."""


class TooFewExamplesError(OsnMatchError):
    """A class has fewer examples than the requested fold count."""


class EmptyDatasetError(OsnMatchError):
    """A training or validation set is empty."""


class TrainingDivergedError(OsnMatchError):
    """A network never reached a finite validation loss."""


class LengthMismatchError(OsnMatchError):
    """Sequences that must pair up element by element differ in length."""
