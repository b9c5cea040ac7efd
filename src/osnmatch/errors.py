"""Exception types shared across the osnmatch package, and the one way an
input file is opened."""

from contextlib import contextmanager


def undecodable_line(path) -> int:
    """The number of the first line of ``path`` that is not valid UTF-8,
    with lines ended as ``open_input`` ends them (\\n, \\r\\n or \\r).
    Called after a read failed, so that the read loops stay unchanged."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    line_no = 0
    for line_no, raw in enumerate(lines, 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            break
    return line_no


@contextmanager
def open_input(path):
    """``path`` opened for reading as UTF-8 text. Line ends are kept as they
    are (``newline=""``, as the csv module needs), and every other reader
    strips them. A byte that is not UTF-8, met anywhere in the ``with``
    block, raises ``ParseError(path, line, "not valid UTF-8")``."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ParseError(path, undecodable_line(path), "not valid UTF-8") from None


class OsnMatchError(Exception):
    """Base class for all osnmatch errors."""


class SamePlatformError(OsnMatchError):
    """Both accounts of a candidate pair live on the same platform."""


class DimensionMismatchError(OsnMatchError):
    """A vector, matrix or sequence has an unexpected shape or length."""


class ModelFormatError(OsnMatchError, ValueError):
    """A saved model file is malformed, truncated or of another format."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class ParseError(OsnMatchError):
    """An input file (corpus, embeddings, config, profile) could not be parsed."""

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
