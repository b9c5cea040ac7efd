"""Exception types shared across the osnmatch package, and the one way an
input file is opened and read."""

import re
from itertools import chain, count, islice

# a strict UTF-8 decode never yields these; "surrogateescape" reads each
# byte it cannot decode as one of them
_UNDECODED = re.compile("[\udc80-\udcff]")


def open_input(path):
    """``path`` opened for reading as UTF-8 text. Line ends are kept as they
    are (``newline=""``, as the csv module needs), and every other reader
    strips them. A byte that is not UTF-8 is read as a lone surrogate
    (``errors="surrogateescape"``), so the file must be read only through
    ``line_blocks`` or ``input_lines``, which raise ``ParseError`` at the
    line that holds one."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline="")


def line_blocks(fh, size=1 << 10):
    """The lines of ``fh``, an ``open_input`` file, in lists of ``size``
    (the last shorter). A line holding a byte that is not UTF-8 ends them:
    the lines before it come as a last list, and once that list has been
    handled ``ParseError(fh.name, line, "not valid UTF-8")`` is raised."""
    for first in count(1, size):
        lines = list(islice(fh, size))
        text = "".join(lines)
        if not text.isascii() and _UNDECODED.search(text):
            bad = next(i for i, line in enumerate(lines) if _UNDECODED.search(line))
            yield lines[:bad]
            raise ParseError(fh.name, first + bad, "not valid UTF-8")
        yield lines
        if len(lines) < size:
            return


def input_lines(fh):
    """The lines of ``fh``, an ``open_input`` file, one at a time, checked
    as ``line_blocks`` checks them."""
    return chain.from_iterable(line_blocks(fh))


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
