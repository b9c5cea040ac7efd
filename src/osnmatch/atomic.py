"""Atomic file output: write into a temporary file next to the target,
then rename it over the target."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


@contextmanager
def replacing(path: str | os.PathLike) -> Iterator[Path]:
    """Yield a temporary path next to ``path`` for the caller to write.

    When the block ends normally the temporary file is renamed over
    ``path``; when it raises, the temporary file is removed. Either way
    ``path`` is never left half-written. Close the file inside the block.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
