"""Output files that create their own directory."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any


def open_output(path: str | Path, mode: str = "w", **kwargs: Any) -> IO[Any]:
    """Open ``path`` for writing, creating missing parent directories.

    Every report, JSON and trace file the CLI writes goes through here,
    so an output path under a directory that does not exist yet cannot
    fail after a long run has already finished.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, mode, **kwargs)
