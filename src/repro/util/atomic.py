"""Atomic whole-file writes through a per-call temp file."""

from __future__ import annotations

import os
import tempfile
from typing import BinaryIO, Callable


def write_atomic(path: str, write: Callable[[BinaryIO], None]) -> None:
    """Replace ``path`` with the bytes ``write(stream)`` produces.

    ``write`` fills a fresh temp file (``mkstemp``) in the target's
    directory, which then replaces ``path`` in one ``os.replace``.  Every
    call owns its temp file, so concurrent writers of one path never
    share or steal one: the last rename wins and readers only ever see a
    complete file.  The temp file is removed if writing fails.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as stream:
            write(stream)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
