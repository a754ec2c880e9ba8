"""Typed ``argparse`` converters shared by the ``python -m repro`` CLIs.

Each raises :class:`argparse.ArgumentTypeError`, so a malformed value
exits 2 with ``argument --flag: <message>`` instead of a traceback.
"""

from __future__ import annotations

import argparse
from typing import Tuple


def float_list(text: str) -> Tuple[float, ...]:
    """``"0,5,10"`` -> ``(0.0, 5.0, 10.0)`` (empty parts skipped)."""
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a comma-separated float list, got %r" % text
        ) from None


def shard_arg(text: str) -> Tuple[int, int]:
    """``"I/N"`` -> ``(I, N)`` with ``1 <= I <= N``."""
    index, sep, count = text.partition("/")
    try:
        pair = (int(index), int(count)) if sep else None
    except ValueError:
        pair = None
    if pair is None or not 1 <= pair[0] <= pair[1]:
        raise argparse.ArgumentTypeError(
            "shard must be I/N with 1 <= I <= N, got %r" % (text,)
        )
    return pair
