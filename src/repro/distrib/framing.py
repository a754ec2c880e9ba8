"""Newline-delimited JSON framing, shared by every JSON-lines speaker.

One message is one canonical JSON object on one line.  The ``distrib
worker`` daemon, :class:`~repro.distrib.pool.TcpPool`, the manifest
files and the reliability service's TCP server and clients all frame
their messages with these two functions.
"""

from __future__ import annotations

import json
from typing import Dict

from ..errors import ServiceError


def encode(message: Dict) -> bytes:
    """One canonical JSON line (sorted keys, compact separators)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes) -> Dict:
    """Parse one request line; malformed input raises ServiceError."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceError("request is not valid JSON: %s" % exc) from None
    if not isinstance(message, dict):
        raise ServiceError("request must be a JSON object")
    return message
