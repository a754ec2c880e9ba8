"""The one serialization protocol shared by results and stores.

Result objects across the library (:class:`repro.core.stats
.ArchitectureRunResult`, :class:`repro.faults.CampaignResult`,
:class:`repro.faults.SiteReport`, experiment results) expose two
methods:

* ``summary() -> dict`` -- flat, scalar, JSON-ready key/value pairs
  (the numbers a benchmark log or a table row wants);
* ``to_dict() -> dict`` -- the full JSON-ready representation
  (everything a store needs to round-trip the object).

:func:`to_json` / :func:`dump_json` funnel every JSON producer --
``render()`` headers and the campaign and benchmark JSON artifacts --
through that single code path instead of ad-hoc formats.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO

from ..errors import SimulationError

try:  # pragma: no cover - typing backcompat
    from typing import Protocol, runtime_checkable

    @runtime_checkable
    class Summarizable(Protocol):
        """Anything exposing the ``summary()`` / ``to_dict()`` pair."""

        def summary(self) -> Dict[str, Any]: ...

        def to_dict(self) -> Dict[str, Any]: ...

except ImportError:  # pragma: no cover - Python < 3.8
    Summarizable = None  # type: ignore[assignment]


def _coerce(value: Any) -> Any:
    """Make numpy scalars / arrays JSON-friendly."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _coerce(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coerce(val) for val in value]
    return value


def to_json(obj: Any, summary_only: bool = False, **json_kw: Any) -> str:
    """Serialize a :class:`Summarizable` (or plain dict) to JSON text."""
    if isinstance(obj, dict):
        data = obj
    elif summary_only and hasattr(obj, "summary"):
        data = obj.summary()
    elif hasattr(obj, "to_dict"):
        data = obj.to_dict()
    else:
        raise SimulationError(
            "%r is not serializable: expected a dict or an object with "
            "to_dict()/summary()" % (type(obj).__name__,)
        )
    json_kw.setdefault("sort_keys", True)
    return json.dumps(_coerce(data), **json_kw)


def dump_json(obj: Any, fp: IO[str], **kw: Any) -> None:
    """Write :func:`to_json` output (plus a trailing newline) to ``fp``."""
    fp.write(to_json(obj, **kw))
    fp.write("\n")
