"""JSONL checkpoint store for fault-injection campaigns.

Classic campaign managers (MEFISTO-style) treat a fault-injection sweep
as a restartable job list; this module is that persistence layer.  A
checkpoint file is newline-delimited JSON:

* line 1 -- a header identifying the format, version and the campaign
  :meth:`~repro.faults.campaign.InjectionCampaign.fingerprint` the
  reports belong to;
* every further line -- ``{"site_id": ..., "report": {...}}``, one
  completed :class:`~repro.faults.campaign.SiteReport` (serialized via
  its ``to_dict()``, the library-wide protocol from
  :mod:`repro.analysis.serialize`), appended and flushed the moment the
  site finishes.

Robustness contract:

* A process killed mid-write leaves at most one partial trailing line;
  :meth:`CheckpointStore.open` drops it and resumes from the last
  complete report.  On open the file is compacted (rewritten from the
  surviving valid lines), so the append stream always starts clean.
* A header from a *different* campaign (other design, workload, seed,
  aging point or site list) raises
  :class:`~repro.errors.CheckpointError` instead of silently mixing
  incompatible reports.
* Duplicate ``site_id`` lines are legal (a crash between flush and the
  in-memory bookkeeping can double-write); the last occurrence wins.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from ..analysis.serialize import to_json
from ..errors import CheckpointError
from ..util.locking import FileLock
from .campaign import SiteReport

#: Format tag written to (and required of) every checkpoint header.
FORMAT = "repro-campaign-checkpoint"
#: Current checkpoint schema version.
VERSION = 1


class CheckpointStore:
    """Append-only JSONL persistence of per-site campaign reports.

    Usage (what :meth:`InjectionCampaign.run` does internally)::

        store = CheckpointStore("campaign.jsonl")
        done = store.open(campaign.fingerprint())   # {} on fresh file
        ...
        store.append(site_id, report)               # flushed immediately
        store.close()
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._fp = None
        #: Partial/corrupt trailing lines dropped by the last ``open``.
        self.dropped_lines = 0

    # ------------------------------------------------------------------

    def load(
        self, fingerprint: Optional[Dict] = None
    ) -> Dict[str, SiteReport]:
        """Read all complete reports (read-only; missing file -> ``{}``).

        Validates the header against ``fingerprint`` when given.  A
        partial trailing line (killed writer) is dropped; corruption
        anywhere *before* the last line raises
        :class:`~repro.errors.CheckpointError`.
        """
        self.dropped_lines = 0
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "r", encoding="utf-8") as fp:
            lines = fp.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            return {}
        records = []
        for number, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except ValueError:
                if number == len(lines) - 1:
                    # Torn trailing write -- the crash/kill case resume
                    # exists for.  Drop it and keep everything before.
                    self.dropped_lines += 1
                    break
                raise CheckpointError(
                    "checkpoint %s: corrupt line %d (not trailing -- "
                    "refusing to guess; delete the file to start over)"
                    % (self.path, number + 1)
                ) from None
        if not records:
            return {}
        self._check_header(records[0], fingerprint)
        reports: Dict[str, SiteReport] = {}
        for number, record in enumerate(records[1:], start=2):
            try:
                site_id = record["site_id"]
                report = SiteReport.from_dict(record["report"])
            except (KeyError, TypeError):
                raise CheckpointError(
                    "checkpoint %s: line %d is not a site report"
                    % (self.path, number)
                ) from None
            reports[site_id] = report
        return reports

    def _check_header(
        self, header: Dict, fingerprint: Optional[Dict]
    ) -> None:
        if not isinstance(header, dict) or header.get("format") != FORMAT:
            raise CheckpointError(
                "%s is not a campaign checkpoint (missing %r header)"
                % (self.path, FORMAT)
            )
        if header.get("version") != VERSION:
            raise CheckpointError(
                "checkpoint %s has version %r, this build reads %d"
                % (self.path, header.get("version"), VERSION)
            )
        if fingerprint is not None:
            stored = header.get("fingerprint")
            if stored != _jsonround(fingerprint):
                raise CheckpointError(
                    "checkpoint %s belongs to a different campaign:\n"
                    "  stored:  %r\n  current: %r\n"
                    "Pass resume=False (or a fresh path) to overwrite."
                    % (self.path, stored, _jsonround(fingerprint))
                )

    # ------------------------------------------------------------------

    def open(
        self, fingerprint: Dict, resume: bool = True
    ) -> Dict[str, SiteReport]:
        """Load prior reports and open the file for appending.

        With ``resume=False`` (or a missing/fresh file) the checkpoint
        restarts empty.  The file is compacted on open -- header plus
        every surviving report rewritten atomically -- so torn trailing
        bytes never pollute subsequent appends.

        The load-compact-reopen sequence runs under an advisory
        :class:`~repro.util.locking.FileLock`, so two processes resuming
        the same checkpoint serialize instead of interleaving their
        rewrites.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with FileLock(self.path + ".lock"):
            reports = self.load(fingerprint) if resume else {}
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fp:
                fp.write(self._header_line(fingerprint))
                for site_id, report in reports.items():
                    fp.write(self._report_line(site_id, report))
            os.replace(tmp, self.path)
            self._fp = open(self.path, "a", encoding="utf-8")
        return reports

    def append(self, site_id: str, report: SiteReport) -> None:
        """Persist one completed site report (flushed immediately)."""
        if self._fp is None:
            raise CheckpointError(
                "checkpoint %s is not open for appending" % self.path
            )
        self._fp.write(self._report_line(site_id, report))
        self._fp.flush()

    def close(self) -> None:
        if self._fp is not None:
            self._fp.flush()
            try:
                os.fsync(self._fp.fileno())
            except OSError:  # pragma: no cover - fsync-less filesystems
                pass
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    @staticmethod
    def _header_line(fingerprint: Dict) -> str:
        return (
            to_json(
                {
                    "format": FORMAT,
                    "version": VERSION,
                    "fingerprint": fingerprint,
                }
            )
            + "\n"
        )

    @staticmethod
    def _report_line(site_id: str, report: SiteReport) -> str:
        return (
            to_json({"site_id": site_id, "report": report.to_dict()})
            + "\n"
        )


def _jsonround(data: Dict) -> Dict:
    """A dict as it looks after one JSON round-trip (tuples -> lists,
    numpy scalars -> python), so fingerprint comparison is stable."""
    return json.loads(to_json(data))
