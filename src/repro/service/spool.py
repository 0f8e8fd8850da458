"""Crash-safe first-flag spool: the service's restart memory.

The :class:`~repro.service.verdicts.VerdictLog` answers "who has ever
been flagged" — but only until the process dies.  Kuptsov et al.
(PAPERS.md) make the point that penalty decisions are only as
trustworthy as the flag history they are derived from; a monitor that
forgets every flag on restart cannot be audited.  The spool closes
that gap: every published first-flag event is appended to an
append-only, crc32-checksummed JSONL file (written, read and
repaired by the campaign journal's code in :mod:`repro.experiments.
campaign.journal`), and a restarted service replays the file into its
verdict log *before* accepting traffic — the ``/verdicts`` history it
then serves is byte-identical to the pre-crash one, with zero
duplicates (replay publishes to the log but never re-appends to the
spool).

Durability model (same as the campaign journal):

* every append is flushed to the OS immediately — a SIGKILL of the
  service cannot lose a flushed event, only a machine crash can;
* an ``os.fsync`` runs every :data:`FSYNC_EVERY` appends and on
  close, bounding the machine-crash window;
* a torn tail record (mid-append kill) is detected by its checksum,
  truncated away on reopen (:func:`~repro.experiments.campaign.
  journal.repair_journal`), and only that unflushed event is lost —
  it was never observable via ``/verdicts``, so the served history
  never goes backwards;
* damage anywhere else raises
  :class:`~repro.experiments.campaign.journal.JournalCorruptError` —
  that is bitrot or manual editing, not a crash artifact, and
  silently skipping records would serve a gapped flag history as if
  it were complete.

One spool file belongs to one ``(worker, workers)`` slot of one
detector spec; the header record pins all three, and reopening with a
different geometry or spec is refused — replaying another worker's
flags (or another detector's) would fabricate history.
"""

from __future__ import annotations

import os
import pathlib
from threading import Lock
from typing import List, Optional

from repro.experiments.campaign.journal import (
    JournalWriter,
    read_journal,
    repair_journal,
)
from repro.service.store import FlagEvent

#: Spool schema version (bump on incompatible record changes).
SPOOL_SCHEMA = 1

#: Appends between fsyncs (every append is flushed regardless, so
#: only a *machine* crash — not a SIGKILL — can lose events between
#: fsyncs).
FSYNC_EVERY = 64


class SpoolError(RuntimeError):
    """A spool file cannot be opened, validated or appended."""


def spool_path(
    directory: os.PathLike | str, worker: int, workers: int
) -> pathlib.Path:
    """The spool file for worker ``worker`` of ``workers`` in
    ``directory`` (worker 0 of 1 is a one-worker service)."""
    return pathlib.Path(directory) / f"flags-{worker:03d}-of-{workers:03d}.jsonl"


def _header(detector: str, worker: int, workers: int) -> dict:
    return {
        "kind": "flag-spool",
        "schema": SPOOL_SCHEMA,
        "detector": detector,
        "worker": worker,
        "workers": workers,
    }


def _event_record(event: FlagEvent) -> dict:
    # Wall clocks are persisted exactly (JSON floats round-trip via
    # repr), so replayed latency_s values match pre-crash ones bit
    # for bit.
    return {
        "kind": "flag",
        "sender": event.sender,
        "time_us": event.time_us,
        "wall": event.wall,
        "first_obs_wall": event.first_obs_wall,
        "observations": event.observations,
    }


def _decode_event(record: dict, position: int, path: pathlib.Path) -> FlagEvent:
    try:
        return FlagEvent(
            sender=record["sender"],
            time_us=record["time_us"],
            wall=record["wall"],
            first_obs_wall=record["first_obs_wall"],
            observations=record["observations"],
        )
    except KeyError as exc:
        raise SpoolError(
            f"flag record {position} of {path} has no {exc.args[0]!r} "
            f"field; the spool was likely written by an incompatible "
            f"schema (this code writes schema {SPOOL_SCHEMA})"
        ) from None


class FlagSpool:
    """One worker's append-only flag spool, opened for replay + append.

    Opening reads the whole file (repairing a torn tail in place),
    validates the header against this service's identity, and leaves
    the replayed events in :attr:`replayed` for the service to publish
    into its verdict log before it accepts traffic.  :meth:`append`
    then persists each *new* first-flag event.  Thread-safe: TCP
    ingest threads may flag concurrently.
    """

    def __init__(
        self,
        path: os.PathLike | str,
        detector: str,
        worker: int = 0,
        workers: int = 1,
    ):
        if not 0 <= worker < workers:
            raise ValueError(
                f"worker must be in [0, {workers}), got {worker}"
            )
        self.path = pathlib.Path(path)
        self.detector = detector
        self.worker = worker
        self.workers = workers
        self.replayed: List[FlagEvent] = []
        #: True when a torn tail record was repaired away on open.
        self.repaired = False
        self._lock = Lock()
        self._since_sync = 0
        self._writer: Optional[JournalWriter] = None

        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and self.path.stat().st_size > 0:
            self._replay_existing()
        else:
            self._start_file()

    # ------------------------------------------------------------------
    def _replay_existing(self) -> None:
        result = read_journal(self.path)
        if result.truncated or result.needs_newline:
            repair_journal(self.path, result)
            self.repaired = True
        if not result.records:
            # Every record (the header included) was torn away: start
            # the file over rather than appending after garbage.
            self._start_file()
            return
        header = result.records[0]
        if header.get("kind") != "flag-spool":
            raise SpoolError(
                f"{self.path} is not a flag spool (first record kind "
                f"{header.get('kind')!r})"
            )
        for field_name, mine in (
            ("schema", SPOOL_SCHEMA),
            ("detector", self.detector),
            ("worker", self.worker),
            ("workers", self.workers),
        ):
            theirs = header.get(field_name)
            if theirs != mine:
                raise SpoolError(
                    f"{self.path} was written as {field_name}={theirs!r} "
                    f"but this service is {field_name}={mine!r}; replaying "
                    f"it would fabricate flag history (move the spool "
                    f"aside or restart with the original geometry)"
                )
        for position, record in enumerate(result.records[1:], start=2):
            if record.get("kind") != "flag":
                raise SpoolError(
                    f"record {position} of {self.path} has unexpected "
                    f"kind {record.get('kind')!r}"
                )
            self.replayed.append(_decode_event(record, position, self.path))
        self._writer = JournalWriter(self.path)

    def _start_file(self) -> None:
        self._writer = JournalWriter(self.path)
        self._writer.append(_header(self.detector, self.worker, self.workers))

    # ------------------------------------------------------------------
    def append(self, event: FlagEvent) -> None:
        """Persist one new first-flag event (flush now, fsync every
        :data:`FSYNC_EVERY` appends)."""
        with self._lock:
            if self._writer is None:
                raise SpoolError(f"spool {self.path} is closed")
            self._since_sync += 1
            sync = self._since_sync >= FSYNC_EVERY
            self._writer.append(_event_record(event), sync=sync)
            if sync:
                self._since_sync = 0

    def sync(self) -> None:
        """fsync everything appended so far."""
        with self._lock:
            if self._writer is not None:
                self._writer.sync()
                self._since_sync = 0

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                try:
                    self._writer.close()
                finally:
                    self._writer = None

    def __enter__(self) -> "FlagSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_spool_events(path: os.PathLike | str) -> List[FlagEvent]:
    """All flag events of a spool file, tolerating a torn tail (read
    only — the file is not repaired).  For tooling and tests."""
    path = pathlib.Path(path)
    result = read_journal(path)
    events: List[FlagEvent] = []
    for position, record in enumerate(result.records, start=1):
        if record.get("kind") == "flag":
            events.append(_decode_event(record, position, path))
    return events


__all__ = [
    "FSYNC_EVERY",
    "FlagSpool",
    "SPOOL_SCHEMA",
    "SpoolError",
    "read_spool_events",
    "spool_path",
]
