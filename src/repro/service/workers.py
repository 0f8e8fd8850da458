"""The detection service's front-end: N worker slots, disjoint crc32
key ranges.

Detector state is strictly per-sender, so the service partitions by
*sender*: worker slot ``k`` of ``N`` owns the senders in one crc32
residue class (:func:`~repro.service.store.worker_of`), and slots share
nothing at all.  Each slot hosts a full private :class:`~repro.service.
ingest.DetectionService` (its own :class:`~repro.service.store.
ShardedDetectorStore`, :class:`~repro.service.verdicts.VerdictLog` and
optional :class:`~repro.service.spool.FlagSpool`).

The only thing that varies with ``N`` is how the pool reaches a slot:

* ``N == 1`` — the one slot is held **in-process**: no fork, no pipe.
  :meth:`IngestWorkerPool.ingest_lines` calls the slot's
  ``DetectionService.ingest_lines`` directly (no routing scan), so a
  chunk is folded in before the call returns, and ``/watch`` parks in
  the slot's :meth:`~repro.service.verdicts.VerdictLog.wait_for`.
* ``N > 1`` — each slot is a worker process behind a duplex pipe.  A
  single interpreter tops out near the one-GIL ceiling; the front-end
  routes wire lines by scanning out the sender key
  (:func:`~repro.service.codec.sender_of_line` — no JSON parse on the
  routing path), batches them per worker and ships each batch down
  that worker's pipe, so decode and fold run in parallel.  Queries
  travel down the same FIFO pipe as data, so a query reply reflects
  every line routed to that worker before the query was issued.
  ``/watch`` polls the scatter every :data:`_WATCH_POLL_S` seconds: a
  worker blocked in a long-poll could not ingest.

Everything else is one path for every ``N``: the slot-side query
handler (:func:`_handle_query`, which the in-process slot calls
directly), the cursor codec, the merged ``/verdicts``, ``/stats``, and
the spool-geometry check.  A verdict's identity is a ``(worker, seq)``
pair, and the poll cursor is one dot-joined token of per-worker
sequence numbers (``"12.7.9.4"``; ``"12"`` for one worker), so a
resuming watcher walks the merged history with no loss and no
duplicates (property-tested in ``tests/test_service_workers.py``).

Worker processes are started with the ``fork`` method where the
platform offers it (cheap, and the pool is constructed before any
server threads exist) and ``spawn`` elsewhere; both route through
picklable plain-data configs.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import pathlib
import pickle
import signal
import time
from dataclasses import dataclass
from threading import Lock
from typing import Dict, List, Optional, Tuple

from repro.core.params import PAPER_CONFIG, ProtocolConfig
from repro.detect import DEFAULT_DETECTOR
from repro.experiments.campaign.journal import JournalError
from repro.service.codec import WireError, decode_record, sender_of_line
from repro.service.ingest import (
    NOT_UTF8, DetectionService, RefusedLine, WireLines,
)
from repro.service.spool import FlagSpool, SpoolError, spool_path
from repro.service.store import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_SHARDS,
    DEFAULT_TRANSITION_CAP,
    worker_of,
)
from repro.service.verdicts import DEFAULT_VERDICT_CAP, event_payload

#: Routed lines buffered per worker before a batch is shipped.
BATCH_LINES = 512
#: Buffered bytes per worker that force a batch flush.
BATCH_BYTES = 64 * 1024
#: Seconds the pool waits for a worker to come up / shut down.
_STARTUP_TIMEOUT = 60.0
_SHUTDOWN_TIMEOUT = 10.0
#: Poll interval of the multi-process /watch scatter loop (seconds).
_WATCH_POLL_S = 0.05

_TAG_DATA = b"D"
_TAG_QUERY = b"Q"
_TAG_STOP = b"S"


class WorkerPoolError(RuntimeError):
    """A worker failed to start, died, or answered a query with an
    error."""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker slot needs to build its service (plain
    picklable data — it crosses the process boundary)."""

    index: int
    workers: int
    detector: str
    config: ProtocolConfig
    shards: int
    max_entries: int
    transition_cap: int
    verdict_cap: int
    spool_dir: Optional[str]


# ----------------------------------------------------------------------
# Slot side
# ----------------------------------------------------------------------
def _build_service(cfg: WorkerConfig) -> DetectionService:
    """The slot's service, its spool slice replayed before it returns."""
    spool = None
    if cfg.spool_dir is not None:
        spool = FlagSpool(
            spool_path(cfg.spool_dir, cfg.index, cfg.workers),
            detector=cfg.detector,
            worker=cfg.index,
            workers=cfg.workers,
        )
    return DetectionService(
        detector=cfg.detector,
        config=cfg.config,
        shards=cfg.shards,
        max_entries=cfg.max_entries,
        transition_cap=cfg.transition_cap,
        verdict_cap=cfg.verdict_cap,
        spool=spool,
        worker=cfg.index,
        workers=cfg.workers,
    )


def _worker_main(conn, cfg: WorkerConfig, front_ends) -> None:
    """One ingest worker process: build the service, then serve the
    pipe until told to stop.

    ``front_ends`` are the pool's ends of this worker's pipe and of
    every pipe opened before it, which a forked worker inherits.  They
    are closed first, so the worker reads EOF (and exits) once the
    front-end is gone, however it died.
    """
    for front_end in front_ends:
        front_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # front-end owns ^C
    try:
        service = _build_service(cfg)
    except Exception as exc:  # noqa: BLE001 - report, then die
        spool_fault = isinstance(exc, (SpoolError, JournalError))
        conn.send_bytes(pickle.dumps(
            ("__error__", f"{type(exc).__name__}: {exc}", spool_fault)
        ))
        return
    conn.send_bytes(pickle.dumps(("ready", cfg.index, service.replayed_flags)))

    try:
        while True:
            try:
                message = conn.recv_bytes()
            except EOFError:
                break  # front-end died; flush durable state and exit
            tag, body = message[:1], message[1:]
            if tag == _TAG_DATA:
                # No back-channel here: rejects and misroutes are only
                # counted (the router already answered for the lines it
                # could not route).
                service.ingest_lines(body.decode("utf-8").split("\n"))
            elif tag == _TAG_QUERY:
                request = pickle.loads(body)
                try:
                    reply = _handle_query(service, request)
                except Exception as exc:  # pragma: no cover - defensive
                    reply = ("__error__", f"{type(exc).__name__}: {exc}")
                conn.send_bytes(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
            elif tag == _TAG_STOP:
                conn.send_bytes(pickle.dumps(("bye", cfg.index)))
                break
    finally:
        service.close()


def _handle_query(service, request):
    """Answer one query against a slot's service.  Never blocks: a
    worker process answers queries on its ingest loop."""
    kind = request[0]
    if kind == "ping":
        return ("pong", service.worker)
    if kind == "stats":
        stats = service.stats()
        stats["worker"] = service.worker
        return stats
    if kind == "verdicts":
        _, after, limit, with_flagged = request
        pairs, newest, info = service.verdicts.raw_events_after(after, limit)
        flagged = service.store.flagged_senders() if with_flagged else []
        return (pairs, newest, info, flagged)
    if kind == "sender":
        return service.store.get(request[1])
    raise ValueError(f"unknown worker query {kind!r}")


def _check_spool_geometry(spool_dir, workers: int) -> None:
    """Refuse to start over another geometry's flag history.

    Spool filenames encode ``(worker, workers)``, so a pool restarted
    with a different worker count would open brand-new empty files and
    silently serve an empty flag history while the real one sits in
    the same directory.  Per-file header validation cannot catch that
    (the old files are never opened) — this directory-level check can.
    """
    for path in sorted(pathlib.Path(spool_dir).glob("flags-*-of-*.jsonl")):
        try:
            found = int(path.stem.rsplit("-of-", 1)[1])
        except (IndexError, ValueError):  # not ours; header check governs
            continue
        if found != workers:
            raise SpoolError(
                f"spool directory {spool_dir} holds flag history for a "
                f"{found}-worker service ({path.name}) but this pool has "
                f"{workers} worker(s); replaying would mis-assign senders "
                f"— restart with --workers {found} or move the spools "
                f"aside"
            )


# ----------------------------------------------------------------------
# Slot transports
# ----------------------------------------------------------------------
class _LocalSlot:
    """Worker 0 of 1, held in-process: every call is a direct call."""

    def __init__(self, cfg: WorkerConfig):
        self.service = _build_service(cfg)
        self.replayed_flags = self.service.replayed_flags

    def query(self, request: tuple):
        return _handle_query(self.service, request)

    def close(self) -> None:
        self.service.close()


class _PipeSlot:
    """One worker process, reached over a duplex pipe."""

    __slots__ = ("index", "process", "conn", "lock", "pending",
                 "pending_bytes", "replayed_flags")

    def __init__(self, context, cfg: WorkerConfig, front_ends: list):
        self.index = cfg.index
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, cfg, [self.conn, *front_ends]),
            name=f"repro-ingest-{cfg.index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.lock = Lock()
        self.pending: List[str] = []
        self.pending_bytes = 0
        self.replayed_flags = 0

    def await_ready(self) -> None:
        if not self.conn.poll(_STARTUP_TIMEOUT):
            raise WorkerPoolError(
                f"worker {self.index} did not come up within "
                f"{_STARTUP_TIMEOUT:g}s"
            )
        reply = pickle.loads(self.conn.recv_bytes())
        if reply[0] == "__error__":
            _, message, spool_fault = reply
            error = SpoolError if spool_fault else WorkerPoolError
            raise error(f"worker {self.index} failed to start: {message}")
        self.replayed_flags = reply[2]

    def ingest_batch(self, lines: List[str]) -> None:
        """Buffer routed lines; ship once the batch is full."""
        size = sum(map(len, lines)) + len(lines)
        with self.lock:
            self.pending.extend(lines)
            self.pending_bytes += size
            if (len(self.pending) >= BATCH_LINES
                    or self.pending_bytes >= BATCH_BYTES):
                self._ship_locked()

    def _ship_locked(self) -> None:
        payload = "\n".join(self.pending).encode("utf-8")
        self.pending.clear()
        self.pending_bytes = 0
        try:
            self.conn.send_bytes(_TAG_DATA + payload)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerPoolError(
                f"worker {self.index} pipe is gone "
                f"({type(exc).__name__}); did the worker die?"
            ) from exc

    def query(self, request: tuple):
        with self.lock:
            if self.pending:
                self._ship_locked()
            try:
                self.conn.send_bytes(
                    _TAG_QUERY + pickle.dumps(request, pickle.HIGHEST_PROTOCOL)
                )
                reply = pickle.loads(self.conn.recv_bytes())
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise WorkerPoolError(
                    f"worker {self.index} died mid-query "
                    f"({type(exc).__name__})"
                ) from exc
        if isinstance(reply, tuple) and reply and reply[0] == "__error__":
            raise WorkerPoolError(
                f"worker {self.index} query {request[0]!r} failed: "
                f"{reply[1]}"
            )
        return reply

    def close(self) -> None:
        """Flush, stop the worker (it fsyncs its spool), reap it."""
        with self.lock:
            try:
                if self.pending:
                    self._ship_locked()
                self.conn.send_bytes(_TAG_STOP)
                if self.conn.poll(_SHUTDOWN_TIMEOUT):
                    self.conn.recv_bytes()  # ("bye", index)
            except (WorkerPoolError, EOFError, BrokenPipeError, OSError):
                pass  # already dead; reap below
            finally:
                self.conn.close()
        self.process.join(_SHUTDOWN_TIMEOUT)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(_SHUTDOWN_TIMEOUT)


# ----------------------------------------------------------------------
# Front-end
# ----------------------------------------------------------------------
class IngestWorkerPool:
    """The service front-end over ``N`` worker slots.

    Ingest surface: ``ingest_lines`` (returning the rejected lines),
    ``ingest_line`` (raising :class:`WireError` instead) and
    ``record_disconnect`` — what the TCP ingest server and the stdin
    pump drive.  Query surface: ``api_stats`` / ``api_verdicts`` /
    ``api_watch`` / ``api_sender`` — what the HTTP API drives.

    With one worker a chunk is folded in before :meth:`ingest_lines`
    returns.  With several, lines buffer per worker and ship in
    batches; queries flush the relevant buffers first, so a query
    issued after ``ingest_lines`` returned always observes its lines.
    :meth:`barrier` flushes everything and round-trips every worker —
    after it returns, all previously ingested lines are folded in.
    """

    def __init__(
        self,
        workers: int,
        detector: str = DEFAULT_DETECTOR,
        config: ProtocolConfig = PAPER_CONFIG,
        shards: int = DEFAULT_SHARDS,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        transition_cap: int = DEFAULT_TRANSITION_CAP,
        verdict_cap: int = DEFAULT_VERDICT_CAP,
        spool_dir: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if spool_dir is not None:
            _check_spool_geometry(spool_dir, workers)
        self.workers = workers
        self.detector_spec = detector
        self.started = time.monotonic()
        self._closed = False
        self._counter_lock = Lock()
        self._decode_errors = 0
        self._disconnects = 0

        configs = [
            WorkerConfig(
                index=index,
                workers=workers,
                detector=detector,
                config=config,
                shards=shards,
                max_entries=max_entries,
                transition_cap=transition_cap,
                verdict_cap=verdict_cap,
                spool_dir=spool_dir,
            )
            for index in range(workers)
        ]
        if workers == 1:
            self._handles = [_LocalSlot(configs[0])]
        else:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._handles = []
            try:
                for cfg in configs:
                    self._handles.append(_PipeSlot(
                        context, cfg, [h.conn for h in self._handles]
                    ))
                for handle in self._handles:
                    handle.await_ready()
            except BaseException:
                for handle in self._handles:
                    handle.close()
                raise
        self.replayed_flags = sum(h.replayed_flags for h in self._handles)

    # ------------------------------------------------------------------
    # Ingest surface
    # ------------------------------------------------------------------
    def ingest_lines(self, lines: WireLines) -> List[Tuple[int, str]]:
        """Fold a chunk of wire lines in (one worker) or route each to
        its owning worker's batch (several).

        Returns ``(index, message)`` per rejected line, in order, with
        the contract of :meth:`DetectionService.ingest_lines`.  The
        multi-worker router scans each sender out without a JSON parse
        and only falls back to a strict decode when the scan is
        undecided, so well-formed traffic never pays for a front-end
        parse; it can only reject lines it cannot route, and the
        owning worker counts (without reporting) any other reject.
        """
        if self.workers == 1:
            return self._handles[0].service.ingest_lines(lines)
        rejects: List[Tuple[int, str]] = []
        routed: List[List[str]] = [[] for _ in self._handles]
        for index, line in enumerate(lines):
            if not line:
                if line is None:
                    line = NOT_UTF8
                if line.__class__ is RefusedLine:
                    rejects.append((index, line.message))
                continue
            line = line.strip()
            if not line:
                continue
            sender = sender_of_line(line)
            if sender is None:
                # Undecided: either malformed (reject with a reason) or
                # exotically escaped (route by the decoded sender; the
                # worker re-decodes).
                try:
                    sender, _ = decode_record(line)
                except WireError as exc:
                    rejects.append((index, str(exc)))
                    continue
            routed[worker_of(sender, self.workers)].append(line)
        for handle, batch in zip(self._handles, routed):
            if batch:
                handle.ingest_batch(batch)
        if rejects:
            with self._counter_lock:
                self._decode_errors += len(rejects)
        return rejects

    def ingest_line(self, line: str) -> None:
        """:meth:`ingest_lines` for one line; raises :class:`WireError`
        if it is rejected."""
        rejects = self.ingest_lines((line,))
        if rejects:
            raise WireError(rejects[0][1])

    def record_disconnect(self) -> None:
        with self._counter_lock:
            self._disconnects += 1

    def barrier(self) -> None:
        """Flush, then round-trip every worker: when this returns,
        every line previously accepted by :meth:`ingest_lines` has been
        folded into its worker's detector state."""
        for handle in self._handles:
            handle.query(("ping",))

    # ------------------------------------------------------------------
    # Cursor codec: one dot-joined token of per-worker sequence ids
    # ------------------------------------------------------------------
    def parse_cursor(self, after: Optional[str]) -> List[int]:
        """``"12.7.9.4"`` → per-worker newest-seen sequence numbers."""
        if after is None or after in ("", "0"):
            return [0] * self.workers
        parts = str(after).split(".")
        if len(parts) != self.workers:
            raise ValueError(
                f"cursor 'after' must have {self.workers} dot-joined "
                f"component(s) for a {self.workers}-worker service "
                f"(or be 0), got {after!r}"
            )
        try:
            cursors = [int(part) for part in parts]
        except ValueError:
            raise ValueError(
                f"cursor 'after' components must be integers, "
                f"got {after!r}"
            ) from None
        if any(cursor < 0 for cursor in cursors):
            raise ValueError("cursor 'after' components must be >= 0")
        return cursors

    # ------------------------------------------------------------------
    # Scatter-gather queries
    # ------------------------------------------------------------------
    def api_stats(self) -> Dict[str, object]:
        per_worker = [h.query(("stats",)) for h in self._handles]
        now = time.monotonic()
        uptime = max(now - self.started, 1e-9)
        observations = sum(w["observations"] for w in per_worker)
        with self._counter_lock:
            decode_errors = self._decode_errors
            disconnects = self._disconnects
        return {
            "detector": self.detector_spec,
            "workers": self.workers,
            "uptime_s": round(uptime, 3),
            "observations": observations,
            "decode_errors": decode_errors
            + sum(w["decode_errors"] for w in per_worker),
            "disconnects": disconnects,
            "misroutes": sum(w["misroutes"] for w in per_worker),
            "replayed_flags": sum(w["replayed_flags"] for w in per_worker),
            "obs_per_sec": round(observations / uptime, 1),
            "recent_obs_per_sec": round(
                sum(w["recent_obs_per_sec"] for w in per_worker), 1
            ),
            "store": {
                "shards": sum(w["store"]["shards"] for w in per_worker),
                "max_entries_per_shard":
                    per_worker[0]["store"]["max_entries_per_shard"],
                "entries": sum(w["store"]["entries"] for w in per_worker),
                "observations":
                    sum(w["store"]["observations"] for w in per_worker),
                "evictions":
                    sum(w["store"]["evictions"] for w in per_worker),
                "flagged_evictions":
                    sum(w["store"]["flagged_evictions"] for w in per_worker),
                "currently_flagged":
                    sum(w["store"]["currently_flagged"] for w in per_worker),
            },
            "verdicts": {
                "flags": sum(w["verdicts"]["flags"] for w in per_worker),
                "retained":
                    sum(w["verdicts"]["retained"] for w in per_worker),
                "dropped": sum(w["verdicts"]["dropped"] for w in per_worker),
            },
            "per_worker": per_worker,
        }

    def api_verdicts(
        self, after: Optional[str] = None, limit: Optional[int] = None,
    ) -> Dict[str, object]:
        """Merged ``/verdicts``: scatter, merge, honor ``limit`` across
        the merge, plus every worker's currently-flagged senders."""
        cursors = self.parse_cursor(after)
        results = self._scatter_verdicts(cursors, limit, with_flagged=True)
        payload = self._merge_verdicts(cursors, results, limit)
        payload["flagged"] = sorted(
            sender for *_, flagged in results for sender in flagged
        )
        return payload

    def api_watch(
        self,
        after: Optional[str] = None,
        timeout: float = 30.0,
        limit: Optional[int] = None,
    ) -> Dict[str, object]:
        """Long-poll ``/verdicts`` (without ``flagged``): answer once
        events after the cursor exist or the timeout passes.

        One in-process worker parks in its verdict log's ``wait_for``
        until the publish wakes it, then scatters once; worker
        processes are polled every :data:`_WATCH_POLL_S` seconds
        instead, since a worker blocked in a long-poll could not
        ingest.
        """
        cursors = self.parse_cursor(after)
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            if self.workers == 1:
                self._handles[0].service.verdicts.wait_for(
                    cursors[0],
                    timeout=max(deadline - time.monotonic(), 0.0),
                    limit=1,
                )
            results = self._scatter_verdicts(cursors, limit, with_flagged=False)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or any(pairs for pairs, *_ in results):
                return self._merge_verdicts(cursors, results, limit)
            time.sleep(min(_WATCH_POLL_S, remaining))

    def _scatter_verdicts(self, cursors, limit, with_flagged: bool):
        return [
            handle.query(("verdicts", cursor, limit, with_flagged))
            for handle, cursor in zip(self._handles, cursors)
        ]

    def _merge_verdicts(self, cursors, results, limit) -> Dict[str, object]:
        """Merge per-worker event lists into one page and advance the
        cursor.

        Each worker's list is consumed in ``seq`` order; the merge
        across workers is by flag wall clock.  Wall clocks are not
        monotone in ``seq`` (spooled events replay with the walls of
        an earlier boot, and in-process ingest threads stamp ``wall``
        before ``publish`` assigns ``seq``), so walls order *between*
        workers only.  A page is therefore a prefix of every worker's
        list, and resuming from the returned cursor loses nothing and
        duplicates nothing.
        """
        streams = [
            [(event.wall, index, seq, event) for seq, event in pairs]
            for index, (pairs, _, _, _) in enumerate(results)
        ]
        merged = itertools.islice(
            heapq.merge(*streams, key=lambda item: item[0]), limit
        )

        consumed: Dict[int, int] = {}
        events = []
        for _, index, seq, event in merged:
            consumed[index] = seq
            events.append({"worker": index, "seq": seq, **event_payload(event)})

        next_ids = list(cursors)
        gap = False
        dropped = 0
        per_worker = []
        for index, (pairs, newest, info, _) in enumerate(results):
            if index in consumed:
                if consumed[index] == pairs[-1][0]:
                    next_ids[index] = newest  # consumed all returned
                else:
                    next_ids[index] = consumed[index]
            elif not pairs:
                # Nothing retained after the cursor: advance past the
                # newest id (anything in between was dropped by the
                # cap and can never be observed — the gap flag says so).
                next_ids[index] = newest
            # else: worker returned events but the merge cut them all
            # (limit): leave the cursor put, they come back next poll.
            worker_gap = (
                info["oldest"] is not None
                and cursors[index] + 1 < info["oldest"]
            )
            gap = gap or worker_gap
            dropped += info["dropped"]
            per_worker.append({
                "worker": index,
                "newest": newest,
                "oldest": info["oldest"],
                "dropped": info["dropped"],
                "gap": worker_gap,
            })
        return {
            "events": events,
            "next": ".".join(str(cursor) for cursor in next_ids),
            "dropped": dropped,
            "gap": gap,
            "workers": self.workers,
            "per_worker": per_worker,
        }

    def api_sender(self, sender: str) -> Optional[Dict[str, object]]:
        index = worker_of(sender, self.workers)
        snapshot = self._handles[index].query(("sender", sender))
        if snapshot is not None:
            snapshot["worker"] = index
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush buffers, stop every worker, close every spool."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()

    def __enter__(self) -> "IngestWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "BATCH_BYTES",
    "BATCH_LINES",
    "IngestWorkerPool",
    "WorkerConfig",
    "WorkerPoolError",
]
