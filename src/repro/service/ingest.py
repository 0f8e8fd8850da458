"""Observation ingest: the per-slot engine and the ingest sources.

:class:`DetectionService` is one worker slot's engine — it ties codec,
store, verdict log and spool together and keeps the slot's counters.
An :class:`~repro.service.workers.IngestWorkerPool` hosts one per
worker slot and is the service's only front-end.

Wire lines are decoded and folded in one place,
:meth:`DetectionService.ingest_lines`, a chunk per call: it returns
``(index, message)`` for each rejected line and updates the counters
once per chunk.  Every wire source goes through it:

* **TCP** — :class:`TcpIngestServer`, a threaded socket server feeding
  a pool.  Each handler reads up to :data:`READ_BYTES` at a time
  (:func:`read_chunks` carries a partial last line over to the next
  read), makes one ``ingest_lines`` call per read and writes one JSON
  error line back per rejected line, in order (accepted lines are
  silent, so a well-formed stream never blocks on responses);
* **stdin** — :func:`ingest_stream` pumps a binary stream the same way
  (``python -m repro serve --stdin < trace.jsonl``), or an iterable of
  text lines a chunk at a time;
* **worker processes** — each batch a multi-worker pool ships down a
  pipe is one ``ingest_lines`` call in the worker.

:meth:`DetectionService.ingest_observation` folds an already-decoded
``(sender, Observation)`` (the in-process bench and the trace-replay
adapter).

Malformed lines never kill an ingest source: they are counted
(``decode_errors`` in ``/stats``), reported to the offender where a
back-channel exists (TCP), and skipped; a line longer than
:data:`MAX_LINE_BYTES` is one of them, and is never buffered whole.  A
peer that dies mid-line is not an error either: the reset is counted
(``disconnects``) and the handler closes quietly.

Ingest runs on many TCP handler threads at once, so every counter the
service owns (``_ingested``, ``decode_errors``, ``misroutes``,
``disconnects``, the rate-sample deque) is guarded by one mutex —
unlocked ``+=`` from concurrent threads loses updates, which silently
skews ``decode_errors`` and ``recent_obs_per_sec`` (regression-tested
by a many-threads hammer in ``tests/test_service.py``).

With a :class:`~repro.service.spool.FlagSpool` attached, every
published first-flag event is also persisted, and the spool's replayed
history is published into the verdict log *at construction* — before
any ingest source is wired up — so a restarted service serves its
pre-crash ``/verdicts`` history byte-identically.
"""

from __future__ import annotations

import itertools
import json
import socketserver
import time
from collections import deque
from threading import Lock
from typing import (
    Deque, Dict, IO, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from repro.core.params import PAPER_CONFIG, ProtocolConfig
from repro.detect import DEFAULT_DETECTOR, detector_factory
from repro.detect.base import Observation
from repro.service.codec import WireError, decode_record
from repro.service.spool import FlagSpool
from repro.service.store import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_SHARDS,
    DEFAULT_TRANSITION_CAP,
    ShardedDetectorStore,
    worker_of,
)
from repro.service.verdicts import DEFAULT_VERDICT_CAP, VerdictLog

#: Observations between throughput snapshots (one clock read each).
_RATE_SAMPLE_EVERY = 4096
#: Bytes asked of one ``read1`` call by the chunked readers.
READ_BYTES = 64 * 1024
#: Longest wire line the chunked readers accept, newline excluded (a
#: valid record is under 400 bytes).  The bytes of a longer line are
#: dropped as they arrive, so a peer that never sends a newline costs
#: at most this plus one read.  Not below :data:`READ_BYTES`: a line
#: inside a single read is then never too long.
MAX_LINE_BYTES = 64 * 1024
#: Lines per ingest call when pumping an iterable of text lines.
STREAM_CHUNK_LINES = 1024


class RefusedLine:
    """A wire line the reader refused before decoding, in its place in
    a chunk; :meth:`DetectionService.ingest_lines` rejects it with
    ``message``.  Falsy, like a blank keep-alive line, so the fold's
    per-line test for well-formed text stays one truth test."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RefusedLine({self.message!r})"


NOT_UTF8 = RefusedLine("line is not valid UTF-8")
TOO_LONG = RefusedLine(f"line is longer than {MAX_LINE_BYTES} bytes")
#: A chunk of wire lines as the readers hand them to the fold.
WireLines = Sequence[Union[str, RefusedLine, None]]


class DetectionService:
    """One hosted detector family serving many senders.

    Parameters
    ----------
    detector:
        Detector spec string (see :mod:`repro.detect`); any registered
        family works — the service never looks inside the detector.
    config:
        Protocol parameters supplying spec defaults (W/THRESH for
        ``window``, CWmin scaling for the others) — the same defaults
        the in-sim receiver pipeline uses, so served verdicts match
        simulated ones.
    shards / max_entries / transition_cap / verdict_cap:
        See :class:`~repro.service.store.ShardedDetectorStore` and
        :class:`~repro.service.verdicts.VerdictLog`.
    spool:
        Optional :class:`~repro.service.spool.FlagSpool`.  Its
        replayed events are published into the verdict log here, in
        spool order, before the constructor returns; every new first
        flag is appended to it.
    worker / workers:
        This engine's slot in the worker pool: wire lines whose sender
        :func:`~repro.service.store.worker_of` places in another slot
        are counted as ``misroutes`` and never folded.
    """

    def __init__(
        self,
        detector: str = DEFAULT_DETECTOR,
        config: ProtocolConfig = PAPER_CONFIG,
        shards: int = DEFAULT_SHARDS,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        transition_cap: int = DEFAULT_TRANSITION_CAP,
        verdict_cap: int = DEFAULT_VERDICT_CAP,
        spool: Optional[FlagSpool] = None,
        worker: int = 0,
        workers: int = 1,
    ):
        self.detector_spec = detector
        self.worker = worker
        self.workers = workers
        self.store = ShardedDetectorStore(
            detector_factory(detector, config),
            shards=shards,
            max_entries=max_entries,
            transition_cap=transition_cap,
        )
        self.verdicts = VerdictLog(cap=verdict_cap)
        self.spool = spool
        self.replayed_flags = 0
        if spool is not None:
            for event in spool.replayed:
                self.verdicts.publish(event)
            self.replayed_flags = len(spool.replayed)
        self.started = time.monotonic()
        self.decode_errors = 0
        self.disconnects = 0
        self.misroutes = 0
        self._ingested = 0
        #: Guards every counter above plus the rate-sample deque.
        self._counter_lock = Lock()
        #: ``(wall, total)`` snapshots for the recent-rate estimate.
        self._rate_samples: Deque[Tuple[float, int]] = deque(maxlen=64)
        self._rate_samples.append((self.started, 0))

    # ------------------------------------------------------------------
    # Ingest paths
    # ------------------------------------------------------------------
    def ingest_lines(self, lines: WireLines) -> List[Tuple[int, str]]:
        """Decode and fold a chunk of wire lines, in order.

        Blank lines are keep-alives; a :class:`RefusedLine` stands for
        a line the reader refused (not UTF-8, too long), and ``None``
        is accepted for :data:`NOT_UTF8`.  Returns ``(index, message)``
        for every rejected line, in order; a rejected line is counted in
        ``decode_errors`` and skipped, and a line whose sender another
        worker owns is counted in ``misroutes`` and skipped.  Counters
        are updated once per call.
        """
        rejects: List[Tuple[int, str]] = []
        folded = misroutes = 0
        observe = self.store.observe
        publish = self.verdicts.publish
        spool = self.spool
        worker, workers = self.worker, self.workers
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
            try:
                sender, observation = decode_record(line)
            except WireError as exc:
                rejects.append((index, str(exc)))
                continue
            if workers > 1 and worker_of(sender, workers) != worker:
                # Defensive: the router only sends a worker the senders
                # it owns; folding a stranger would split its state.
                misroutes += 1
                continue
            _, event = observe(sender, observation)
            if event is not None:
                publish(event)
                if spool is not None:
                    spool.append(event)
            folded += 1
        self._count(folded, len(rejects), misroutes)
        return rejects

    def ingest_line(self, line: str) -> None:
        """Decode and fold one wire line (raises :class:`WireError`)."""
        rejects = self.ingest_lines((line,))
        if rejects:
            raise WireError(rejects[0][1])

    def ingest_observation(self, sender: str, observation: Observation) -> bool:
        """Fold one decoded observation in; returns the verdict."""
        verdict, event = self.store.observe(sender, observation)
        if event is not None:
            self.verdicts.publish(event)
            if self.spool is not None:
                self.spool.append(event)
        self._count(1)
        return verdict

    def _count(self, folded: int, rejected: int = 0, misroutes: int = 0):
        with self._counter_lock:
            before = self._ingested
            self._ingested = total = before + folded
            self.decode_errors += rejected
            self.misroutes += misroutes
            if total // _RATE_SAMPLE_EVERY != before // _RATE_SAMPLE_EVERY:
                self._rate_samples.append((time.monotonic(), total))

    def record_disconnect(self) -> None:
        """Count a peer that vanished mid-stream (TCP reset)."""
        with self._counter_lock:
            self.disconnects += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The ``/stats`` payload: rates, occupancy, counters."""
        now = time.monotonic()
        store = self.store.stats()
        total = store["observations"]
        uptime = max(now - self.started, 1e-9)
        with self._counter_lock:
            decode_errors = self.decode_errors
            disconnects = self.disconnects
            misroutes = self.misroutes
            ingested = self._ingested
            oldest_wall, oldest_total = self._rate_samples[0]
        window = max(now - oldest_wall, 1e-9)
        return {
            "detector": self.detector_spec,
            "uptime_s": round(uptime, 3),
            "observations": total,
            "decode_errors": decode_errors,
            "disconnects": disconnects,
            "misroutes": misroutes,
            "replayed_flags": self.replayed_flags,
            "obs_per_sec": round(total / uptime, 1),
            "recent_obs_per_sec": round(
                (ingested - oldest_total) / window, 1
            ),
            "store": store,
            "verdicts": self.verdicts.stats(),
        }

    def close(self) -> None:
        """Release durable resources (the spool, when attached)."""
        if self.spool is not None:
            self.spool.close()


# ----------------------------------------------------------------------
# Chunked reads (TCP and stdin)
# ----------------------------------------------------------------------
def read_chunks(read1) -> Iterator[List[Union[str, RefusedLine]]]:
    """The complete wire lines of each ``read1(READ_BYTES)`` call, as
    one list.

    An unterminated line is carried over to the next read, and yielded
    on its own at EOF.  Lines are split on ``\\n`` only.  A line that
    is not valid UTF-8 comes out as :data:`NOT_UTF8`, and one longer
    than :data:`MAX_LINE_BYTES` as :data:`TOO_LONG`: its bytes are
    dropped as they arrive, so the carried bytes never exceed
    ``MAX_LINE_BYTES`` plus one read.
    """
    partial: List[bytes] = []
    # Bytes of the carried line so far, dropped ones included.
    carried = 0
    while True:
        data = read1(READ_BYTES)
        if not data:
            break
        cut = data.rfind(b"\n")
        if cut < 0:
            carried += len(data)
            if carried > MAX_LINE_BYTES:
                partial = []
            else:
                partial.append(data)
            continue
        first = data.find(b"\n") if carried else 0
        if carried + first > MAX_LINE_BYTES:
            lines: List[Union[str, RefusedLine]] = [TOO_LONG]
            if first < cut:
                lines += _split_lines(data[first + 1:cut])
        else:
            block = data[:cut]
            if partial:
                partial.append(block)
                block = b"".join(partial)
            lines = _split_lines(block)
        carried = len(data) - cut - 1
        partial = [data[cut + 1:]] if carried else []
        yield lines
    if carried > MAX_LINE_BYTES:
        yield [TOO_LONG]
    elif carried:
        yield _split_lines(b"".join(partial))


def _split_lines(block: bytes) -> List[Union[str, RefusedLine]]:
    try:
        return block.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return [_utf8_or_refused(raw) for raw in block.split(b"\n")]


def _utf8_or_refused(raw: bytes) -> Union[str, RefusedLine]:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return NOT_UTF8


# ----------------------------------------------------------------------
# Stream (stdin) ingest
# ----------------------------------------------------------------------
def ingest_stream(
    service,
    lines,
    errors: Optional[IO[str]] = None,
    max_reported: int = 10,
) -> Tuple[int, int]:
    """Pump wire lines into a pool until the stream ends.

    ``lines`` is a binary stream (read chunk by chunk with
    :func:`read_chunks`, like a TCP connection — ``sys.stdin.buffer``)
    or an iterable of text lines (ingested :data:`STREAM_CHUNK_LINES`
    at a time).  Returns ``(ingested, rejected)``.  Blank lines are
    keep-alives.  The first ``max_reported`` rejects are echoed to
    ``errors`` (e.g. stderr) with their line number; the rest are only
    counted.
    """
    if hasattr(lines, "read1"):
        chunks: Iterable[WireLines] = read_chunks(lines.read1)
    else:
        iterator = iter(lines)
        chunks = iter(
            lambda: list(itertools.islice(iterator, STREAM_CHUNK_LINES)), []
        )
    ingested = rejected = lineno = 0
    for chunk in chunks:
        rejects = service.ingest_lines(chunk)
        ingested += sum(
            1 for line in chunk if not isinstance(line, str) or line.strip()
        ) - len(rejects)
        for index, message in rejects:
            rejected += 1
            if errors is not None and rejected <= max_reported:
                print(f"ingest: line {lineno + index + 1} rejected: "
                      f"{message}", file=errors)
        lineno += len(chunk)
    if errors is not None and rejected > max_reported:
        print(f"ingest: ... and {rejected - max_reported} more rejected "
              f"line(s)", file=errors)
    return ingested, rejected


# ----------------------------------------------------------------------
# TCP ingest
# ----------------------------------------------------------------------
class _TcpIngestHandler(socketserver.StreamRequestHandler):
    # Reject lines are small writes a client may be waiting on.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        try:
            for lines in read_chunks(self.rfile.read1):
                rejects = service.ingest_lines(lines)
                if rejects:
                    self._reject(rejects)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            # A peer that dies mid-line (crash, network partition,
            # impatient client) must not dump a traceback per
            # connection: count it and close quietly.  Everything
            # ingested before the reset is already folded in.
            service.record_disconnect()

    def _reject(self, rejects: List[Tuple[int, str]]) -> None:
        """One JSON error line per rejected line, in order."""
        reply = "".join(
            json.dumps({"error": message}) + "\n" for _, message in rejects
        )
        try:
            self.wfile.write(reply.encode("utf-8"))
        except OSError:  # peer already gone; the count still happened
            pass


class TcpIngestServer(socketserver.ThreadingTCPServer):
    """Line-oriented TCP ingest on ``host:port`` (port 0 = ephemeral).

    Use like ``http.server``: construct, then ``serve_forever()`` on a
    thread, ``shutdown()`` to stop.  The bound port is
    ``server.server_address[1]``.  ``service`` is the
    :class:`~repro.service.workers.IngestWorkerPool` the lines feed.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__((host, port), _TcpIngestHandler)
        self.service = service
