"""Online detection as a long-running service.

The paper evaluates its diagnosis scheme post-hoc over completed
simulation runs, but the Section 4.3 window test is an inherently
*online* per-sender decision procedure — Cao et al. (PAPERS.md) argue
detection must happen in real time on the live observation stream.
This package hosts any registered :mod:`repro.detect` family that way:

* :mod:`~repro.service.codec` — versioned JSONL wire format (one
  observation per line, strict decoding), plus the parse-free
  ``sender_of_line`` scan the multi-worker router runs per line;
* :mod:`~repro.service.store` — N-sharded per-sender detector state
  with LRU eviction under a per-shard entry budget; evictions are
  counted and surfaced, so bounded memory is measured, not hoped for;
* :mod:`~repro.service.verdicts` — capped first-flag log feeding the
  long-poll ``/watch`` endpoint and the latency benchmark, reporting
  its retention window (``oldest``/``dropped``) so pollers detect
  gaps;
* :mod:`~repro.service.spool` — append-only crc32-checksummed
  first-flag spool; a restarted service replays it before accepting
  traffic, so the served flag history survives a SIGKILL;
* :mod:`~repro.service.ingest` — :class:`DetectionService`, one
  worker slot's engine, plus stdin and TCP ingest sources;
* :mod:`~repro.service.workers` — :class:`IngestWorkerPool`, the one
  front-end: N worker slots over disjoint crc32 sender ranges (one
  slot is held in-process, more are worker processes), with
  scatter-gather queries and a merged ``/verdicts`` cursor;
* :mod:`~repro.service.server` — stdlib HTTP query API
  (``/verdicts``, ``/senders/<id>``, ``/stats``, ``/watch``) over
  the pool;
* :mod:`~repro.service.adapter` — records a simulation's
  judged-observation stream and replays it through the service;
  served verdicts are bit-identical to in-sim ones;
* :mod:`~repro.service.loadgen` — Zipf load generator and the
  sustained-throughput benchmark behind ``python -m repro serve
  --bench`` and ``benchmarks/BENCH_service.json`` (single- and
  multi-worker modes).

See ``docs/SERVICE.md`` for the architecture, the API reference, and
the bounded-memory and bench semantics.
"""

from repro.service.adapter import (
    RecordingDetector,
    StreamRecord,
    record_scenario_stream,
    recorded_verdicts,
    replay_stream,
)
from repro.service.codec import (
    WIRE_VERSION,
    WireError,
    decode_lines,
    decode_record,
    encode_record,
    encode_stream,
    sender_of_line,
)
from repro.service.ingest import DetectionService, TcpIngestServer, ingest_stream
from repro.service.loadgen import (
    BENCH_SCALES,
    BenchConfig,
    BenchResult,
    generate_stream,
    p99_latency,
    run_bench,
)
from repro.service.server import ServiceHTTPServer
from repro.service.spool import FlagSpool, SpoolError, read_spool_events, spool_path
from repro.service.store import (
    FlagEvent,
    ShardedDetectorStore,
    shard_of,
    worker_of,
)
from repro.service.verdicts import VerdictLog
from repro.service.workers import IngestWorkerPool, WorkerPoolError

__all__ = [
    "BENCH_SCALES",
    "WIRE_VERSION",
    "BenchConfig",
    "BenchResult",
    "DetectionService",
    "FlagEvent",
    "FlagSpool",
    "IngestWorkerPool",
    "RecordingDetector",
    "ServiceHTTPServer",
    "ShardedDetectorStore",
    "SpoolError",
    "StreamRecord",
    "TcpIngestServer",
    "VerdictLog",
    "WireError",
    "WorkerPoolError",
    "decode_lines",
    "decode_record",
    "encode_record",
    "encode_stream",
    "generate_stream",
    "ingest_stream",
    "p99_latency",
    "read_spool_events",
    "record_scenario_stream",
    "recorded_verdicts",
    "replay_stream",
    "run_bench",
    "sender_of_line",
    "shard_of",
    "spool_path",
    "worker_of",
]
