"""Zipf load generator and sustained-throughput benchmark.

Real sender populations are heavy-tailed: a few chatty stations
dominate while a long tail of senders appears a handful of times —
exactly the regime that stresses an LRU-bounded state store.  The
generator draws senders from a Zipf(s) distribution over a large
population, marks a configurable fraction of the population as
cheaters (every observation of a cheater carries a ``PM``-scaled
backoff deficit; honest observations carry none), and additionally
touches *every* sender in the population at least once, so a bench
configured with ``senders >= 100_000`` is guaranteed that many
distinct keys — forcing evictions under the per-shard budget.

:func:`run_bench` pre-builds the whole stream (generation cost must
not pollute the measurement), then times nothing but the service's
ingest hot path, and reports:

* sustained observations/sec over the whole stream;
* p99 first-sight-to-flag wall latency across flagged senders (from
  the verdict log's recorded clock pairs);
* eviction/occupancy/flag counters, plus the correctness invariants
  the bench asserts (no honest sender ever flagged; cheaters flag).

The trajectory file ``benchmarks/BENCH_service.json`` follows the
``BENCH_engine.json`` format; ``benchmarks/test_bench_service.py``
gates the obs/sec floor in CI.
"""

from __future__ import annotations

import math
import os
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detect.base import Observation
from repro.service.codec import encode_record
from repro.service.ingest import DetectionService
from repro.service.workers import IngestWorkerPool

#: Distinct ``b_exp`` values cycled through the stream (pre-built
#: observations keep the generated stream's memory footprint flat).
_EXPECTED_BACKOFFS = (8.0, 12.0, 16.0, 20.0, 24.0, 31.0)


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one load-generator run.

    Attributes
    ----------
    senders:
        Population size; every sender appears at least once, so this
        is also the guaranteed distinct-sender floor.
    observations:
        Total observations in the stream (must be >= ``senders``); the
        surplus beyond one-per-sender is Zipf-distributed traffic.
    cheater_fraction:
        Fraction of the population misbehaving (spread uniformly over
        the Zipf rank order, so cheaters exist among both hot and
        cold senders).
    pm:
        Cheater misbehavior: each cheating observation's ``b_act`` is
        ``(1 - pm) * b_exp`` (the paper's PM percentage, as a
        fraction).
    zipf_s:
        Zipf exponent of the traffic distribution.
    shards / max_entries:
        Service store geometry under test.
    detector:
        Detector spec served.
    seed:
        Generator seed; the stream is deterministic given the config.
    workers:
        Ingest worker processes.  1 (the default) benches the
        in-process :class:`DetectionService` hot path; > 1 benches an
        :class:`~repro.service.workers.IngestWorkerPool` end to end —
        pre-encoded wire lines routed by the front-end, decoded and
        folded in by the workers — with each worker's per-shard entry
        budget scaled to ``max_entries // workers`` so the aggregate
        LRU budget matches the single-process geometry.
    """

    senders: int = 120_000
    observations: int = 360_000
    cheater_fraction: float = 0.02
    pm: float = 0.6
    zipf_s: float = 1.1
    shards: int = 8
    max_entries: int = 10_000
    detector: str = "window"
    seed: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        if self.senders < 1:
            raise ValueError(f"senders must be >= 1, got {self.senders}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.observations < self.senders:
            raise ValueError(
                f"observations ({self.observations}) must be >= senders "
                f"({self.senders}): every sender appears at least once"
            )
        if not 0.0 <= self.cheater_fraction <= 1.0:
            raise ValueError(
                f"cheater_fraction must be in [0, 1], "
                f"got {self.cheater_fraction}"
            )
        if not 0.0 < self.pm <= 1.0:
            raise ValueError(f"pm must be in (0, 1], got {self.pm}")


@dataclass
class BenchResult:
    """What one bench run measured."""

    config: BenchConfig
    wall_s: float
    observations: int
    distinct_senders: int
    obs_per_sec: float
    p99_flag_latency_s: Optional[float]
    flagged: int
    cheaters: int
    evictions: int
    stats: Dict[str, object] = field(default_factory=dict)

    def to_record(self) -> Dict[str, object]:
        """Trajectory-file payload (see ``benchmarks/README.md``)."""
        return {
            "runs": 1,
            "workers": self.config.workers,
            "cores": available_cores(),
            "senders": self.config.senders,
            "observations": self.observations,
            "distinct_senders": self.distinct_senders,
            "shards": self.config.shards,
            "max_entries_per_shard": self.config.max_entries,
            "detector": self.config.detector,
            "cheaters": self.cheaters,
            "flagged": self.flagged,
            "evictions": self.evictions,
            "wall_s": round(self.wall_s, 3),
            "obs_per_sec": round(self.obs_per_sec),
            "p99_flag_latency_ms": (
                None if self.p99_flag_latency_s is None
                else round(self.p99_flag_latency_s * 1e3, 3)
            ),
        }


def available_cores() -> int:
    """CPU cores this process may actually run on.

    Recorded in every bench record: a multi-worker obs/sec number is
    meaningless without knowing whether the host could run the
    workers in parallel at all (a 4-worker pool on a 1-core container
    measures routing overhead, not speedup).
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def p99_latency(sorted_latencies: Sequence[float]) -> Optional[float]:
    """Nearest-rank p99 of an already-sorted latency sample.

    Nearest-rank: the smallest value with at least 99 % of the sample
    at or below it — ``ceil(0.99 * n)`` in 1-based rank.  The naive
    ``int(0.99 * n) - 1`` index is wrong for small samples (it picks
    the *minimum* of a 2-element sample); with nearest-rank, any
    sample of fewer than 100 values answers its maximum, which is the
    honest p99 of a tiny sample.
    """
    if not sorted_latencies:
        return None
    rank = math.ceil(0.99 * len(sorted_latencies))
    return sorted_latencies[rank - 1]


def zipf_cumulative(n: int, s: float) -> List[float]:
    """Cumulative (unnormalised) Zipf(s) weights for ranks 1..n."""
    total = 0.0
    out = []
    for rank in range(1, n + 1):
        total += rank ** -s
        out.append(total)
    return out


def generate_stream(
    config: BenchConfig,
) -> Tuple[List[Tuple[str, Observation]], frozenset]:
    """Build the whole observation stream up front.

    Returns ``(stream, cheater_keys)``.  The stream is Zipf traffic
    plus one guaranteed observation per population member, shuffled
    deterministically.  Observation objects are drawn from a small
    pre-built pool (honest and cheating variants per ``b_exp``), so a
    million-entry stream costs list/tuple overhead, not a million
    dataclass instances.
    """
    rng = random.Random(config.seed)
    senders = [str(i) for i in range(config.senders)]
    cheater_every = (
        int(round(1.0 / config.cheater_fraction))
        if config.cheater_fraction > 0 else 0
    )
    is_cheater = [
        cheater_every > 0 and i % cheater_every == 0
        for i in range(config.senders)
    ]
    honest_pool = [
        Observation(b_exp=b, b_act=b) for b in _EXPECTED_BACKOFFS
    ]
    cheat_pool = [
        Observation(b_exp=b, b_act=round((1.0 - config.pm) * b, 3))
        for b in _EXPECTED_BACKOFFS
    ]
    pool_len = len(_EXPECTED_BACKOFFS)

    cumulative = zipf_cumulative(config.senders, config.zipf_s)
    total_weight = cumulative[-1]
    stream: List[Tuple[str, Observation]] = []
    zipf_draws = config.observations - config.senders
    for i in range(zipf_draws):
        rank = bisect_left(cumulative, rng.random() * total_weight)
        pool = cheat_pool if is_cheater[rank] else honest_pool
        stream.append((senders[rank], pool[i % pool_len]))
    for rank in range(config.senders):
        pool = cheat_pool if is_cheater[rank] else honest_pool
        stream.append((senders[rank], pool[rank % pool_len]))
    rng.shuffle(stream)
    cheaters = frozenset(
        senders[i] for i in range(config.senders) if is_cheater[i]
    )
    return stream, cheaters


def run_bench(config: BenchConfig) -> BenchResult:
    """Generate a stream, time the ingest hot path, check invariants.

    ``workers == 1`` times the in-process hot path; ``workers > 1``
    times an :class:`~repro.service.workers.IngestWorkerPool` fed
    pre-encoded wire lines (encoding happens before the clock starts;
    the measured span is route + ship + worker decode + fold, closed
    by a :meth:`~repro.service.workers.IngestWorkerPool.barrier`).

    Raises ``AssertionError`` if the service misjudges: a flagged
    sender that is not a cheater (honest observations carry zero
    deficit, so the window detector must never flag one), or zero
    flagged senders despite cheaters in the stream.
    """
    stream, cheaters = generate_stream(config)
    distinct = len({sender for sender, _ in stream})
    if config.workers > 1:
        return _run_bench_pool(config, stream, cheaters, distinct)

    service = DetectionService(
        detector=config.detector,
        shards=config.shards,
        max_entries=config.max_entries,
    )

    start = time.perf_counter()
    ingest = service.ingest_observation
    for sender, observation in stream:
        ingest(sender, observation)
    wall = time.perf_counter() - start

    events, _, _ = service.verdicts.events_after(0)
    flagged_senders = {event["sender"] for event in events}
    _assert_judgement(flagged_senders, cheaters)

    latencies = sorted(service.verdicts.latencies())
    p99 = p99_latency(latencies)
    stats = service.stats()
    return BenchResult(
        config=config,
        wall_s=wall,
        observations=len(stream),
        distinct_senders=distinct,
        obs_per_sec=len(stream) / wall,
        p99_flag_latency_s=p99,
        flagged=len(flagged_senders),
        cheaters=len(cheaters),
        evictions=stats["store"]["evictions"],
        stats=stats,
    )


def _run_bench_pool(
    config: BenchConfig,
    stream: List[Tuple[str, Observation]],
    cheaters: frozenset,
    distinct: int,
) -> BenchResult:
    lines = [encode_record(sender, obs) for sender, obs in stream]
    pool = IngestWorkerPool(
        workers=config.workers,
        detector=config.detector,
        shards=config.shards,
        # Aggregate LRU budget equals the single-process geometry.
        max_entries=max(1, config.max_entries // config.workers),
    )
    try:
        start = time.perf_counter()
        rejects = pool.ingest_lines(lines)
        pool.barrier()
        wall = time.perf_counter() - start
        assert not rejects, f"bench stream has rejected lines: {rejects[:3]}"

        payload = pool.api_verdicts(None, None)
        flagged_senders = {event["sender"] for event in payload["events"]}
        _assert_judgement(flagged_senders, cheaters)

        latencies = sorted(
            event["latency_s"] for event in payload["events"]
        )
        p99 = p99_latency(latencies)
        stats = pool.api_stats()
    finally:
        pool.close()
    return BenchResult(
        config=config,
        wall_s=wall,
        observations=len(stream),
        distinct_senders=distinct,
        obs_per_sec=len(stream) / wall,
        p99_flag_latency_s=p99,
        flagged=len(flagged_senders),
        cheaters=len(cheaters),
        evictions=stats["store"]["evictions"],
        stats=stats,
    )


def _assert_judgement(flagged_senders: set, cheaters: frozenset) -> None:
    rogue = flagged_senders - cheaters
    assert not rogue, (
        f"{len(rogue)} honest sender(s) flagged (e.g. "
        f"{sorted(rogue)[:5]}): the served detector misjudged a "
        f"zero-deficit stream"
    )
    if cheaters:
        assert flagged_senders, (
            "no sender flagged despite "
            f"{len(cheaters)} cheaters in the stream"
        )


#: Bench geometries by scale name (the CLI's and the bench test's
#: shared vocabulary).  Both scales keep the acceptance geometry —
#: >= 100k distinct senders against a 10k-entry per-shard budget.
BENCH_SCALES: Dict[str, BenchConfig] = {
    "quick": BenchConfig(senders=100_000, observations=250_000),
    "bench": BenchConfig(senders=120_000, observations=360_000),
    "full": BenchConfig(senders=250_000, observations=1_000_000),
}

# ----------------------------------------------------------------------
# Trajectory file (BENCH_service.json, BENCH_engine.json format)
# ----------------------------------------------------------------------
#: Hard obs/sec floor the CI gate enforces at every scale.
ABSOLUTE_FLOOR_OBS_PER_SEC = 50_000
#: Tolerated obs/sec drop vs the committed per-scale baseline.
REGRESSION_TOLERANCE = 0.30
#: Keep the trajectory bounded; old entries age out.
TRAJECTORY_CAP = 200

_TRAJECTORY_WORKLOAD = (
    "service ingest: Zipf sender churn (>=100k distinct) through the "
    "sharded LRU detector store, window detector"
)


def append_trajectory(
    path, scale: str, record: Dict[str, object], rebase: bool = False,
) -> Dict[str, object]:
    """Append one bench record to the trajectory file at ``path``.

    Returns the per-scale baseline record (installing ``record`` as
    baseline when none exists for ``scale``, or when ``rebase``).
    ``record`` should carry a ``utc`` timestamp; callers add it so
    this helper stays clock-free.
    """
    import json
    import pathlib

    path = pathlib.Path(path)
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"schema": 1, "workload": _TRAJECTORY_WORKLOAD,
                "baselines": {}, "trajectory": []}
    baseline = data["baselines"].get(scale)
    if baseline is None or rebase:
        data["baselines"][scale] = record
        baseline = record
    data["trajectory"] = (data["trajectory"] + [record])[-TRAJECTORY_CAP:]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return baseline
