"""The ``service-churn`` workload: wire lines into ``repro serve``.

The benchmark starts ``python -m repro serve`` as a subprocess with a
fresh spool directory and one ingest worker, and talks to it the way a
deployment would: wire JSONL over one TCP connection, JSON over HTTP.

* **Backlogged batches** -- pre-encoded lines written as fast as the
  socket takes them; a batch's time runs from its first byte until the
  service has folded every line.  A first, untimed batch fills the LRU
  budget, so timed batches see steady-state eviction.
* **Paced segments** -- an open loop at one fixed offered rate, below
  capacity.  Line ``i`` of a segment is due at ``i / rate`` and carries
  that due offset in ``time_us``; a ``/watch`` long-poll reader runs
  beside the writer (and only then), and a flag's latency is its
  receipt time minus the due time of the line that raised it, so
  generator lateness counts against the service, as a user would see
  it.

Timed batches alternate with paced segments, so both sample the whole
run rather than one stretch of a host whose speed drifts.

Completion is detected without polling: each batch ends with a probe
line that has no sender, which the service rejects on the connection's
back-channel.  The service handles one connection's lines in order, so
the reject arrives once every line before it is folded.  Polling
``/stats`` ten times a second instead made batches up to 40 % slower
on the 2-core reference host, because every request takes the
interpreter lock from the ingest thread several times.  ``/stats`` is
read at the end to confirm the counts and, in the traced pass only,
four times a second during paced segments to sample the backlog.

Afterwards the service's whole flag history and eviction count must
equal the benchmark's reference fold of the same lines.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import inputs
from common import Checks, Outcome, peak_rss_mb
from reference import ReferenceFold

#: Lines of the untimed batch that fills the 8 x 10k entry budget.
FILL_BATCH = 100_000
BACKLOG_BATCH = 50_000
#: Offered rate of the paced segments (lines per second), well below
#: the 50-60k lines/s one ingest worker drains on the 2-core reference
#: host.
PACED_RATE = 10_000
#: A paced run whose generator sent lines later than this (p95) fell
#: behind its schedule; the run counts as failed.
LATE_LIMIT_MS = 20.0
#: ``time_us`` distance between paced segments (longer than any one).
SEGMENT_SPAN_US = 100_000_000
#: Interval of the ``/stats`` samples that track the paced backlog.
BACKLOG_SAMPLE_S = 0.25
#: Long-poll timeout of the ``/watch`` reader: the longest a segment's
#: close waits for the reader's last request.
WATCH_TIMEOUT_S = 0.1
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0

_perf = time.perf_counter


def phase_sizes(seconds: float):
    """(timed backlog batches, lines per paced segment): the fixed work
    of one run, so counts such as evictions repeat exactly for a seed."""
    batches = max(3, round(seconds * 0.27))
    paced_s = max(4.0, seconds / 3)
    return batches, int(paced_s * PACED_RATE / batches)


class ServiceProcess:
    """``repro serve`` on ephemeral TCP and HTTP ports."""

    def __init__(self, root: Path, spool_dir: str,
                 trace_out: Optional[str] = None):
        serve_args = [
            "serve", "--tcp", "0", "--port", "0", "--workers", "1",
            "--spool-dir", spool_dir,
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            bootstrap = Path(__file__).with_name("serve_traced.py")
            command = [sys.executable, str(bootstrap), trace_out, *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        start = _perf()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.stderr: List[str] = []
        self.http_port = self.tcp_port = None
        replayed = False
        deadline = start + START_TIMEOUT_S
        try:
            while self.tcp_port is None:
                line = self.proc.stderr.readline()
                if not line or _perf() > deadline:
                    raise RuntimeError(
                        "repro serve did not bind its ports: "
                        + "".join(self.stderr[-20:])
                    )
                self.stderr.append(line)
                if "event(s) replayed" in line:
                    replayed = True
                elif "on http://" in line:
                    self.http_port = int(line.rsplit(":", 1)[1])
                elif line.startswith("TCP ingest on"):
                    self.tcp_port = int(line.rsplit(":", 1)[1])
            if not replayed or self.http_port is None:
                raise RuntimeError("repro serve started without its spool")
        except BaseException:
            self.stop()
            raise
        self.setup_s = _perf() - start
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def cpu_s(self) -> float:
        """User + system CPU seconds the service process has used."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGINT (the CLI's clean shutdown), then wait; kill on timeout.
        Returns the exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=10)
        else:
            self.proc.stderr.close()
        return self.proc.returncode


class Wire:
    """One TCP ingest connection and its reject back-channel."""

    #: A line the service must reject (no sender) -- see the module
    #: docstring for why it marks the end of a batch.
    PROBE = b'{"probe":true}\n'

    def __init__(self, port: int):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=DRAIN_TIMEOUT_S
        )
        self._replies = self.sock.makefile("rb")
        self.probes = 0

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def send_and_probe(self, data: bytes) -> float:
        """Send ``data`` then a probe; return when the probe is answered."""
        self.probes += 1
        writer = threading.Thread(
            target=self.sock.sendall, args=(data + self.PROBE,)
        )
        writer.start()
        try:
            reply = self._replies.readline()
        finally:
            writer.join()
        if not reply:
            raise RuntimeError("service closed the ingest connection")
        return _perf()

    def close(self) -> None:
        self._replies.close()
        self.sock.close()


class Api:
    """A keep-alive HTTP/JSON client for one thread."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )

    def get(self, path: str) -> Dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status} {body!r}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


def percentile(values: List[float], share: float) -> Optional[float]:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


# ----------------------------------------------------------------------
# One service, both phases
# ----------------------------------------------------------------------
class Stream:
    """The run's wire lines, generated once and folded by the reference.

    After the fill batch, timed backlog batches alternate with paced
    segments, so both phases sample the whole run rather than one
    stretch of it.  Paced line ``i`` of segment ``k`` carries
    ``time_us = PACED_BASE_US + k * SEGMENT_SPAN_US + i / rate``.
    """

    def __init__(self, seed: int, seconds: float):
        batches, segment_lines = phase_sizes(seconds)
        wire = inputs.WireStream(
            seed, FILL_BATCH + batches * (BACKLOG_BATCH + segment_lines)
        )
        self.reference = ReferenceFold()
        self.fill = self._blob(wire.take(FILL_BATCH, fold=self.reference))
        self.fill_flags = len(self.reference.events)
        self.batches = []
        self.segments = []
        #: Flags raised after the fill batch, through each segment.
        self.flags_through = []
        for k in range(batches):
            self.batches.append(self._blob(
                wire.take(BACKLOG_BATCH, fold=self.reference)
            ))
            self.segments.append([
                (line + "\n").encode("utf-8")
                for line in wire.take(
                    segment_lines, fold=self.reference, paced=(
                        inputs.PACED_BASE_US + k * SEGMENT_SPAN_US,
                        PACED_RATE,
                    ),
                )
            ])
            self.flags_through.append(
                len(self.reference.events) - self.fill_flags
            )
        self.total = wire.emitted
        self.cheaters = wire.cheater_keys()

    @staticmethod
    def _blob(lines: List[str]) -> bytes:
        return ("\n".join(lines) + "\n").encode("utf-8")


def drive(service: ServiceProcess, stream: Stream, checks: Checks,
          between=None, sample_backlog: bool = False) -> Dict:
    """Fill, then alternate timed batches and paced segments; check.
    ``between()``, when given, runs after each paced segment, while the
    service is idle.  ``sample_backlog`` polls ``/stats`` during paced
    segments, which loads the service (see :class:`PacedLoop`)."""
    api = Api(service.http_port)
    wire = Wire(service.tcp_port)
    try:
        cpu_start = service.cpu_s()
        wire.send_and_probe(stream.fill)
        loop = PacedLoop(
            service.http_port, wire,
            expected_flags=len(stream.reference.events) - stream.fill_flags,
            sample_backlog=sample_backlog,
        )
        batch_s = []
        folded = FILL_BATCH
        try:
            for batch, segment, flags in zip(
                stream.batches, stream.segments, stream.flags_through
            ):
                start = _perf()
                batch_s.append(wire.send_and_probe(batch) - start)
                folded += BACKLOG_BATCH
                loop.run_segment(segment, folded, flags)
                folded += len(segment)
                if between is not None:
                    between()
        finally:
            loop.stop()
        cpu_s = service.cpu_s() - cpu_start
        stats = api.get("/stats")
        verdicts = api.get("/verdicts")
    finally:
        wire.close()
        api.close()
    paced = loop.summary()
    _check(stats, verdicts, paced, wire.probes, stream, checks)
    return {
        "batch_s": batch_s,
        "cpu_s": cpu_s,
        "evictions": stats["store"]["evictions"],
        "probes": wire.probes,
        **paced,
    }


class PacedLoop:
    """The open-loop writer plus its ``/watch`` reader and backlog sampler.

    The reader (and the sampler, when asked for) run only while a paced
    segment is open, and the writer closes a segment only once the
    reader has every flag raised so far and has no request in flight.
    So no ``/watch`` request runs during a backlogged batch, where a
    wake-up per flag would be timed as ingest.  The backlog sampler
    polls ``/stats``, which takes the interpreter lock from the ingest
    thread several times per request, so only the traced pass samples
    it; flag latencies come from a pass without it.
    """

    def __init__(self, http_port: int, wire: Wire, expected_flags: int,
                 sample_backlog: bool):
        self.wire = wire
        self.expected_flags = expected_flags
        self.segment_starts: List[float] = []
        self.lateness: List[float] = []
        self.received: List[tuple] = []
        self.backlog_max = 0
        self._folded = 0
        self._sent = 0
        self._state = threading.Condition()
        self._open = False
        self._reading = False
        self._stopping = False
        self._errors: List[BaseException] = []
        # A single-process cursor is the newest flag id seen so far.
        api = Api(http_port)
        try:
            stats = api.get("/stats")
        finally:
            api.close()
        self._cursor = str(stats["verdicts"]["flags"])
        self._threads = [
            threading.Thread(target=self._watch, args=(http_port,)),
        ]
        if sample_backlog:
            self._threads.append(
                threading.Thread(target=self._sample, args=(http_port,))
            )
        for thread in self._threads:
            thread.start()

    def run_segment(self, lines: List[bytes], folded: int,
                    flags_through: int) -> None:
        """Send ``lines`` on schedule, wait until all are folded and the
        reader has the first ``flags_through`` flags after the fill
        batch, then close the segment.  ``folded`` is the number of
        lines the service has folded so far."""
        if self._errors:
            raise self._errors[0]
        total = len(lines)
        period = 1.0 / PACED_RATE
        start = _perf() + 0.01
        self.segment_starts.append(start)
        self._folded, self._sent = folded, 0
        self._set_open(True)
        index = 0
        try:
            while index < total:
                now = _perf()
                due = min(total, int((now - start) * PACED_RATE) + 1)
                if due > index:
                    self.wire.send(b"".join(lines[index:due]))
                    sent_at = _perf()
                    self.lateness.extend(
                        sent_at - (start + i * period)
                        for i in range(index, due)
                    )
                    self._sent += due - index
                    index = due
                else:
                    time.sleep(start + index * period - now)
            self.wire.send_and_probe(b"")
            with self._state:
                self._state.wait_for(
                    lambda: len(self.received) >= flags_through
                    or bool(self._errors),
                    timeout=DRAIN_TIMEOUT_S,
                )
        finally:
            self._set_open(False)
            with self._state:
                self._state.wait_for(
                    lambda: not self._reading, timeout=DRAIN_TIMEOUT_S
                )

    def _set_open(self, value: bool) -> None:
        with self._state:
            self._open = value
            self._state.notify_all()

    def _await_open(self) -> bool:
        """Block until a segment opens (True) or the loop stops (False)."""
        with self._state:
            self._state.wait_for(lambda: self._open or self._stopping)
            return self._open

    def stop(self) -> None:
        with self._state:
            self._stopping = True
            self._state.notify_all()
        for thread in self._threads:
            thread.join(timeout=60)
        if self._errors:
            raise self._errors[0]

    def _watch(self, http_port: int) -> None:
        watcher = Api(http_port, timeout=60.0)
        after = self._cursor
        try:
            while True:
                with self._state:
                    self._reading = False
                    self._state.notify_all()
                    self._state.wait_for(
                        lambda: self._open or self._stopping
                    )
                    if not self._open:
                        return
                    self._reading = True
                payload = watcher.get(
                    f"/watch?after={after}&timeout={WATCH_TIMEOUT_S}"
                )
                now = _perf()
                with self._state:
                    for event in payload["events"]:
                        self.received.append((now, event["time_us"]))
                    after = str(payload["next"])
                    self._state.notify_all()
        except BaseException as exc:  # re-raised by the writer thread
            with self._state:
                self._errors.append(exc)
                self._reading = False
                self._state.notify_all()
        finally:
            watcher.close()

    def _sample(self, http_port: int) -> None:
        poller = Api(http_port)
        try:
            while self._await_open():
                before = self._sent
                observed = poller.get("/stats")["observations"]
                # The count was taken while the request was in flight:
                # compare it with the lines sent by then.
                sent = self._folded + (before + self._sent) / 2
                self.backlog_max = max(self.backlog_max, sent - observed)
                time.sleep(BACKLOG_SAMPLE_S)
        except BaseException as exc:
            self._errors.append(exc)
        finally:
            poller.close()

    def summary(self) -> Dict:
        latencies = []
        for received_at, time_us in self.received:
            if time_us < inputs.PACED_BASE_US:
                continue  # raised by a backlogged line
            segment, offset = divmod(
                time_us - inputs.PACED_BASE_US, SEGMENT_SPAN_US
            )
            due = self.segment_starts[segment] + offset / 1e6
            latencies.append(received_at - due)
        return {
            "watched_flags": len(self.received),
            "expected_flags": self.expected_flags,
            "paced_flags": len(latencies),
            "flag_latency_p50_ms": _ms(percentile(latencies, 0.50)),
            "flag_latency_p95_ms": _ms(percentile(latencies, 0.95)),
            "late_p95_ms": _ms(percentile(self.lateness, 0.95)),
            "backlog_max": self.backlog_max,
        }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else 1e3 * seconds


def _check(stats, verdicts, paced, probes: int, stream: Stream,
           checks: Checks) -> None:
    reference = stream.reference
    lost = stream.total - stats["observations"]
    checks.runs(
        stream.total, stats["decode_errors"] - probes, "lines rejected"
    )
    checks.runs(0, max(lost, 0), "lines lost")
    checks.expect(stats["disconnects"] == 0, "no ingest disconnects")
    events = [(e["sender"], e["time_us"]) for e in verdicts["events"]]
    flagged = {sender for sender, _ in events}
    honest = flagged - stream.cheaters
    checks.expect(not honest, f"no honest sender flagged ({len(honest)})")
    checks.expect(
        events == reference.events and not verdicts["gap"]
        and not verdicts["dropped"],
        f"flag history equals the reference fold "
        f"({len(events)} vs {len(reference.events)} events)",
    )
    checks.expect(
        stats["store"]["evictions"] == reference.evictions,
        f"evictions equal the reference fold "
        f"({stats['store']['evictions']} vs {reference.evictions})",
    )
    checks.expect(
        paced["watched_flags"] == paced["expected_flags"],
        f"/watch delivered every flag ({paced['watched_flags']} of "
        f"{paced['expected_flags']})",
    )
    checks.expect(
        paced["late_p95_ms"] <= LATE_LIMIT_MS,
        f"generator kept its schedule (p95 lateness "
        f"{paced['late_p95_ms']:.2f} ms <= {LATE_LIMIT_MS} ms)",
    )


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _expect_clean_exit(service: ServiceProcess, checks: Checks) -> None:
    code = service.stop()
    checks.expect(
        code == 0,
        f"repro serve exited cleanly ({code}): "
        + "".join(service.stderr[-12:]).strip(),
    )


def _spool(tmp: str) -> str:
    return tempfile.mkdtemp(prefix="spool-", dir=tmp)


def run_untraced(seed: int, seconds: float, tmp: str, root: Path) -> Outcome:
    """The measured service's own start-up, plus one more start-up (and
    stop) after each paced segment, gives set-ups sampled across the
    whole run like the batches."""
    stream = Stream(seed, seconds)
    checks = Checks()
    service = ServiceProcess(root, _spool(tmp))
    setups = [service.setup_s]
    unclean = 0

    def one_more_setup():
        nonlocal unclean
        extra = ServiceProcess(root, _spool(tmp))
        setups.append(extra.setup_s)
        # Not a check: a SIGINT that lands before the CLI enters its
        # serving loop escapes the handler (exit -2) -- a start-up race
        # of ``repro serve``, counted as a fact instead.
        if extra.stop() != 0:
            unclean += 1

    try:
        result = drive(service, stream, checks, between=one_more_setup)
    finally:
        _expect_clean_exit(service, checks)
    return Outcome(
        checks=checks,
        metrics={
            "setup_s": median(setups),
            "wall_s": median(result["batch_s"]),
            "peak_rss_mb": peak_rss_mb(children=True, own=False),
        },
        facts={
            "batch_s": [round(t, 4) for t in result["batch_s"]],
            "setups_s": [round(t, 4) for t in setups],
            "unclean_setup_stops": unclean,
            **{key: result[key] for key in (
                "paced_flags", "flag_latency_p50_ms", "flag_latency_p95_ms",
                "late_p95_ms", "evictions", "cpu_s")},
        },
    )


def run_traced(seed: int, seconds: float, tmp: str, root: Path) -> Outcome:
    """An untraced service, then a traced one, on the same lines.  Only
    the traced one samples the backlog, so the flag latencies of the
    untraced one carry no load the benchmark adds."""
    from tracer import OVERHEAD_ROW, layer_self, span_count, span_self

    stream = Stream(seed, seconds)
    checks = Checks()
    results = []
    trace_out = os.path.join(tmp, "service-spans.json")
    for traced in (False, True):
        service = ServiceProcess(
            root, _spool(tmp), trace_out=trace_out if traced else None
        )
        try:
            results.append(
                drive(service, stream, checks, sample_backlog=traced)
            )
        finally:
            _expect_clean_exit(service, checks)
    plain, traced = results
    with open(trace_out, encoding="utf-8") as fh:
        written = json.load(fh)
    table = written["spans"]
    attributed = sum(
        row["self_s"] for name, row in table.items()
        if name != "service.verdicts:wait"
    )
    # Probe lines (see the module docstring) are not wire traffic.
    probes = traced["probes"]
    metrics = {
        "service.codec.lines": span_count(
            table, "service.codec:decode_record") - probes,
        "service.codec.rejected": span_count(
            table, "service.codec:rejected") - probes,
        "service.codec.decode_s": span_self(
            table, "service.codec:decode_record"),
        "service.store.observe_s": span_self(table, "service.store:observe"),
        "service.store.detectors_built": span_count(
            table, "service.store:factory"),
        "service.store.factory_s": span_self(table, "service.store:factory"),
        "service.store.evictions": traced["evictions"],
        "service.verdicts.flags": span_count(
            table, "service.verdicts:publish"),
        "service.verdicts.publish_s": span_self(
            table, "service.verdicts:publish"),
        "service.spool.appends": span_count(table, "service.spool:append"),
        "service.spool.append_s": span_self(table, "service.spool:append"),
        "service.server.watch_s": layer_self(table, "service.server"),
        "service.ingest.backlog_max": traced["backlog_max"],
        "loadgen.late_p95_ms": traced["late_p95_ms"],
        "ingest_obs_per_s": BACKLOG_BATCH / median(plain["batch_s"]),
        "flag_latency_p50_ms": plain["flag_latency_p50_ms"],
        "flag_latency_p95_ms": plain["flag_latency_p95_ms"],
        "check.value_signature": zlib.crc32(
            repr(stream.reference.events).encode("utf-8")),
        "trace.overhead_pct": 100.0 * (
            median(traced["batch_s"]) / median(plain["batch_s"]) - 1.0),
        "trace.unattributed_share": max(
            0.0, 1.0 - attributed / traced["cpu_s"]),
        "trace.span_cost_ns": 1e9 * (
            written["costs_s"]["inner"] + written["costs_s"]["outer"]),
        "trace.calibrated_share": span_self(table, OVERHEAD_ROW)
        / traced["cpu_s"],
    }
    checks.expect(
        metrics["service.store.detectors_built"]
        == stream.reference.detectors_built,
        "detector constructions equal the reference fold",
    )
    return Outcome(checks=checks, metrics=metrics, spans=table)

