"""Tests for the online detection service (repro.service).

Covers the wire codec, the sharded LRU detector store, the verdict
log, the ingest facade (in-process, stdin-style streams, TCP), the
HTTP query API, and the subsystem's central promise: serving a
detector changes nothing — the ``window`` detector hosted online
produces the identical per-sender flag/clear verdict sequence as the
same detector inside the in-sim ``SenderMonitor`` on the same
observation stream.
"""

from __future__ import annotations

import gc
import io
import json
import socket
import threading
import time
import tracemalloc
import urllib.request

import pytest

from repro.detect import Observation
from repro.detect.window import WindowDetector
from repro.experiments.scenarios import (
    PROTOCOL_CORRECT,
    ScenarioConfig,
    run_scenario,
)
from repro.net import circle_topology
from repro.service import (
    DetectionService,
    IngestWorkerPool,
    ServiceHTTPServer,
    ShardedDetectorStore,
    TcpIngestServer,
    VerdictLog,
    WireError,
    decode_lines,
    decode_record,
    encode_record,
    ingest_stream,
    record_scenario_stream,
    recorded_verdicts,
    replay_stream,
    sender_of_line,
    shard_of,
)
from repro.service.ingest import MAX_LINE_BYTES, READ_BYTES, read_chunks
from repro.service.store import FlagEvent


def obs(b_exp, b_act, retries=1, time_us=0):
    return Observation(b_exp=b_exp, b_act=b_act, retries=retries,
                       time_us=time_us)


def window_factory(window=5, thresh=20.0):
    return lambda: WindowDetector(window=window, thresh=thresh)


def flag(pool, sender):
    """Ingest one observation that flags ``sender`` on first sight."""
    pool.ingest_line(encode_record(sender, obs(31.0, 0.0)))


@pytest.fixture
def pool1():
    pool = IngestWorkerPool(workers=1, shards=1, max_entries=8)
    try:
        yield pool
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_round_trip(self):
        original = obs(31.0, 7.5, retries=2, time_us=480)
        sender, decoded = decode_record(encode_record("node-3", original))
        assert sender == "node-3"
        assert decoded == original

    def test_wire_line_is_flat_sorted_json(self):
        line = encode_record("3", obs(31, 7))
        data = json.loads(line)
        assert data == {"v": 1, "sender": "3", "b_exp": 31.0,
                        "b_act": 7.0, "retries": 1, "time_us": 0}
        assert "\n" not in line

    def test_invalid_json_rejected(self):
        with pytest.raises(WireError, match="not valid JSON"):
            decode_record("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="JSON object.*list"):
            decode_record("[1, 2]")

    def test_missing_sender_rejected(self):
        line = json.dumps(obs(31, 7).to_dict())
        with pytest.raises(WireError, match="'sender'"):
            decode_record(line)

    def test_bad_sender_rejected(self):
        for sender in ("", 3, None):
            record = obs(31, 7).to_dict()
            record["sender"] = sender
            with pytest.raises(WireError, match="'sender'"):
                decode_record(json.dumps(record))

    def test_oversized_sender_rejected(self):
        record = obs(31, 7).to_dict()
        record["sender"] = "x" * 300
        with pytest.raises(WireError, match="256"):
            decode_record(json.dumps(record))

    def test_observation_schema_errors_become_wire_errors(self):
        record = obs(31, 7).to_dict()
        record["sender"] = "3"
        record["bogus"] = 1
        with pytest.raises(WireError, match="bogus"):
            decode_record(json.dumps(record))

    def test_decode_lines_skips_blank_keepalives(self):
        lines = [encode_record("a", obs(1, 1)), "", "   ",
                 encode_record("b", obs(2, 2))]
        decoded = list(decode_lines(lines))
        assert [sender for sender, _ in decoded] == ["a", "b"]

    def test_sender_of_line_matches_decode(self):
        for sender in ("3", "node-x", "a b", "station_42"):
            line = encode_record(sender, obs(31, 7))
            assert sender_of_line(line) == sender
            assert sender_of_line(line) == decode_record(line)[0]

    def test_sender_of_line_undecided_never_wrong(self):
        """The scan may answer None (undecided) but never a sender
        different from the strict decoder's."""
        # Escaped sender: the raw span contains backslashes -> None.
        record = obs(31, 7).to_dict()
        record["sender"] = 'quo"te\\'
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        assert sender_of_line(line) is None
        assert decode_record(line)[0] == 'quo"te\\'
        # Non-ASCII sender: json.dumps \u-escapes it -> None, and the
        # strict decoder still recovers the real key.
        unicode_line = encode_record("ü", obs(31, 7))
        assert sender_of_line(unicode_line) is None
        assert decode_record(unicode_line)[0] == "ü"
        # No sender span at all -> None (decode rejects too).
        assert sender_of_line(json.dumps(obs(31, 7).to_dict())) is None
        # Oversized span -> None, deferring to decode's rejection.
        record["sender"] = "x" * 300
        long_line = json.dumps(record, separators=(",", ":"),
                               sort_keys=True)
        assert sender_of_line(long_line) is None


# ----------------------------------------------------------------------
# Sharded store
# ----------------------------------------------------------------------
class TestShardOf:
    def test_deterministic_and_in_range(self):
        for sender in ("1", "3", "node-x", "ffff"):
            index = shard_of(sender, 8)
            assert 0 <= index < 8
            assert index == shard_of(sender, 8)  # stable across calls

    def test_spreads_keys(self):
        hit = {shard_of(str(i), 8) for i in range(1000)}
        assert hit == set(range(8))


class TestShardedDetectorStore:
    def test_verdict_matches_bare_detector(self):
        store = ShardedDetectorStore(window_factory(), shards=2,
                                     max_entries=8)
        bare = WindowDetector(window=5, thresh=20.0)
        for i in range(10):
            o = obs(31.0, 2.0, time_us=i)
            verdict, _ = store.observe("3", o)
            assert verdict is bare.observe(o)

    def test_first_flag_event_once_per_tenure(self):
        store = ShardedDetectorStore(window_factory(), shards=1,
                                     max_entries=8)
        events = []
        for i in range(6):
            _, event = store.observe("3", obs(31.0, 0.0, time_us=i * 10))
            if event is not None:
                events.append(event)
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, FlagEvent)
        assert event.sender == "3"
        assert event.observations == 1  # deficit 31 > thresh 20: first obs
        assert event.wall >= event.first_obs_wall

    def test_lru_eviction_counts_and_bounds(self):
        store = ShardedDetectorStore(window_factory(), shards=1,
                                     max_entries=3)
        for i in range(10):
            store.observe(str(i), obs(1.0, 1.0))
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["evictions"] == 7
        assert len(store) == 3
        # Oldest evicted: senders 0..6 gone, 7..9 resident.
        assert store.get("0") is None
        assert store.get("9") is not None

    def test_touch_refreshes_lru_order(self):
        store = ShardedDetectorStore(window_factory(), shards=1,
                                     max_entries=2)
        store.observe("a", obs(1, 1))
        store.observe("b", obs(1, 1))
        store.observe("a", obs(1, 1))  # refresh a; b is now coldest
        store.observe("c", obs(1, 1))  # evicts b
        assert store.get("a") is not None
        assert store.get("b") is None
        assert store.get("c") is not None

    def test_recycled_detector_judges_like_fresh(self):
        """Evict a flagged sender, readmit it: verdicts start clean."""
        store = ShardedDetectorStore(window_factory(), shards=1,
                                     max_entries=1)
        for _ in range(3):
            store.observe("cheat", obs(31.0, 0.0))
        assert store.get("cheat")["flagged"]
        store.observe("other", obs(1.0, 1.0))  # evicts (and recycles)
        assert store.stats()["flagged_evictions"] == 1
        verdict, event = store.observe("cheat", obs(1.0, 1.0))
        assert verdict is False  # no residue from the earlier tenure
        snapshot = store.get("cheat")
        assert snapshot["observations"] == 1
        assert snapshot["flagged_observations"] == 0

    def test_transition_log_bounded_and_ordered(self):
        store = ShardedDetectorStore(window_factory(window=1, thresh=5.0),
                                     shards=1, max_entries=4,
                                     transition_cap=4)
        for i in range(20):
            # Alternate flagging/clear observations: a transition each.
            deficit = 10.0 if i % 2 == 0 else -10.0
            store.observe("3", obs(max(deficit, 0.0),
                                   max(-deficit, 0.0), time_us=i))
        transitions = store.get("3")["transitions"]
        assert len(transitions) == 4  # capped, oldest dropped
        kinds = [t["verdict"] for t in transitions]
        assert kinds in (["flag", "clear"] * 2, ["clear", "flag"] * 2)

    def test_snapshot_and_flagged_senders(self):
        store = ShardedDetectorStore(window_factory(), shards=4,
                                     max_entries=8)
        store.observe("honest", obs(5.0, 5.0))
        store.observe("cheat", obs(31.0, 0.0))
        assert store.flagged_senders() == ["cheat"]
        snapshot = store.get("cheat")
        assert snapshot["flagged"] is True
        assert snapshot["first_flag"]["observations"] == 1
        assert snapshot["shard"] == shard_of("cheat", 4)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedDetectorStore(window_factory(), shards=0)
        with pytest.raises(ValueError, match="max_entries"):
            ShardedDetectorStore(window_factory(), max_entries=0)
        with pytest.raises(ValueError, match="transition_cap"):
            ShardedDetectorStore(window_factory(), transition_cap=1)


# ----------------------------------------------------------------------
# Verdict log
# ----------------------------------------------------------------------
def _flag_event(sender, time_us=100):
    return FlagEvent(sender=sender, time_us=time_us, wall=2.0,
                     first_obs_wall=1.5, observations=4)


class TestVerdictLog:
    def test_ids_dense_from_one(self):
        log = VerdictLog()
        assert [log.publish(_flag_event(str(i))) for i in range(3)] \
            == [1, 2, 3]

    def test_events_after_cursor(self):
        log = VerdictLog()
        for i in range(5):
            log.publish(_flag_event(str(i)))
        events, newest, info = log.events_after(2)
        assert [e["id"] for e in events] == [3, 4, 5]
        assert newest == 5
        assert info == {"oldest": 1, "dropped": 0}
        assert events[0]["latency_s"] == pytest.approx(0.5)
        events, newest, _ = log.events_after(5)
        assert events == [] and newest == 5

    def test_limit_moves_cursor_to_last_returned(self):
        log = VerdictLog()
        for i in range(5):
            log.publish(_flag_event(str(i)))
        events, newest, _ = log.events_after(0, limit=2)
        assert [e["id"] for e in events] == [1, 2]
        assert newest == 2  # resuming from here misses nothing

    def test_cap_drops_oldest_and_counts(self):
        log = VerdictLog(cap=3)
        for i in range(5):
            log.publish(_flag_event(str(i)))
        stats = log.stats()
        assert stats == {"flags": 5, "retained": 3, "dropped": 2,
                         "oldest": 3, "cap": 3}
        events, _, info = log.events_after(0)
        assert [e["id"] for e in events] == [3, 4, 5]
        # The docstring's promise: every read reports the retained
        # window, so a resuming poller can detect its gap.
        assert info == {"oldest": 3, "dropped": 2}

    def test_empty_log_reports_no_oldest(self):
        events, newest, info = VerdictLog().events_after(0)
        assert events == [] and newest == 0
        assert info == {"oldest": None, "dropped": 0}

    def test_wait_for_returns_immediately_when_ready(self):
        log = VerdictLog()
        log.publish(_flag_event("3"))
        events, newest, _ = log.wait_for(0, timeout=0.01)
        assert [e["id"] for e in events] == [1]

    def test_wait_for_times_out_empty(self):
        log = VerdictLog()
        events, newest, info = log.wait_for(0, timeout=0.01)
        assert events == [] and newest == 0
        assert info == {"oldest": None, "dropped": 0}

    def test_wait_for_wakes_on_publish(self):
        log = VerdictLog()
        got = {}

        def wait():
            got["events"], got["newest"], _ = log.wait_for(0, timeout=5.0)

        waiter = threading.Thread(target=wait)
        waiter.start()
        log.publish(_flag_event("3"))
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert [e["sender"] for e in got["events"]] == ["3"]


# ----------------------------------------------------------------------
# Ingest facade
# ----------------------------------------------------------------------
class TestDetectionService:
    def test_ingest_and_stats(self):
        service = DetectionService(shards=2, max_entries=8)
        assert service.ingest_observation("3", obs(31.0, 0.0)) is True
        assert service.ingest_observation("5", obs(1.0, 1.0)) is False
        stats = service.stats()
        assert stats["detector"] == "window"
        assert stats["observations"] == 2
        assert stats["store"]["currently_flagged"] == 1
        assert stats["verdicts"]["flags"] == 1

    def test_ingest_stream_counts_rejects(self, pool1):
        lines = [
            encode_record("3", obs(31.0, 0.0)),
            "",                       # keep-alive, skipped
            "{broken",                # rejected
            encode_record("5", obs(1.0, 1.0)),
            json.dumps({"v": 1, "b_exp": 1}),  # missing fields: rejected
        ]
        errors = io.StringIO()
        ingested, rejected = ingest_stream(pool1, lines, errors=errors)
        assert (ingested, rejected) == (2, 2)
        assert pool1.api_stats()["decode_errors"] == 2
        report = errors.getvalue()
        assert "line 3" in report and "line 5" in report

    def test_cusum_detector_spec_served(self):
        service = DetectionService(detector="cusum:h=2.0,k=0.25",
                                   shards=1, max_entries=8)
        flagged = False
        for _ in range(20):
            flagged = service.ingest_observation("3", obs(31.0, 3.0))
        assert flagged
        assert service.stats()["detector"] == "cusum:h=2.0,k=0.25"

    def test_concurrent_counters_are_exact(self):
        """Counter updates from many ingest threads must not lose
        increments: ``_ingested``/``decode_errors``/``disconnects``
        are lock-guarded, and an unlocked ``+=`` would silently skew
        them (this hammer fails reliably without the lock).  Each
        thread drives both ingest paths: decoded observations, and
        wire chunks of one good and one rejected line."""
        service = DetectionService(shards=4, max_entries=1_000)
        threads_n, per_thread = 8, 2_000
        start_gate = threading.Barrier(threads_n)

        def hammer(worker):
            start_gate.wait()
            for i in range(per_thread):
                sender = f"{worker}-{i % 50}"
                if i % 2:
                    service.ingest_observation(
                        sender, obs(1.0, 1.0, time_us=i)
                    )
                else:
                    service.ingest_lines([
                        encode_record(sender, obs(1.0, 1.0, time_us=i)),
                    ])
                assert service.ingest_lines(["{broken"])[0][0] == 0
                service.record_disconnect()

        threads = [
            threading.Thread(target=hammer, args=(n,))
            for n in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        stats = service.stats()
        expected = threads_n * per_thread
        assert stats["observations"] == expected
        assert stats["decode_errors"] == expected
        assert stats["disconnects"] == expected
        assert service._ingested == expected

    def test_gap_reported_when_cursor_precedes_retention(self):
        """A poller resuming from before the retained window must see
        the gap (dropped events it can never observe), not a silently
        truncated history."""
        with IngestWorkerPool(workers=1, shards=1, max_entries=64,
                              verdict_cap=3) as pool:
            for i in range(6):  # six first flags through a cap-3 log
                flag(pool, f"cheat-{i}")
            payload = pool.api_verdicts("0")
            assert [e["seq"] for e in payload["events"]] == [4, 5, 6]
            assert payload["per_worker"][0]["oldest"] == 4
            assert payload["dropped"] == 3
            assert payload["gap"] is True  # seqs 1..3 are unobservable
            # Resuming from the returned cursor: no gap.
            follow = pool.api_verdicts(payload["next"])
            assert follow["events"] == [] and follow["gap"] is False
            # A cursor exactly at the retention edge is not a gap either.
            assert pool.api_verdicts("3")["gap"] is False

    def test_spool_replay_restores_flag_history(self, tmp_path):
        from repro.service import read_spool_events, spool_path

        with IngestWorkerPool(workers=1, shards=1, max_entries=8,
                              spool_dir=tmp_path) as pool:
            flag(pool, "cheat")
            pool.ingest_line(encode_record("honest", obs(1.0, 1.0)))
            before = pool.api_verdicts("0")
        with IngestWorkerPool(workers=1, shards=1, max_entries=8,
                              spool_dir=tmp_path) as restarted:
            assert restarted.replayed_flags == 1
            after = restarted.api_verdicts("0")
        assert after["events"] == before["events"]  # byte-identical
        # Replay never re-appends.
        assert len(read_spool_events(spool_path(tmp_path, 0, 1))) == 1


class TestTcpIngest:
    def test_stream_over_socket(self, pool1):
        server = TcpIngestServer(pool1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=5) as conn:
                payload = "\n".join([
                    encode_record("3", obs(31.0, 0.0)),
                    "{broken",
                    encode_record("5", obs(1.0, 1.0)),
                ]) + "\n"
                conn.sendall(payload.encode())
                conn.shutdown(socket.SHUT_WR)
                reply = conn.makefile().read()
            rejects = [json.loads(line) for line in reply.splitlines()]
            assert len(rejects) == 1
            assert "JSON" in rejects[0]["error"]
            deadline = 50
            while pool1.api_stats()["observations"] < 2 and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            stats = pool1.api_stats()
            assert stats["observations"] == 2
            assert stats["decode_errors"] == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_client_dying_mid_stream_is_counted_not_raised(self, pool1):
        """A peer that resets the connection mid-record must not dump
        a traceback from the handler thread: the reset is counted as a
        disconnect and everything ingested before it survives."""
        server = TcpIngestServer(pool1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = socket.create_connection((host, port), timeout=5)
            conn.sendall((encode_record("3", obs(31.0, 0.0)) + "\n"
                          + '{"half a rec').encode())  # dies mid-line
            deadline = 100
            while pool1.api_stats()["observations"] < 1 and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            # SO_LINGER with zero timeout turns close() into a hard
            # RST, which surfaces as ConnectionResetError server-side.
            import struct
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            conn.close()
            deadline = 100
            while pool1.api_stats()["disconnects"] < 1 and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            stats = pool1.api_stats()
            assert stats["disconnects"] == 1
            assert stats["observations"] == 1  # pre-reset line folded in
        finally:
            server.shutdown()
            server.server_close()


def _tcp_session(pool, pieces, pause=0.05):
    """Send ``pieces`` on one TCP ingest connection, pausing between
    them, close the write side and return the reject lines."""
    server = TcpIngestServer(pool)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(server.server_address[:2],
                                      timeout=10) as conn:
            for piece in pieces:
                conn.sendall(piece)
                time.sleep(pause)
            conn.shutdown(socket.SHUT_WR)
            # The server closes once it has ingested everything.
            reply = conn.makefile("rb").read().decode("utf-8")
    finally:
        server.shutdown()
        server.server_close()
    return [json.loads(line)["error"] for line in reply.splitlines()]


class TestTcpChunkedReads:
    """Framing cases of the chunked TCP reader, each checked for the
    folds, ``decode_errors`` and ordered reject lines."""

    def _line(self, sender, cheat=True):
        return encode_record(
            sender, obs(31.0, 0.0 if cheat else 31.0)
        ).encode("utf-8")

    def _check(self, pool, observations, decode_errors):
        stats = pool.api_stats()
        assert stats["observations"] == observations
        assert stats["decode_errors"] == decode_errors
        assert stats["disconnects"] == 0

    def test_line_split_across_two_sends(self, pool1):
        line = self._line("3")
        rejects = _tcp_session(pool1, [
            line[:17], line[17:] + b"\n" + self._line("5", cheat=False)[:9],
            self._line("5", cheat=False)[9:] + b"\n",
        ])
        assert rejects == []
        self._check(pool1, 2, 0)
        assert pool1.api_sender("3")["flagged"] is True
        assert pool1.api_sender("5")["observations"] == 1

    def test_final_line_without_newline_is_ingested(self, pool1):
        rejects = _tcp_session(pool1, [
            self._line("3") + b"\n" + self._line("5"),
        ])
        assert rejects == []
        self._check(pool1, 2, 0)

    def test_unterminated_bad_last_line_is_rejected(self, pool1):
        rejects = _tcp_session(pool1, [self._line("3") + b"\n{broken"])
        assert len(rejects) == 1 and "not valid JSON" in rejects[0]
        self._check(pool1, 1, 1)

    def test_crlf_endings(self, pool1):
        rejects = _tcp_session(pool1, [
            self._line("3") + b"\r\n" + self._line("5") + b"\r\n{x\r\n",
        ])
        assert len(rejects) == 1 and "not valid JSON" in rejects[0]
        self._check(pool1, 2, 1)

    def test_blank_keep_alives_are_skipped(self, pool1):
        rejects = _tcp_session(pool1, [
            b"\n\n", b"   \n" + self._line("3") + b"\n\r\n", b"\n",
        ])
        assert rejects == []
        self._check(pool1, 1, 0)

    def test_invalid_utf8_mid_chunk_rejected_in_order(self, pool1):
        chunk = b"\n".join([
            self._line("1"),
            b"{broken",
            b'{"sender": "\xff\xfe"}',
            self._line("2"),
            json.dumps({"sender": "4", "v": 2}).encode(),
            self._line("3"),
        ]) + b"\n"
        rejects = _tcp_session(pool1, [chunk])
        assert len(rejects) == 3
        assert "not valid JSON" in rejects[0]
        assert rejects[1] == "line is not valid UTF-8"
        assert "schema version 2" in rejects[2]
        self._check(pool1, 3, 3)

    def test_lone_surrogate_sender_rejected_not_fatal(self, pool1):
        """A JSON-escaped lone surrogate in a sender cannot be hashed
        for placement; it is rejected and the connection goes on."""
        bad = encode_record("x", obs(31.0, 0.0)).replace(
            '"sender":"x"', '"sender":"\\udcff"'
        ).encode("utf-8")
        rejects = _tcp_session(pool1, [bad + b"\n" + self._line("3")])
        assert rejects == ["wire field 'sender' is not valid Unicode, "
                           "got '\\udcff'"]
        self._check(pool1, 1, 1)

    def test_many_reads_fold_every_line_in_order(self, pool1):
        """A stream far larger than one read: every line folds, and
        each sender's observations arrive in stream order."""
        lines = [
            encode_record(str(i % 7), obs(31.0, 0.0, time_us=i))
            for i in range(6_000)
        ]
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        rejects = _tcp_session(pool1, [payload[:100_001], payload[100_001:]])
        assert rejects == []
        self._check(pool1, 6_000, 0)
        for sender in map(str, range(7)):
            snapshot = pool1.api_sender(sender)
            assert snapshot["observations"] > 800
            assert snapshot["transitions"][0]["time_us"] == int(sender)


def _read1_over(data):
    """A ``read1`` that hands out ``data`` at most ``size`` bytes per
    call, then EOF."""
    view = memoryview(data)
    offset = 0

    def read1(size):
        nonlocal offset
        piece = bytes(view[offset:offset + size])
        offset += len(piece)
        return piece

    return read1


class TestLineCap:
    """A line longer than ``MAX_LINE_BYTES`` is one reject, and the
    reader never holds more than the cap plus one read of it."""

    def _line(self, sender):
        return encode_record(sender, obs(31.0, 0.0)).encode("utf-8")

    def test_unterminated_flood_is_capped(self, pool1):
        flood_reads = 64 * 1024 * 1024 // READ_BYTES
        reads = 0

        def read1(size):
            # 64 MiB with no newline, made a read at a time, then the
            # newline that ends it and one good line.
            nonlocal reads
            reads += 1
            if reads <= flood_reads:
                return b"x" * size
            if reads == flood_reads + 1:
                return b"\n" + self._line("3") + b"\n"
            return b""

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rejects = [
                reject for lines in read_chunks(read1)
                for reject in pool1.ingest_lines(lines)
            ]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert reads > flood_reads + 1
        assert peak < MAX_LINE_BYTES + 2 * READ_BYTES
        assert rejects == [(0, f"line is longer than {MAX_LINE_BYTES} bytes")]
        stats = pool1.api_stats()
        assert stats["observations"] == 1
        assert stats["decode_errors"] == 1
        assert pool1.api_sender("3")["flagged"] is True

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("size", [7_000, READ_BYTES])
    def test_cap_is_exact(self, pool1, extra, size):
        """A record padded to exactly the cap folds; one byte more is
        refused.  Either way the lines around it fold."""
        record = self._line("5")
        padded = record + b" " * (MAX_LINE_BYTES - len(record) + extra)
        stream = b"\n".join([self._line("3"), padded, self._line("7")])
        rejects = [
            reject for lines in read_chunks(_read1_over(stream))
            for reject in pool1.ingest_lines(lines)
        ]
        assert len(rejects) == extra
        stats = pool1.api_stats()
        assert stats["observations"] == 3 - extra
        assert stats["decode_errors"] == extra
        assert (pool1.api_sender("5") is None) == bool(extra)

    @pytest.mark.parametrize("tail", [b"", b"\n"])
    def test_overlong_line_rejected_over_tcp(self, pool1, tail):
        """Over TCP the overlong line gets its reject line, in order,
        terminated or cut off by EOF."""
        rejects = _tcp_session(pool1, [
            b"{broken\n" + b"y" * (MAX_LINE_BYTES // 2),
            b"y" * MAX_LINE_BYTES + b"\n" + self._line("3") + b"\n"
            + b"z" * (MAX_LINE_BYTES + 1),
            tail,
        ])
        assert rejects == [
            rejects[0], f"line is longer than {MAX_LINE_BYTES} bytes",
            f"line is longer than {MAX_LINE_BYTES} bytes",
        ]
        assert "not valid JSON" in rejects[0]
        stats = pool1.api_stats()
        assert stats["observations"] == 1
        assert stats["decode_errors"] == 3


class TestStoreMemory:
    """Per-sender state fits its budget: a full store after churn,
    default detector."""

    SHARDS = 8
    ENTRIES = 2_000

    def test_bytes_per_resident_sender(self):
        """Two budgets' worth of senders, each folding a full window
        (the default W is 5); one in 500 flags."""
        budget = self.SHARDS * self.ENTRIES
        honest, cheat = obs(10.0, 12.0), obs(31.0, 0.0)
        gc.collect()
        tracemalloc.start()
        try:
            service = DetectionService(shards=self.SHARDS,
                                       max_entries=self.ENTRIES)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for i in range(2 * budget):
                sender = f"sender-{i}"
                observation = cheat if i % 500 == 0 else honest
                for _ in range(5):
                    service.ingest_observation(sender, observation)
            gc.collect()
            used = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        resident = len(service.store)
        assert resident == budget
        assert service.store.stats()["evictions"] == budget
        assert used / resident <= 800

    def test_senders_without_verdict_change_hold_no_transition_list(self):
        service = DetectionService(shards=2, max_entries=64)
        for i in range(40):
            service.ingest_observation(
                f"s{i}", obs(31.0, 0.0) if i % 10 == 0 else obs(5.0, 5.0)
            )
        entries = {
            sender: entry
            for shard in service.store._shards
            for sender, entry in shard.entries.items()
        }
        assert len(entries) == 40
        for sender, entry in entries.items():
            changed = int(sender[1:]) % 10 == 0
            assert (entry.transitions is not None) is changed

    def test_sender_payload_unchanged(self, pool1):
        pool1.ingest_line(encode_record("3", obs(31.0, 0.0, time_us=7)))
        pool1.ingest_line(encode_record("5", obs(5.0, 5.0, time_us=9)))
        cheat = pool1.api_sender("3")
        latency = cheat["first_flag"].pop("latency_s")
        assert isinstance(latency, float) and latency >= 0.0
        assert cheat == {
            "sender": "3", "shard": 0, "flagged": True, "observations": 1,
            "flagged_observations": 1, "first_obs_time_us": 7,
            "first_flag": {"time_us": 7, "observations": 1},
            "transitions": [
                {"observation": 1, "verdict": "flag", "time_us": 7},
            ],
            "worker": 0,
        }
        assert pool1.api_sender("5") == {
            "sender": "5", "shard": 0, "flagged": False, "observations": 1,
            "flagged_observations": 0, "first_obs_time_us": 9,
            "first_flag": None, "transitions": [], "worker": 0,
        }


class TestServeCommand:
    def test_sigint_right_after_readiness_exits_cleanly(self, tmp_path):
        """``repro serve`` interrupted the moment it reports readiness
        must close its service (and spool) and exit 0, every time."""
        import os
        import pathlib
        import signal
        import subprocess
        import sys

        from repro.service import FlagSpool, spool_path

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for attempt in range(10):
            spool_dir = tmp_path / f"spool-{attempt}"
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--tcp", "0",
                 "--port", "0", "--spool-dir", str(spool_dir)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            try:
                first = proc.stderr.readline()
                assert first.startswith(b"flag spool in"), first
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            assert proc.returncode == 0, err.decode()
            assert b"Traceback" not in err
            with FlagSpool(spool_path(spool_dir, 0, 1),
                           detector="window") as spool:
                assert not spool.repaired
                assert spool.replayed == []

    def test_stdin_bytes_that_are_not_utf8_are_rejected(self):
        """``--stdin`` reads bytes: a line that is not valid UTF-8 is
        one counted reject, and the lines around it are ingested.
        Read as text, the stray byte became a lone surrogate in the
        sender and the pump died with a traceback."""
        import os
        import pathlib
        import subprocess
        import sys

        good = encode_record("4", obs(31.0, 0.0)).encode("utf-8")
        bad = good.replace(b'"sender":"4"', b'"sender":"\xff"')
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdin",
             "--port", "0"],
            input=bad + b"\n" + good + b"\n", env=env,
            capture_output=True, timeout=60,
        )
        err = proc.stderr.decode("utf-8", "replace")
        assert proc.returncode == 0, err
        assert "ingest: line 1 rejected: line is not valid UTF-8" in err
        assert "stdin drained: 1 ingested, 1 rejected" in err

    @pytest.mark.parametrize("workers, history, detector, reason", [
        (1, 3, "window", "3-worker"),
        (2, 3, "window", "3-worker"),
        (2, 2, "cusum:h=2.0,k=0.25", "detector"),
    ])
    def test_unusable_spool_exits_2(self, tmp_path, workers, history,
                                    detector, reason):
        """A flag history of another worker count, or one a worker
        refuses to open, must stop ``repro serve`` with one ``spool
        error:`` line and exit 2 — not serve an empty history, and not
        crash with a traceback."""
        import os
        import pathlib
        import subprocess
        import sys

        from repro.service import FlagSpool, spool_path

        for worker in range(history):
            FlagSpool(spool_path(tmp_path, worker, history),
                      detector=detector, worker=worker,
                      workers=history).close()
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("REPRO_SERVICE_WORKERS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--spool-dir", str(tmp_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = err.decode().splitlines()
        assert proc.returncode == 2, err.decode()
        assert len(lines) == 1 and lines[0].startswith("spool error: "), lines
        assert reason in lines[0]


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
@pytest.fixture
def api():
    """(base_url, pool) with a live threaded HTTP server over a
    one-worker pool."""
    pool = IngestWorkerPool(workers=1, shards=2, max_entries=8)
    server = ServiceHTTPServer(pool)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", pool
    finally:
        server.shutdown()
        server.server_close()
        pool.close()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHttpApi:
    def test_stats(self, api):
        base, pool = api
        flag(pool, "3")
        status, body = _get(f"{base}/stats")
        assert status == 200
        assert body["observations"] == 1
        assert body["store"]["shards"] == 2

    def test_verdicts_polling(self, api):
        base, pool = api
        flag(pool, "3")
        pool.ingest_line(encode_record("7", obs(1.0, 1.0)))
        status, body = _get(f"{base}/verdicts")
        assert status == 200
        assert [e["sender"] for e in body["events"]] == ["3"]
        assert body["flagged"] == ["3"]
        cursor = body["next"]
        status, body = _get(f"{base}/verdicts?after={cursor}")
        assert body["events"] == []
        assert body["next"] == cursor

    def test_sender_snapshot_and_404(self, api):
        base, pool = api
        flag(pool, "3")
        status, body = _get(f"{base}/senders/3")
        assert status == 200
        assert body["flagged"] is True
        status, body = _get(f"{base}/senders/unknown")
        assert status == 404
        assert "evicted" in body["error"]

    def test_unknown_endpoint_lists_routes(self, api):
        base, _ = api
        status, body = _get(f"{base}/nope")
        assert status == 404
        assert "/verdicts" in body["endpoints"]

    def test_bad_query_param_is_400(self, api):
        base, _ = api
        status, body = _get(f"{base}/verdicts?after=abc")
        assert status == 400
        assert "'after'" in body["error"]
        status, body = _get(f"{base}/watch?timeout=-1")
        assert status == 400

    def test_watch_long_poll_wakes_on_flag(self, api):
        base, pool = api
        got = {}

        def poll():
            got["status"], got["body"] = _get(
                f"{base}/watch?after=0&timeout=10"
            )

        poller = threading.Thread(target=poll)
        poller.start()
        flag(pool, "3")
        poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert got["status"] == 200
        assert [e["sender"] for e in got["body"]["events"]] == ["3"]

    def test_watch_timeout_returns_empty(self, api):
        base, _ = api
        status, body = _get(f"{base}/watch?after=0&timeout=0.05")
        assert status == 200
        assert body["events"] == []
        assert body["gap"] is False and body["dropped"] == 0

    def test_verdicts_limit_walk_loses_nothing(self, api):
        """Walking the full event list with ?limit=N across polls
        (always resuming from the returned ``next``) must yield every
        event exactly once, whatever N."""
        base, pool = api
        for i in range(10):
            flag(pool, f"cheat-{i}")
        for limit in (1, 3, 4, 10, 25):
            walked, cursor, polls = [], 0, 0
            while True:
                status, body = _get(
                    f"{base}/verdicts?after={cursor}&limit={limit}"
                )
                assert status == 200
                assert len(body["events"]) <= limit
                if not body["events"]:
                    assert body["next"] == cursor
                    break
                walked.extend(e["seq"] for e in body["events"])
                cursor = body["next"]
                polls += 1
                assert polls <= 20, "cursor walk failed to terminate"
            assert walked == list(range(1, 11))  # no loss, no dupes

    def test_keep_alive_answers_do_not_stall(self, api):
        """Ready answers on one keep-alive connection come back at
        once.  With Nagle's algorithm on, each body waits for the
        client's delayed ACK of its headers (~40 ms per request)."""
        import http.client

        base, pool = api
        flag(pool, "3")
        host, port = base[len("http://"):].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request("GET", "/verdicts")  # connect and warm up
            conn.getresponse().read()
            start = time.perf_counter()
            for _ in range(5):
                conn.request("GET", "/verdicts")
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 200
                assert [e["sender"] for e in body["events"]] == ["3"]
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.1, f"5 ready answers took {elapsed * 1e3:.0f} ms"

    def test_verdicts_gap_surfaces_over_http(self):
        """Cap overflow between polls: the next poll's payload says
        events were dropped instead of silently skipping them."""
        pool = IngestWorkerPool(workers=1, shards=1, max_entries=64,
                                verdict_cap=2)
        server = ServiceHTTPServer(pool)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            for i in range(5):
                flag(pool, f"cheat-{i}")
            status, body = _get(f"{base}/verdicts?after=1")
            assert status == 200
            assert [e["seq"] for e in body["events"]] == [4, 5]
            assert body["per_worker"][0]["oldest"] == 4
            assert body["dropped"] == 3
            assert body["gap"] is True  # seqs 2 and 3 fell out of view
        finally:
            server.shutdown()
            server.server_close()
            pool.close()


# ----------------------------------------------------------------------
# Sim adapter: the served-equals-simulated contract
# ----------------------------------------------------------------------
def _scenario(seconds=0.4, seed=1):
    topo = circle_topology(8, misbehaving=(3,), pm_percent=60.0)
    return ScenarioConfig(topology=topo, protocol=PROTOCOL_CORRECT,
                          duration_us=int(seconds * 1_000_000), seed=seed)


class TestSimAdapter:
    def test_recording_does_not_perturb_the_run(self):
        config = _scenario()
        records, recorded_result = record_scenario_stream(config)
        plain_result = run_scenario(config)
        assert recorded_result.events_processed \
            == plain_result.events_processed
        assert recorded_result.event_counts == plain_result.event_counts
        assert recorded_result.collector.deliveries \
            == plain_result.collector.deliveries
        assert records, "a saturated 0.4 s run must judge observations"

    def test_stream_is_judged_observations_in_arrival_order(self):
        records, _ = record_scenario_stream(_scenario())
        assert [r.seq for r in records] == sorted(r.seq for r in records)
        senders = {r.sender for r in records}
        assert "3" in senders and len(senders) > 1

    def test_rejects_baseline_protocol(self):
        topo = circle_topology(4)
        config = ScenarioConfig(topology=topo, protocol="802.11",
                                duration_us=100_000, seed=1)
        with pytest.raises(ValueError, match="correct"):
            record_scenario_stream(config)

    def test_served_verdicts_bit_identical_to_sim(self):
        """THE subsystem contract: window served online == in-sim."""
        records, _ = record_scenario_stream(_scenario())
        in_sim = recorded_verdicts(records)
        service = DetectionService(detector="window", shards=4,
                                   max_entries=10_000)
        served = replay_stream(service, records)
        assert served == in_sim
        # The cheater must actually have been flagged at some point,
        # or the equality above proves nothing interesting.
        assert any(in_sim["3"]), "cheater at PM=60 never flagged in-sim"
        honest = [s for s in in_sim if s != "3"]
        assert honest and all(not any(in_sim[s]) for s in honest)

    def test_wire_round_trip_preserves_bit_identity(self):
        """Same contract with the JSONL wire format in the middle."""
        records, _ = record_scenario_stream(_scenario(seconds=0.25))
        lines = [encode_record(r.sender, r.observation) for r in records]
        service = DetectionService(detector="window", shards=4,
                                   max_entries=10_000)
        errors = io.StringIO()
        ingested, rejected = ingest_stream(service, lines, errors=errors)
        assert rejected == 0 and ingested == len(records)
        for sender, sequence in recorded_verdicts(records).items():
            snapshot = service.store.get(sender)
            assert snapshot["observations"] == len(sequence)
            assert snapshot["flagged"] == sequence[-1]
            assert snapshot["flagged_observations"] == sum(sequence)


# ----------------------------------------------------------------------
# Load generator (bench correctness at toy scale)
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_generate_stream_is_deterministic(self):
        from repro.service import BenchConfig, generate_stream

        config = BenchConfig(senders=500, observations=1_500, seed=9)
        one, cheaters_one = generate_stream(config)
        two, cheaters_two = generate_stream(config)
        assert one == two and cheaters_one == cheaters_two
        assert len(one) == 1_500
        assert len({sender for sender, _ in one}) == 500

    def test_run_bench_invariants_at_toy_scale(self):
        from repro.service import BenchConfig, run_bench

        config = BenchConfig(senders=2_000, observations=8_000,
                             shards=2, max_entries=400, seed=3)
        result = run_bench(config)  # asserts honest-never-flagged
        assert result.distinct_senders == 2_000
        assert result.evictions > 0
        assert result.flagged > 0
        assert result.obs_per_sec > 0
        record = result.to_record()
        assert record["observations"] == 8_000
        assert record["p99_flag_latency_ms"] is not None

    def test_config_validation(self):
        from repro.service import BenchConfig

        with pytest.raises(ValueError, match="senders"):
            BenchConfig(senders=0)
        with pytest.raises(ValueError, match="observations"):
            BenchConfig(senders=100, observations=50)
        with pytest.raises(ValueError, match="cheater_fraction"):
            BenchConfig(cheater_fraction=1.5)
        with pytest.raises(ValueError, match="pm"):
            BenchConfig(pm=0.0)
        with pytest.raises(ValueError, match="workers"):
            BenchConfig(workers=0)

    def test_p99_tiny_samples(self):
        """Nearest-rank p99 on samples the naive ``int(0.99*n)-1``
        index got wrong: it answered the *minimum* of a 2-element
        sample (and crashed the spirit of p99 generally below n=100,
        where the only honest answer is the maximum)."""
        from repro.service import p99_latency

        assert p99_latency([]) is None
        assert p99_latency([0.7]) == 0.7
        assert p99_latency([0.1, 0.9]) == 0.9  # naive formula said 0.1
        assert p99_latency([0.1, 0.5, 0.9]) == 0.9
        ninety_nine = [float(i) for i in range(1, 100)]
        assert p99_latency(ninety_nine) == 99.0
        hundred = [float(i) for i in range(1, 101)]
        assert p99_latency(hundred) == 99.0  # rank ceil(99.0) = 99
        two_hundred = [float(i) for i in range(1, 201)]
        assert p99_latency(two_hundred) == 198.0  # rank ceil(198.0)

    @pytest.mark.parametrize(
        "config_kwargs, expected_flagged",
        [
            (dict(senders=50, observations=500, cheater_fraction=0.0), 0),
            # cheater_every = round(1/fraction): 0.001 puts only rank
            # 0 (the hottest) among the cheaters; 0.04 adds rank 25.
            (dict(senders=20, observations=800,
                  cheater_fraction=0.001), 1),
            (dict(senders=50, observations=2_000,
                  cheater_fraction=0.04), 2),
        ],
    )
    def test_run_bench_p99_with_few_flagged_senders(
        self, config_kwargs, expected_flagged,
    ):
        """The bench's p99 must be well-defined for 0, 1 and 2 flagged
        senders — the regime where the old ``int(0.99*n)-1`` index
        answered the minimum (n=2) or the question was vacuous (n=0).
        The stream is deterministic given the seed, so the flagged
        counts here are exact, not probabilistic."""
        from repro.service import BenchConfig, run_bench

        config = BenchConfig(shards=1, max_entries=1_000, seed=5,
                             **config_kwargs)
        result = run_bench(config)
        assert result.flagged == expected_flagged
        if expected_flagged == 0:
            assert result.p99_flag_latency_s is None
            assert result.to_record()["p99_flag_latency_ms"] is None
        else:
            assert result.p99_flag_latency_s is not None
            assert result.p99_flag_latency_s >= 0.0
            assert result.to_record()["p99_flag_latency_ms"] >= 0.0

    def test_trajectory_append_and_baseline(self, tmp_path):
        from repro.service.loadgen import append_trajectory

        path = tmp_path / "BENCH_service.json"
        first = {"obs_per_sec": 100_000, "utc": "2026-01-01T00:00:00+00:00"}
        baseline = append_trajectory(path, "quick", first)
        assert baseline == first
        second = {"obs_per_sec": 90_000, "utc": "2026-01-02T00:00:00+00:00"}
        baseline = append_trajectory(path, "quick", second)
        assert baseline == first  # sticky until rebased
        baseline = append_trajectory(path, "quick", second, rebase=True)
        assert baseline == second
        data = json.loads(path.read_text())
        assert data["schema"] == 1
        assert len(data["trajectory"]) == 3
