"""HTTP query API over the detection service.

Pure stdlib (``http.server.ThreadingHTTPServer``) — the service must
run anywhere the simulator runs.  All responses are JSON.  The server
drives the query surface of
:class:`~repro.service.workers.IngestWorkerPool` (``api_stats`` /
``api_verdicts`` / ``api_watch`` / ``api_sender``), whatever its
worker count.

Endpoints
---------
``GET /stats``
    Ingest rates, per-shard occupancy, eviction and flag counters:
    merged totals plus a ``per_worker`` breakdown.
``GET /verdicts[?after=CURSOR&limit=N]``
    First-flag events after ``CURSOR``, plus ``next`` — the cursor to
    pass back as ``after`` on the next poll — the currently-flagged
    resident senders, and the retention fields a resuming watcher
    needs: ``dropped`` (flag events aged out of the capped log) and
    ``gap`` (true when events between ``CURSOR`` and the retained
    window were dropped — the poller can never see them), each also
    broken down ``per_worker``.  The cursor is one dot-joined
    component per worker (``"12"`` for one worker) — always echo
    ``next`` back verbatim.
``GET /senders/<id>``
    One sender's resident detector state: verdict, counters, bounded
    flag/clear transition log.  404 when the sender was never seen
    *or* was evicted under the entry budget (the body says which
    cannot be distinguished, by design: bounded memory).
``GET /watch[?after=CURSOR&timeout=S]``
    Long-poll ``/verdicts``: blocks until a first-flag event after
    ``CURSOR`` exists or the timeout (default 30 s, capped at
    ``MAX_WATCH_TIMEOUT``) passes, then answers like ``/verdicts``
    without ``flagged`` (possibly with an empty event list on
    timeout), including the same ``dropped``/``gap`` retention
    fields.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

#: Upper bound on a single ``/watch`` long-poll (seconds).
MAX_WATCH_TIMEOUT = 120.0


class _ApiHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Headers and body go out in two writes.  With Nagle's algorithm on
    # a keep-alive connection, the body would wait for the peer's
    # delayed ACK of the headers (~40 ms per answer).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        service = self.server.service  # type: ignore[attr-defined]
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        path = url.path.rstrip("/") or "/"
        try:
            if path == "/stats":
                self._json(200, service.api_stats())
            elif path == "/verdicts":
                self._verdicts(service, query)
            elif path == "/watch":
                self._watch(service, query)
            elif path.startswith("/senders/"):
                self._sender(service, unquote(path[len("/senders/"):]))
            else:
                self._json(404, {
                    "error": f"no such endpoint: {path}",
                    "endpoints": ["/stats", "/verdicts", "/senders/<id>",
                                  "/watch"],
                })
        except _BadRequest as exc:
            self._json(400, {"error": str(exc)})

    # ------------------------------------------------------------------
    def _verdicts(self, service, query) -> None:
        after = _str_param(query, "after")
        limit = _int_param(query, "limit", None, minimum=1)
        try:
            payload = service.api_verdicts(after, limit)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        self._json(200, payload)

    def _watch(self, service, query) -> None:
        after = _str_param(query, "after")
        limit = _int_param(query, "limit", None, minimum=1)
        timeout = _float_param(query, "timeout", 30.0, minimum=0.0)
        try:
            payload = service.api_watch(
                after, timeout=min(timeout, MAX_WATCH_TIMEOUT), limit=limit
            )
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        self._json(200, payload)

    def _sender(self, service, sender: str) -> None:
        if not sender:
            raise _BadRequest("empty sender id (use /senders/<id>)")
        snapshot = service.api_sender(sender)
        if snapshot is None:
            self._json(404, {
                "error": f"sender {sender!r} is not resident: never "
                         "observed, or evicted under the per-shard entry "
                         "budget (see /stats evictions)",
            })
            return
        self._json(200, snapshot)

    # ------------------------------------------------------------------
    def _json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the service's stdout/stderr belong to the operator


class _BadRequest(ValueError):
    pass


def _str_param(query, name):
    values = query.get(name)
    return values[-1] if values else None


def _int_param(query, name, default, minimum):
    values = query.get(name)
    if not values:
        return default
    try:
        value = int(values[-1])
    except ValueError:
        raise _BadRequest(
            f"query parameter {name!r} must be an integer, "
            f"got {values[-1]!r}"
        ) from None
    if value < minimum:
        raise _BadRequest(f"query parameter {name!r} must be >= {minimum}")
    return value


def _float_param(query, name, default, minimum):
    values = query.get(name)
    if not values:
        return default
    try:
        value = float(values[-1])
    except ValueError:
        raise _BadRequest(
            f"query parameter {name!r} must be a number, got {values[-1]!r}"
        ) from None
    if value < minimum:
        raise _BadRequest(f"query parameter {name!r} must be >= {minimum}")
    return value


class ServiceHTTPServer(ThreadingHTTPServer):
    """The query API bound to ``host:port`` (port 0 = ephemeral).

    ``serve_forever()`` on a thread; ``shutdown()`` to stop.  The
    bound port is ``server.server_address[1]``.  ``service`` is the
    :class:`~repro.service.workers.IngestWorkerPool` whose ``api_*``
    query surface the handler drives.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__((host, port), _ApiHandler)
        self.service = service
