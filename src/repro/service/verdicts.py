"""First-flag verdict log: the service's durable-ish verdict memory.

The sharded store bounds per-sender *detector* state by evicting cold
senders; a flagged sender must not be forgotten with it.  The
:class:`VerdictLog` keeps one small record per first flag — the
sender, when it flagged, how long it took from first sight — in a
capped append-only list with monotonically increasing event ids, so:

* ``/verdicts`` can answer "who has ever been flagged" even after the
  flagged sender's detector state aged out of its shard;
* ``/watch`` long-polls can resume from the last event id they saw
  without missing a flag (ids are dense, so a gap is detectable);
* the bench can compute p99 first-sight-to-flag latency from the
  recorded wall-clock pairs without instrumenting the hot path.

When the cap is reached the *oldest* events are dropped and counted;
every read therefore reports ``oldest`` (the oldest retained id, or
``None`` on an empty log) and ``dropped`` alongside the events, so a
watcher resuming from an id older than the retained window can see
that flags fell out of its view instead of silently missing them:
``after + 1 < oldest`` means ids in ``(after, oldest)`` are gone.
"""

from __future__ import annotations

from threading import Condition
from typing import Dict, List, Optional, Tuple

from repro.service.store import FlagEvent

#: Default first-flag events retained (one per ever-flagged sender).
DEFAULT_VERDICT_CAP = 1_000_000


def event_payload(event: FlagEvent) -> Dict[str, object]:
    """The wire-facing fields of one logged flag event (the caller adds
    its identity)."""
    return {
        "sender": event.sender,
        "time_us": event.time_us,
        "observations": event.observations,
        "latency_s": round(event.wall - event.first_obs_wall, 6),
    }


class VerdictLog:
    """Append-only, capped log of :class:`FlagEvent` with watch support."""

    def __init__(self, cap: int = DEFAULT_VERDICT_CAP):
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.cap = cap
        self._condition = Condition()
        self._events: List[Tuple[int, FlagEvent]] = []
        self._next_id = 1
        self._dropped = 0

    # ------------------------------------------------------------------
    def publish(self, event: FlagEvent) -> int:
        """Append a first-flag event; wakes every ``/watch`` waiter."""
        with self._condition:
            event_id = self._next_id
            self._next_id += 1
            self._events.append((event_id, event))
            if len(self._events) > self.cap:
                del self._events[0]
                self._dropped += 1
            self._condition.notify_all()
            return event_id

    # ------------------------------------------------------------------
    def events_after(
        self, after: int = 0, limit: Optional[int] = None,
    ) -> Tuple[List[Dict[str, object]], int, Dict[str, object]]:
        """Events with id > ``after`` as dicts, the newest id, and the
        retention info dict (``oldest`` retained id + ``dropped``
        count).

        The returned id is what a poller passes back as ``after`` on
        its next call, whether or not anything new arrived.
        """
        with self._condition:
            return self._snapshot(after, limit)

    def wait_for(
        self,
        after: int = 0,
        timeout: float = 30.0,
        limit: Optional[int] = None,
    ) -> Tuple[List[Dict[str, object]], int, Dict[str, object]]:
        """Long-poll: block until an event with id > ``after`` exists
        (or ``timeout`` seconds pass), then return like
        :meth:`events_after`."""
        with self._condition:
            self._condition.wait_for(
                lambda: self._next_id > after + 1, timeout=timeout
            )
            return self._snapshot(after, limit)

    def raw_events_after(
        self, after: int = 0, limit: Optional[int] = None,
    ) -> Tuple[List[Tuple[int, FlagEvent]], int, Dict[str, object]]:
        """Like :meth:`events_after` but with raw ``(id, FlagEvent)``
        pairs — the scatter-gather path interleaves worker streams by
        their original wall clocks."""
        with self._condition:
            return self._raw(after, limit)

    def _raw(
        self, after: int, limit: Optional[int],
    ) -> Tuple[List[Tuple[int, FlagEvent]], int, Dict[str, object]]:
        # Retained ids are dense, so the first id > ``after`` sits at
        # index ``after + 1 - oldest``.
        start = max(0, after + 1 - self._events[0][0]) if self._events else 0
        fresh = self._events[start:]
        newest = self._next_id - 1
        if limit is not None and len(fresh) > limit:
            fresh = fresh[:limit]
            newest = fresh[-1][0]
        return fresh, newest, self._retention()

    def _snapshot(
        self, after: int, limit: Optional[int],
    ) -> Tuple[List[Dict[str, object]], int, Dict[str, object]]:
        pairs, newest, info = self._raw(after, limit)
        fresh = [
            {"id": event_id, **event_payload(event)}
            for event_id, event in pairs
        ]
        return fresh, newest, info

    def _retention(self) -> Dict[str, object]:
        return {
            "oldest": self._events[0][0] if self._events else None,
            "dropped": self._dropped,
        }

    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        """First-sight-to-flag wall latencies (seconds) of every
        retained event, in publish order (the bench's p99 input)."""
        with self._condition:
            return [
                event.wall - event.first_obs_wall
                for _, event in self._events
            ]

    def stats(self) -> Dict[str, object]:
        with self._condition:
            return {
                "flags": self._next_id - 1,
                "retained": len(self._events),
                "dropped": self._dropped,
                "oldest": self._events[0][0] if self._events else None,
                "cap": self.cap,
            }

    def __len__(self) -> int:
        with self._condition:
            return len(self._events)
