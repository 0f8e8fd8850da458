"""Idle-slot counting from one node's perspective.

The receiver-side quantity ``B_act`` in the paper is "the number of
idle slots observed on the channel during the interval between the
sending of an ACK by R and the reception of the next RTS from S".
For the comparison ``B_act < alpha * B_exp`` to be meaningful, the
receiver must count idle slots *the way a conforming sender's backoff
counter would*: slots are only eligible after a DIFS (or EIFS, after
a reception error) of deference following each busy period, partial
slots cut short by a busy edge do not count, and individual slots
"flickered" busy by a marginally-sensed transmission do not count.
Counting raw idle time instead would credit every sender with the
DIFS gaps of everyone else's exchanges (tens of slots per packet in a
saturated cell), burying misbehavior in noise — the natural ns-2
implementation hooks the MAC's own backoff-eligibility logic, and so
do we.

:class:`IdleSlotCounter` maintains a *cumulative* eligible-idle-slot
count so any interval's ``B_act`` is a difference of two snapshots.
Regimes (driven by the owning MAC from medium callbacks):

* strong-busy — no slots accrue; the slot clock realigns at the edge;
* deference   — after a busy period, counting starts ``ifs`` later;
* clean idle  — whole slots accrue every ``slot_us``;
* marginal    — each slot independently busy with the current
  combined probability ``p``; the busy count over an elapsed stretch
  is sampled lazily as a Binomial, so no per-slot events are needed.

Counters exist only where ``B_act`` is read: on CORRECT receivers that
judge senders (in a built scenario, the flow destinations) and on
third-party observers.  Every other MAC carries none, and its
carrier-sense edges skip the counter bookkeeping and its binomial
draws.  Each counter owns its ``idle/<node>`` stream, so which nodes
count changes no other stream's draws and no result.
"""

from __future__ import annotations

import random

from repro.sim.engine import SimulationError
from repro.sim.rng import binomial


class IdleSlotCounter:
    """Cumulative conforming-station idle-slot counter.

    Parameters
    ----------
    slot_us:
        Slot duration in microseconds.
    rng:
        Random stream for the lazy binomial sampling of marginal
        stretches.
    difs_us:
        Default deference after each busy period (also applied at
        time zero, matching a station's initial DIFS wait).
    start_time:
        Simulation time at which counting begins.
    """

    def __init__(
        self,
        slot_us: int,
        rng: random.Random,
        difs_us: int = 50,
        start_time: int = 0,
    ):
        if slot_us <= 0:
            raise ValueError("slot_us must be positive")
        self.slot_us = slot_us
        self.rng = rng
        self.difs_us = difs_us
        self._slots = 0
        self._strong = False
        self._marginal_p = 0.0
        #: Start of the next countable slot (>= any pending deference).
        self._cursor = start_time + difs_us
        #: Latest ``now`` ever observed; guards against a backwards
        #: clock (e.g. a drift-fault/resync interaction) silently
        #: rewinding the cursor and double-counting slots.
        self._last_now = start_time

    # ------------------------------------------------------------------
    # Regime transitions (advance first, then switch)
    # ------------------------------------------------------------------
    def set_strong(self, busy: bool, now: int, ifs_us: int | None = None) -> None:
        """Record a strong-busy edge at time ``now``.

        On the busy->idle edge, ``ifs_us`` is the deference to apply
        before slots become eligible again (DIFS by default; the MAC
        passes EIFS after a reception error).
        """
        self.advance(now)
        self._strong = busy
        if busy:
            # Partial slot progress is discarded; the clock realigns.
            self._cursor = now
        else:
            defer = ifs_us if ifs_us is not None else self.difs_us
            self._cursor = now + defer

    def set_marginal_probability(self, p: float, now: int) -> None:
        """Record a change of the combined marginal busy probability."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.advance(now)
        self._marginal_p = p

    def advance(self, now: int) -> None:
        """Count all complete eligible slots up to ``now``.

        Raises
        ------
        SimulationError
            If ``now`` precedes a previously observed time.  A
            backwards clock would rewind the slot cursor on the next
            strong edge and double-count (or negatively count) slots,
            so it is rejected loudly rather than sampled.
        """
        if now < self._last_now:
            raise SimulationError(
                f"IdleSlotCounter clock went backwards: advance to {now} "
                f"after observing {self._last_now}"
            )
        self._last_now = now
        if self._strong:
            self._cursor = max(self._cursor, now)
            return
        if now <= self._cursor:
            return
        whole = (now - self._cursor) // self.slot_us
        if whole <= 0:
            return
        n = int(whole)
        if self._marginal_p <= 0.0:
            idle = n
        elif self._marginal_p >= 1.0:
            idle = 0
        else:
            idle = n - binomial(self.rng, n, self._marginal_p)
        self._slots += idle
        self._cursor += n * self.slot_us

    def resync(self, now: int, ifs_us: int | None = None) -> None:
        """Re-enter counting after an outage (e.g. a node restart).

        The cumulative count is preserved; the node simply defers a
        fresh IFS (DIFS by default) from ``now`` before slots become
        eligible again, exactly as a station that just powered up.
        """
        self.advance(now)
        defer = ifs_us if ifs_us is not None else self.difs_us
        self._cursor = max(self._cursor, now + defer)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def idle_slots(self, now: int) -> int:
        """Cumulative eligible idle slots observed until ``now``."""
        self.advance(now)
        return self._slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        regime = "strong" if self._strong else (
            f"marginal(p={self._marginal_p:.3f})" if self._marginal_p else "idle"
        )
        return f"IdleSlotCounter(slots={self._slots}, regime={regime})"
