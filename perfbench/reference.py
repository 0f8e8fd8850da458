"""Reference fold of the service's detector state, owned by the benchmark.

:class:`ReferenceFold` replays a wire stream through the serving
contract the program documents: ``crc32(sender) % shards`` placement,
a least-recently-observed entry budget per shard, the paper's W/THRESH
window per sender, and one first-flag event per sender tenure.  The
benchmark compares the service's ``/verdicts`` history and eviction
count with it, so a fold that loses, reorders or misjudges
observations shows up as a failed check.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from inputs import shard_of

#: The paper's window detector (W packets, THRESH slots) and the
#: service's default geometry (8 shards x 10k entries).
WINDOW = 5
THRESH = 20.0
SHARDS = 8
MAX_ENTRIES = 10_000
#: Evicted detectors the service keeps per shard for reuse; reuse
#: instead of construction is what ``detectors_built`` counts.
FREE_POOL_CAP = 32


class _Entry:
    __slots__ = ("diffs", "total", "flagged", "first_flagged")

    def __init__(self) -> None:
        self.diffs: List[float] = []
        self.total = 0.0
        self.flagged = False
        self.first_flagged = False


class ReferenceFold:
    """Replays observations; call it as ``fold(sender, diff, time_us)``."""

    def __init__(self) -> None:
        self._shards = [OrderedDict() for _ in range(SHARDS)]
        self._free = [0] * SHARDS
        self.events: List[Tuple[str, int]] = []
        self.evictions = 0
        self.detectors_built = 0
        self.observations = 0

    def __call__(self, sender: str, diff: float, time_us: int) -> None:
        index = shard_of(sender, SHARDS)
        entries = self._shards[index]
        entry = entries.get(sender)
        if entry is None:
            if self._free[index]:
                self._free[index] -= 1
            else:
                self.detectors_built += 1
            entry = entries[sender] = _Entry()
            if len(entries) > MAX_ENTRIES:
                entries.popitem(last=False)
                self.evictions += 1
                if self._free[index] < FREE_POOL_CAP:
                    self._free[index] += 1
        else:
            entries.move_to_end(sender)
        self.observations += 1
        diffs = entry.diffs
        diffs.append(diff)
        if len(diffs) > WINDOW:
            # The full window is summed afresh, oldest first, exactly
            # as the detector does, so float sums agree bit for bit.
            del diffs[0]
            total = 0.0
            for kept in diffs:
                total += kept
            entry.total = total
        else:
            entry.total += diff
        verdict = entry.total > THRESH
        if verdict != entry.flagged:
            entry.flagged = verdict
            if verdict and not entry.first_flagged:
                entry.first_flagged = True
                self.events.append((sender, time_us))
