"""Diagnosis scheme: windowed misbehavior decision (Section 4.3).

The receiver keeps, per sender, the differences ``B_exp - B_act`` of
the last ``W`` received packets.  The sender is diagnosed as
misbehaving while the *sum* of the stored differences exceeds
``THRESH``.  Positive and negative differences are both kept: an
honest sender that looked deviant on one packet usually over-waits on
another, so its windowed sum hovers near zero, while a persistent
cheater accumulates positive mass.
"""

from __future__ import annotations

from typing import Iterable, List


class DiagnosisWindow:
    """Moving window of backoff differences for one sender.

    Parameters
    ----------
    window:
        ``W`` — number of most recent packets considered.
    thresh:
        ``THRESH`` — slot threshold on the windowed sum.

    The detection service keeps one window per resident sender, so the
    state is a slotted object and a plain list of at most ``W``
    floats: a ``deque`` allocates a 64-slot block on creation and after
    every :meth:`reset`, several times the ``W`` samples it holds.
    """

    __slots__ = ("window", "thresh", "_differences", "_sum",
                 "observations", "flagged_observations")

    def __init__(self, window: int, thresh: float):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.thresh = float(thresh)
        #: The last ``W`` differences, oldest first.
        self._differences: List[float] = []
        self._sum = 0.0
        #: Number of packets observed (lifetime, not window-limited).
        self.observations = 0
        #: Number of observations on which the sender stood diagnosed.
        self.flagged_observations = 0

    def update(self, difference: float) -> bool:
        """Record one packet's ``B_exp - B_act`` and return the verdict.

        Returns True when, after including this packet, the windowed
        sum exceeds ``THRESH`` (the packet "is classified to be from a
        misbehaving sender", the unit of the paper's accuracy metric).
        """
        differences = self._differences
        if len(differences) == self.window:
            # Recompute instead of subtracting the evicted sample: with
            # mixed magnitudes the incremental subtract leaves float
            # residue (adding 1e12 then removing it does not restore
            # the small-value sum), which would let a huge one-off
            # spike poison every later verdict.  W is tiny, so the
            # from-scratch sum costs nothing.
            del differences[0]
            differences.append(difference)
            total = 0.0
            for kept in differences:
                total += kept
            self._sum = total
        else:
            differences.append(difference)
            self._sum += difference
        self.observations += 1
        flagged = self.is_misbehaving
        if flagged:
            self.flagged_observations += 1
        return flagged

    @property
    def windowed_sum(self) -> float:
        """Current sum of differences over the window."""
        return self._sum

    @property
    def is_misbehaving(self) -> bool:
        """Whether the sender currently stands diagnosed."""
        return self._sum > self.thresh

    @property
    def contents(self) -> Iterable[float]:
        """Snapshot of the stored differences, oldest first."""
        return tuple(self._differences)

    def reset(self) -> None:
        """Forget all history (e.g. after an administrative pardon)."""
        self._differences.clear()
        self._sum = 0.0
        self.observations = 0
        self.flagged_observations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiagnosisWindow(sum={self._sum:.1f}, thresh={self.thresh}, "
            f"n={len(self._differences)}/{self.window})"
        )
