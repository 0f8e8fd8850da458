"""One-sided CUSUM detector on the normalized backoff deficit.

After Cao, Li & Cheng, "Real-Time Misbehavior Detection in IEEE
802.11e Based WLANs" (see PAPERS.md): misbehavior that shortens
backoffs shifts the mean of the observed deficit upward, and a
cumulative-sum sequential test detects that shift with a tunable
trade between detection delay and false alarms.

Mapping to the cited test
-------------------------
Cao et al. run nonparametric CUSUM on the (bounded, normalized)
observed backoff of each transmission.  Here the receiver already
reconstructs the expectation ``B_exp``, so the test statistic is the
normalized *deficit* ``x_n = (B_exp - B_act) / norm``:

    S_0 = 0,   S_n = max(0, S_{n-1} + x_n - k)

and the sender stands diagnosed while ``S_n > h``.  ``k`` (the
reference/allowance value) absorbs the honest channel-asymmetry noise:
an honest sender's deficit hovers around zero, so ``x_n - k`` is
negative on average and ``S`` sticks to the reflecting barrier at 0.
A persistent cheater with PM misbehavior yields ``x_n ~ PM/100 *
B_exp / norm``, so ``S`` climbs at a constant rate and crosses ``h``
after roughly ``h / (PM/100 - k)`` packets — the classic
false-alarm-rate vs detection-delay dial.
"""

from __future__ import annotations

from repro.detect.base import DetectorBase, Observation


class CusumDetector(DetectorBase):
    """One-sided (positive-drift) CUSUM test on the backoff deficit.

    Parameters
    ----------
    h:
        Decision threshold on the cumulative statistic.  Larger means
        fewer false alarms and slower detection.
    k:
        Reference value (per-observation drift allowance) subtracted
        from each normalized deficit before accumulation.
    norm:
        Slots per unit of normalized deficit; the paper's CWmin is the
        natural scale (one full minimum contention window of deficit
        counts as 1.0).
    """

    name = "cusum"
    __slots__ = ("h", "k", "norm", "statistic")

    def __init__(self, h: float = 2.0, k: float = 0.25, norm: float = 31.0):
        super().__init__()
        if h <= 0:
            raise ValueError(f"h must be > 0, got {h}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if norm <= 0:
            raise ValueError(f"norm must be > 0, got {norm}")
        self.h = float(h)
        self.k = float(k)
        self.norm = float(norm)
        self.statistic = 0.0

    def _update(self, observation: Observation) -> bool:
        x = observation.difference / self.norm
        self.statistic = max(0.0, self.statistic + x - self.k)
        return self.is_misbehaving

    @property
    def is_misbehaving(self) -> bool:
        return self.statistic > self.h

    def reset(self) -> None:
        super().reset()
        self.statistic = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CusumDetector(S={self.statistic:.2f}, h={self.h}, "
            f"k={self.k}, norm={self.norm})"
        )
