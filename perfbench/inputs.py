"""Benchmark-owned inputs: campaign spec, tight-cell grid, wire stream.

Every input a workload feeds the program is generated here, from the
run's ``--seed``, so that a change to the program cannot change what
the benchmark asks of it.  Nothing in this module reads the program's
own load generator or test fixtures.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import List

#: Seed reserved for confirming a claimed gain after the change was
#: written: tune and develop on other seeds, then rerun on this one.
HELD_OUT_SEED = 9001

# ----------------------------------------------------------------------
# paper-campaign
# ----------------------------------------------------------------------
#: The paper's Figure 3 circles: ZERO-FLOW and TWO-FLOW at 8 senders,
#: TWO-FLOW at 32.  Enough for fig4 (PM axis at n=8) and fig6/fig7
#: (size axis at PM=0).  The largest scenario comes first, so its
#: cells start first and a worker pool finishes the grid evenly.
CAMPAIGN_SCENARIOS = "circle:32+interferers | circle:8+interferers | circle:8"
CAMPAIGN_SECONDS = 1.0
CAMPAIGN_SEEDS_PER_CELL = 1
REPORT_FIGURES = ("fig4", "fig6", "fig7")


def campaign_seeds(seed: int) -> List[int]:
    """Simulation seeds of one campaign, derived from the run seed."""
    rng = random.Random(f"paper-campaign/{seed}")
    return sorted(rng.sample(range(1, 1_000_000), CAMPAIGN_SEEDS_PER_CELL))


def campaign_spec_text(seed: int) -> str:
    """The campaign grid in the program's spec grammar."""
    seeds = "|".join(str(s) for s in campaign_seeds(seed))
    return (
        f"scenario={CAMPAIGN_SCENARIOS}; protocol=correct|802.11; "
        f"pm=0|60; cheater=3; seeds={seeds}; seconds={CAMPAIGN_SECONDS}"
    )


# ----------------------------------------------------------------------
# tight-cell
# ----------------------------------------------------------------------
#: Radius at which every sender senses every other one strongly, so
#: the PHY never samples marginal carrier sense.
TIGHT_RADIUS_M = 40.0
TIGHT_SIZES = (32, 8)
TIGHT_SECONDS = 2.0
TIGHT_CHEATER = 3
TIGHT_PM = 60.0


@dataclass(frozen=True)
class TightCell:
    """One tight-cell grid point (the config is built by the caller)."""

    senders: int
    protocol: str
    pm: float
    seed: int

    @property
    def label(self) -> str:
        return f"n={self.senders}/{self.protocol}/pm={self.pm:g}"


def tight_cells(seed: int) -> List[TightCell]:
    """Both sizes x both protocols x (all honest, one PM=60 cheater),
    largest cells first so a worker pool finishes them evenly."""
    rng = random.Random(f"tight-cell/{seed}")
    sim_seed = rng.randrange(1, 1_000_000)
    return [
        TightCell(senders=n, protocol=protocol, pm=pm, seed=sim_seed)
        for n in TIGHT_SIZES
        for protocol in ("802.11", "correct")
        for pm in (0.0, TIGHT_PM)
    ]


# ----------------------------------------------------------------------
# service-churn
# ----------------------------------------------------------------------
#: The program's own load shape (``repro.service.loadgen``'s defaults):
#: every sender of the population once, plus Zipf(1.1) draws over it,
#: two per sender, the whole stream shuffled.  The shape is copied
#: here, not imported, so a change to the program cannot change it.
ZIPF_S = 1.1
ZIPF_DRAWS_PER_SENDER = 2
#: Fewest distinct senders a stream has, well past the service's
#: 8 x 10k entry budget.
MIN_POPULATION = 120_000
CHEATER_SHARE = 0.02
CHEATER_PM = 0.6
#: Expected backoffs cycled through the stream (slots).
EXPECTED_BACKOFFS = (8.0, 12.0, 16.0, 20.0, 24.0, 31.0)
#: ``time_us`` of paced lines starts here (backlogged lines stay below
#: it), so a flag event tells which phase raised it.
PACED_BASE_US = 1_000_000_000


def population_of(lines: int) -> int:
    """Distinct senders of a ``lines``-line stream."""
    population = max(MIN_POPULATION, lines // (1 + ZIPF_DRAWS_PER_SENDER))
    if population > lines:
        raise ValueError(
            f"a {lines}-line stream cannot visit {population} senders"
        )
    return population


class WireStream:
    """Deterministic Zipf sender churn as wire JSONL lines.

    The stream has exactly ``lines`` lines, handed out by :meth:`take`
    in stream order; the same seed and length always give the same
    lines.  Every sender of the population appears at least once; the
    remaining lines are Zipf draws over the population's ranks; the
    whole sequence is shuffled.  Cheaters (a seeded
    :data:`CHEATER_SHARE` of the population) report
    ``b_act = (1 - PM) * b_exp``; honest senders report no deficit.
    """

    def __init__(self, seed: int, lines: int):
        rng = random.Random(f"service-churn/{seed}")
        population = population_of(lines)
        self.population = population
        self._salt = f"{rng.randrange(1 << 30):x}."
        self.is_cheater = bytearray(population)
        for index in rng.sample(
            range(population), int(population * CHEATER_SHARE)
        ):
            self.is_cheater[index] = 1
        total = 0.0
        cumulative = []
        for rank in range(1, population + 1):
            total += rank ** -ZIPF_S
            cumulative.append(total)
        order = list(range(population))
        draw = rng.random
        order.extend(
            bisect_left(cumulative, draw() * total)
            for _ in range(lines - population)
        )
        rng.shuffle(order)
        self._order = order
        self.emitted = 0

    def key(self, index: int) -> str:
        return self._salt + str(index)

    def cheater_keys(self) -> frozenset:
        return frozenset(
            self.key(i) for i, bad in enumerate(self.is_cheater) if bad
        )

    def take(self, count: int, fold=None, paced=None) -> List[str]:
        """The next ``count`` lines.  With ``paced=(base_us, rate)``,
        line ``i`` of this call is stamped ``time_us = base_us + i /
        rate`` (its due send offset); otherwise ``time_us`` is the line's
        stream position.  ``fold``, when given, is called as
        ``fold(sender, b_exp - b_act, time_us)`` for every line, in
        stream order."""
        if self.emitted + count > len(self._order):
            raise ValueError("wire stream exhausted")
        lines = []
        for i in range(count):
            index = self._order[self.emitted]
            b_exp = EXPECTED_BACKOFFS[self.emitted % len(EXPECTED_BACKOFFS)]
            b_act = (
                round((1.0 - CHEATER_PM) * b_exp, 3)
                if self.is_cheater[index] else b_exp
            )
            time_us = (
                paced[0] + int(i * 1e6 / paced[1])
                if paced is not None else self.emitted
            )
            sender = self.key(index)
            # The program's compact sorted-key encoding, spelled out:
            # floats use repr(), as json.dumps does.
            lines.append(
                f'{{"b_act":{b_act!r},"b_exp":{b_exp!r},"retries":1,'
                f'"sender":"{sender}","time_us":{time_us},"v":1}}'
            )
            if fold is not None:
                fold(sender, b_exp - b_act, time_us)
            self.emitted += 1
        return lines


def shard_of(sender: str, shards: int) -> int:
    """crc32 shard placement; the service must agree with it."""
    return zlib.crc32(sender.encode("utf-8")) % shards
