"""The simulation workloads: ``paper-campaign`` and ``tight-cell``.

Both drive the program through its public entry points only:
``run_campaign`` + ``load_dataset``/``figure_from_dataset`` for the
campaign, ``ExperimentExecutor.run`` for the tight cell.  One *unit*
is the workload's fixed grid, run to completion; an untraced run
repeats units until its time is up and reports per-unit medians.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import zlib
from statistics import median
from typing import Dict, List, Tuple

import inputs
from common import Outcome, Checks, peak_rss_mb
from repro.analysis.bianchi import saturation_throughput
from repro.experiments.campaign import (
    expand_cells,
    figure_from_dataset,
    load_dataset,
    parse_campaign,
    run_campaign,
)
from repro.experiments.executor import ExperimentExecutor, FailedRun
from repro.experiments.scenarios import PROTOCOL_80211, ScenarioConfig
from repro.net.topology import circle_topology

#: The fewest units an untraced run measures, however slow.
MIN_UNITS = 3
#: Executor start-ups timed per unit (the last one runs the unit), so
#: ``setup_s`` is a median over many samples spread across the run.
SETUPS_PER_UNIT = 3

#: Statistical floors and ceilings of the campaign checks.  The grid
#: runs 1 simulated second per cell, so these bound what 20 seeds of
#: such runs showed with a wide margin (see perfbench/METRICS.md);
#: they catch a broken detector or MAC, not the paper's 50 s figures.
DIAGNOSIS_FLOOR = {"ZERO-FLOW": 50.0, "TWO-FLOW": 25.0}
MISDIAGNOSIS_CEILING = {"ZERO-FLOW": 25.0, "TWO-FLOW": 90.0}
FAIRNESS_SLACK = 0.25
#: ``tests/test_bianchi.py``'s tolerance for simulated vs modelled
#: saturation throughput.
BIANCHI_TOLERANCE = 0.20


def _warmup_configs() -> List[ScenarioConfig]:
    # Two distinct tiny runs, so a two-worker pool starts both workers.
    return [
        ScenarioConfig(topology=circle_topology(2), duration_us=1_000,
                       seed=seed)
        for seed in (1, 2)
    ]


def start_executor(workers: int) -> Tuple[ExperimentExecutor, float]:
    """Executor start-up, timed: a pool of ``workers`` serving two tiny
    runs.  Scenario construction is not part of it: the pool's workers
    build each grid scenario as they run it, so it counts in
    ``wall_s`` (and in the traced ``experiments.scenarios.build_s``)."""
    start = time.perf_counter()
    executor = ExperimentExecutor(workers=workers, on_failure="flag")
    executor.run(_warmup_configs())
    return executor, time.perf_counter() - start


# ----------------------------------------------------------------------
# paper-campaign
# ----------------------------------------------------------------------
class PaperCampaign:
    name = "paper-campaign"

    def __init__(self, seed: int, tmp: str):
        self.spec = parse_campaign(inputs.campaign_spec_text(seed))
        self.cells = expand_cells(self.spec)
        self.configs = [cell.config for cell in self.cells]
        self.sim_seconds = sum(c.duration_us for c in self.configs) / 1e6
        self.tmp = tmp

    def unit(self, executor, checks: Checks, tracer=None) -> Dict:
        """Spec in, figure datasets out, in a fresh campaign directory."""
        out = tempfile.mkdtemp(prefix="campaign-", dir=self.tmp)
        start = time.perf_counter()
        report = run_campaign(self.spec, out, executor=executor)
        sim_done = time.perf_counter()
        if tracer is None:
            dataset, figures = self._report(out)
        else:
            dataset, figures = tracer.span(
                "campaign:report", self._report, out
            )
        end = time.perf_counter()
        journal_bytes = os.path.getsize(report.journal_path)
        events = sum(
            int(v) for v in dataset.column("events_processed")
            if v is not None
        )
        shutil.rmtree(out)
        checks.runs(report.cells, report.failed + report.quarantined)
        self._check(figures, checks)
        return {
            "wall_s": end - start,
            "sim_s_per_s": self.sim_seconds / (sim_done - start),
            "journal_bytes": journal_bytes,
            "events": events,
            "signature": _signature(
                {fid: fig.series for fid, fig in figures.items()}
            ),
        }

    @staticmethod
    def _report(out: str):
        dataset = load_dataset(out)
        return dataset, {
            fid: figure_from_dataset(dataset, fid)
            for fid in inputs.REPORT_FIGURES
        }

    @staticmethod
    def _check(figures, checks: Checks) -> None:
        fig4 = figures["fig4"].series
        for scenario, floor in DIAGNOSIS_FLOOR.items():
            value = _y_at(fig4, f"{scenario} correct diagnosis", 60.0)
            checks.expect(
                value is not None and value >= floor,
                f"{scenario} diagnoses the PM=60 cheater "
                f"({value} % >= {floor} %)",
            )
        for scenario, ceiling in MISDIAGNOSIS_CEILING.items():
            values = [y for _, y in fig4.get(f"{scenario} misdiagnosis", [])]
            checks.expect(
                bool(values) and max(values) <= ceiling,
                f"{scenario} misdiagnosis stays under {ceiling} % ({values})",
            )
        fig7 = figures["fig7"].series
        correct = _mean_y(fig7, "CORRECT")
        baseline = _mean_y(fig7, "802.11")
        checks.expect(
            correct is not None and baseline is not None
            and correct >= baseline - FAIRNESS_SLACK,
            f"CORRECT mean Jain index {correct} >= 802.11's {baseline} "
            f"- {FAIRNESS_SLACK}",
        )
        checks.expect(
            bool(figures["fig6"].series) and not any(
                fig.has_failures for fig in figures.values()
            ),
            "fig4/fig6/fig7 build with no failed points",
        )


def _y_at(series, name: str, x: float):
    for px, py in series.get(name, []):
        if px == x:
            return py
    return None


def _mean_y(series, protocol_label: str):
    values = [
        y for name, points in series.items()
        if name.endswith(" " + protocol_label)
        for _, y in points
    ]
    return sum(values) / len(values) if values else None


def _signature(value) -> int:
    """crc32 of a value's repr: equal inputs and program, equal number."""
    return zlib.crc32(repr(value).encode("utf-8"))


# ----------------------------------------------------------------------
# tight-cell
# ----------------------------------------------------------------------
class TightCell:
    name = "tight-cell"

    def __init__(self, seed: int, tmp: str):
        self.cells = inputs.tight_cells(seed)
        self.configs = [
            ScenarioConfig(
                topology=circle_topology(
                    cell.senders,
                    misbehaving=(inputs.TIGHT_CHEATER,) if cell.pm else (),
                    pm_percent=cell.pm,
                    radius_m=inputs.TIGHT_RADIUS_M,
                ),
                protocol=cell.protocol,
                duration_us=int(inputs.TIGHT_SECONDS * 1e6),
                seed=cell.seed,
            )
            for cell in self.cells
        ]
        self.sim_seconds = sum(c.duration_us for c in self.configs) / 1e6

    def unit(self, executor, checks: Checks, tracer=None) -> Dict:
        start = time.perf_counter()
        results = executor.run(self.configs)
        wall = time.perf_counter() - start
        failed = sum(isinstance(r, FailedRun) for r in results)
        checks.runs(len(results), failed)
        values = {}
        events = 0
        for cell, result in zip(self.cells, results):
            if isinstance(result, FailedRun):
                continue
            events += result.events_processed
            aggregate = sum(result.throughputs().values())
            values[cell.label] = (
                aggregate, result.correct_diagnosis_percent,
                result.misdiagnosis_percent,
            )
            if cell.protocol == PROTOCOL_80211 and not cell.pm:
                predicted = saturation_throughput(cell.senders).throughput_bps
                error = abs(aggregate - predicted) / predicted
                checks.expect(
                    error < BIANCHI_TOLERANCE,
                    f"{cell.label}: aggregate {aggregate:.0f} bps within "
                    f"{BIANCHI_TOLERANCE:.0%} of Bianchi {predicted:.0f}",
                )
        return {
            "wall_s": wall,
            "sim_s_per_s": self.sim_seconds / wall,
            "events": events,
            "signature": _signature(values),
        }


WORKLOADS = {cls.name: cls for cls in (PaperCampaign, TightCell)}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_untraced(name: str, seed: int, seconds: float, tmp: str,
                 workers: int) -> Outcome:
    """Repeat set-up plus unit until ``seconds`` are spent.  Each unit
    gets a fresh executor, as each command-line run would, after
    :data:`SETUPS_PER_UNIT` - 1 more start-ups that are timed and
    closed, so set-ups are sampled across the whole run like the
    units."""
    workload = WORKLOADS[name](seed, tmp)
    checks = Checks()
    setups = []
    units = []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_UNIT - 1):
            spare, elapsed = start_executor(workers)
            spare.close()
            setups.append(elapsed)
        executor, elapsed = start_executor(workers)
        setups.append(elapsed)
        try:
            units.append(workload.unit(executor, checks))
        finally:
            executor.close()
    checks.expect(
        len({u["signature"] for u in units}) == 1,
        "every unit of the run reproduces the same values",
    )
    return Outcome(
        checks=checks,
        metrics={
            "setup_s": median(setups),
            "wall_s": median(u["wall_s"] for u in units),
            "peak_rss_mb": peak_rss_mb(children=True, own=True),
        },
        facts={
            "workers": workers,
            "unit_wall_s": [round(u["wall_s"], 4) for u in units],
            "setup_s": [round(t, 4) for t in setups],
            "sim_s_per_s": median(u["sim_s_per_s"] for u in units),
            "events_per_unit": units[0]["events"],
        },
    )


def run_traced(name: str, seed: int, tmp: str) -> Outcome:
    """One untraced and one traced unit, both in-process, so spans see
    every layer and the overhead compares like with like."""
    from tracer import (
        OVERHEAD_ROW, Tracer, install_sim, layer_self, span_count,
        span_self, span_total,
    )

    workload = WORKLOADS[name](seed, tmp)
    checks = Checks()
    executor, _ = start_executor(1)
    try:
        plain = workload.unit(executor, checks)
        runs, failed = executor.runs_executed, executor.runs_failed
        tracer = Tracer()
        install_sim(tracer)
        try:
            # Calibrate on both sides of the unit, so a host whose
            # speed drifts is sampled as the unit saw it.
            tracer.calibrate()
            traced = tracer.span(
                "perfbench:unit", workload.unit, executor, checks, tracer
            )
            tracer.calibrate()
        finally:
            tracer.unpatch()
        runs = executor.runs_executed - runs
        failed = executor.runs_failed - failed
    finally:
        executor.close()
    checks.expect(
        plain["signature"] == traced["signature"]
        and plain["events"] == traced["events"],
        "tracing leaves simulated values and event counts unchanged",
    )
    table = tracer.table()
    costs = tracer.costs()
    wall = span_total(table, "perfbench:unit")
    layer = {
        "sim.engine.events": traced["events"],
        "sim.engine.dispatch_self_s": layer_self(table, "sim.engine"),
        "sim.rng.binomial_calls": span_count(table, "sim.rng:binomial"),
        "sim.rng.binomial_s": span_self(table, "sim.rng:binomial"),
        "phy.medium.transmissions": span_count(
            table, "phy.medium:start_transmission"),
        "phy.medium.marginal_edges": span_count(
            table, "mac.dcf:on_marginal_change"),
        "phy.medium.self_s": layer_self(table, "phy.medium"),
        "mac.dcf.tx_attempts": span_count(table, "mac.dcf:attempt"),
        "mac.dcf.retries": span_count(table, "mac.dcf:timeout"),
        "mac.dcf.self_s": layer_self(table, "mac.dcf"),
        "core.monitor.judged": span_count(table, "core.monitor:judged"),
        "core.monitor.self_s": layer_self(table, "core.monitor"),
        "metrics.collector.self_s": layer_self(table, "metrics.collector"),
        "experiments.scenarios.build_s": span_total(
            table, "experiments.scenarios:build_scenario"),
        "experiments.executor.runs": runs,
        "experiments.executor.failed": failed,
        "campaign.journal.appends": span_count(
            table, "campaign.journal:append"),
        "campaign.journal.bytes": traced.get("journal_bytes", 0),
        "campaign.journal.append_s": span_self(
            table, "campaign.journal:append"),
        "campaign.report_s": span_total(table, "campaign:report"),
        "sim_s_per_s": plain["sim_s_per_s"],
        "check.value_signature": traced["signature"],
        "trace.overhead_pct": 100.0 * (wall / plain["wall_s"] - 1.0),
        "trace.unattributed_share": layer_self(table, "perfbench") / wall,
        "trace.span_cost_ns": 1e9 * (costs["inner"] + costs["outer"]),
        "trace.calibrated_share": span_self(table, OVERHEAD_ROW) / wall,
    }
    return Outcome(checks=checks, metrics=layer, spans=table)
