"""In-memory span tracer and the layer wrappers of the traced runs.

A span is one call into a wrapped function.  Every wrapper pushes a
frame on a per-thread stack, runs the call, and on return adds the
call's duration to its parent's frame, so a layer's *self* time is its
spans' duration minus the part its child spans cover.  Spans are
aggregated per span name (``layer:function``) as they close -- count,
total and self seconds -- because a traced simulation closes millions
of them; the table is written out once, at the end.

The wrapper's own bookkeeping runs partly outside the window its two
clock reads bracket, and that part lands on the *parent's* self time;
with a span per dispatched event it would swamp the kernel's.  So each
row also counts its spans' direct children (and the callbacks they had
wrapped when scheduling), and :meth:`Tracer.calibrate`, run before and
after the traced work, measures what one span costs inside its window
and outside it, and what one scheduling wrap costs.  :meth:`Tracer.table`
subtracts those costs from the self times and reports what it took out
as the row ``trace:overhead``.  ``total_s`` stays the raw clock time,
bookkeeping of nested spans included.

Wrappers are installed by patching classes and module globals of the
program from outside: the program itself carries no tracing code.
Install before the traced objects are built, so that callbacks the
simulator schedules as bound methods resolve to the wrappers.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from statistics import median
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter

#: Calls per calibration sample, and samples per :meth:`Tracer.calibrate`.
#: Each sample times its three loops back to back, so a host whose speed
#: drifts skews one sample, not one loop; the median over all samples
#: of all calibrations is used.
CALIBRATION_CALLS = 20_000
CALIBRATION_SAMPLES = 10
#: The row that reports the bookkeeping taken out of self times.
OVERHEAD_ROW = "trace:overhead"

# Frame and row layouts: a frame is [child seconds, child spans,
# scheduling wraps]; a row is [count, total s, raw self s, child spans,
# scheduling wraps].
_TIME, _KIDS, _WRAPS = 0, 1, 2


class Tracer:
    """Per-thread span stacks feeding one aggregate table."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, list]] = []
        self._patches: List[tuple] = []
        #: Calibration samples, in seconds: bookkeeping per span inside
        #: its own window (``inner``), outside it on the parent's clock
        #: (``outer``), and per scheduling wrap (``wrap``).
        self.samples: Dict[str, List[float]] = {
            "inner": [], "outer": [], "wrap": [],
        }
        #: Set by :func:`install_sim`: returns wrap-cost samples.
        self.wrap_probe: Optional[Callable[[], List[float]]] = None

    def _table(self) -> Dict[str, list]:
        local = self._local
        try:
            return local.table
        except AttributeError:
            local.table = {}
            local.stack = []
            with self._lock:
                self._tables.append(local.table)
            return local.table

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
        preserve: bool = True,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``on_result(result)`` / ``on_error(exc)`` run after the span
        closes, for counts that depend on the outcome.
        ``preserve=False`` skips copying ``fn``'s name and docstring,
        for the per-event wrappers where that copy would dominate.
        """
        local = self._local
        table_of = self._table

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                table_of()
                stack = local.stack
            stack.append([0.0, 0, 0])
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                _close(local, stack, name, start)
                if on_error is not None:
                    on_error(exc)
                raise
            _close(local, stack, name, start)
            if on_result is not None:
                on_result(result)
            return result

        if preserve:
            functools.update_wrapper(traced, fn)
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a plain counter (a span row with no time)."""
        row = self._table().setdefault(name, [0, 0.0, 0.0, 0, 0])
        row[0] += amount

    def count_wrap(self) -> None:
        """Note one scheduling wrap on the current span's frame."""
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1][_WRAPS] += 1

    def discard(self, name: str) -> None:
        """Drop this thread's row ``name`` (a calibration span)."""
        self._table().pop(name, None)

    # ------------------------------------------------------------------
    def calibrate(self) -> None:
        """Add :data:`CALIBRATION_SAMPLES` samples of each cost.

        A sample times :data:`CALIBRATION_CALLS` iterations of an empty
        loop, of a loop calling an empty function, and of a loop calling
        it wrapped, inside a span.  The wrapped function's own window
        minus the plain call is the inner cost; the enclosing span's raw
        self time minus the empty loop is the outer cost (the call
        itself is the callee's, as it would be unwrapped).
        """
        calls = range(CALIBRATION_CALLS)

        def noop():
            pass

        def empty_loop():
            for _ in calls:
                pass

        def plain_loop():
            for _ in calls:
                noop()

        traced_noop = self.wrap("trace:calibrate", noop, preserve=False)

        def traced_loop():
            for _ in calls:
                traced_noop()

        table = self._table()
        for _ in range(CALIBRATION_SAMPLES):
            start = _perf()
            empty_loop()
            empty = _perf() - start
            start = _perf()
            plain_loop()
            call = (_perf() - start - empty) / CALIBRATION_CALLS
            self.span("trace:calibrate_parent", traced_loop)
            child = table.pop("trace:calibrate")
            parent = table.pop("trace:calibrate_parent")
            self.samples["inner"].append(child[1] / CALIBRATION_CALLS - call)
            self.samples["outer"].append(
                (parent[2] - empty) / CALIBRATION_CALLS
            )
        if self.wrap_probe is not None:
            self.samples["wrap"].extend(self.wrap_probe())

    def costs(self) -> Dict[str, float]:
        """Median of each cost's samples (0 before any calibration)."""
        return {
            name: max(0.0, median(values)) if values else 0.0
            for name, values in self.samples.items()
        }

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` with its traced version."""
        traced = self.wrap(name, getattr(owner, attr), **hooks)
        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`unpatch` restores it."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        """Restore everything :meth:`patch` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """Merged ``name -> {count, total_s, self_s}`` over all threads,
        with the calibrated bookkeeping taken out of ``self_s``; what was
        taken out is the ``self_s`` of :data:`OVERHEAD_ROW`, whose
        ``count`` is the spans that closed."""
        costs = self.costs()
        merged: Dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in list(table.items()):
                into = merged.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(row):
                    into[i] += value
        moved_total = 0.0
        spans = 0
        out = {}
        for name, (count, total, own, kids, wraps) in sorted(merged.items()):
            moved = 0.0
            if total:
                spans += count
                moved = (costs["inner"] * count + costs["outer"] * kids
                         + costs["wrap"] * wraps)
            moved_total += moved
            out[name] = {"count": count, "total_s": total,
                         "self_s": own - moved}
        out[OVERHEAD_ROW] = {"count": spans, "total_s": 0.0,
                             "self_s": moved_total}
        return out

    def write(self, path) -> None:
        """Write the span table and the calibrated costs."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"costs_s": self.costs(), "spans": self.table()},
                      fh, indent=1, sort_keys=True)


def _close(local, stack: list, name: str, start: float) -> None:
    elapsed = _perf() - start
    frame = stack.pop()
    row = local.table.get(name)
    if row is None:
        row = local.table[name] = [0, 0.0, 0.0, 0, 0]
    row[0] += 1
    row[1] += elapsed
    row[2] += elapsed - frame[_TIME]
    row[3] += frame[_KIDS]
    row[4] += frame[_WRAPS]
    if stack:
        parent = stack[-1]
        parent[_TIME] += elapsed
        parent[_KIDS] += 1


def layer_self(table: Dict[str, Dict[str, float]], layer: str) -> float:
    """Self seconds of every span whose name starts with ``layer:``."""
    prefix = layer + ":"
    return sum(
        row["self_s"] for name, row in table.items()
        if name.startswith(prefix)
    )


def span_count(table: Dict[str, Dict[str, float]], name: str) -> float:
    row = table.get(name)
    return row["count"] if row else 0


def span_total(table: Dict[str, Dict[str, float]], name: str) -> float:
    row = table.get(name)
    return row["total_s"] if row else 0.0


def span_self(table: Dict[str, Dict[str, float]], name: str) -> float:
    row = table.get(name)
    return row["self_s"] if row else 0.0


# ----------------------------------------------------------------------
# Simulation and campaign layers
# ----------------------------------------------------------------------
#: Layer of a callback the event kernel dispatches, by defining module.
_DISPATCH_LAYERS = {
    "repro.mac": "mac.dcf",
    "repro.phy": "phy.medium",
    "repro.core": "core.monitor",
    "repro.net": "net.traffic",
}


def _dispatch_layer(callback) -> str:
    module = getattr(callback, "__module__", None) or "unknown"
    for prefix, layer in _DISPATCH_LAYERS.items():
        if module.startswith(prefix):
            return layer
    return module.replace("repro.", "")


def install_sim(tracer: Tracer) -> None:
    """Wrap the kernel, PHY, MAC, monitor, metrics, RNG, scenario,
    executor and journal entry points (single-process runs only), and
    give the tracer its probe of the scheduling wrap's cost."""
    from repro.core.monitor import SenderMonitor
    from repro.experiments import executor, scenarios
    from repro.experiments.campaign import journal
    from repro.mac import dcf
    from repro.metrics.collector import MetricsCollector
    from repro.phy import medium, sensing
    from repro.sim import engine, rng

    sim_cls = engine.Simulator
    count_wrap = tracer.count_wrap

    def dispatch_span(callback):
        # One span per dispatched event, named by the callback's layer;
        # the kernel's own loop is what remains as sim.engine self time.
        layer = _dispatch_layer(callback)
        return tracer.wrap(f"{layer}:dispatch", callback, preserve=False)

    def traced_schedule(original):
        def schedule(self, delay, callback):
            handle = original(self, delay, dispatch_span(callback))
            count_wrap()
            return handle
        return schedule

    plain_call_later = sim_cls.call_later
    for attr in ("schedule", "schedule_at", "call_later", "call_at"):
        tracer.replace(sim_cls, attr, traced_schedule(getattr(sim_cls, attr)))
    traced_call_later = sim_cls.call_later
    tracer.wrap_probe = lambda: _wrap_cost_samples(
        tracer, sim_cls, plain_call_later, traced_call_later
    )

    tracer.patch(sim_cls, "run", "sim.engine:run")
    # Callers bind ``binomial`` by name at import, so patch every binding.
    traced_binomial = tracer.wrap("sim.rng:binomial", rng.binomial)
    for module in (rng, dcf, sensing):
        tracer.replace(module, "binomial", traced_binomial)

    tracer.patch(medium.Medium, "start_transmission",
                 "phy.medium:start_transmission")
    for attr in ("on_channel_busy", "on_channel_idle", "on_frame",
                 "on_frame_corrupted", "on_marginal_change"):
        tracer.patch(dcf.DcfMac, attr, f"mac.dcf:{attr}")
    tracer.patch(dcf.DcfMac, "_on_backoff_expired", "mac.dcf:attempt")
    tracer.patch(dcf.DcfMac, "_on_timeout", "mac.dcf:timeout")

    def judged(result):
        if result.checked:
            tracer.count("core.monitor:judged")

    tracer.patch(SenderMonitor, "on_rts", "core.monitor:on_rts",
                 on_result=judged)
    tracer.patch(SenderMonitor, "on_response_sent",
                 "core.monitor:on_response_sent")
    for attr in ("on_delivery", "on_sender_success", "on_sender_drop",
                 "on_rts_verdict", "on_attempt_audit", "on_receiver_audit"):
        tracer.patch(MetricsCollector, attr, f"metrics.collector:{attr}")

    tracer.patch(scenarios, "build_scenario",
                 "experiments.scenarios:build_scenario")
    tracer.patch(executor.ExperimentExecutor, "run",
                 "experiments.executor:run")
    tracer.patch(journal.JournalWriter, "append", "campaign.journal:append")


def _wrap_cost_samples(tracer: Tracer, sim_cls, plain, traced) -> List[float]:
    """Samples of the extra seconds per call of the traced
    ``call_later`` over the plain one, each timed inside a span.  The
    calls go to throwaway simulators a few at a time, so the queue stays
    as short as a running simulation's and no more wrappers stay alive
    than there."""
    per_sim = 32
    sims = range(CALIBRATION_CALLS // per_sim)
    calls = range(per_sim)

    def noop():
        pass

    def timed(call_later):
        start = _perf()
        for _ in sims:
            sim = sim_cls()
            for _ in calls:
                call_later(sim, 1, noop)
        return _perf() - start

    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        base = timed(plain)
        extra = tracer.span("trace:calibrate_schedule", timed, traced) - base
        samples.append(extra / (len(sims) * per_sim))
    tracer.discard("trace:calibrate_schedule")
    return samples


# ----------------------------------------------------------------------
# Service layers (installed inside the service process)
# ----------------------------------------------------------------------
def install_service(tracer: Tracer) -> None:
    """Wrap decode, fold, detector construction, verdict publish,
    spool append and the ``/watch`` handler of ``repro serve``."""
    from repro.service import ingest, server, spool, store, verdicts
    from repro.service.codec import WireError

    def rejected(exc):
        if isinstance(exc, WireError):
            tracer.count("service.codec:rejected")

    tracer.patch(ingest, "decode_record", "service.codec:decode_record",
                 on_error=rejected)
    tracer.patch(ingest.DetectionService, "ingest_line",
                 "service.ingest:ingest_line")
    tracer.patch(store.ShardedDetectorStore, "observe",
                 "service.store:observe")

    factory_of = ingest.detector_factory

    def traced_factory_of(spec, config):
        return tracer.wrap("service.store:factory", factory_of(spec, config))

    tracer.replace(ingest, "detector_factory", traced_factory_of)

    tracer.patch(verdicts.VerdictLog, "publish", "service.verdicts:publish")
    tracer.patch(verdicts.VerdictLog, "wait_for", "service.verdicts:wait")
    tracer.patch(spool.FlagSpool, "append", "service.spool:append")
    tracer.patch(server._ApiHandler, "_watch", "service.server:watch")
