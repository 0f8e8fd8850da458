"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``figures [ids...]``
    Regenerate paper figures at the environment-selected scale
    (``REPRO_QUICK`` / default / ``REPRO_FULL``) and print ASCII
    tables.  All requested figures are flattened into one task grid
    and executed on a single persistent worker pool (``REPRO_WORKERS``
    processes); with ``REPRO_CACHE`` set, unchanged points replay from
    the run cache instead of re-simulating.

``cache``
    Inspect (default) or ``--clear`` the content-addressed run cache::

        python -m repro cache
        python -m repro cache --clear

``run``
    Run a single scenario and print its metrics.  Useful for poking at
    parameter choices without writing a script::

        python -m repro run --pm 60 --protocol correct --seconds 5
        python -m repro run --pm 80 --protocol 802.11 --interferers
        python -m repro run --pm 60 --faults "ack-loss=0.3@4,jam=20:2000"
        python -m repro run --pm 90 --detector "cusum:h=2.0,k=0.25"

    ``--detector`` swaps the receiver-side diagnosis algorithm (see
    :mod:`repro.detect` for the registry and spec syntax); the run
    then also reports the detector's operating point (detection /
    false-alarm rates over judged packets) and the time to detection
    of the cheater.

    ``--faults`` takes a comma-separated fault profile (see
    :func:`repro.faults.parse_profile`): frame-loss/corruption rates
    per frame kind, jamming bursts, node crash/restart schedules and
    slot-clock drift, all drawn from dedicated seeded RNG streams so
    faulted runs are exactly reproducible.

Failure semantics: ``figures`` runs every sweep point under the
supervised executor; points whose runs ultimately fail (after retries)
are flagged in the tables rather than aborting the sweep, and the
command exits with status 3 so scripts notice the degradation.

``campaign``
    Crash-safe sweep campaigns (see :mod:`repro.experiments.campaign`
    and ``docs/CAMPAIGNS.md``): a declarative grid spec is expanded,
    optionally sharded, executed on the supervised pool, and every
    settled run is appended to an fsync'd, checksummed journal so the
    campaign can be SIGKILLed at any instant and resumed without
    recomputing or double-counting::

        python -m repro campaign "scenario=circle:8; pm=0|50|100; seeds=1-30; seconds=5" --dir sweep.out
        python -m repro campaign "$(cat sweep.spec)" --resume sweep.out
        python -m repro campaign @sweep.spec --dir shard0 --shard 0/4

    Exit codes: 0 — all cells ok; 2 — bad spec/usage; 3 — complete
    but some cells failed or were quarantined; 4 — interrupted by
    SIGINT/SIGTERM after draining in-flight work (resumable).

``campaign merge``
    Combine shard journals of one campaign into a single directory
    whose ``summary.json`` is byte-identical to an unsharded run's
    (see :mod:`repro.experiments.campaign.analysis`)::

        python -m repro campaign merge shard0 shard1 shard2 --out merged.out

    Malformed records are skipped and counted, never fatal; an
    incomplete merge stays resumable with ``campaign --resume``.
    Exit codes: 0 — complete, all ok; 2 — unmergeable input; 3 —
    merged but incomplete, degraded, or with skipped records.

``campaign report``
    Journal-driven figures and cross-seed diagnostics from a merged
    (or unsharded) campaign directory — no re-simulation::

        python -m repro campaign report --dir merged.out
        python -m repro campaign report --dir merged.out fig6 fig7 --plot
        python -m repro campaign report --dir merged.out fig6 --save report.out

    Exit codes mirror ``figures``: 0 — clean; 2 — bad usage or an
    explicitly requested figure the dataset cannot satisfy; 3 —
    report produced but degraded (missing cells, failed runs or
    skipped records).

``serve``
    Online detection service (see :mod:`repro.service` and
    ``docs/SERVICE.md``): host any registered detector family as a
    long-running process with JSONL observation ingest (stdin/TCP),
    sharded LRU-bounded per-sender state, and an HTTP query API
    (``/verdicts``, ``/senders/<id>``, ``/stats``, long-poll
    ``/watch``)::

        python -m repro serve --emit-trace --pm 60 --seconds 2 > trace.jsonl
        python -m repro serve --stdin --port 8765 < trace.jsonl
        python -m repro serve --tcp 9000 --port 8765 --detector cusum:h=2.0
        python -m repro serve --bench

    ``--emit-trace`` records a simulation's judged-observation stream
    as wire JSONL (the service replays it to verdicts bit-identical
    to the in-sim monitor's).  ``--bench`` runs the Zipf load
    generator against the ingest hot path and appends sustained
    observations/sec and p99 first-sight-to-flag latency to
    ``benchmarks/BENCH_service.json``.

``theory``
    Print the Bianchi saturation predictions next to simulated values
    for a sweep of network sizes (substrate validation).

``check``
    Conformance replay (see :mod:`repro.validation.replay`): run
    registered scenarios with structured tracing attached and replay
    the traces through the protocol checker's full rule set::

        python -m repro check                      # all scenarios, no faults
        python -m repro check correct-circle       # one scenario
        python -m repro check --matrix             # cross with fault profiles
        python -m repro check --faults jam,crash   # chosen fault profiles
        python -m repro check --list               # what is registered

    Prints one row per (scenario, fault profile) cell plus a per-rule
    violation table, and exits non-zero when any cell has violations
    (or a run failed outright) — CI runs the full matrix on every
    push.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.bianchi import saturation_throughput
from repro.experiments import (
    ALL_FIGURES,
    ScenarioConfig,
    active_settings,
    run_scenario,
)
from repro.experiments.report import print_figure
from repro.net import circle_topology


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.executor import ExperimentExecutor
    from repro.experiments.figures import generate_figures

    wanted = args.ids or list(ALL_FIGURES)
    unknown = [w for w in wanted if w not in ALL_FIGURES]
    if unknown:
        print(
            f"unknown figure id(s): {', '.join(unknown)}\n"
            f"available: {', '.join(sorted(ALL_FIGURES))}",
            file=sys.stderr,
        )
        return 2
    settings = active_settings()
    with ExperimentExecutor(on_failure="flag") as executor:
        figures = generate_figures(wanted, settings, executor=executor)
    for figure_id in wanted:
        print_figure(figures[figure_id])
        if args.plot:
            from repro.experiments.plots import print_plot

            print()
            print_plot(figures[figure_id])
        print()
    degraded = [fid for fid in wanted if figures[fid].has_failures]
    if degraded:
        print(
            f"warning: {len(degraded)} figure(s) degraded by failed runs: "
            f"{', '.join(degraded)} (points flagged FAILED/* above)",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import RunCache, cache_dir
    from repro.experiments.settings import cache_enabled

    cache = RunCache(args.dir or cache_dir())
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached run(s) from {cache.directory}")
        return 0
    stats = cache.stats()
    state = "enabled (REPRO_CACHE set)" if cache_enabled() else \
        "disabled (set REPRO_CACHE=1 to use it)"
    print(f"run cache at {stats['directory']} — {state}")
    print(f"  entries:      {stats['entries']}")
    print(f"  size:         {stats['bytes'] / 1e6:.2f} MB")
    print(f"  code version: {stats['code_version']}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.detect import DetectorSpecError, parse_spec
    from repro.faults import parse_profile

    misbehaving = (args.cheater,) if args.pm > 0 else ()
    topo = circle_topology(
        args.senders, misbehaving=misbehaving, pm_percent=args.pm,
        with_interferers=args.interferers,
    )
    try:
        faults = parse_profile(args.faults) if args.faults else None
    except ValueError as exc:
        print(f"bad --faults spec: {exc}", file=sys.stderr)
        return 2
    if args.detector is not None:
        if args.protocol != "correct":
            print("--detector requires --protocol correct (the 802.11 "
                  "baseline has no receiver-side monitor)", file=sys.stderr)
            return 2
        try:
            parse_spec(args.detector)
        except DetectorSpecError as exc:
            print(f"bad --detector spec: {exc}", file=sys.stderr)
            return 2
    config = ScenarioConfig(
        topology=topo, protocol=args.protocol,
        duration_us=int(args.seconds * 1_000_000), seed=args.seed,
        faults=faults, detector=args.detector,
    )
    result = run_scenario(config)
    print(f"protocol={args.protocol} senders={args.senders} PM={args.pm:g}% "
          f"seed={args.seed} t={args.seconds:g}s")
    if args.faults:
        injected = ", ".join(
            f"{k}={v}" for k, v in sorted(result.faults_injected.items())
        ) or "none"
        print(f"  faults injected:    {injected}")
    if args.detector is not None:
        print(f"  detector:           {args.detector}")
    print(f"  AVG (honest mean):  {result.avg_throughput_bps / 1000:9.1f} Kbps")
    if misbehaving:
        print(f"  MSB (cheater):      {result.msb_throughput_bps / 1000:9.1f} Kbps")
        print(f"  correct diagnosis:  {result.correct_diagnosis_percent:8.1f} %")
    print(f"  misdiagnosis:       {result.misdiagnosis_percent:8.1f} %")
    print(f"  fairness (Jain):    {result.fairness_index:9.3f}")
    if args.protocol == "correct":
        print(f"  detection rate:     {result.detection_rate_percent:8.1f} %")
        print(f"  false alarms:       {result.false_alarm_percent:8.1f} %")
        if misbehaving:
            ttd_pkts = result.detection_latency_packets(args.cheater)
            ttd_us = result.detection_latency_us(args.cheater)
            if ttd_pkts is not None:
                print(f"  time to detection:  {ttd_pkts:8d} pkts "
                      f"({ttd_us / 1000:.1f} ms)")
            else:
                print("  time to detection:  never flagged")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.validation import FAULT_PROFILES, SCENARIOS, run_matrix
    from repro.validation.checker import RULE_NAMES

    if args.list:
        print("registered scenarios:")
        for sc in SCENARIOS.values():
            honesty = "" if sc.honest else "  [cheater]"
            print(f"  {sc.name:<22}{sc.description}{honesty}")
        print("fault profiles:")
        for name, spec in FAULT_PROFILES.items():
            print(f"  {name:<22}{spec or '(fault layer absent)'}")
        return 0

    scenario_names = args.scenarios or list(SCENARIOS)
    unknown = [s for s in scenario_names if s not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}\n"
              f"available: {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    if args.matrix:
        profile_names = list(FAULT_PROFILES)
    elif args.faults:
        profile_names = [p.strip() for p in args.faults.split(",") if p.strip()]
        bad = [p for p in profile_names if p not in FAULT_PROFILES]
        if bad:
            print(f"unknown fault profile(s): {', '.join(bad)}\n"
                  f"available: {', '.join(FAULT_PROFILES)}", file=sys.stderr)
            return 2
    else:
        profile_names = ["none"]

    workers = args.workers
    if workers is None:
        from repro.experiments.executor import default_workers

        workers = default_workers()
    duration_us = int(args.seconds * 1_000_000)
    outcomes = run_matrix(
        scenario_names, profile_names, duration_us,
        seed=args.seed, workers=workers,
    )
    print(f"conformance replay: {len(scenario_names)} scenario(s) x "
          f"{len(profile_names)} fault profile(s), t={args.seconds:g}s "
          f"seed={args.seed}")
    header = (f"{'scenario':<22}{'faults':<10}{'result':<8}"
              f"{'tx':>7}{'resp':>7}{'events':>9}  violations")
    print(header)
    print("-" * len(header))
    failed = []
    for out in outcomes:
        if out.error is not None:
            result, summary = "ERROR", out.error
        elif out.ok:
            result, summary = "ok", "-"
        else:
            result = "FAIL"
            summary = ", ".join(
                f"{rule}={count}" for rule, count in sorted(out.by_rule.items())
            )
        if result != "ok":
            failed.append(out)
        print(f"{out.scenario:<22}{out.profile:<10}{result:<8}"
              f"{out.transmissions:>7}{out.responses_checked:>7}"
              f"{out.trace_events:>9}  {summary}")
    if failed:
        totals = {}
        for out in failed:
            for rule, count in out.by_rule.items():
                totals[rule] = totals.get(rule, 0) + count
        print("\nviolations by rule:")
        for rule in RULE_NAMES:
            if rule in totals:
                print(f"  {rule:<24}{totals[rule]:>6}")
        print("\nfirst violations:")
        for out in failed:
            for rule, time, node, detail in out.violations[:args.show]:
                print(f"  {out.scenario}/{out.profile} t={time} node={node} "
                      f"[{rule}] {detail}")
        print(f"\n{len(failed)} of {len(outcomes)} cell(s) non-conformant")
        return 1
    print(f"\nall {len(outcomes)} cell(s) conformant")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import pathlib

    from repro.experiments.campaign import (
        CampaignError,
        CampaignSpecError,
        JournalError,
        expand_cells,
        format_campaign,
        parse_campaign,
        run_campaign,
        shard_cells,
    )

    text = args.spec
    if text.startswith("@"):
        spec_path = pathlib.Path(text[1:])
        if not spec_path.is_file():
            print(f"spec file not found: {spec_path}", file=sys.stderr)
            return 2
        text = spec_path.read_text(encoding="utf-8")
    try:
        spec = parse_campaign(text)
    except CampaignSpecError as exc:
        print(f"bad campaign spec: {exc}", file=sys.stderr)
        return 2
    try:
        shard_index_s, _, shard_count_s = args.shard.partition("/")
        shard = (int(shard_index_s), int(shard_count_s))
    except ValueError:
        print(f"bad --shard {args.shard!r} (expected I/N, e.g. 0/4)",
              file=sys.stderr)
        return 2

    resume = args.resume is not None
    out_dir = args.resume if isinstance(args.resume, str) else args.dir

    if args.dry_run:
        try:
            cells = shard_cells(expand_cells(spec), *shard)
        except CampaignSpecError as exc:
            print(f"bad campaign spec: {exc}", file=sys.stderr)
            return 2
        print(f"spec:  {format_campaign(spec)}")
        print(f"shard: {shard[0]}/{shard[1]} -> {len(cells)} cell(s)")
        for cell in cells[:10]:
            print(f"  {cell.key}")
        if len(cells) > 10:
            print(f"  ... and {len(cells) - 10} more")
        return 0

    try:
        report = run_campaign(
            spec, out_dir, resume=resume, shard=shard,
            chunk_size=args.chunk, workers=args.workers,
            progress=None if args.quiet else sys.stderr,
        )
    except (CampaignError, CampaignSpecError, JournalError) as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    status = ("interrupted (resumable)" if report.interrupted
              else "complete")
    print(
        f"campaign {status}: {report.settled}/{report.cells} cell(s) "
        f"settled (ok={report.ok} failed={report.failed} "
        f"quarantined={report.quarantined}); "
        f"{report.resumed} resumed from journal, "
        f"{report.executed} simulated now"
    )
    print(f"  journal: {report.journal_path}")
    print(f"  summary: {report.summary_path}")
    if report.interrupted:
        print(f"  resume with: python -m repro campaign '...' "
              f"--resume {report.out_dir}")
    return report.exit_code


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import AnalysisError, merge_journals

    try:
        result = merge_journals(
            args.shards, args.out, force=args.force,
            progress=None if args.quiet else sys.stderr,
        )
    except AnalysisError as exc:
        print(f"merge error: {exc}", file=sys.stderr)
        return 2
    shard_list = ", ".join(
        f"{info.shard} ({info.records})" for info in result.shards
    )
    status = "complete" if result.complete else \
        f"incomplete ({len(result.missing)} cell(s) missing)"
    print(
        f"merged {len(result.shards)} shard(s) [{shard_list}] -> "
        f"{result.out_dir}: {status}; {result.settled}/{result.cells} "
        f"cell(s) settled (ok={result.ok} failed={result.failed} "
        f"quarantined={result.quarantined})"
    )
    if result.duplicate_records:
        print(f"  {result.duplicate_records} duplicate record(s) dropped "
              "(first occurrence kept)")
    if result.skipped:
        print(f"  {len(result.skipped)} malformed record(s) skipped "
              "(details on stderr)" if not args.quiet else
              f"  {len(result.skipped)} malformed record(s) skipped")
    print(f"  journal: {result.journal_path}")
    print(f"  summary: {result.summary_path}")
    if not result.complete:
        print(f"  finish with: python -m repro campaign '...' "
              f"--resume {result.out_dir}")
    clean = (result.complete and not result.skipped
             and result.failed == 0 and result.quarantined == 0)
    return 0 if clean else 3


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.experiments.campaign import (
        AnalysisError,
        JOURNAL_FIGURES,
        ReportError,
        figure_from_dataset,
        group_diagnostics,
        load_dataset,
        render_diagnostics,
    )
    from repro.experiments.report import render_table, to_json

    try:
        dataset = load_dataset(args.dir)
    except AnalysisError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2

    if args.csv:
        from repro.experiments.campaign import export_csv

        rows = export_csv(dataset, args.csv)
        print(f"wrote {rows} row(s) x {len(dataset.columns)} column(s) "
              f"to {args.csv}", file=sys.stderr)

    explicit = bool(args.ids)
    wanted = args.ids or sorted(JOURNAL_FIGURES)
    unknown = [fid for fid in wanted if fid not in JOURNAL_FIGURES]
    if unknown:
        print(
            f"no journal-driven builder for: {', '.join(unknown)}\n"
            f"available: {', '.join(sorted(JOURNAL_FIGURES))}",
            file=sys.stderr,
        )
        return 2

    save_dir = pathlib.Path(args.save) if args.save else None
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)
    figures = {}
    for fid in wanted:
        try:
            figures[fid] = figure_from_dataset(dataset, fid)
        except ReportError as exc:
            if explicit:
                print(f"report error: {exc}", file=sys.stderr)
                return 2
            print(f"skipping {fid}: {exc}", file=sys.stderr)
    if not figures:
        print("no requested figure is satisfiable from this dataset",
              file=sys.stderr)
        return 2

    for fid, fig in figures.items():
        print(render_table(fig))
        if args.plot:
            from repro.experiments.plots import print_plot

            print()
            print_plot(fig)
        print()
        if save_dir is not None:
            (save_dir / f"{fid}.txt").write_text(
                render_table(fig) + "\n", encoding="utf-8"
            )
            (save_dir / f"{fid}.json").write_text(
                to_json(fig) + "\n", encoding="utf-8"
            )

    diagnostics_text = None
    if not args.no_diagnostics:
        metrics = (
            [m.strip() for m in args.metrics.split(",") if m.strip()]
            if args.metrics else None
        )
        try:
            diagnostics = group_diagnostics(
                dataset, metrics=metrics, target_rel=args.target_ci / 100.0
            )
        except AnalysisError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        diagnostics_text = render_diagnostics(
            diagnostics, target_rel=args.target_ci / 100.0
        )
        print(diagnostics_text)
        if save_dir is not None:
            (save_dir / "diagnostics.txt").write_text(
                diagnostics_text + "\n", encoding="utf-8"
            )

    problems = []
    if dataset.missing:
        problems.append(f"{len(dataset.missing)} cell(s) missing from the "
                        "journal (merge more shards or --resume)")
    if dataset.skipped:
        problems.append(f"{len(dataset.skipped)} malformed record(s) skipped")
    degraded = [fid for fid, fig in figures.items() if fig.has_failures]
    if degraded:
        problems.append(
            f"figure(s) degraded by failed runs: {', '.join(degraded)}"
        )
    if problems:
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
        return 3
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.detect import DetectorSpecError, parse_spec

    try:
        parse_spec(args.detector)
    except DetectorSpecError as exc:
        print(f"bad --detector spec: {exc}", file=sys.stderr)
        return 2

    if args.emit_trace:
        return _serve_emit_trace(args)
    if args.bench:
        return _serve_bench(args)
    return _serve_forever(args)


def _service_geometry(args) -> tuple[int, int, int]:
    """(shards, per-shard entries, workers) from flags, env knobs,
    defaults."""
    from repro.experiments.settings import (
        service_shard_entries,
        service_shards,
        service_workers,
    )
    from repro.service.store import DEFAULT_MAX_ENTRIES, DEFAULT_SHARDS

    shards = args.shards
    if shards is None:
        shards = service_shards() or DEFAULT_SHARDS
    entries = args.max_entries
    if entries is None:
        entries = service_shard_entries() or DEFAULT_MAX_ENTRIES
    workers = args.workers
    if workers is None:
        workers = service_workers() or 1
    return shards, entries, workers


def _serve_emit_trace(args: argparse.Namespace) -> int:
    from repro.service import encode_record, record_scenario_stream

    misbehaving = (args.cheater,) if args.pm > 0 else ()
    topo = circle_topology(
        args.senders, misbehaving=misbehaving, pm_percent=args.pm
    )
    config = ScenarioConfig(
        topology=topo, protocol="correct",
        duration_us=int(args.seconds * 1_000_000), seed=args.seed,
    )
    records, _ = record_scenario_stream(config)
    out = sys.stdout
    for record in records:
        out.write(encode_record(record.sender, record.observation))
        out.write("\n")
    print(f"emitted {len(records)} observation(s) from "
          f"{len({r.sender for r in records})} sender(s)", file=sys.stderr)
    return 0


def _serve_bench(args: argparse.Namespace) -> int:
    import dataclasses
    import json as _json
    import pathlib
    from datetime import datetime, timezone

    from repro.service import BENCH_SCALES, run_bench
    from repro.service.loadgen import append_trajectory

    scale = args.bench_scale
    if scale is None:
        import os

        scale = "quick" if os.environ.get("REPRO_QUICK") else "bench"
    base = BENCH_SCALES[scale]
    overrides = {}
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.max_entries is not None:
        overrides["max_entries"] = args.max_entries
    if args.detector != "window":
        overrides["detector"] = args.detector
    if args.workers is not None:
        overrides["workers"] = args.workers
    config = dataclasses.replace(base, **overrides)
    # Multi-worker runs land under their own per-scale baseline key:
    # a 4-worker obs/sec is not comparable to the in-process number.
    scale_key = scale if config.workers == 1 else f"{scale}-w{config.workers}"

    result = run_bench(config)
    record = result.to_record()
    record["utc"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    record["scale"] = scale_key
    if args.bench_out != "-":
        append_trajectory(pathlib.Path(args.bench_out), scale_key, record)

    if args.json:
        print(_json.dumps(record, indent=2))
        return 0
    p99 = record["p99_flag_latency_ms"]
    print(f"service bench [{scale_key}]: detector={config.detector} "
          f"shards={config.shards} x {config.max_entries} entries, "
          f"workers={config.workers} ({record['cores']} core(s))")
    print(f"  observations:      {result.observations:>12,}")
    print(f"  distinct senders:  {result.distinct_senders:>12,}")
    print(f"  sustained rate:    {result.obs_per_sec:>12,.0f} obs/sec")
    print(f"  p99 flag latency:  "
          f"{'-' if p99 is None else f'{p99:,.1f} ms':>12}")
    print(f"  flagged/cheaters:  {result.flagged:>6,}/{result.cheaters:,} "
          f"(honest false flags: 0, asserted)")
    print(f"  evictions:         {result.evictions:>12,}")
    if args.bench_out != "-":
        print(f"  trajectory:        {args.bench_out}")
    return 0


def _serve_forever(args: argparse.Namespace) -> int:
    import time as _time

    from repro.experiments.campaign.journal import JournalError
    from repro.service import (
        IngestWorkerPool,
        ServiceHTTPServer,
        SpoolError,
        TcpIngestServer,
        ingest_stream,
    )

    shards, entries, workers = _service_geometry(args)
    try:
        service = IngestWorkerPool(
            workers=workers,
            detector=args.detector,
            shards=shards,
            max_entries=entries,
            spool_dir=args.spool_dir,
        )
    except (SpoolError, JournalError) as exc:
        print(f"spool error: {exc}", file=sys.stderr)
        return 2
    # Everything after the service exists runs under the try: a SIGINT
    # that lands between two readiness lines must still close the
    # service (and with it the spool) and exit 0.
    http_server = tcp_server = None
    try:
        if args.spool_dir is not None:
            print(f"flag spool in {args.spool_dir}: "
                  f"{service.replayed_flags} event(s) replayed",
                  file=sys.stderr, flush=True)
        http_server = _serve_in_thread(
            ServiceHTTPServer(service, host=args.host, port=args.port),
            "serve-http",
        )
        host, port = http_server.server_address[:2]
        print(f"serving detector {args.detector!r} "
              f"({workers} worker(s), {shards} shard(s) x {entries} entries) "
              f"on http://{host}:{port}", file=sys.stderr, flush=True)
        if args.tcp is not None:
            tcp_server = _serve_in_thread(
                TcpIngestServer(service, host=args.host, port=args.tcp),
                "serve-tcp",
            )
            print(f"TCP ingest on {args.host}:{tcp_server.server_address[1]}",
                  file=sys.stderr, flush=True)
        if args.stdin:
            ingested, rejected = ingest_stream(
                service, getattr(sys.stdin, "buffer", sys.stdin),
                errors=sys.stderr,
            )
            print(f"stdin drained: {ingested} ingested, {rejected} "
                  f"rejected", file=sys.stderr, flush=True)
            if args.linger > 0:
                print(f"lingering {args.linger:g}s for API queries",
                      file=sys.stderr, flush=True)
                _time.sleep(args.linger)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        for server in (tcp_server, http_server):
            if server is not None:
                server.shutdown()
        service.close()
    return 0


def _serve_in_thread(server, name: str):
    """Start ``server.serve_forever`` on a daemon thread; returns the
    server only once its loop thread runs, so ``shutdown`` on it
    cannot wait for a loop that never started."""
    import threading

    threading.Thread(
        target=server.serve_forever, daemon=True, name=name
    ).start()
    return server


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro.experiments import PROTOCOL_80211

    print(f"{'n':>3} | {'Bianchi (Kbps)':>14} | {'simulated (Kbps)':>16} | err")
    for n in args.sizes:
        predicted = saturation_throughput(n).throughput_bps
        topo = circle_topology(n)
        result = run_scenario(ScenarioConfig(
            topology=topo, protocol=PROTOCOL_80211,
            duration_us=int(args.seconds * 1_000_000), seed=1,
        ))
        simulated = sum(result.throughputs().values())
        err = 100.0 * (simulated - predicted) / predicted
        print(f"{n:3d} | {predicted / 1000:14.1f} | {simulated / 1000:16.1f} "
              f"| {err:+5.1f}%")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MAC-layer misbehavior reproduction (DSN 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("ids", nargs="*", help="figure ids (default: all)")
    p_fig.add_argument("--plot", action="store_true",
                       help="also draw ASCII charts")
    p_fig.set_defaults(func=_cmd_figures)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--protocol", choices=("802.11", "correct"),
                       default="correct")
    p_run.add_argument("--senders", type=int, default=8)
    p_run.add_argument("--pm", type=float, default=0.0,
                       help="percentage of misbehavior of the cheater")
    p_run.add_argument("--cheater", type=int, default=3)
    p_run.add_argument("--interferers", action="store_true",
                       help="enable the TWO-FLOW interferer flows")
    p_run.add_argument("--seconds", type=float, default=5.0)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault profile, e.g. "
                            "'ack-loss=0.3@4,jam=20:2000,crash=2@1-3'")
    p_run.add_argument("--detector", default=None, metavar="SPEC",
                       help="detector spec (correct protocol only), e.g. "
                            "'window:W=5,thresh=20', 'cusum:h=2.0,k=0.25' "
                            "or 'estimator:fraction=0.5'")
    p_run.set_defaults(func=_cmd_run)

    p_cache = sub.add_parser("cache", help="inspect or clear the run cache")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached run")
    p_cache.add_argument("--dir", default=None,
                         help="cache directory (default: REPRO_CACHE_DIR "
                              "or ~/.cache/repro/runs)")
    p_cache.set_defaults(func=_cmd_cache)

    p_check = sub.add_parser(
        "check", help="conformance-replay registered scenarios"
    )
    p_check.add_argument("scenarios", nargs="*",
                         help="scenario names (default: all registered)")
    p_check.add_argument("--matrix", action="store_true",
                         help="cross scenarios with every fault profile")
    p_check.add_argument("--faults", default=None, metavar="NAMES",
                         help="comma-separated fault-profile names "
                              "(default: none)")
    p_check.add_argument("--seconds", type=float, default=0.4,
                         help="simulated horizon per cell")
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--workers", type=int, default=None,
                         help="process-pool width (default: cpu count)")
    p_check.add_argument("--show", type=int, default=5,
                         help="violations printed per failing cell")
    p_check.add_argument("--list", action="store_true",
                         help="list registered scenarios and profiles")
    p_check.set_defaults(func=_cmd_check)

    p_camp = sub.add_parser(
        "campaign", help="run a crash-safe, resumable sweep campaign"
    )
    p_camp.add_argument("spec",
                        help="campaign spec text, or @FILE to read one "
                             "(see docs/CAMPAIGNS.md for the grammar)")
    p_camp.add_argument("--dir", default="campaign.out",
                        help="campaign directory for the journal and "
                             "summary (default: campaign.out)")
    p_camp.add_argument("--resume", nargs="?", const=True, default=None,
                        metavar="DIR",
                        help="resume an interrupted campaign (optionally "
                             "naming its directory; default: --dir)")
    p_camp.add_argument("--shard", default="0/1", metavar="I/N",
                        help="run shard I of N (deterministic round-robin "
                             "split; default 0/1 = everything)")
    p_camp.add_argument("--chunk", type=int, default=32,
                        help="cells per executor batch between journal "
                             "flushes (default: 32)")
    p_camp.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: cpu count)")
    p_camp.add_argument("--dry-run", action="store_true",
                        help="print the expanded cell list and exit")
    p_camp.add_argument("--quiet", action="store_true",
                        help="suppress per-chunk progress on stderr")
    p_camp.set_defaults(func=_cmd_campaign)

    # "campaign merge"/"campaign report" are routed here by main()'s
    # argv rewrite; the hyphenated names keep the plain "campaign SPEC"
    # positional grammar intact.
    p_merge = sub.add_parser(
        "campaign-merge",
        help="merge shard journals into one campaign directory",
    )
    p_merge.add_argument("shards", nargs="+", metavar="SHARD",
                         help="shard campaign directories (or journal "
                              "files) of one campaign")
    p_merge.add_argument("--out", default="merged.out",
                         help="merged campaign directory "
                              "(default: merged.out)")
    p_merge.add_argument("--force", action="store_true",
                         help="overwrite an existing merged journal")
    p_merge.add_argument("--quiet", action="store_true",
                         help="suppress per-record skip notes on stderr")
    p_merge.set_defaults(func=_cmd_campaign_merge)

    p_report = sub.add_parser(
        "campaign-report",
        help="journal-driven figures + cross-seed diagnostics",
    )
    p_report.add_argument("ids", nargs="*",
                          help="figure ids (default: every satisfiable "
                               "journal-driven figure)")
    p_report.add_argument("--dir", default="campaign.out",
                          help="campaign directory to report on "
                               "(default: campaign.out)")
    p_report.add_argument("--plot", action="store_true",
                          help="also draw ASCII charts")
    p_report.add_argument("--save", default=None, metavar="DIR",
                          help="also write FIG.txt/FIG.json and "
                               "diagnostics.txt into DIR")
    p_report.add_argument("--no-diagnostics", action="store_true",
                          help="skip the cross-seed diagnostics table")
    p_report.add_argument("--metrics", default=None,
                          help="comma-separated metric names to diagnose "
                               "(default: all journal metrics)")
    p_report.add_argument("--target-ci", type=float, default=5.0,
                          metavar="PCT",
                          help="seeds-needed target: 95%% CI half-width "
                               "as %% of the mean (default: 5)")
    p_report.add_argument("--csv", default=None, metavar="PATH",
                          help="also export the dataset as CSV: one row "
                               "per settled cell, grid axes + metrics as "
                               "columns, None as empty field")
    p_report.set_defaults(func=_cmd_campaign_report)

    p_theory = sub.add_parser("theory", help="Bianchi model vs simulator")
    p_theory.add_argument("--sizes", type=int, nargs="+",
                          default=[1, 2, 4, 8, 16])
    p_theory.add_argument("--seconds", type=float, default=2.0)
    p_theory.set_defaults(func=_cmd_theory)

    p_serve = sub.add_parser(
        "serve", help="online detection service (docs/SERVICE.md)",
    )
    p_serve.add_argument("--detector", default="window",
                         help="detector spec to serve (default: window)")
    p_serve.add_argument("--shards", type=int, default=None, metavar="N",
                         help="state-store shard count (default: "
                              "REPRO_SERVICE_SHARDS or 8)")
    p_serve.add_argument("--max-entries", type=int, default=None,
                         metavar="N",
                         help="per-shard LRU entry budget (default: "
                              "REPRO_SERVICE_ENTRIES or 10000)")
    p_serve.add_argument("--workers", type=int, default=None, metavar="N",
                         help="ingest worker processes, each owning a "
                              "disjoint crc32 sender range (default: "
                              "REPRO_SERVICE_WORKERS or 1 = in-process); "
                              "with --bench, benches the worker pool")
    p_serve.add_argument("--spool-dir", default=None, metavar="DIR",
                         help="persist first-flag events to crc32-"
                              "checksummed spools in DIR; a restarted "
                              "service replays them before accepting "
                              "traffic (crash-safe flag history)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="HTTP API port (default: 0 = ephemeral)")
    p_serve.add_argument("--tcp", type=int, default=None, metavar="PORT",
                         help="also accept wire lines over TCP on PORT "
                              "(0 = ephemeral)")
    p_serve.add_argument("--stdin", action="store_true",
                         help="ingest wire JSONL from stdin until EOF")
    p_serve.add_argument("--linger", type=float, default=0.0, metavar="S",
                         help="with --stdin: keep serving the API S "
                              "seconds after EOF")
    p_serve.add_argument("--emit-trace", action="store_true",
                         help="record a simulation's judged-observation "
                              "stream as wire JSONL on stdout (no server)")
    p_serve.add_argument("--pm", type=float, default=60.0,
                         help="emit-trace: cheater misbehavior %% "
                              "(default: 60; 0 = all honest)")
    p_serve.add_argument("--senders", type=int, default=8,
                         help="emit-trace: circle-topology sender count "
                              "(default: 8)")
    p_serve.add_argument("--cheater", type=int, default=3,
                         help="emit-trace: misbehaving node id "
                              "(default: 3)")
    p_serve.add_argument("--seconds", type=float, default=0.5,
                         help="emit-trace: simulated seconds "
                              "(default: 0.5)")
    p_serve.add_argument("--seed", type=int, default=1,
                         help="emit-trace: simulation seed (default: 1)")
    p_serve.add_argument("--bench", action="store_true",
                         help="run the Zipf sustained-throughput bench "
                              "(no server)")
    p_serve.add_argument("--bench-scale",
                         choices=["quick", "bench", "full"], default=None,
                         help="bench geometry (default: bench, or quick "
                              "under REPRO_QUICK)")
    p_serve.add_argument("--bench-out",
                         default="benchmarks/BENCH_service.json",
                         help="bench trajectory file ('-' = don't write)")
    p_serve.add_argument("--json", action="store_true",
                         help="bench: print the record as JSON")
    p_serve.set_defaults(func=_cmd_serve)

    if argv is None:
        argv = sys.argv[1:]
    if len(argv) >= 2 and argv[0] == "campaign" and argv[1] in (
        "merge", "report",
    ):
        argv = [f"campaign-{argv[1]}", *argv[2:]]
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
