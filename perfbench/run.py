"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-campaign --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no tracing; ``--trace 1`` runs the workload's traced variant and
reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The line before it records the
run's provenance.  See ``perfbench/METRICS.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for campaign directories, spools and span tables,
#: inside the checkout (and ignored by git).
WORK = ROOT / ".perfbench"

WORKLOADS = ("paper-campaign", "tight-cell", "service-churn")
#: Executor workers of the untraced simulation workloads: both cores
#: of the 2-core reference host, which also averages out a slow core.
#: Traced runs stay in-process so spans see every layer.
SIM_WORKERS = 2


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src``, never from
    anywhere else on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


def main(argv=None) -> int:
    args = _parse(argv)
    # A shell's background job starts with SIGINT ignored, and children
    # inherit that; ``repro serve`` shuts down cleanly only on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spec = _spec()
    from common import pin_environment, provenance

    cleared = pin_environment()
    _import_program()
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        outcome = _run(args, tmp)
        if outcome.spans is not None:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
            spans_path.write_text(json.dumps(outcome.spans, indent=1))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = outcome.metrics.get(entry["name"])
        metrics[entry["name"]] = {
            "value": 0 if value is None else value,
            "unit": entry["unit"],
        }
    checks = outcome.checks
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if outcome.facts:
        print(f"perfbench: facts {json.dumps(outcome.facts)}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(ROOT, args.seed, cleared)}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def _run(args, tmp: str):
    if args.workload == "service-churn":
        import servicework

        if args.trace:
            outcome = servicework.run_traced(
                args.seed, args.seconds, tmp, ROOT
            )
        else:
            outcome = servicework.run_untraced(
                args.seed, args.seconds, tmp, ROOT
            )
    else:
        import simwork

        if args.trace:
            outcome = simwork.run_traced(args.workload, args.seed, tmp)
        else:
            outcome = simwork.run_untraced(
                args.workload, args.seed, args.seconds, tmp, SIM_WORKERS
            )
    checks = outcome.checks
    outcome.metrics.setdefault(
        "failed_share", checks.failed / max(checks.attempted, 1)
    )
    return outcome


if __name__ == "__main__":
    raise SystemExit(main())
