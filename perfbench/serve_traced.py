"""Run ``python -m repro serve`` with the service layers traced.

Usage: ``python perfbench/serve_traced.py SPANS.json serve [ARGS...]``

Calibrates the tracer and installs the span wrappers of
:func:`tracer.install_service`, then enters the program's own CLI, so
the traced service has the same process layout as the untraced one.
When the CLI returns (``repro serve`` returns on SIGINT) the tracer is
calibrated once more and the span table is written to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install_service  # noqa: E402


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.calibrate()
    install_service(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(args)
    finally:
        tracer.calibrate()
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
