"""``repro serve`` under the benchmark's span recorder.

Usage (the serve workload spawns it for the traced run):

    python3 perfbench/traced_daemon.py SUMMARY_FILE serve [repro serve flags...]

It wraps the layer entry points (:func:`tracer.install`), runs the
normal CLI until the daemon stops, then writes the per-layer metrics to
``SUMMARY_FILE`` and the spans to ``SUMMARY_FILE`` with a ``.spans.jsonl``
suffix.
"""

from __future__ import annotations

import time

SCRIPT_START_PC = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402


def main(argv: list[str]) -> int:
    summary_path = Path(argv[0])
    recorder = tracer.Recorder()
    imported = time.perf_counter()
    recorder.add("setup.import", SCRIPT_START_PC, imported)
    tracer.install(recorder)
    try:
        return repro_main(argv[1:])
    finally:
        finished = time.perf_counter()
        layers = tracer.layer_metrics(recorder)
        layers["setup.import_s"] = imported - SCRIPT_START_PC
        layers["trace.span_coverage"] = recorder.coverage(SCRIPT_START_PC, finished)
        summary_path.write_text(json.dumps(layers))
        recorder.dump(summary_path.with_suffix(".spans.jsonl"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
