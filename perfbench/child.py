"""One fresh interpreter's part of a benchmark run; ``run.py`` starts it.

Modes (each prints one JSON object as its last stdout line):

``setup``
    Import ``repro.cli`` and build the workload's fixed inputs in
    ``--workdir`` (what ``setup_s`` times, from spawn to exit).
``reference``
    Compute the workload's grid-point values with the serial in-process
    ``Runner``.
``measure``
    Time one workload call and report ``wall_s``, ``cpu_s``,
    ``peak_rss_mb`` and the grid-point values; with ``--traced`` the
    layer wrappers and the trace are on and the per-layer metrics are
    reported too.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HOOK_DIR = Path(__file__).resolve().parent / "hook"


def _store_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*.pkl"))


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _measure(args, workloads, workdir: Path, import_s: float) -> dict:
    setup_dir = Path(args.setup_dir)
    workloads.prepare(args.workload, setup_dir, workdir)
    observe: dict = {}
    root_span = contextlib.nullcontext()
    trace_path = None
    if args.traced:
        import layers
        from repro.telemetry import configure_telemetry, span

        layers.install()
        trace_path = str(workdir / "trace.jsonl")
        configure_telemetry(trace_path=trace_path)
        # Worker processes install the same wrappers at start-up.
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(HOOK_DIR), os.environ.get("PYTHONPATH", "")]
        )
        os.environ["PERFBENCH_LAYERS"] = "1"
        root_span = span(layers.ROOT)
    bytes_before = _store_bytes(workdir)
    before = os.times()
    started = time.perf_counter()
    with root_span:
        records = workloads.run(
            args.workload, args.seed, workdir, trace_path=trace_path, observe=observe
        )
    wall_s = time.perf_counter() - started
    after = os.times()
    cpu_s = sum(after[:4]) - sum(before[:4])  # user + system, self + children
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "points": [workloads.point_values(record) for record in records],
        "env": _environment(),
    }
    if args.traced:
        import layers
        from repro.telemetry import shutdown_tracing

        shutdown_tracing()
        report["layers"] = layers.summarize(
            layers.read_trace(trace_path),
            wall_s=wall_s,
            import_s=import_s,
            bytes_written=_store_bytes(workdir) - bytes_before,
            observe=observe,
        )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "reference", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-dir")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every ``repro`` command pays)

    import_s = time.perf_counter() - started
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.mode == "setup":
            workloads.setup(args.workload, args.seed, workdir)
            report = {"import_s": import_s}
        elif args.mode == "reference":
            workloads.prepare(args.workload, Path(args.setup_dir), workdir)
            records = workloads.reference(args.workload, args.seed, workdir)
            report = {"points": [workloads.point_values(r) for r in records]}
        else:
            report = _measure(args, workloads, workdir, import_s)
    except Exception as error:  # run.py counts the call's points as failed
        traceback.print_exc()
        report = {"error": f"{type(error).__name__}: {error}"}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
