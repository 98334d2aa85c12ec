"""SparkXD benchmark: the paths users run, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-cold --seed 42 --seconds 27 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``run-cold``,
``dram-sweep``, ``cluster-sweep``.  One run:

1. sets the workload up ``SETUP_REPEATS`` times, each in a fresh
   interpreter, and reports the median as ``setup_s``;
2. loads the committed reference values for the default seed, or
   computes them for any other seed with the serial in-process
   ``Runner`` (untimed);
3. measures the workload in fresh interpreters for ``--seconds``
   seconds (at least one call; with ``--trace 1`` untraced and traced
   calls alternate, at least one of each), checking every grid point's
   values against the reference.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (grid points) and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, each a median
over the run's calls.  Stores and traces live in a temporary
directory under ``.perfbench-tmp/`` that the run deletes.  Only the
standard library is used here; the program runs in the child processes
(``child.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import failed_points  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402

WORKLOADS = ("run-cold", "dram-sweep", "cluster-sweep")
DEFAULT_SEED = 42
SETUP_REPEATS = 3
#: A run must end within 180 s; no call starts that could end past this.
DEADLINE_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PERFBENCH_LAYERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(
    mode: str, args, workdir: Path, env, deadline: float,
    setup_dir: Optional[Path] = None, traced: bool = False,
) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON report.

    The child leads its own process group, so a timeout also stops the
    cluster workers it started.
    """
    command = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir),
    ]
    if setup_dir is not None:
        command += ["--setup-dir", str(setup_dir)]
    if traced:
        command.append("--traced")
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} call ran past the run's deadline")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} call exited with code {proc.returncode}")
    return json.loads(lines[-1])


def reference_points(args, workdir: Path, setup_dir: Path, env, deadline) -> List:
    committed = HERE / "reference" / f"{args.workload}-seed{args.seed}.json"
    if committed.is_file():
        return json.loads(committed.read_text())
    report = run_child(
        "reference", args, workdir / "reference", env, deadline, setup_dir=setup_dir
    )
    if "error" in report:
        raise ChildFailed(f"reference failed: {report['error']}")
    return report["points"]


def measure(args, workdir: Path, setup_dir: Path, env, deadline, reference):
    """Calls of the workload for ``--seconds`` seconds; checked reports."""
    calls: List[dict] = []
    problems: List[str] = []
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        call_started = time.monotonic()
        try:
            report = run_child(
                "measure", args, workdir / f"call-{len(calls)}", env, deadline,
                setup_dir=setup_dir, traced=traced,
            )
        except ChildFailed as error:
            report = {"error": str(error)}
        report["traced"] = traced
        report["seconds"] = time.monotonic() - call_started
        failures = failed_points(report.get("points"), reference)
        if "error" in report:
            failures.insert(0, report["error"])
        report["failed"] = min(len(failures), len(reference))
        problems.extend(failures)
        calls.append(report)
        shutil.rmtree(workdir / f"call-{len(calls) - 1}", ignore_errors=True)
        elapsed = time.monotonic() - started
        per_call = statistics.mean(call["seconds"] for call in calls)
        need_pair = bool(args.trace) and len(calls) < 2
        if time.monotonic() + per_call > deadline:
            break
        if not need_pair and elapsed + per_call > args.seconds:
            break
    return calls, problems


def median_of(calls: List[dict], key: str) -> Optional[float]:
    values = [call[key] for call in calls if key in call]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="SparkXD benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy generators)")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(src)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            setup_dir = workdir / f"setup-{repeat}"
            began = time.perf_counter()
            report = run_child("setup", args, setup_dir, env, deadline)
            setup_times.append(time.perf_counter() - began)
            if "error" in report:
                raise ChildFailed(f"setup failed: {report['error']}")
            if repeat:
                shutil.rmtree(setup_dir)
        setup_dir = workdir / "setup-0"
        reference = reference_points(args, workdir, setup_dir, env, deadline)
        calls, problems = measure(args, workdir, setup_dir, env, deadline, reference)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    for problem in problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    attempted = len(reference) * len(calls)
    failed = sum(call["failed"] for call in calls)
    plain = [call for call in calls if not call["traced"] and "wall_s" in call]
    traced = [call for call in calls if call["traced"] and "layers" in call]
    if not plain or (args.trace and not traced):
        print("error: no call of the workload completed", file=sys.stderr)
        return 1

    end_to_end = {
        "wall_s": median_of(plain, "wall_s"),
        "setup_s": statistics.median(setup_times),
        "cpu_s": median_of(plain, "cpu_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }
    print(f"env: {json.dumps(plain[0]['env'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(calls)} call(s), "
          f"{len(plain)} untraced, {len(traced)} traced")
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:12.4f} {END_TO_END[name]}")
    print(f"  {'failed_frac':<12} {failed / max(attempted, 1):12.4f} frac "
          f"({failed} of {attempted} grid points)")
    if args.trace:
        metrics = {
            name: statistics.median(call["layers"][name] for call in traced)
            for name in LAYER_METRICS
            if name != "telemetry.overhead_frac"
        }
        metrics["telemetry.overhead_frac"] = (
            median_of(traced, "wall_s") / end_to_end["wall_s"] - 1.0
        )
        for name in LAYER_METRICS:
            print(f"  {name:<36} {metrics[name]:14.6g} {LAYER_METRICS[name][0]}")
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    else:
        metrics = end_to_end
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
