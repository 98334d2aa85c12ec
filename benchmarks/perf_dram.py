#!/usr/bin/env python
"""DRAM simulation benchmark: row-run simulator vs the per-access oracle.

Executes the inference read traces of the paper's networks (baseline
and SparkXD mappings on LPDDR3-1600) with both the production
:class:`~repro.dram.row_buffer.RowBufferSimulator`, which steps once per
row run, and the per-access scalar simulator kept in ``tests/oracles.py``.
Records host accesses per second for each, whether every
``TraceStatistics`` field (floats included) is identical, and the
seconds of the DRAM-only paper figures' ``run_experiment`` (Figs. 12a,
12b, 2a).  Writes ``BENCH_dram.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf_dram.py           # full run
    PYTHONPATH=src python benchmarks/perf_dram.py --quick   # CI smoke: N400 only

Exits 1 when any trace's statistics differ from the oracle's.  The
oracle time includes the slot-to-coordinate conversion the per-access
controller performed on every access.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.mapping_policy import baseline_mapping, sparkxd_mapping
from repro.dram.organization import DramOrganization
from repro.dram.row_buffer import RowBufferSimulator
from repro.dram.specs import LPDDR3_1600_4GB
from repro.dram.timing import timing_for_voltage
from repro.errors.weak_cells import WeakCellMap
from repro.trace.generator import InferenceTraceSpec, inference_read_trace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from oracles import scalar_statistics  # noqa: E402

N_INPUT = 784
V_REDUCED = 1.025
BER_THRESHOLD = 1e-3  # the paper's maximum trained-through BER
FULL_SIZES = (400, 1600, 3600)
QUICK_SIZES = (400,)
FIGURES = (
    "test_fig12a_energy_savings",
    "test_fig12b_speedup",
    "test_fig2a_pruning_combination",
)


def _traces(org: DramOrganization, n_neurons: int):
    """The baseline trace at nominal voltage and the SparkXD trace at 1.025 V."""
    n_weights = N_INPUT * n_neurons
    spec = InferenceTraceSpec(n_weights=n_weights, bits_per_weight=32)
    base_map = baseline_mapping(org, n_weights, 32)
    yield "baseline", 1.35, inference_read_trace(spec, base_map.slot_of_chunk, org)
    profile = WeakCellMap(org, sigma=0.8, seed=0).profile_at(V_REDUCED)
    mapping = sparkxd_mapping(org, n_weights, 32, profile, BER_THRESHOLD)
    yield "sparkxd", V_REDUCED, inference_read_trace(spec, mapping.slot_of_chunk, org)


def _best_of(repeats: int, fn):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def simulator_rows(sizes, repeats: int) -> list:
    org = DramOrganization(LPDDR3_1600_4GB)
    rows = []
    for n_neurons in sizes:
        for policy, v, trace in _traces(org, n_neurons):
            timing = timing_for_voltage(org.spec, v)
            new_s, new = _best_of(
                repeats, lambda: RowBufferSimulator(org, timing).run(trace)
            )
            oracle_s, oracle = _best_of(1, lambda: scalar_statistics(org, timing, trace))
            identical = all(
                getattr(new, f.name) == getattr(oracle, f.name)
                for f in dataclasses.fields(new)
            )
            row = {
                "network": f"N{n_neurons}",
                "mapping": policy,
                "v_supply": v,
                "accesses": new.accesses,
                "row_runs": int(np.count_nonzero(np.diff(trace // org.geometry.columns_per_row))) + 1,
                "oracle_seconds": oracle_s,
                "row_run_seconds": new_s,
                "oracle_accesses_per_s": new.accesses / oracle_s,
                "row_run_accesses_per_s": new.accesses / new_s,
                "speedup": oracle_s / new_s,
                "identical": identical,
            }
            rows.append(row)
            print(
                f"N{n_neurons:<5} {policy:<8} {v:.3f}V {row['accesses']:>9} accesses "
                f"{row['row_runs']:>6} runs | oracle {row['oracle_accesses_per_s']:>10.0f}/s "
                f"| row-run {row['row_run_accesses_per_s']:>12.0f}/s "
                f"| {row['speedup']:>7.0f}x | identical={identical}"
            )
    return rows


def figure_seconds() -> dict:
    """Seconds of each DRAM-only paper figure's ``run_experiment``."""
    seconds = {}
    for name in FIGURES:
        spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        t0 = time.perf_counter()
        module.run_experiment()
        seconds[name] = time.perf_counter() - t0
        print(f"{name}.run_experiment: {seconds[name]:.2f} s")
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="N400 traces only, no figure timings (CI smoke)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats of the row-run simulator; the best is reported")
    parser.add_argument("--out", default="BENCH_dram.json", metavar="PATH",
                        help="output JSON path (default: ./BENCH_dram.json)")
    args = parser.parse_args(argv)
    if args.repeats <= 0:
        parser.error("--repeats must be > 0")

    payload = {
        "benchmark": "repro.dram row-run simulator vs per-access oracle",
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "traces": simulator_rows(QUICK_SIZES if args.quick else FULL_SIZES, args.repeats),
    }
    if not args.quick:
        payload["figure_run_experiment_seconds"] = figure_seconds()
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {out}")

    if not all(row["identical"] for row in payload["traces"]):
        print("ERROR: row-run statistics differ from the per-access oracle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
