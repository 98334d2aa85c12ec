"""Per-layer measurement for the traced runs.

:func:`install` wraps the public functions each layer exposes in
``repro.telemetry`` spans, from the benchmark's side: nothing under
``src/`` changes.  The same wrappers go into the cluster's worker
processes through ``hook/sitecustomize.py``.  :func:`summarize` then
reads one trace file — these spans plus those the program already
emits (``stage.*``, ``train.epoch``, ``eval.chunk``, ``cluster.job``) —
and the fleet counters of the service's ``status`` view, and returns
every per-layer metric of :data:`METRICS`.

A layer's self time is its spans' time minus the part their same-process
children cover; its share is that self time over the traced ``wall_s``
(summed over processes, so a parallel layer can exceed 1).
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Root span the client opens around the timed call.
ROOT = "bench.workload"

LAYERS = (
    "cli", "datasets", "engine", "errors", "core", "trace", "dram",
    "pipeline", "cluster",
)

STAGES = ("train-baseline", "fault-aware-train", "tolerance-analysis", "dram-eval")

#: Every per-layer metric: name -> (unit, better, moves, exercised by).
#: ``moves`` is the end-to-end metric the layer should move; the
#: workloads are the ones that exercise the layer (the rest bypass it).
METRICS: Dict[str, Tuple[str, str, str, str]] = {
    "cli.import_s": ("s", "lower", "setup_s; wall_s on cluster-sweep", "all"),
    "datasets.load_s": ("s", "lower", "wall_s", "run-cold, cluster-sweep"),
    "engine.train_s": ("s", "lower", "wall_s, cpu_s", "run-cold, cluster-sweep"),
    "engine.train_samples_per_s": ("1/s", "higher", "wall_s, cpu_s", "run-cold, cluster-sweep"),
    "engine.eval_s": ("s", "lower", "wall_s, cpu_s", "run-cold, cluster-sweep"),
    "engine.eval_samples_per_s": ("1/s", "higher", "wall_s, cpu_s", "run-cold, cluster-sweep"),
    "engine.kernel_step_s.p50": ("s", "lower", "wall_s, cpu_s", "run-cold, cluster-sweep"),
    "engine.eval_chunk_s.p50": ("s", "lower", "wall_s, cpu_s", "run-cold, cluster-sweep"),
    "errors.inject_s": ("s", "lower", "wall_s", "run-cold"),
    "errors.injections": ("count", "lower", "wall_s", "run-cold"),
    "core.train_baseline_s": ("s", "lower", "wall_s", "run-cold"),
    "core.fault_aware_s": ("s", "lower", "wall_s", "run-cold"),
    "core.tolerance_s": ("s", "lower", "wall_s", "run-cold"),
    "core.dram_eval_s": ("s", "lower", "wall_s", "run-cold, dram-sweep"),
    "core.mapping_s": ("s", "lower", "wall_s", "run-cold, dram-sweep"),
    "trace.generate_s": ("s", "lower", "wall_s, peak_rss_mb", "dram-sweep"),
    "trace.accesses": ("count", "lower", "wall_s, peak_rss_mb", "dram-sweep"),
    "dram.simulate_s": ("s", "lower", "wall_s, peak_rss_mb", "dram-sweep, run-cold"),
    "dram.energy_s": ("s", "lower", "wall_s, peak_rss_mb", "dram-sweep, run-cold"),
    "dram.executions": ("count", "lower", "wall_s, peak_rss_mb", "dram-sweep, run-cold"),
    "dram.accesses": ("count", "lower", "wall_s, peak_rss_mb", "dram-sweep, run-cold"),
    "dram.row_switches": ("count", "lower", "wall_s, peak_rss_mb", "dram-sweep, run-cold"),
    "dram.host_ns_per_access": ("ns", "lower", "wall_s, peak_rss_mb", "dram-sweep, run-cold"),
    **{
        f"pipeline.stage.{stage}_s": ("s", "lower", "wall_s", "all")
        for stage in STAGES
    },
    "pipeline.store.get_s": ("s", "lower", "wall_s", "dram-sweep, cluster-sweep"),
    "pipeline.store.put_s": ("s", "lower", "wall_s", "dram-sweep, cluster-sweep"),
    "pipeline.store.hits": ("count", "higher", "wall_s", "dram-sweep, cluster-sweep"),
    "pipeline.store.misses": ("count", "lower", "wall_s", "dram-sweep, cluster-sweep"),
    "pipeline.store.bytes_written": ("B", "lower", "wall_s", "dram-sweep, cluster-sweep"),
    "cluster.submit_s": ("s", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.worker_boot_s": ("s", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.busy_frac": ("frac", "higher", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.idle_s": ("s", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.results_s": ("s", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.leases": ("count", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.requeues": ("count", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.sync_pushed_bytes": ("B", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.sync_pulled_bytes_peer": ("B", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.sync_pulled_bytes_hub": ("B", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "cluster.sync_retries": ("count", "lower", "wall_s, cpu_s", "cluster-sweep"),
    "telemetry.overhead_frac": ("frac", "lower", "none (the 3% tracing contract)", "all"),
    **{
        f"{layer}.{kind}": (unit, "lower", "wall_s", "see the layer's metrics")
        for layer in LAYERS
        for kind, unit in (("self_s", "s"), ("share", "frac"))
    },
}

#: Span name -> layer charged with its self time.
_LAYER_OF_SPAN = {
    "datasets.load": "datasets",
    "train.epoch": "engine",
    "eval.chunk": "engine",
    "engine.step": "engine",
    "errors.inject": "errors",
    "core.train_baseline": "core",
    "core.fault_aware": "core",
    "core.tolerance": "core",
    "core.dram_eval": "core",
    "core.mapping": "core",
    "trace.generate": "trace",
    "dram.execute": "dram",
    "dram.energy": "dram",
    "sweep.point": "pipeline",
    "pipeline.store.get": "pipeline",
    "pipeline.store.put": "pipeline",
    "cluster.job": "cluster",
    "cluster.submit": "cluster",
    "cluster.results": "cluster",
}


def _layer_of(name: str) -> Optional[str]:
    if name.startswith("stage."):
        return "pipeline"
    return _LAYER_OF_SPAN.get(name)


# ----------------------------------------------------------------------
# Wrappers.


def _recorded(original: Callable, name: str, describe: Optional[Callable] = None):
    """``original``, recorded as span ``name``.

    ``describe(result)`` returns span attributes (work counts) taken
    from the call's result.
    """
    from repro.telemetry import span

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        with span(name) as current:
            result = original(*args, **kwargs)
            if describe is not None:
                current.set(**describe(result))
        return result

    return recorded


def _wrap(owner: Any, attr: str, name: str, describe: Optional[Callable] = None) -> None:
    setattr(owner, attr, _recorded(getattr(owner, attr), name, describe))


def install() -> None:
    """Wrap every layer's public entry points; once per process."""
    import repro.core.dram_eval as dram_eval
    import repro.pipeline.stages as stages
    from repro.cluster.service import ExperimentService
    from repro.core.mapping_policy import MAPPING_POLICIES
    from repro.dram.controller import DramController
    from repro.dram.energy import DramEnergyModel
    from repro.engine.trainer import BatchedTrainer
    from repro.errors.injection import ErrorInjector
    from repro.pipeline.store import MISS, ArtifactStore

    _wrap(stages, "load_dataset", "datasets.load")
    _wrap(stages, "train_baseline", "core.train_baseline")
    _wrap(stages, "improve_error_tolerance", "core.fault_aware")
    _wrap(stages, "analyze_error_tolerance", "core.tolerance")
    _wrap(stages, "evaluate_dram", "core.dram_eval")
    _wrap(dram_eval, "baseline_mapping", "core.mapping")
    for policy, mapper in MAPPING_POLICIES.items():
        MAPPING_POLICIES.register(
            policy, _recorded(mapper, "core.mapping"), overwrite=True
        )
    _wrap(
        dram_eval, "inference_read_trace", "trace.generate",
        lambda trace: {"accesses": len(trace)},
    )
    _wrap(
        DramController, "execute", "dram.execute",
        lambda result: {
            "accesses": result.stats.accesses,
            "row_switches": result.stats.accesses - result.stats.hits,
        },
    )
    _wrap(DramEnergyModel, "trace_energy", "dram.energy")
    # Every injection entry point funnels into inject_by_region, one
    # call per realization.
    _wrap(ErrorInjector, "inject_by_region", "errors.inject")
    _wrap(BatchedTrainer, "present_sample", "engine.step")
    _wrap(BatchedTrainer, "present_minibatch", "engine.step")
    _wrap(
        ArtifactStore, "get", "pipeline.store.get",
        lambda artifact: {"hit": artifact is not MISS},
    )
    _wrap(ArtifactStore, "put", "pipeline.store.put")
    _wrap(ArtifactStore, "put_bytes", "pipeline.store.put")
    _wrap(ExperimentService, "submit", "cluster.submit")
    _wrap(ExperimentService, "results", "cluster.results")


# ----------------------------------------------------------------------
# Trace -> metrics.


def read_trace(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [
            record
            for record in (json.loads(line) for line in handle if line.strip())
            if record.get("type") == "span"
        ]


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per layer of span time not covered by same-process children."""
    covered: Dict[str, float] = defaultdict(float)
    by_id = {record["span"]: record for record in spans}
    for record in spans:
        parent = by_id.get(record.get("parent"))
        if parent is not None and parent["pid"] == record["pid"]:
            covered[parent["span"]] += record["dur_s"]
    layers: Dict[str, float] = defaultdict(float)
    for record in spans:
        layer = _layer_of(record["name"])
        if layer is not None:
            layers[layer] += max(0.0, record["dur_s"] - covered[record["span"]])
    return layers


def _attr(record: Dict[str, Any], key: str, default: Any = 0) -> Any:
    return (record.get("attrs") or {}).get(key, default)


def summarize(
    spans: List[Dict[str, Any]],
    wall_s: float,
    import_s: float,
    bytes_written: int,
    observe: Dict[str, Any],
) -> Dict[str, float]:
    """Every per-layer metric except ``telemetry.overhead_frac``."""
    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in spans:
        named[record["name"]].append(record)

    def total(name: str) -> float:
        return sum(record["dur_s"] for record in named[name])

    def attr_sum(name: str, key: str, weight: Optional[str] = None) -> float:
        return sum(
            _attr(record, key) * (_attr(record, weight, 1) if weight else 1)
            for record in named[name]
        )

    def median_dur(name: str) -> float:
        durations = [record["dur_s"] for record in named[name]]
        return statistics.median(durations) if durations else 0.0

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    selfs = self_times(spans)
    train_s, eval_s = total("train.epoch"), total("eval.chunk")
    energy_s = total("dram.energy")
    simulate_s = max(0.0, total("dram.execute") - energy_s)
    accesses = attr_sum("dram.execute", "accesses")
    gets = named["pipeline.store.get"]
    hits = sum(1 for record in gets if _attr(record, "hit", False))
    metrics: Dict[str, float] = {
        "cli.import_s": import_s,
        "datasets.load_s": total("datasets.load"),
        "engine.train_s": train_s,
        "engine.train_samples_per_s": rate(attr_sum("train.epoch", "samples"), train_s),
        "engine.eval_s": eval_s,
        "engine.eval_samples_per_s": rate(
            attr_sum("eval.chunk", "samples", weight="realizations"), eval_s
        ),
        "engine.kernel_step_s.p50": median_dur("engine.step"),
        "engine.eval_chunk_s.p50": median_dur("eval.chunk"),
        "errors.inject_s": total("errors.inject"),
        "errors.injections": len(named["errors.inject"]),
        "core.train_baseline_s": total("core.train_baseline"),
        "core.fault_aware_s": total("core.fault_aware"),
        "core.tolerance_s": total("core.tolerance"),
        "core.dram_eval_s": total("core.dram_eval"),
        "core.mapping_s": total("core.mapping"),
        "trace.generate_s": total("trace.generate"),
        "trace.accesses": attr_sum("trace.generate", "accesses"),
        "dram.simulate_s": simulate_s,
        "dram.energy_s": energy_s,
        "dram.executions": len(named["dram.execute"]),
        "dram.accesses": accesses,
        "dram.row_switches": attr_sum("dram.execute", "row_switches"),
        "dram.host_ns_per_access": rate(simulate_s * 1e9, accesses),
        **{f"pipeline.stage.{stage}_s": total(f"stage.{stage}") for stage in STAGES},
        "pipeline.store.get_s": total("pipeline.store.get"),
        "pipeline.store.put_s": total("pipeline.store.put"),
        "pipeline.store.hits": hits,
        "pipeline.store.misses": len(gets) - hits,
        "pipeline.store.bytes_written": bytes_written,
        "cluster.submit_s": total("cluster.submit"),
        "cluster.results_s": total("cluster.results"),
        **_cluster_metrics(named["cluster.job"], wall_s, observe),
    }
    selfs["cli"] = import_s
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        metrics[f"{layer}.share"] = rate(selfs.get(layer, 0.0), wall_s)
    return {name: float(value) for name, value in metrics.items()}


def _cluster_metrics(
    jobs: List[Dict[str, Any]], wall_s: float, observe: Dict[str, Any]
) -> Dict[str, float]:
    """Fleet metrics from worker ``cluster.job`` spans and ``status``."""
    per_worker: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for record in jobs:
        per_worker[record["pid"]].append(record)
    boots, idle, busy = [], 0.0, 0.0
    for records in per_worker.values():
        first = min(record["ts"] for record in records)
        last = max(record["ts"] + record["dur_s"] for record in records)
        worked = sum(record["dur_s"] for record in records)
        boots.append(first - observe["spawn_ts"])
        idle += (last - first) - worked
        busy += worked
    n_workers = len(observe.get("worker_pids", ())) or 1
    counters = (
        ((observe.get("status") or {}).get("telemetry") or {}).get("fleet") or {}
    ).get("counters") or {}
    return {
        "cluster.worker_boot_s": statistics.median(boots) if boots else 0.0,
        "cluster.busy_frac": busy / (n_workers * wall_s) if jobs else 0.0,
        "cluster.idle_s": idle,
        "cluster.leases": counters.get("plan.leases", 0),
        "cluster.requeues": counters.get("plan.requeues", 0),
        "cluster.sync_pushed_bytes": counters.get("sync.pushed_bytes", 0),
        "cluster.sync_pulled_bytes_peer": counters.get("sync.pulled_bytes_peer", 0),
        "cluster.sync_pulled_bytes_hub": counters.get("sync.pulled_bytes_hub", 0),
        "cluster.sync_retries": counters.get("sync.retries", 0),
    }
