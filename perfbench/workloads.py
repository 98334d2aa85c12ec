"""The benchmark's three workloads: inputs, the timed call, and references.

Each workload is one client submitting one job through a public entry
point and waiting for its records (a closed loop with one client):

- ``run-cold``: :meth:`ExperimentPipeline.run` on a fresh in-memory
  store — the paper-exact sequential STDP path (``train_batch_size=1``),
  where training is most of the time.
- ``dram-sweep``: :meth:`Runner.run` over DRAM-side axes only, against a
  disk store that set-up filled with an N400 model's three training
  artifacts, so every point hits the store for training and runs only
  ``dram-eval``.
- ``cluster-sweep``: the ``repro cluster sweep`` composition — an
  embedded :class:`ExperimentService` plus two ``local_worker_processes``
  with one BLAS thread each and a disk store — over a seed × voltage
  grid with the fused minibatch trainer.

The workload seed feeds ``seed``, ``dataset_seed`` and
``weak_cell_seed``; the program only ever sees the generated config.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import SparkXDConfig
from repro.analysis.sweeps import per_voltage_axis
from repro.pipeline import ArtifactStore, ExperimentPipeline, Runner
from repro.pipeline.runner import RunRecord
from repro.pipeline.stages import default_stages

WORKLOADS = ("run-cold", "dram-sweep", "cluster-sweep")

#: Local worker processes of ``cluster-sweep``.
CLUSTER_WORKERS = 2

#: Upper bound on one sweep's distribution phase; a sweep that has not
#: finished by then is a failed run, not a slow one.
WAIT_TIMEOUT_S = 120.0


def _seeded(seed: int, **fields: Any) -> SparkXDConfig:
    return SparkXDConfig.small(
        seed=seed, dataset_seed=seed, weak_cell_seed=seed, **fields
    )


def base_config(workload: str, seed: int) -> SparkXDConfig:
    if workload == "run-cold":
        return _seeded(
            seed, n_neurons=100, n_train=200, n_test=100, n_steps=100,
            train_batch_size=1,
        )
    if workload == "dram-sweep":
        # The DRAM trace depends only on the network size (N400: 156,800
        # accesses), so the model is trained small and fast.  The bound
        # of 1.0 accepts every BER rate, pinning the threshold at the top
        # rate: every seed then maps SparkXD onto safe subarrays at both
        # voltages and simulates the same eight trace executions.
        return _seeded(
            seed, n_neurons=400, n_train=64, n_test=32, n_steps=50,
            baseline_epochs=1, tolerance_trials=1, train_batch_size=32,
            accuracy_bound=1.0,
        )
    if workload == "cluster-sweep":
        return _seeded(seed, n_neurons=60, train_batch_size=32)
    raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")


def grid(workload: str, seed: int) -> Dict[str, list]:
    if workload == "run-cold":
        return {}
    if workload == "dram-sweep":
        return {
            "mapping_policy": ["baseline", "sparkxd"],
            "voltages": per_voltage_axis([1.325, 1.025]),
        }
    if workload == "cluster-sweep":
        return {
            "seed": [seed + offset for offset in range(4)],
            "voltages": per_voltage_axis([1.325, 1.025]),
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")


def setup(workload: str, seed: int, workdir: Path) -> None:
    """Build the workload's fixed inputs under ``workdir``.

    Only ``dram-sweep`` has any: the trained N400 model's three training
    artifacts, written to ``workdir/store`` through the pipeline.
    """
    config = base_config(workload, seed)
    if workload == "dram-sweep":
        training_chain = default_stages()[:3]
        ExperimentPipeline(
            config, stages=training_chain, store=ArtifactStore(workdir / "store")
        ).run_stages()


def prepare(workload: str, setup_dir: Path, workdir: Path) -> None:
    """Untimed per-run preparation: a private copy of the set-up store."""
    if workload == "dram-sweep":
        shutil.copytree(setup_dir / "store", workdir / "store")


def run(
    workload: str,
    seed: int,
    workdir: Path,
    trace_path: Optional[str] = None,
    observe: Optional[Dict[str, Any]] = None,
) -> List[RunRecord]:
    """The timed call: submit the workload and wait for its records.

    ``trace_path`` (traced runs only) is forwarded to the cluster's
    worker processes; ``observe`` collects what only the client can see
    mid-run (worker spawn time, the service's fleet ``status`` view).
    """
    config = base_config(workload, seed)
    axes = grid(workload, seed)
    if workload == "run-cold":
        store = ArtifactStore()
        pipeline = ExperimentPipeline(config, store=store)
        result = pipeline.run()
        return [
            RunRecord.from_result(
                result,
                cache_hits=store.stats.hits,
                cache_misses=store.stats.misses,
                stage_timings=pipeline.stage_timings,
            )
        ]
    if workload == "dram-sweep":
        return Runner(config, store=ArtifactStore(workdir / "store")).run(axes)
    if workload == "cluster-sweep":
        return _cluster_sweep(config, axes, workdir, trace_path, observe)
    raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")


def _cluster_sweep(config, axes, workdir, trace_path, observe) -> List[RunRecord]:
    """What ``repro cluster sweep --workers 2 --cache-dir DIR`` runs."""
    from repro.cluster import local_worker_processes
    from repro.cluster.service import ExperimentService

    service = ExperimentService(
        store=ArtifactStore(workdir / "hub"), shutdown_when_idle=True
    )
    service.start()
    try:
        managed = service.submit(config, axes)
        if observe is not None:
            observe["spawn_ts"] = time.time()
        with local_worker_processes(
            service.worker_address,
            CLUSTER_WORKERS,
            threads_per_worker=1,
            trace=trace_path,
        ) as workers:
            service.wait(managed.sweep_id, timeout=WAIT_TIMEOUT_S)
            if observe is not None:
                observe["worker_pids"] = [proc.pid for proc in workers]
                observe["status"] = service.fleet()
        return service.results(managed.sweep_id)
    finally:
        service.stop()


def reference(workload: str, seed: int, workdir: Path) -> List[RunRecord]:
    """The same grid through the serial in-process :class:`Runner`."""
    config = base_config(workload, seed)
    store = (
        ArtifactStore(workdir / "store") if workload == "dram-sweep" else ArtifactStore()
    )
    return Runner(config, store=store).run(grid(workload, seed))


def point_values(record: RunRecord) -> Dict[str, Any]:
    """The compared result values of one grid point.

    Accuracies, BER threshold, per-voltage feasibility, energy saving and
    speed-up, and the DRAM trace statistics' counts — never timings or
    cache counts, which vary from run to run.
    """
    result = record.result
    if result is None:
        raise ValueError("record carries no result to check")

    def counts(execution) -> Optional[Dict[str, Any]]:
        if execution is None:
            return None
        stats = execution.stats
        return {
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "conflicts": stats.conflicts,
            "banks_touched": stats.banks_touched,
            "commands": {
                kind.name: count for kind, count in sorted(
                    stats.command_counts.items(), key=lambda item: item[0].name
                )
            },
        }

    return {
        "params": {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in sorted(record.params.items())
        },
        "baseline_accuracy": record.baseline_accuracy,
        "improved_accuracy": record.improved_accuracy,
        "ber_threshold": record.ber_threshold,
        "baseline_dram": counts(result.baseline_dram),
        "voltages": [
            {
                "v_supply": outcome.v_supply,
                "mapping_policy": outcome.mapping_policy,
                "feasible": outcome.feasible,
                "energy_saving": outcome.energy_saving,
                "speedup": outcome.speedup,
                "dram": counts(outcome.result),
            }
            for _, outcome in sorted(result.outcomes.items(), reverse=True)
        ],
    }
