"""Multi-host distributed sweep execution with artifact sync.

The cluster subsystem turns the single-host sweep engine
(:mod:`repro.pipeline`) into a horizontally scalable service, using
nothing beyond the standard library (``asyncio`` + ``socket`` +
``json``):

- the **experiment service** (:class:`ExperimentService`) is the one
  coordinator front end: an asyncio worker plane feeding
  :class:`CoordinatorCore` dispatch plus an HTTP/JSON control plane
  (:class:`ServiceClient`).  It multiplexes many named sweeps (each a
  :class:`SweepPlan` that dedupes jobs by stage fingerprint and hands
  them out with leases, heartbeats, requeue-with-exclusion, bounded
  retries and affinity-aware grants) over one shared store and one
  worker fleet, with shared-token auth on both planes;
- **worker agents** (:class:`WorkerAgent`) lease jobs, run them through
  the ordinary :class:`~repro.pipeline.stages.ExperimentPipeline`
  against a local store, and sync artifacts by fingerprint
  (:class:`ArtifactSync` — idempotent, resumable by retry), peer-first
  when the fabric is on;
- the **executor** (:class:`ClusterExecutor`) drives one sweep end to
  end through a single-shot embedded service — serve, submit, optional
  local fleet, wait, results — and returns
  :class:`~repro.pipeline.runner.RunRecord` lists whose values are
  identical to the serial :class:`~repro.pipeline.runner.Runner`;
- an optional **journal** (:class:`SweepJournal`) persists every job
  transition next to the store, so a sweep killed mid-run restarts
  with ``--resume`` and never re-leases a journaled-done fingerprint.

Minimal end-to-end (one process per block, any hosts)::

    # coordinator host: one sweep, external workers only
    python -m repro cluster sweep --workers 0 --bind 0.0.0.0:8752 --seeds 1 2 3

    # each worker host
    python -m repro cluster worker --coordinator coord-host:8752

or keep one service up and submit sweeps to it as they come::

    python -m repro cluster serve --bind 0.0.0.0:8752
    python -m repro cluster submit --service coord-host:8753 --seeds 1 2 3

or programmatically, with the runner facade::

    records = Runner(config, store=store, coordinator="0.0.0.0:8752").run(grid)

See ``docs/cluster.md`` for the protocol, lease semantics and the
artifact sync contract.
"""

from repro.cluster.coordinator import CoordinatorCore, SweepEndpoint
from repro.cluster.executor import (
    ClusterExecutor,
    DistributionTimeout,
    local_worker_processes,
    local_worker_threads,
)
from repro.cluster.http_api import (
    DEFAULT_HTTP_PORT,
    ServiceAuthError,
    ServiceClient,
    ServiceError,
)
from repro.cluster.journal import JournalMismatch, SweepJournal
from repro.cluster.plan import Job, PlanFailed, SweepPlan, WorkerRegistry
from repro.cluster.protocol import (
    AuthError,
    ClusterClient,
    ConnectionClosed,
    DEFAULT_PORT,
    PROTOCOL_CAPS,
    ProtocolError,
    encode_blob,
    format_address,
    parse_address,
)
from repro.cluster.service import ExperimentService, ManagedSweep, sweep_identity
from repro.cluster.sync import ArtifactSync
from repro.cluster.worker import WorkerAgent, WorkerStats, default_worker_name

__all__ = [
    "ArtifactSync",
    "AuthError",
    "ClusterClient",
    "ClusterExecutor",
    "ConnectionClosed",
    "CoordinatorCore",
    "DEFAULT_HTTP_PORT",
    "DEFAULT_PORT",
    "DistributionTimeout",
    "ExperimentService",
    "Job",
    "JournalMismatch",
    "ManagedSweep",
    "PROTOCOL_CAPS",
    "PlanFailed",
    "ProtocolError",
    "ServiceAuthError",
    "ServiceClient",
    "ServiceError",
    "SweepEndpoint",
    "SweepJournal",
    "SweepPlan",
    "WorkerAgent",
    "WorkerRegistry",
    "WorkerStats",
    "default_worker_name",
    "encode_blob",
    "format_address",
    "local_worker_processes",
    "local_worker_threads",
    "parse_address",
    "sweep_identity",
]
