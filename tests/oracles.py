"""Reference implementations kept only to prove the production code exact.

``reference_run_sample`` is the per-timestep training loop that the
event-driven :meth:`repro.snn.network.DiehlCookNetwork.run_sample`
replaced: one :meth:`DiehlCookNetwork.step` and one in-place
:meth:`STDPRule.step` per timestep.  The new loop must leave weights,
thresholds, membrane and conductance state, traces and spike counts
bitwise equal to it.

``reference_spike_counts`` is the per-sample evaluation loop that
:meth:`repro.engine.BatchedEvaluator.spike_counts` replaced: one
inference-mode :meth:`DiehlCookNetwork.run_sample` per realization and
sample.  The batched evaluator must return the same counts;
:func:`evaluation_oracle` routes every evaluation through it, so whole
analyses and pipeline runs can be compared.

``reference_run_batch_stdp`` is the unfused minibatch training loop of
:meth:`DiehlCookNetwork.run_batch_stdp`: one ``_step_from_drive`` and
one :func:`reference_step_accumulate` per timestep.  The fused numpy
and numba kernels must leave the delta, thresholds, traces and counts
bitwise equal to it.  :func:`minibatch_oracle` routes every
``run_batch_stdp`` call through it, so whole training runs can be
compared.

``reference_train_stage`` is the call sequence a training stage of
:mod:`repro.core.fault_aware_training` made before it skipped the two
train-set evaluation passes of :func:`train_unsupervised`: the full
``train_unsupervised`` call, both passes run.
:func:`stage_training_oracle` routes every stage through it, so
``train_baseline`` and ``improve_error_tolerance`` can be compared with
the skip-ahead versions.

``ScalarRowBufferSimulator`` is the per-access open-page row-buffer
simulator that :class:`repro.dram.row_buffer.RowBufferSimulator`
replaced.  It walks a trace of :class:`DramCoordinate` objects one access
at a time; the array-native simulator must reproduce every field of its
:class:`TraceStatistics`, floats included, with ``==``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.dram.commands import AccessCondition, CommandKind
from repro.dram.organization import DramCoordinate, DramOrganization
from repro.dram.row_buffer import TraceStatistics
from repro.dram.timing import TimingParameters
from repro.engine import BatchedEvaluator
from repro.engine.encoding import encode_spike_trains
from repro.core import fault_aware_training
from repro.snn.network import DiehlCookNetwork
from repro.snn.stdp import normalize_columns
from repro.snn.training import train_unsupervised

BankKey = Tuple[int, int, int, int]
RowKey = Tuple[int, int, int, int, int, int]


def coord_bank_key(coord: DramCoordinate) -> BankKey:
    """Hashable identity of the bank holding ``coord``."""
    return (coord.channel, coord.rank, coord.chip, coord.bank)


def coord_row_key(coord: DramCoordinate) -> RowKey:
    """Hashable identity of the DRAM row holding ``coord``."""
    return (coord.channel, coord.rank, coord.chip, coord.bank, coord.subarray, coord.row)


@dataclass
class BankState:
    """Mutable per-bank controller state."""

    open_row: Optional[RowKey] = None
    #: earliest time the next ACT may issue (after tRP of a PRE).
    ready_for_activate_ns: float = 0.0
    #: earliest time a RD may issue to the open row (after tRCD).
    ready_for_read_ns: float = 0.0
    #: earliest time a PRE may issue (tRAS after the last ACT).
    ready_for_precharge_ns: float = 0.0
    #: cumulative time this bank has had a row open (for standby energy).
    active_time_ns: float = 0.0
    _last_activate_ns: float = 0.0


class ScalarRowBufferSimulator:
    """Executes a read trace against per-bank row buffers, one access at a time.

    Parameters
    ----------
    organization:
        Address arithmetic for the device being simulated.
    timing:
        Resolved (possibly voltage-derated) timing parameters.
    """

    def __init__(
        self,
        organization: DramOrganization,
        timing: TimingParameters,
        open_ahead: bool = True,
    ):
        self.organization = organization
        self.timing = timing
        #: model the multi-bank burst feature (Fig. 9b): PRE/ACT to a
        #: bank *other than the one currently streaming* are issued as
        #: early as that bank's own timing allows, hiding their latency
        #: behind the data transfer.  Same-bank row transitions can
        #: never be hidden (the bank must close its own row first).
        self.open_ahead = open_ahead
        self.banks: Dict[BankKey, BankState] = {}
        self._bus_free_ns: float = 0.0
        self._now_ns: float = 0.0
        self._last_bank: BankKey | None = None
        self.stats = TraceStatistics()

    # ------------------------------------------------------------------
    def _bank(self, key: BankKey) -> BankState:
        if key not in self.banks:
            self.banks[key] = BankState()
        return self.banks[key]

    def classify(self, coord: DramCoordinate) -> AccessCondition:
        """Row-buffer outcome the next access to ``coord`` would see."""
        bank = self._bank(coord_bank_key(coord))
        row = coord_row_key(coord)
        if bank.open_row is None:
            return AccessCondition.MISS
        if bank.open_row == row:
            return AccessCondition.HIT
        return AccessCondition.CONFLICT

    # ------------------------------------------------------------------
    def access(self, coord: DramCoordinate, write: bool = False) -> AccessCondition:
        """Execute one column access; returns its row-buffer condition.

        ``write=True`` issues WR instead of RD (same row-buffer and bus
        behaviour; the energy model prices the commands differently).
        """
        timing = self.timing
        bank_key = coord_bank_key(coord)
        bank = self._bank(bank_key)
        row = coord_row_key(coord)
        condition = self.classify(coord)

        # With open-ahead, PRE/ACT to a bank that is not the one
        # currently driving the bus may be issued before "now" (the
        # controller saw the stream coming); same-bank transitions
        # always pay their latency in-line.
        hidden = self.open_ahead and self._last_bank is not None and bank_key != self._last_bank

        t = self._now_ns
        if condition is AccessCondition.CONFLICT:
            # PRE may only issue tRAS after the row was opened.
            t = bank.ready_for_precharge_ns if hidden else max(t, bank.ready_for_precharge_ns)
            self._close_row(bank, t)
            self.stats.command_counts[CommandKind.PRE] += 1
            bank.ready_for_activate_ns = t + timing.t_rp_ns

        if condition in (AccessCondition.MISS, AccessCondition.CONFLICT):
            t = bank.ready_for_activate_ns if hidden else max(t, bank.ready_for_activate_ns)
            bank.open_row = row
            bank._last_activate_ns = t
            bank.ready_for_read_ns = t + timing.t_rcd_ns
            bank.ready_for_precharge_ns = t + timing.t_ras_ns
            self.stats.command_counts[CommandKind.ACT] += 1

        # RD: wait for the bank's tRCD and for the shared data bus.
        start = max(t, bank.ready_for_read_ns, self._bus_free_ns)
        finish = start + timing.burst_time_ns
        self._bus_free_ns = finish
        self._now_ns = start  # the controller can issue to other banks meanwhile
        self.stats.command_counts[CommandKind.WR if write else CommandKind.RD] += 1
        self.stats.bus_busy_time_ns += timing.burst_time_ns
        self._last_bank = bank_key

        self.stats.accesses += 1
        if condition is AccessCondition.HIT:
            self.stats.hits += 1
        elif condition is AccessCondition.MISS:
            self.stats.misses += 1
        else:
            self.stats.conflicts += 1
        self.stats.total_time_ns = max(self.stats.total_time_ns, finish)
        return condition

    def _close_row(self, bank: BankState, when_ns: float) -> None:
        if bank.open_row is not None:
            bank.active_time_ns += max(0.0, when_ns - bank._last_activate_ns)
            bank.open_row = None

    def run(
        self, trace: Iterable[DramCoordinate], write: bool = False
    ) -> TraceStatistics:
        """Execute a whole trace and return the final statistics."""
        conditions: List[AccessCondition] = []
        for coord in trace:
            conditions.append(self.access(coord, write=write))
        return self.finish()

    def finish(self) -> TraceStatistics:
        """Close all rows and finalise aggregate counters."""
        end = self.stats.total_time_ns
        for bank in self.banks.values():
            self._close_row(bank, end)
        self.stats.bank_active_time_ns = sum(b.active_time_ns for b in self.banks.values())
        self.stats.banks_touched = len(self.banks)
        return self.stats


def scalar_statistics(
    organization: DramOrganization,
    timing: TimingParameters,
    slots,
    write: bool = False,
    open_ahead: bool = True,
) -> TraceStatistics:
    """Oracle statistics of a flat slot trace."""
    simulator = ScalarRowBufferSimulator(organization, timing, open_ahead=open_ahead)
    return simulator.run([organization.coordinate_of(int(s)) for s in slots], write=write)


def reference_run_sample(
    network,
    spike_train,
    stdp,
    adapt: bool = True,
    normalize: Optional[bool] = None,
) -> np.ndarray:
    """Oracle of ``network.run_sample(spike_train, stdp=stdp, ...)``.

    The per-step loop: the sparse per-step index-sum drive, the unfused
    neuron and conductance updates, and the scalar in-place STDP rule,
    once per timestep.
    """
    p = network.parameters
    train = np.asarray(spike_train, dtype=bool)
    network.reset_state(keep_theta=True)
    stdp.reset_state()
    if normalize is None:
        normalize = p.weight_norm > 0
    counts = np.zeros(p.n_neurons, dtype=np.int64)
    for t in range(train.shape[0]):
        spikes = network.step(train[t], adapt=adapt)
        stdp.step(network.weights, train[t], spikes)
        counts += spikes
    if normalize and p.weight_norm > 0:
        normalize_columns(network.weights, p.weight_norm)
    return counts


def reference_spike_counts(
    evaluator, images, n_steps, rng, weights, encoder=None
) -> np.ndarray:
    """Oracle of ``evaluator.spike_counts(images, n_steps, rng, weights)``.

    Encodes every image (the same random stream as the chunked
    evaluator), then runs one inference-mode ``run_sample`` per
    realization and sample on an unbatched network holding the
    evaluator's parameters, thresholds and dtype.  ``weights`` is one
    matrix (counts ``(B, n)``) or a stack (counts ``(E, B, n)``).
    """
    trains = encode_spike_trains(
        np.asarray(images, dtype=np.float64), n_steps, rng, encoder=encoder
    )
    network = DiehlCookNetwork(
        evaluator.parameters, init_weights=False, dtype=evaluator.dtype
    )
    network.neurons.theta = evaluator.theta.copy()
    weights = np.asarray(weights, dtype=evaluator.dtype)
    stack = weights if weights.ndim == 3 else weights[None]
    counts = np.empty(
        (len(stack), len(trains), evaluator.parameters.n_neurons), dtype=np.int64
    )
    for e, realization in enumerate(stack):
        network.set_weights(realization)
        for b, train in enumerate(trains):
            counts[e, b] = network.run_sample(train, stdp=None)
    return counts if weights.ndim == 3 else counts[0]


@contextlib.contextmanager
def evaluation_oracle():
    """Run every ``BatchedEvaluator.spike_counts`` call on the oracle loop."""
    batched = BatchedEvaluator.spike_counts

    def oracle(self, images, n_steps, rng, weights, encoder=None, base_weights=None):
        return reference_spike_counts(self, images, n_steps, rng, weights, encoder)

    BatchedEvaluator.spike_counts = oracle
    try:
        yield
    finally:
        BatchedEvaluator.spike_counts = batched


def reference_step_accumulate(
    stdp, pre_spikes, post_spikes, delta, bound
) -> np.ndarray:
    """One unfused minibatch STDP step: advance the traces, then accumulate.

    The traces decay and jump to one where ``pre_spikes`` fired, as the
    expression form; the spiking-column accumulation is the shared
    :meth:`STDPRule.accumulate_step`, with a fresh offset buffer.
    """
    stdp.x_pre *= stdp._trace_decay
    stdp.x_pre[np.asarray(pre_spikes, dtype=bool)] = 1.0
    post = np.asarray(post_spikes, dtype=bool)
    return stdp.accumulate_step(post, delta, bound, np.empty_like(stdp.x_pre))


def reference_run_batch_stdp(
    network, spike_trains, stdp, delta, workspace=None, matrix=None
) -> np.ndarray:
    """Oracle of ``network.run_batch_stdp(spike_trains, stdp, delta)``.

    The per-step loop against the frozen installed weights: the gain-
    scaled drive slab, then one ``_step_from_drive(adapt=True)`` and one
    :func:`reference_step_accumulate` per timestep.  Takes the method's
    arguments (``workspace`` is unused) so :func:`minibatch_oracle` can
    install it in the method's place.
    """
    trains = np.asarray(spike_trains, dtype=bool)
    drives = network._sample_drives(trains, network.weights, matrix=matrix)
    bound = stdp.frozen_bound(network.weights)
    network.reset_state(keep_theta=True)
    stdp.reset_state()
    counts = np.zeros(network.batch_shape + (network.n_neurons,), dtype=np.int64)
    for t in range(trains.shape[1]):
        spikes = network._step_from_drive(drives[t], adapt=True)
        reference_step_accumulate(stdp, trains[:, t], spikes, delta, bound)
        counts += spikes
    return counts


@contextlib.contextmanager
def minibatch_oracle():
    """Run every ``DiehlCookNetwork.run_batch_stdp`` call on the oracle loop."""
    fused = DiehlCookNetwork.run_batch_stdp
    DiehlCookNetwork.run_batch_stdp = reference_run_batch_stdp
    try:
        yield
    finally:
        DiehlCookNetwork.run_batch_stdp = fused


def reference_train_stage(network, dataset, n_steps, rng, **training):
    """Oracle of ``fault_aware_training._train_stage``.

    Trains through :func:`train_unsupervised`, whose label-assignment
    and train-accuracy passes really run on ``rng``; the stage then
    overwrites both results, as it always did.
    """
    return train_unsupervised(
        network,
        dataset.train_images,
        dataset.train_labels,
        n_steps=n_steps,
        rng=rng,
        **training,
    )


@contextlib.contextmanager
def stage_training_oracle():
    """Run every training stage with both train-set passes of ``train_unsupervised``."""
    skipping = fault_aware_training._train_stage
    fault_aware_training._train_stage = reference_train_stage
    try:
        yield
    finally:
        fault_aware_training._train_stage = skipping
