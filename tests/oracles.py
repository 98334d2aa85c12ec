"""Reference implementations kept only to prove the production code exact.

``reference_run_sample`` is the per-timestep training loop that the
event-driven :meth:`repro.snn.network.DiehlCookNetwork.run_sample`
replaced: one :meth:`DiehlCookNetwork.step` and one in-place
:meth:`STDPRule.step` per timestep.  The new loop must leave weights,
thresholds, membrane and conductance state, traces and spike counts
bitwise equal to it.

``ScalarRowBufferSimulator`` is the per-access open-page row-buffer
simulator that :class:`repro.dram.row_buffer.RowBufferSimulator`
replaced.  It walks a trace of :class:`DramCoordinate` objects one access
at a time; the array-native simulator must reproduce every field of its
:class:`TraceStatistics`, floats included, with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.dram.commands import AccessCondition, CommandKind
from repro.dram.organization import DramCoordinate, DramOrganization
from repro.dram.row_buffer import TraceStatistics
from repro.dram.timing import TimingParameters
from repro.snn.stdp import normalize_columns

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
