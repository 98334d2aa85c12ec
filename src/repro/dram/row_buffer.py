"""Row-buffer state machine and cycle accounting.

Processes a sequence of column-granular accesses (a *trace* of flat slot
indices), classifies each as row-buffer **hit**, **miss** or
**conflict** (Section II-B1), expands it into DRAM commands, and tracks
a simple but faithful latency model:

- each bank has its own row buffer and its own timing state
  (``tRP``-after-PRE, ``tRCD``-after-ACT, ``tRAS`` minimum open time);
- all banks share one data bus; each RD burst occupies it for
  ``burst_time_ns``;
- commands to *different* banks overlap freely (the multi-bank burst
  feature of Fig. 9b) — while bank 0 streams data, bank 1 can activate.

This is an open-page policy controller: rows stay open until a conflict
forces a precharge, which matches both the baseline mapping (sequential
fill, Section IV-B Step-2) and the SparkXD mapping (row-hit maximising,
Section IV-D).

The state machine steps once per *row run* (consecutive accesses to one
row) and fills each run's hits with in-order running sums; see
``docs/dram.md`` for why that is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.dram.commands import AccessCondition, CommandKind
from repro.dram.organization import DramOrganization
from repro.dram.timing import TimingParameters

_CHUNK = 4096  # steps per np.add.accumulate call: bounds the scratch memory


@dataclass
class TraceStatistics:
    """Counters produced by one trace execution."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    conflicts: int = 0
    command_counts: Dict[CommandKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in CommandKind}
    )
    total_time_ns: float = 0.0
    bus_busy_time_ns: float = 0.0
    bank_active_time_ns: float = 0.0
    banks_touched: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def conditions(self) -> Dict[AccessCondition, int]:
        return {
            AccessCondition.HIT: self.hits,
            AccessCondition.MISS: self.misses,
            AccessCondition.CONFLICT: self.conflicts,
        }

    @property
    def idle_time_ns(self) -> float:
        """Aggregate bank-idle time across touched banks."""
        if self.banks_touched == 0:
            return 0.0
        return max(0.0, self.banks_touched * self.total_time_ns - self.bank_active_time_ns)


@dataclass
class _Bank:
    """One bank: its open row, earliest issue times and open-row time (ns)."""

    open_row: int
    last_activate_ns: float = 0.0
    ready_for_activate_ns: float = 0.0
    ready_for_read_ns: float = 0.0
    ready_for_precharge_ns: float = 0.0
    active_time_ns: float = 0.0


class RowBufferSimulator:
    """Executes a slot trace against per-bank row buffers.

    Parameters
    ----------
    organization:
        Address arithmetic for the device being simulated.
    timing:
        Resolved (possibly voltage-derated) timing parameters.
    open_ahead:
        Model the multi-bank burst feature (Fig. 9b): PRE/ACT to a bank
        *other than the one currently streaming* are issued as early as
        that bank's own timing allows, hiding their latency behind the
        data transfer.  Same-bank row transitions can never be hidden
        (the bank must close its own row first).
    """

    def __init__(
        self,
        organization: DramOrganization,
        timing: TimingParameters,
        open_ahead: bool = True,
    ):
        self.organization = organization
        self.timing = timing
        self.open_ahead = open_ahead

    def run(self, slots: np.ndarray, write: bool = False) -> TraceStatistics:
        """Execute a trace of flat slot indices, in access order.

        ``write=True`` issues WR instead of RD (same row-buffer and bus
        behaviour; the energy model prices the commands differently).
        Raises :class:`IndexError` for a slot outside the device.
        """
        rows = self.organization.global_rows(slots)
        stats = TraceStatistics()
        n = int(rows.size)
        if n == 0:
            return stats
        firsts = np.concatenate(([0], np.flatnonzero(rows[1:] != rows[:-1]) + 1))
        run_rows = rows[firsts]
        run_lengths = np.diff(np.append(firsts, n))
        run_banks = run_rows // self.organization.rows_per_bank

        timing = self.timing
        burst = timing.burst_time_ns
        steps = np.full(_CHUNK + 1, burst)
        banks: Dict[int, _Bank] = {}
        now = bus_free = 0.0
        last_bank = -1
        misses = conflicts = 0
        for row, bank_id, length in zip(
            run_rows.tolist(), run_banks.tolist(), run_lengths.tolist()
        ):
            bank = banks.get(bank_id)
            if bank is None:
                bank = banks[bank_id] = _Bank(row)
                condition = AccessCondition.MISS
                misses += 1
            elif bank.open_row == row:
                condition = AccessCondition.HIT
            else:
                condition = AccessCondition.CONFLICT
                conflicts += 1

            # With open-ahead, PRE/ACT to a bank that is not the one
            # currently driving the bus may be issued before "now" (the
            # controller saw the stream coming); same-bank transitions
            # always pay their latency in-line.
            hidden = self.open_ahead and last_bank >= 0 and bank_id != last_bank

            t = now
            if condition is AccessCondition.CONFLICT:
                # PRE may only issue tRAS after the row was opened.
                t = bank.ready_for_precharge_ns if hidden else max(t, bank.ready_for_precharge_ns)
                bank.active_time_ns += max(0.0, t - bank.last_activate_ns)
                bank.ready_for_activate_ns = t + timing.t_rp_ns
            if condition is not AccessCondition.HIT:
                t = bank.ready_for_activate_ns if hidden else max(t, bank.ready_for_activate_ns)
                bank.open_row = row
                bank.last_activate_ns = t
                bank.ready_for_read_ns = t + timing.t_rcd_ns
                bank.ready_for_precharge_ns = t + timing.t_ras_ns

            # RD: wait for the bank's tRCD and for the shared data bus.
            # The rest of the run are hits; each starts one burst after
            # its predecessor, because a bank's tRCD never outlasts the
            # start of the access that opened its row.
            start = max(t, bank.ready_for_read_ns, bus_free)
            now = _running_sum(start, steps, length - 1)
            bus_free = now + burst
            last_bank = bank_id

        # Close every row at the end of the trace.
        for bank in banks.values():
            bank.active_time_ns += max(0.0, bus_free - bank.last_activate_ns)

        stats.accesses = n
        stats.misses = misses
        stats.conflicts = conflicts
        stats.hits = n - misses - conflicts
        stats.command_counts[CommandKind.PRE] = conflicts
        stats.command_counts[CommandKind.ACT] = misses + conflicts
        stats.command_counts[CommandKind.WR if write else CommandKind.RD] = n
        stats.total_time_ns = bus_free
        stats.bus_busy_time_ns = _running_sum(0.0, steps, n)
        stats.bank_active_time_ns = sum(b.active_time_ns for b in banks.values())
        stats.banks_touched = len(banks)
        return stats


def _running_sum(x: float, steps: np.ndarray, count: int) -> float:
    """``x + step + ... + step`` (``count`` steps), added left to right like a
    scalar loop; ``steps`` holds ``_CHUNK + 1`` steps and slot 0 is scratch."""
    while count > 0:
        m = min(count, _CHUNK)
        steps[0] = x
        x = float(np.add.accumulate(steps[: m + 1])[m])
        count -= m
    return x
