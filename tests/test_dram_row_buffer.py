"""Tests of the row-buffer state machine and cycle accounting."""

import numpy as np
import pytest

from oracles import ScalarRowBufferSimulator, scalar_statistics
from repro.dram.commands import AccessCondition, CommandKind
from repro.dram.organization import DramOrganization
from repro.dram.row_buffer import RowBufferSimulator
from repro.dram.specs import tiny_spec
from repro.dram.timing import timing_for_voltage


@pytest.fixture
def org():
    return DramOrganization(tiny_spec())


@pytest.fixture
def sim(org):
    timing = timing_for_voltage(org.spec, 1.35)
    return RowBufferSimulator(org, timing)


def per_bank(org):
    g = org.geometry
    return g.subarrays_per_bank * g.rows_per_subarray * g.columns_per_row


class TestClassification:
    def test_first_access_is_miss(self, sim):
        stats = sim.run([0])
        assert (stats.misses, stats.hits, stats.conflicts) == (1, 0, 0)

    def test_same_row_access_is_hit(self, sim):
        stats = sim.run([0, 1])
        assert (stats.misses, stats.hits, stats.conflicts) == (1, 1, 0)

    def test_other_row_same_bank_is_conflict(self, sim, org):
        g = org.geometry
        stats = sim.run([0, g.columns_per_row])  # row 1, same bank
        assert (stats.misses, stats.hits, stats.conflicts) == (1, 0, 1)

    def test_other_bank_first_access_is_miss(self, sim, org):
        other_bank = org.coordinate_of(per_bank(org))
        assert other_bank.bank != 0 or other_bank.chip != 0
        stats = sim.run([0, per_bank(org)])
        assert (stats.misses, stats.hits, stats.conflicts) == (2, 0, 0)
        assert stats.banks_touched == 2

    def test_classify_does_not_mutate(self, org):
        # The per-access oracle's classify is a pure query.
        oracle = ScalarRowBufferSimulator(org, timing_for_voltage(org.spec, 1.35))
        c = org.coordinate_of(0)
        assert oracle.classify(c) is AccessCondition.MISS
        assert oracle.classify(c) is AccessCondition.MISS  # still a miss
        oracle.access(c)
        assert oracle.classify(c) is AccessCondition.HIT

    def test_row_returning_after_other_bank_is_hit(self, sim, org):
        # bank 0 row 0, bank 1 row 0, bank 0 row 0 again: three row runs
        stats = sim.run([0, 1, per_bank(org), 2])
        assert (stats.misses, stats.hits, stats.conflicts) == (2, 2, 0)


class TestCommandCounts:
    def test_hit_issues_only_rd(self, sim):
        stats = sim.run([0, 1])
        assert stats.command_counts[CommandKind.RD] == 2
        assert stats.command_counts[CommandKind.ACT] == 1
        assert stats.command_counts[CommandKind.PRE] == 0

    def test_conflict_issues_pre_act_rd(self, sim, org):
        stats = sim.run([0, org.geometry.columns_per_row])
        assert stats.command_counts[CommandKind.PRE] == 1
        assert stats.command_counts[CommandKind.ACT] == 2
        assert stats.command_counts[CommandKind.RD] == 2

    def test_stats_accumulate(self, sim):
        stats = sim.run([0, 1, 2, 8, 0])
        assert stats.accesses == 5
        assert stats.hits + stats.misses + stats.conflicts == 5


class TestTiming:
    def test_sequential_hits_limited_by_bus(self, org):
        timing = timing_for_voltage(org.spec, 1.35)
        sim = RowBufferSimulator(org, timing)
        n = org.geometry.columns_per_row
        stats = sim.run(np.arange(n))
        # After the first ACT+tRCD, hits stream back-to-back on the bus.
        expected_min = timing.t_rcd_ns + n * timing.burst_time_ns
        assert stats.total_time_ns == pytest.approx(expected_min, rel=0.01)

    def test_same_bank_conflict_pays_full_latency(self, org):
        timing = timing_for_voltage(org.spec, 1.35)
        sim = RowBufferSimulator(org, timing)
        g = org.geometry
        stats = sim.run([0, g.columns_per_row])  # same-bank conflict
        # From t=0: the PRE waits out tRAS, then tRP and tRCD gate the
        # second RD, which still needs its burst on the bus.
        lower_bound = (
            timing.t_ras_ns + timing.t_rp_ns + timing.t_rcd_ns + timing.burst_time_ns
        )
        assert stats.total_time_ns >= lower_bound * 0.99

    def test_open_ahead_hides_other_bank_activation(self, org):
        """The multi-bank burst (Fig. 9b): rotating banks hides ACT."""
        timing = timing_for_voltage(org.spec, 1.35)
        g = org.geometry
        # alternate banks every row worth of columns
        trace = []
        for row in range(2):
            for bank in range(g.banks_per_chip):
                base = bank * per_bank(org) + row * g.columns_per_row
                trace.extend(range(base, base + g.columns_per_row))

        ahead = RowBufferSimulator(org, timing, open_ahead=True).run(trace).total_time_ns
        lazy = RowBufferSimulator(org, timing, open_ahead=False).run(trace).total_time_ns
        assert ahead < lazy

    def test_derated_timing_slows_misses(self, org):
        g = org.geometry
        trace = [0, g.columns_per_row, 2 * g.columns_per_row]
        nominal = RowBufferSimulator(org, timing_for_voltage(org.spec, 1.35))
        reduced = RowBufferSimulator(org, timing_for_voltage(org.spec, 1.025))
        t_nominal = nominal.run(trace).total_time_ns
        t_reduced = reduced.run(trace).total_time_ns
        assert t_reduced > t_nominal

    def test_long_hit_run_matches_oracle(self, org):
        # A run longer than one accumulation chunk still adds its bursts
        # one at a time, in access order.
        timing = timing_for_voltage(org.spec, 1.175)
        slots = np.concatenate(
            ([per_bank(org)], np.zeros(10_000, dtype=np.int64), [org.geometry.columns_per_row])
        )
        stats = RowBufferSimulator(org, timing).run(slots)
        assert stats.hits == slots.size - 3
        assert stats == scalar_statistics(org, timing, slots)


class TestFinishAccounting:
    def test_active_time_counted(self, sim):
        stats = sim.run([0])
        assert stats.bank_active_time_ns > 0
        assert stats.banks_touched == 1

    def test_idle_time_nonnegative(self, sim, org):
        stats = sim.run([0, per_bank(org)])
        assert stats.idle_time_ns >= 0
        assert stats.banks_touched == 2

    def test_hit_rate(self, sim):
        stats = sim.run([0, 1, 2, 3])
        assert stats.hit_rate == pytest.approx(3 / 4)

    def test_empty_trace(self, sim):
        stats = sim.run([])
        assert stats.accesses == 0
        assert stats.hit_rate == 0.0
        assert stats.total_time_ns == 0.0
