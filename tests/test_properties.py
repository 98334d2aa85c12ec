"""Cross-module property-based tests (hypothesis).

These pit the production implementations against independent naive
reference models on randomised inputs — the strongest correctness
checks in the suite.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ScalarRowBufferSimulator, coord_bank_key, coord_row_key, scalar_statistics
from repro.core.mapping_policy import baseline_mapping, sparkxd_mapping
from repro.dram.commands import AccessCondition, CommandKind
from repro.dram.organization import DramOrganization
from repro.dram.row_buffer import RowBufferSimulator, TraceStatistics
from repro.dram.specs import LPDDR3_1600_4GB, tiny_spec
from repro.dram.timing import TimingParameters, timing_for_voltage
from repro.errors.ecc import CODE_BITS, decode_words, encode_words
from repro.errors.weak_cells import SubarrayErrorProfile, WeakCellMap
from repro.trace.generator import InferenceTraceSpec, inference_read_trace


def naive_row_buffer_conditions(org, slots):
    """Reference: classify accesses with a plain dict of open rows."""
    open_rows = {}
    conditions = []
    for slot in slots:
        coord = org.coordinate_of(slot)
        bank = coord_bank_key(coord)
        row = coord_row_key(coord)
        if bank not in open_rows:
            conditions.append(AccessCondition.MISS)
        elif open_rows[bank] == row:
            conditions.append(AccessCondition.HIT)
        else:
            conditions.append(AccessCondition.CONFLICT)
        open_rows[bank] = row
    return conditions


class TestRowBufferAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(
        slots=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=60)
    )
    def test_condition_sequence_matches_reference(self, slots):
        # The per-access oracle classifies exactly like a dict of open rows.
        org = DramOrganization(tiny_spec())
        sim = ScalarRowBufferSimulator(org, timing_for_voltage(org.spec, 1.35))
        measured = [sim.access(org.coordinate_of(s)) for s in slots]
        expected = naive_row_buffer_conditions(org, slots)
        assert measured == expected

    @settings(max_examples=50, deadline=None)
    @given(
        slots=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=60)
    )
    def test_command_counts_follow_conditions(self, slots):
        org = DramOrganization(tiny_spec())
        sim = RowBufferSimulator(org, timing_for_voltage(org.spec, 1.35))
        stats = sim.run(slots)
        expected = Counter(naive_row_buffer_conditions(org, slots))
        assert stats.conditions == {c: expected[c] for c in AccessCondition}
        assert stats.command_counts[CommandKind.RD] == len(slots)
        assert stats.command_counts[CommandKind.ACT] == stats.misses + stats.conflicts
        assert stats.command_counts[CommandKind.PRE] == stats.conflicts

    @settings(max_examples=30, deadline=None)
    @given(
        slots=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=40),
        v=st.sampled_from([1.35, 1.175, 1.025]),
    )
    def test_time_never_less_than_bus_occupancy(self, slots, v):
        org = DramOrganization(tiny_spec())
        timing = timing_for_voltage(org.spec, v)
        sim = RowBufferSimulator(org, timing)
        stats = sim.run(slots)
        assert stats.total_time_ns >= stats.bus_busy_time_ns - 1e-9


EXACTNESS_SPECS = (
    tiny_spec(),
    tiny_spec().scaled(channels=2, ranks_per_channel=2, chips_per_rank=2),
)


@st.composite
def row_run_traces(draw, org):
    """Slot traces built from runs of one row over a few banks and rows.

    Drawing rows from a small pool per bank makes repeated-row runs,
    bank interleaving (a row reopened as a hit after another bank
    streamed) and same-bank conflicts all common.
    """
    g = org.geometry
    n_banks = org.total_slots // (org.rows_per_bank * g.columns_per_row)
    banks = draw(st.lists(st.integers(0, n_banks - 1), min_size=1, max_size=4, unique=True))
    rows = draw(
        st.lists(st.integers(0, org.rows_per_bank - 1), min_size=1, max_size=3, unique=True)
    )
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(banks),
                st.sampled_from(rows),
                st.lists(st.integers(0, g.columns_per_row - 1), min_size=1, max_size=12),
            ),
            max_size=25,
        )
    )
    return [
        (bank * org.rows_per_bank + row) * g.columns_per_row + column
        for bank, row, columns in runs
        for column in columns
    ]


def assert_identical(measured: TraceStatistics, expected: TraceStatistics) -> None:
    for f in dataclasses.fields(TraceStatistics):
        assert getattr(measured, f.name) == getattr(expected, f.name), f.name


class TestRowBufferExactness:
    """The row-run simulator reproduces the per-access oracle float for float."""

    @settings(max_examples=300, deadline=None)
    @given(
        spec=st.sampled_from(EXACTNESS_SPECS),
        data=st.data(),
        v=st.sampled_from([1.35, 1.175, 1.025]),
        open_ahead=st.booleans(),
        write=st.booleans(),
    )
    def test_statistics_identical_to_oracle(self, spec, data, v, open_ahead, write):
        org = DramOrganization(spec)
        slots = data.draw(
            st.one_of(
                row_run_traces(org),
                st.lists(st.integers(0, org.total_slots - 1), max_size=60),
            )
        )
        timing = timing_for_voltage(spec, v)
        measured = RowBufferSimulator(org, timing, open_ahead=open_ahead).run(
            np.asarray(slots, dtype=np.int64), write=write
        )
        expected = scalar_statistics(org, timing, slots, write=write, open_ahead=open_ahead)
        assert_identical(measured, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        spec=st.sampled_from(EXACTNESS_SPECS),
        data=st.data(),
        clock_ns=st.floats(0.3, 3.0),
        t_rcd_ns=st.floats(1.0, 60.0),
        t_ras_ns=st.floats(1.0, 120.0),
        t_rp_ns=st.floats(1.0, 60.0),
        open_ahead=st.booleans(),
    )
    def test_statistics_identical_at_arbitrary_timing(
        self, spec, data, clock_ns, t_rcd_ns, t_ras_ns, t_rp_ns, open_ahead
    ):
        # Bursts that are not exact binary fractions make every addition
        # round, so only the scalar loop's summation order reproduces them.
        org = DramOrganization(spec)
        slots = data.draw(row_run_traces(org))
        timing = TimingParameters(
            v_supply=1.2,
            clock_ns=clock_ns,
            t_rcd_ns=t_rcd_ns,
            t_ras_ns=t_ras_ns,
            t_rp_ns=t_rp_ns,
            t_cl_ns=15.0,
            burst_length=8,
        )
        measured = RowBufferSimulator(org, timing, open_ahead=open_ahead).run(slots)
        expected = scalar_statistics(org, timing, slots, open_ahead=open_ahead)
        assert_identical(measured, expected)

    @pytest.mark.parametrize("v", [1.325, 1.025])
    @pytest.mark.parametrize("policy", ["baseline", "sparkxd"])
    def test_n400_traces_identical_to_oracle(self, policy, v):
        org = DramOrganization(LPDDR3_1600_4GB)
        n_weights = 784 * 400
        if policy == "baseline":
            mapping = baseline_mapping(org, n_weights, 32)
        else:
            profile = WeakCellMap(org, sigma=0.8, seed=0).profile_at(v)
            mapping = sparkxd_mapping(org, n_weights, 32, profile, 1e-3)
        trace = inference_read_trace(
            InferenceTraceSpec(n_weights=n_weights, bits_per_weight=32),
            mapping.slot_of_chunk,
            org,
        )
        timing = timing_for_voltage(org.spec, v)
        measured = RowBufferSimulator(org, timing).run(trace)
        assert measured.conflicts > 0 and measured.hits > 0.99 * measured.accesses
        assert_identical(measured, scalar_statistics(org, timing, trace))


class TestEccExhaustive:
    def test_every_single_bit_error_is_corrected(self, rng):
        # exhaustive over all 72 positions of a random codeword batch
        data = rng.integers(0, 2**63, size=4, dtype=np.uint64)
        code = encode_words(data)
        for bit in range(CODE_BITS):
            corrupted = code.copy()
            corrupted[:, bit] ^= 1
            decoded, report = decode_words(corrupted)
            assert np.array_equal(decoded, data), f"bit {bit}"
            assert report.corrected_words == data.size

    @settings(max_examples=100, deadline=None)
    @given(
        word=st.integers(min_value=0, max_value=2**64 - 1),
        b1=st.integers(min_value=0, max_value=CODE_BITS - 1),
        b2=st.integers(min_value=0, max_value=CODE_BITS - 1),
    )
    def test_double_errors_never_silently_corrupt(self, word, b1, b2):
        # SEC-DED guarantee: two flips are either reported uncorrectable
        # or cancel out (b1 == b2) — never a silent wrong correction.
        data = np.array([word], dtype=np.uint64)
        code = encode_words(data)
        code[0, b1] ^= 1
        code[0, b2] ^= 1
        decoded, report = decode_words(code)
        if b1 == b2:
            assert np.array_equal(decoded, data)
            assert report.uncorrectable_words == 0
        else:
            assert report.uncorrectable_words == 1


class TestMappingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        n_weights=st.integers(min_value=1, max_value=120),
    )
    def test_sparkxd_mapping_respects_threshold_property(self, seed, n_weights):
        org = DramOrganization(tiny_spec())
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0, 2e-3, org.total_subarrays)
        threshold = 1e-3
        if (rates <= threshold).sum() * org.slots_per_subarray() < org.slots_needed(
            n_weights * 32
        ):
            return  # infeasible instance; covered by dedicated tests
        profile = SubarrayErrorProfile(
            organization=org, v_supply=1.1, device_ber=1e-3, rates=rates
        )
        mapping = sparkxd_mapping(org, n_weights, 32, profile, threshold)
        # invariant 1: no duplicate slots
        assert len(np.unique(mapping.slot_of_chunk)) == mapping.n_chunks
        # invariant 2: every weight sits in a safe subarray
        used = mapping.subarray_of_weight()
        assert np.all(rates[used] <= threshold)
        # invariant 3: chunk count covers the tensor exactly
        assert mapping.n_chunks == org.slots_needed(n_weights * 32)
