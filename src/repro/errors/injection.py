"""Bit-error injection into DRAM-resident synaptic weights.

This is the "Error Generator & Injection" box of the paper's toolflow
(Fig. 10): given the weights, their storage representation, where each
weight lives in DRAM, and the per-location error rates, it flips the
corresponding stored bits and returns the corrupted weights.

Two operating modes cover the paper's uses:

- **uniform** (training, Section IV-B Steps 1-2): one device-level BER,
  Error Model-0, baseline sequential mapping — every stored bit is
  equally likely to flip;
- **per-subarray** (mapping evaluation, Section IV-D): each weight is
  assigned to a subarray with its own error rate; flips are sampled
  region by region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors.models import BitContext, ErrorModel, ErrorModel0


@dataclass(frozen=True)
class InjectionReport:
    """What one injection pass actually did."""

    total_bits: int
    flipped_bits: int
    requested_ber: float
    per_region_flips: Dict[int, int] = field(default_factory=dict)

    @property
    def achieved_ber(self) -> float:
        return self.flipped_bits / self.total_bits if self.total_bits else 0.0


class ErrorInjector:
    """Injects DRAM bit errors into a weight tensor.

    Parameters
    ----------
    representation:
        A weight representation from :mod:`repro.snn.quantization`
        (``encode``/``decode``/``bits_per_weight``/``flip_bits``).
    model:
        One of the Section III error models; defaults to Model-0, which
        is what SparkXD uses.
    lane_bits:
        Number of distinct bitlines a slot spans (used to derive each
        bit's bitline index for Model-1).
    row_bits:
        Bits per DRAM row (used to derive wordline indices for Model-2).
    seed:
        Seed for the flip sampling stream.  Each call to
        :meth:`inject` advances the stream unless an explicit ``rng``
        is supplied.
    """

    def __init__(
        self,
        representation,
        model: Optional[ErrorModel] = None,
        lane_bits: int = 64,
        row_bits: int = 65536,
        seed: Optional[int] = None,
    ):
        if lane_bits <= 0 or row_bits <= 0:
            raise ValueError("lane_bits and row_bits must be > 0")
        self.representation = representation
        self.model = model or ErrorModel0()
        self.lane_bits = lane_bits
        self.row_bits = row_bits
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def inject_uniform(
        self,
        weights: np.ndarray,
        ber: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, InjectionReport]:
        """Flip stored bits with one uniform BER (training mode)."""
        n = int(np.size(weights))
        return self.inject_by_region(
            weights,
            region_of_weight=np.zeros(n, dtype=np.int64),
            region_rates=np.array([ber], dtype=float),
            rng=rng,
        )

    def inject_stack(
        self,
        weights: np.ndarray,
        bers,
        n_realizations: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, List[InjectionReport]]:
        """Produce a stack of independently corrupted weight copies.

        The E-axis the batched engine consumes in one call: for every
        BER in ``bers`` (a scalar or a sequence), ``n_realizations``
        independent error masks are sampled, giving a stack of shape
        ``(len(bers) * n_realizations, *weights.shape)`` in BER-major
        order (all realizations of ``bers[0]`` first).  Random draws
        happen in exactly that order from ``rng`` (or the injector's own
        stream), so the stack matches an equivalent sequence of
        :meth:`inject_uniform` calls bit for bit.

        Returns ``(stack, reports)`` with one
        :class:`InjectionReport` per stack entry.
        """
        if n_realizations <= 0:
            raise ValueError(f"n_realizations must be > 0, got {n_realizations}")
        bers = np.atleast_1d(np.asarray(bers, dtype=float))
        if bers.ndim != 1 or bers.size == 0:
            raise ValueError("bers must be a scalar or a non-empty 1-D sequence")
        weights = np.asarray(weights)
        stack = np.empty((bers.size * n_realizations,) + weights.shape, dtype=np.float64)
        reports: List[InjectionReport] = []
        index = 0
        for ber in bers:
            for _ in range(n_realizations):
                corrupted, report = self.inject_uniform(weights, float(ber), rng=rng)
                stack[index] = corrupted
                reports.append(report)
                index += 1
        return stack, reports

    def inject_by_region(
        self,
        weights: np.ndarray,
        region_of_weight: np.ndarray,
        region_rates: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, InjectionReport]:
        """Flip stored bits with per-region (e.g. per-subarray) rates.

        ``region_of_weight[i]`` is the region index of flattened weight
        ``i``; ``region_rates[r]`` is region ``r``'s bit error rate.
        Returns ``(corrupted_weights, report)``; the input is untouched.
        """
        rng = rng if rng is not None else self._rng
        weights = np.asarray(weights)
        flat_shape = weights.shape
        n_weights = int(weights.size)
        region_of_weight = np.asarray(region_of_weight, dtype=np.int64).ravel()
        if region_of_weight.shape != (n_weights,):
            raise ValueError(
                f"region_of_weight must have one entry per weight "
                f"({n_weights}), got {region_of_weight.shape}"
            )
        region_rates = np.asarray(region_rates, dtype=float)
        if region_of_weight.size and (
            region_of_weight.min() < 0 or region_of_weight.max() >= region_rates.size
        ):
            raise IndexError("region index out of range of region_rates")
        if np.any(region_rates < 0) or np.any(region_rates > 1):
            raise ValueError("region rates must lie in [0, 1]")

        rep = self.representation
        bpw = rep.bits_per_weight
        words = rep.encode(weights)
        words_flat = np.ravel(words)

        # Occupied regions in ascending order, each with its members in
        # ascending weight order — the order the flips are drawn in.  A
        # stable sort groups them in one pass (numpy 2's hash-based
        # np.unique cost more than the rest of an injection), and a
        # single region is just every weight.
        sizes = np.bincount(region_of_weight, minlength=region_rates.size)
        regions = np.flatnonzero(sizes)
        if regions.size == 1:
            grouped = np.arange(n_weights, dtype=np.int64)
        else:
            grouped = np.argsort(region_of_weight, kind="stable")
        bounds = np.cumsum(sizes[regions])

        all_flips: list[np.ndarray] = []
        per_region: Dict[int, int] = {}
        mean_rate = 0.0
        for region, end in zip(regions, bounds):
            rate = float(region_rates[region])
            members = grouped[end - sizes[region] : end]
            n_bits = members.size * bpw
            mean_rate += rate * n_bits
            context = self._context_for(words_flat, members, bpw, rate)
            local_flips = self.model.sample_flips(context, rng)
            per_region[int(region)] = int(local_flips.size)
            if local_flips.size:
                # local bit index -> (member weight, bit) -> global bit index
                member_idx = members[local_flips // bpw]
                global_bits = member_idx * bpw + (local_flips % bpw)
                all_flips.append(global_bits)

        total_bits = n_weights * bpw
        if all_flips:
            flat_bits = np.concatenate(all_flips)
            corrupted_words = rep.flip_bits(words_flat, flat_bits)
        else:
            flat_bits = np.empty(0, dtype=np.int64)
            corrupted_words = words_flat
        corrupted = rep.decode(corrupted_words).reshape(flat_shape)
        report = InjectionReport(
            total_bits=total_bits,
            flipped_bits=int(flat_bits.size),
            requested_ber=mean_rate / total_bits if total_bits else 0.0,
            per_region_flips=per_region,
        )
        return corrupted, report

    # ------------------------------------------------------------------
    def _context_for(
        self,
        words_flat: np.ndarray,
        members: np.ndarray,
        bpw: int,
        rate: float,
    ) -> BitContext:
        """Build the BitContext one region's bits present to the model."""
        n_bits = members.size * bpw
        fields = getattr(self.model, "context_fields", ())
        needs_lanes = "bitline_of" in fields
        needs_rows = "wordline_of" in fields
        needs_values = "values" in fields
        bitline_of = wordline_of = values = None
        if needs_lanes or needs_rows:
            # Bits of consecutive member weights stream into consecutive
            # DRAM columns; lane = position within the column width,
            # wordline advances every row_bits bits.
            positions = np.arange(n_bits, dtype=np.int64)
            if needs_lanes:
                bitline_of = positions % self.lane_bits
            if needs_rows:
                wordline_of = positions // self.row_bits
        if needs_values:
            member_words = words_flat[members].astype(np.uint64)
            shifts = np.arange(bpw, dtype=np.uint64)
            values = ((member_words[:, None] >> shifts[None, :]) & 1).astype(
                np.uint8
            ).ravel()
        return BitContext(
            n_bits=n_bits,
            base_rate=rate,
            bitline_of=bitline_of,
            wordline_of=wordline_of,
            values=values,
        )
