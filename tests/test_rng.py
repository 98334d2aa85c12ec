"""Tests of the sanctioned RNG helpers (repro.rng).

``skip_uniform_draws`` stands in for Poisson encoding passes whose
spikes nobody reads, so it must leave a generator in *exactly* the
state ``encode_spike_trains`` would — buffered 32-bit half included —
for the jump-ahead path (``PCG64``) and the draw-and-discard fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.encoding import encode_spike_trains
from repro.rng import ensure_rng, restored_rng, skip_uniform_draws

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "mt19937": np.random.MT19937,
    "philox": np.random.Philox,
}


def _state(rng: np.random.Generator) -> dict:
    """The bit-generator state with arrays (MT19937, Philox) as lists."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    return plain(rng.bit_generator.state)


def _generator(kind: str, seed: int, prior: str) -> np.random.Generator:
    rng = np.random.Generator(BIT_GENERATORS[kind](seed))
    if prior == "int32":
        rng.integers(0, 1000, dtype=np.int32)
    elif prior == "permutation":
        rng.permutation(7)
    return rng


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(BIT_GENERATORS)),
    prior=st.sampled_from(["none", "int32", "permutation"]),
    n_images=st.integers(0, 4),
    n_steps=st.integers(1, 6),
    n_input=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_skip_matches_encoding_pass(kind, prior, n_images, n_steps, n_input, seed):
    encoded = _generator(kind, seed, prior)
    skipped = _generator(kind, seed, prior)
    images = np.random.default_rng(seed).random((n_images, n_input))
    encode_spike_trains(images, n_steps, encoded)
    skip_uniform_draws(skipped, n_images * n_steps * n_input)
    assert _state(skipped) == _state(encoded)
    assert skipped.random() == encoded.random()


def test_pcg64_keeps_the_buffered_half():
    """``advance`` clears the buffered uint32; the skip puts it back."""
    rng = _generator("pcg64", 3, "int32")
    before = rng.bit_generator.state
    assert before["has_uint32"] == 1
    skip_uniform_draws(rng, 1000)
    after = rng.bit_generator.state
    assert (after["has_uint32"], after["uinteger"]) == (
        before["has_uint32"], before["uinteger"],
    )
    assert after["state"] != before["state"]


@pytest.mark.parametrize("kind", sorted(BIT_GENERATORS))
def test_skip_across_fallback_chunks(kind):
    """Counts above one fallback chunk (2**16 draws) stay exact."""
    drawn = _generator(kind, 8, "int32")
    skipped = _generator(kind, 8, "int32")
    n = 3 * 2**16 + 5
    drawn.random(n)
    skip_uniform_draws(skipped, n)
    assert _state(skipped) == _state(drawn)


@pytest.mark.parametrize("kind", sorted(BIT_GENERATORS))
def test_zero_draws_leave_state_unchanged(kind):
    rng = _generator(kind, 5, "permutation")
    before = _state(rng)
    skip_uniform_draws(rng, 0)
    assert _state(rng) == before


def test_negative_count_rejected():
    with pytest.raises(ValueError, match="n_draws"):
        skip_uniform_draws(np.random.default_rng(0), -1)


def test_restored_generators_take_the_jump_path():
    """The generators the pipeline threads are PCG64."""
    rng = restored_rng(np.random.default_rng(4).bit_generator.state)
    assert isinstance(rng.bit_generator, np.random.PCG64)
    assert isinstance(ensure_rng(None).bit_generator, np.random.PCG64)
