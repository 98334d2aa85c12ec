"""The event-driven training loop of ``DiehlCookNetwork.run_sample``.

``run_sample(train, stdp=...)`` — the paper-exact ``batch_size=1``
training path — precomputes a sample's drive rows, patches the columns
STDP moves, skips exact no-op work on quiet steps and applies plasticity
only on spike events.  It must leave every piece of state exactly where
the per-step loop it replaced (``reference_run_sample`` in
``tests/oracles.py``) leaves it: weights, thresholds, membrane
potentials, refractory clocks, conductances, presynaptic traces, the
last spike mask and the spike counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.snn.network as network_mod
from oracles import reference_run_sample
from repro.errors.bitops import flip_bits_float32
from repro.snn.network import DiehlCookNetwork, NetworkParameters, make_stdp
from repro.snn.stdp import STDPRule

N_INPUT, N_NEURONS = 48, 12


def _params(dt_ms=1.0, weight_norm=5.0, dense=False):
    # Dense: no threshold jitter and a strong drive, so most neurons fire
    # in the first steps (lateral inhibition and refractory clocks active
    # from the start); otherwise the winner-take-all regime of training.
    return NetworkParameters(
        n_input=N_INPUT,
        n_neurons=N_NEURONS,
        dt_ms=dt_ms,
        weight_norm=weight_norm,
        excitation_gain=30.0 if dense else 3.0,
        theta_init_max=0.0 if dense else 2.0,
    )


def _twins(params, dtype, seed):
    nets = [
        DiehlCookNetwork(params, rng=np.random.default_rng(seed), dtype=dtype)
        for _ in range(2)
    ]
    return nets, [make_stdp(net) for net in nets]


def _corrupt(weights, mode, rng):
    """A DRAM read of ``weights``: clean, bit-flipped and clipped, or raw.

    Raw float32 flips reach the exponent and sign bits: huge, negative,
    infinite and NaN weights, whose overflowing drives exercise the
    masked-write semantics of refractory neurons.
    """
    if mode == "clean":
        return weights.copy()
    n_bits = weights.size * 32
    flips = rng.choice(n_bits, size=max(1, n_bits // 200), replace=False)
    read = flip_bits_float32(weights, flips)
    if mode == "clipped":
        read = np.clip(np.nan_to_num(read, nan=0.0), 0.0, 1.0)
    return read.astype(weights.dtype)


def _state(net, stdp):
    return {
        "weights": net.weights,
        "theta": net.neurons.theta,
        "v": net.neurons.v,
        "refractory_left": net.neurons.refractory_left,
        "g_excitatory": net.g_excitatory.g,
        "g_inhibitory": net.g_inhibitory.g,
        "last_spikes": net._last_spikes,
        "x_pre": stdp.x_pre,
    }


def _assert_same(new, ref):
    for name in ref:
        a, b = new[name], ref[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # Bitwise, except that NaNs compare by value: with raw corrupted
        # reads the operand order of a NaN-producing op may pick another
        # NaN payload.
        if b.dtype.kind == "f" and np.isnan(b).any():
            assert np.array_equal(a, b, equal_nan=True), name
        else:
            assert a.tobytes() == b.tobytes(), name


def _present(nets, stdps, trains, corrupt, adapt, normalize, seed):
    """Present ``trains`` to the new loop and to the oracle in lockstep."""
    new_net, ref_net = nets
    new_rule, ref_rule = stdps
    rng = np.random.default_rng(seed)
    for train in trains:
        read = _corrupt(ref_net.weights, corrupt, rng)
        new_net.weights, ref_net.weights = read.copy(), read.copy()
        counts = new_net.run_sample(
            train, stdp=new_rule, adapt=adapt, normalize=normalize
        )
        expected = reference_run_sample(
            ref_net, train, ref_rule, adapt=adapt, normalize=normalize
        )
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)
        _assert_same(_state(new_net, new_rule), _state(ref_net, ref_rule))
    return expected


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float64, np.float32]),
    dt_ms=st.sampled_from([1.0, 0.5, 0.3]),
    weight_norm=st.sampled_from([5.0, 0.0]),
    dense=st.booleans(),
    corrupt=st.sampled_from(["clean", "clipped", "raw"]),
    adapt=st.booleans(),
    normalize=st.sampled_from([None, False]),
    rate=st.sampled_from([0.05, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_event_loop_matches_per_step_oracle(
    dtype, dt_ms, weight_norm, dense, corrupt, adapt, normalize, rate, seed
):
    params = _params(dt_ms, weight_norm, dense)
    nets, stdps = _twins(params, dtype, seed)
    rng = np.random.default_rng(seed + 1)
    trains = rng.random((3, 30, N_INPUT)) < rate
    with np.errstate(over="ignore", invalid="ignore"):
        _present(nets, stdps, trains, corrupt, adapt, normalize, seed + 2)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dense_early_spiking_is_covered(dtype):
    """The dense regime really fires at once, and still matches."""
    params = _params(dense=True)
    nets, stdps = _twins(params, dtype, seed=4)
    trains = np.random.default_rng(5).random((2, 40, N_INPUT)) < 0.3
    counts = _present(nets, stdps, trains, "clean", True, None, seed=6)
    assert np.count_nonzero(counts) > N_NEURONS // 2


def test_overflowing_drive_keeps_refractory_neurons_untouched():
    """float32 overflow makes inf drives and NaN membrane updates.

    Refractory neurons must keep their potential exactly as the oracle's
    ``np.where`` does (a NaN update is masked out, not multiplied in).
    """
    nets, stdps = _twins(_params(dense=True, weight_norm=0.0), np.float32, seed=11)
    huge = np.full((N_INPUT, N_NEURONS), 3e38, dtype=np.float32)
    huge[:, ::2] = 0.5
    for net in nets:
        net.weights = huge.copy()
    trains = np.random.default_rng(12).random((1, 30, N_INPUT)) < 0.3
    with np.errstate(over="ignore", invalid="ignore"):
        _present(nets, stdps, trains, "clean", True, False, seed=13)
        assert not np.isfinite(nets[0].g_excitatory.g).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_numpy_fallback_matches_oracle(monkeypatch, dtype):
    """Without scipy the drive patch recomputes full-width rows.

    A single gathered weight column would be summed pairwise by numpy
    instead of row by row, so this pins the fallback's exactness with
    one-neuron spike events.
    """
    monkeypatch.setattr(network_mod, "_sparse", None)
    nets, stdps = _twins(_params(), dtype, seed=8)
    trains = np.random.default_rng(9).random((4, 40, N_INPUT)) < 0.3
    _present(nets, stdps, trains, "clean", True, None, seed=10)


def test_training_never_takes_the_per_step_path(monkeypatch):
    """The loop under test is the event-driven one, not the oracle's."""

    def forbidden(*args, **kwargs):
        raise AssertionError("per-step path used by run_sample training")

    net = DiehlCookNetwork(_params(), rng=np.random.default_rng(0))
    stdp = make_stdp(net)
    monkeypatch.setattr(DiehlCookNetwork, "step", forbidden)
    monkeypatch.setattr(STDPRule, "step", forbidden)
    train = np.random.default_rng(1).random((40, N_INPUT)) < 0.3
    counts = net.run_sample(train, stdp=stdp)
    assert counts.sum() > 0


def test_rejects_a_batched_rule():
    net = DiehlCookNetwork(_params(), rng=np.random.default_rng(0))
    rule = make_stdp(net, batch_shape=(2,))
    with pytest.raises(ValueError, match="unbatched"):
        net.run_sample(np.zeros((5, N_INPUT), dtype=bool), stdp=rule)
