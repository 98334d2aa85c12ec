"""Fused per-step state kernels for the minibatch STDP training loop.

The training time loop of
:meth:`repro.snn.network.DiehlCookNetwork.run_batch_stdp` advances, per
timestep, the full dynamic state of ``B`` network lanes — conductances,
membrane potentials, refractory clocks, adaptive thresholds and the
presynaptic STDP traces.  Written as numpy expressions that is a dozen
temporary arrays per step; this module provides the same arithmetic as

- a **numpy** kernel: the exact ufunc sequence of
  ``DiehlCookNetwork._step_from_drive`` + ``AdaptiveLIFLayer.step`` +
  the STDP trace decay/bump, written into a preallocated
  :class:`FusedWorkspace` (the training analogue of the
  allocation-free inference loop ``_run_batch_frozen``);
- an optional **numba** kernel: one jitted elementwise pass over the
  same state arrays, compiled lazily per dtype.

The numpy step is split in two halves (:func:`numpy_membrane_step`,
:func:`numpy_fire_step`) plus the trace step, so the paper-exact
``batch_size=1`` loop (``DiehlCookNetwork._run_sample_fused``) runs the
same arithmetic on one-lane views, with exact shortcuts for quiet steps.

Both kernels are **bit-identical** to the unfused reference step kept
in ``tests/oracles.py`` (and therefore to each other).  For numpy that
holds because every ufunc call below has the same operands, operand
order and output dtype as the reference expression form.  For numba it holds by construction: the kernel is
written scalar-by-scalar with every intermediate rounded at exactly the
points the numpy ufunc sequence rounds — constants are pre-cast to the
compute dtype, and the one mixed-precision chain (lateral inhibition,
which numpy evaluates in float64 before storing back to the compute
dtype) is mirrored with explicit float64 intermediates and an explicit
downcast.  The column-restricted STDP *accumulation* (a BLAS matmul)
deliberately stays in shared numpy code
(:meth:`repro.snn.stdp.STDPRule.accumulate_step`) so both backends
reduce in the same order there too.

The backend is the platform's, not the caller's: ``numba`` when it
imports (:data:`HAVE_NUMBA`), pure numpy otherwise — nothing is ever
installed.  Tests flip :data:`HAVE_NUMBA` to assert cross-backend
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

try:  # optional accelerator; the numpy kernel is always available.
    import numba as _numba
except ImportError:  # pragma: no cover - exercised on numba-less hosts
    _numba = None

#: Whether the optional numba backend can be used in this process.
HAVE_NUMBA = _numba is not None


class FusedWorkspace:
    """Preallocated scratch of the fused training time loop.

    One workspace serves every step of every minibatch of a given shape
    — :class:`repro.engine.trainer.BatchedTrainer` keeps one per
    minibatch size, so steady-state training allocates nothing inside
    the time loop (the ``workspace-discipline`` lint rule guards the
    loop bodies themselves).

    Buffers (``B`` lanes × ``n`` neurons × ``n_pre`` inputs):

    - ``s1``/``s2``/``thr`` — dtype scratch for the membrane chain and
      the per-step threshold ``v_threshold + theta``;
    - ``active``/``spikes``/``last`` — boolean masks (``last`` and
      ``spikes`` swap roles every step, exactly like the inference
      loop's double buffer);
    - ``row_count``/``row_inh`` — the ``(B, 1)`` lateral-inhibition
      row reductions (int64 spike count, float64 scaled total);
    - ``pre`` — contiguous copy of the step's presynaptic spikes;
    - ``offset`` — the ``x_pre - trace_offset`` operand of the
      column-restricted STDP accumulation.
    """

    def __init__(self, n_batch: int, n_neurons: int, n_pre: int, dtype: np.dtype):
        if n_batch < 1 or n_neurons < 1 or n_pre < 1:
            raise ValueError("workspace dims must be >= 1")
        self.n_batch = int(n_batch)
        self.n_neurons = int(n_neurons)
        self.n_pre = int(n_pre)
        self.dtype = np.dtype(dtype)
        shape = (self.n_batch, self.n_neurons)
        self.s1 = np.empty(shape, dtype=self.dtype)
        self.s2 = np.empty(shape, dtype=self.dtype)
        self.thr = np.empty(shape, dtype=self.dtype)
        self.active = np.empty(shape, dtype=bool)
        self.spikes = np.empty(shape, dtype=bool)
        self.last = np.empty(shape, dtype=bool)
        self.row_count = np.empty((self.n_batch, 1), dtype=np.int64)
        self.row_inh = np.empty((self.n_batch, 1), dtype=np.float64)
        self.pre = np.empty((self.n_batch, self.n_pre), dtype=bool)
        self.offset = np.empty((self.n_batch, self.n_pre), dtype=self.dtype)

    def matches(self, n_batch: int, n_neurons: int, n_pre: int, dtype) -> bool:
        """Whether this workspace fits a minibatch of the given shape."""
        return (
            self.n_batch == n_batch
            and self.n_neurons == n_neurons
            and self.n_pre == n_pre
            and self.dtype == np.dtype(dtype)
        )


@dataclass(frozen=True)
class FusedConstants:
    """Pre-cast step constants shared by both fused kernels.

    Every constant that meets a compute-dtype array is stored as a
    numpy scalar of that dtype — under NEP 50 a weak python float
    behaves exactly as-if cast to the array's dtype, so pre-casting
    reproduces the reference expressions bit for bit while giving the
    numba kernel concrete types.  ``inhibition`` alone stays float64:
    the reference inhibition chain mixes an int64 row reduction with a
    python float, which numpy evaluates in float64 before the store
    downcasts.
    """

    decay_e: np.number
    decay_i: np.number
    inhibition: np.float64
    v_rest: np.number
    e_excitatory: np.number
    e_inhibitory: np.number
    k: np.number
    v_threshold: np.number
    v_reset: np.number
    dt_ms: np.number
    refractory_ms: np.number
    theta_decay: np.number
    theta_plus: np.number
    trace_decay: np.number
    one: np.number

    @classmethod
    def for_loop(cls, network, stdp) -> "FusedConstants":
        """Constants of one ``run_batch_stdp`` fused loop."""
        p = network.parameters
        lif = p.lif
        D = network.dtype.type
        return cls(
            decay_e=network.g_excitatory._decay,
            decay_i=network.g_inhibitory._decay,
            inhibition=np.float64(p.inhibition_strength),
            v_rest=D(lif.v_rest),
            e_excitatory=D(lif.e_excitatory),
            e_inhibitory=D(lif.e_inhibitory),
            k=D(p.dt_ms / lif.tau_membrane_ms),
            v_threshold=D(lif.v_threshold),
            v_reset=D(lif.v_reset),
            dt_ms=D(p.dt_ms),
            refractory_ms=D(lif.refractory_ms),
            theta_decay=network.neurons._theta_decay,
            theta_plus=D(lif.theta_plus),
            trace_decay=stdp._trace_decay,
            one=D(1.0),
        )

    def as_args(self) -> Tuple:
        """Positional constant block of the numba kernel signature."""
        return (
            self.decay_e,
            self.decay_i,
            self.inhibition,
            self.v_rest,
            self.e_excitatory,
            self.e_inhibitory,
            self.k,
            self.v_threshold,
            self.v_reset,
            self.dt_ms,
            self.refractory_ms,
            self.theta_decay,
            self.theta_plus,
            self.trace_decay,
            self.one,
        )


def numpy_membrane_step(
    c: FusedConstants,
    ws: FusedWorkspace,
    drive: np.ndarray,
    g_e: np.ndarray,
    g_i: np.ndarray,
    v: np.ndarray,
    refr: np.ndarray,
    theta: np.ndarray,
    last: np.ndarray,
    spikes: np.ndarray,
    inhibit: bool = True,
    refractory: bool = True,
) -> None:
    """First half of a fused step: conductances, membrane, threshold.

    Writes the step's spike mask into ``spikes``.  The two flags are
    exact shortcuts for quiet steps, never approximations:

    - ``inhibit=False`` when ``last`` holds no spike: the lateral
      inhibition term is then exactly ``+0.0`` everywhere, and adding
      ``+0.0`` to ``g_i`` (which is never ``-0.0``: it starts at
      ``+0.0``, decays by a positive factor and only ever gains
      non-negative terms) leaves every bit unchanged;
    - ``refractory=False`` when no element of ``refr`` is positive:
      ``active`` is then all-True, so the masked write is a plain write
      and the ``spikes &= active`` mask is a no-op.
    """
    g_e *= c.decay_e
    g_e += drive
    g_i *= c.decay_i
    if inhibit:
        # Lateral inhibition: row totals in int64/float64 exactly as the
        # reference `last.sum(axis=-1, keepdims=True) * inhibition` chain.
        np.sum(last, axis=-1, keepdims=True, out=ws.row_count)
        np.multiply(ws.row_count, c.inhibition, out=ws.row_inh)
        np.multiply(last, c.inhibition, out=ws.s1)
        np.subtract(ws.row_inh, ws.s1, out=ws.s1)
        g_i += ws.s1
    np.subtract(c.v_rest, v, out=ws.s1)
    np.subtract(c.e_excitatory, v, out=ws.s2)
    ws.s2 *= g_e
    ws.s1 += ws.s2
    np.subtract(c.e_inhibitory, v, out=ws.s2)
    ws.s2 *= g_i
    ws.s1 += ws.s2
    ws.s1 *= c.k
    np.add(c.v_threshold, theta, out=ws.thr)
    if refractory:
        np.less_equal(refr, 0.0, out=ws.active)
        # Masked write, not `v += dv * active`: a non-finite dv
        # (float32 overflow from unclipped corrupted weights) must
        # leave refractory neurons untouched exactly as the reference
        # np.where does.
        ws.s1 += v
        np.copyto(v, ws.s1, where=ws.active)
        np.greater_equal(v, ws.thr, out=spikes)
        spikes &= ws.active
    else:
        # `s1 += v` (same operands, same order) written straight into v.
        np.add(ws.s1, v, out=v)
        np.greater_equal(v, ws.thr, out=spikes)


def numpy_fire_step(
    c: FusedConstants,
    v: np.ndarray,
    refr: np.ndarray,
    theta: np.ndarray,
    spikes: np.ndarray,
    refractory: bool = True,
    fired: bool = True,
    adapt: bool = True,
) -> None:
    """Second half of a fused step: resets, refractory clocks, theta.

    ``refractory=False`` (no element of ``refr`` positive before the
    step) skips the clock decrement, which would map every ``+0.0`` to
    ``max(-dt, 0.0) = +0.0``; ``fired=False`` (``spikes`` all-False)
    skips the masked writes, which would select nothing; ``adapt=False``
    freezes the thresholds.
    """
    # Masked scalar writes: same elements, same values as the
    # boolean-indexed assignments of the reference step, minus the
    # index-array extraction those perform.
    if fired:
        np.copyto(v, c.v_reset, where=spikes)
    if refractory:
        refr -= c.dt_ms
        np.maximum(refr, 0.0, out=refr)
    if fired:
        np.copyto(refr, c.refractory_ms, where=spikes)
    if adapt:
        theta *= c.theta_decay
        if fired:
            np.add(theta, c.theta_plus, out=theta, where=spikes)


def numpy_trace_step(c: FusedConstants, x_pre: np.ndarray, pre: np.ndarray) -> None:
    """Presynaptic STDP traces: decay, then jump to one where ``pre`` fired."""
    x_pre *= c.trace_decay
    np.copyto(x_pre, c.one, where=pre)


def numpy_state_step(
    c: FusedConstants,
    ws: FusedWorkspace,
    drive: np.ndarray,
    g_e: np.ndarray,
    g_i: np.ndarray,
    v: np.ndarray,
    refr: np.ndarray,
    theta: np.ndarray,
    x_pre: np.ndarray,
    last: np.ndarray,
    spikes: np.ndarray,
    counts: np.ndarray,
) -> None:
    """One fused training step (numpy backend), allocation-free.

    Performs exactly the ufunc sequence of ``_step_from_drive`` with
    ``adapt=True`` plus the STDP trace decay/bump — same operations,
    same operand order, written into ``ws``'s scratch buffers.
    ``ws.pre`` must already hold this step's presynaptic spikes;
    ``spikes`` receives the postsynaptic result (the caller swaps
    ``last``/``spikes`` afterwards, like the inference loop).
    """
    numpy_membrane_step(c, ws, drive, g_e, g_i, v, refr, theta, last, spikes)
    numpy_fire_step(c, v, refr, theta, spikes)
    numpy_trace_step(c, x_pre, ws.pre)
    counts += spikes


# ----------------------------------------------------------------------
# Numba backend: one jitted elementwise pass per step, specialised (and
# compiled lazily) per compute dtype.

_NUMBA_STEPS: dict = {}


def _build_numba_step(castf):
    """Compile the per-step kernel with ``castf`` as the dtype downcast.

    ``castf`` (``np.float32``/``np.float64``) marks the two spots where
    the reference ufunc sequence computes in float64 and the store
    rounds to the compute dtype (the lateral-inhibition chain).  All
    other arithmetic runs directly in the compute dtype because every
    constant argument is pre-cast (:class:`FusedConstants`).
    """

    def step(
        drive,
        pre,
        g_e,
        g_i,
        v,
        refr,
        theta,
        x_pre,
        last,
        spikes,
        counts,
        decay_e,
        decay_i,
        inhibition,
        v_rest,
        e_excitatory,
        e_inhibitory,
        k,
        v_threshold,
        v_reset,
        dt_ms,
        refractory_ms,
        theta_decay,
        theta_plus,
        trace_decay,
        one,
    ):  # pragma: no cover - compiled; covered by the optional-numba CI leg
        n_batch, n_neurons = v.shape
        n_pre = x_pre.shape[1]
        for b in range(n_batch):
            fired_last = 0
            for j in range(n_neurons):
                if last[b, j]:
                    fired_last += 1
            row_inh = np.float64(fired_last) * inhibition
            for j in range(n_neurons):
                ge = g_e[b, j] * decay_e
                ge = ge + drive[b, j]
                g_e[b, j] = ge
                lateral = castf(inhibition) if last[b, j] else castf(0.0)
                lateral = castf(row_inh - np.float64(lateral))
                gi = g_i[b, j] * decay_i
                gi = gi + lateral
                g_i[b, j] = gi
                vv = v[b, j]
                is_active = refr[b, j] <= 0.0
                dv = v_rest - vv
                s2 = e_excitatory - vv
                s2 = s2 * ge
                dv = dv + s2
                s2 = e_inhibitory - vv
                s2 = s2 * gi
                dv = dv + s2
                dv = dv * k
                dv = dv + vv
                if is_active:
                    vv = dv
                thr = v_threshold + theta[b, j]
                fired = is_active and (vv >= thr)
                if fired:
                    vv = v_reset
                v[b, j] = vv
                r = refr[b, j] - dt_ms
                if r < castf(0.0):
                    r = castf(0.0)
                if fired:
                    r = refractory_ms
                refr[b, j] = r
                th = theta[b, j] * theta_decay
                if fired:
                    th = th + theta_plus
                theta[b, j] = th
                spikes[b, j] = fired
                if fired:
                    counts[b, j] += 1
            for i in range(n_pre):
                x = x_pre[b, i] * trace_decay
                if pre[b, i]:
                    x = one
                x_pre[b, i] = x

    # cache=False: the closure over ``castf`` defeats numba's on-disk
    # cache; the per-process compile (a few seconds, once per dtype)
    # amortises over the training run.
    return _numba.njit(cache=False, fastmath=False)(step)


def numba_state_step(dtype: np.dtype):
    """The compiled numba step kernel for ``dtype`` (lazily built)."""
    if _numba is None:  # pragma: no cover - guarded by HAVE_NUMBA
        raise RuntimeError("numba is not installed")
    dtype = np.dtype(dtype)
    fn = _NUMBA_STEPS.get(dtype)
    if fn is None:
        castf = np.float32 if dtype == np.dtype(np.float32) else np.float64
        fn = _build_numba_step(castf)
        _NUMBA_STEPS[dtype] = fn
    return fn


__all__ = [
    "FusedConstants",
    "FusedWorkspace",
    "HAVE_NUMBA",
    "numba_state_step",
    "numpy_fire_step",
    "numpy_membrane_step",
    "numpy_state_step",
    "numpy_trace_step",
]
