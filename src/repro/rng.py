"""Seeded randomness helpers: the only sanctioned RNG entry points.

Every random draw in this codebase flows through a
``numpy.random.Generator`` so that cache fingerprints — which record
"everything that influenced the artifact, including its recorded RNG
state" — actually cover the randomness.  The ``repro lint``
rng-discipline rule (docs/lint.md) enforces it: no global
``np.random.*`` state, no legacy ``RandomState``, no stdlib ``random``,
and no **unseeded** ``default_rng()``.

:func:`ensure_rng` is the sanctioned optional-``rng`` fallback.  APIs
that accept ``rng=None`` for convenience get a generator seeded with
:data:`DEFAULT_SEED` instead of OS entropy, so even "I don't care"
calls are reproducible run-to-run.  Code on a fingerprinted path must
keep passing an explicit generator (or seed) exactly as before —
``ensure_rng`` never touches a generator it is given.

:func:`restored_rng` rebuilds a generator from a recorded state, and
:func:`skip_uniform_draws` advances a generator past ``n`` float64
uniform draws without making them — how a caller that no longer needs
a pass's Poisson encodings keeps the stream of every later draw.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: Seed of last resort for APIs called without an explicit ``rng``.
#: Any fixed value works — what matters is that two bare calls of the
#: same function draw the same stream.
DEFAULT_SEED = 0

#: Draws made and discarded per call when :func:`skip_uniform_draws`
#: cannot jump the bit generator ahead.
_SKIP_CHUNK = 1 << 16


def ensure_rng(
    rng: Optional[Union[np.random.Generator, int]] = None,
    seed: int = DEFAULT_SEED,
) -> np.random.Generator:
    """Return ``rng`` as a Generator, else a generator seeded ``seed``.

    Accepts an existing :class:`numpy.random.Generator` (returned
    as-is), an integer seed, or ``None`` (seeded with ``seed``).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng(seed)
    return np.random.default_rng(rng)


def restored_rng(state: dict) -> np.random.Generator:
    """A Generator whose bit-generator state is exactly ``state``.

    The pipeline threads recorded RNG states between cached stages; the
    constructor seed is irrelevant because the state assignment below
    replaces it wholesale.
    """
    rng = np.random.default_rng(DEFAULT_SEED)
    rng.bit_generator.state = state
    return rng


def skip_uniform_draws(rng: np.random.Generator, n_draws: int) -> None:
    """Leave ``rng`` in the state ``rng.random(n_draws)`` would.

    A float64 uniform consumes one 64-bit output and never the buffered
    32-bit half that ``integers(..., dtype=np.int32)`` leaves behind.
    A ``PCG64`` generator (what :func:`ensure_rng` and
    :func:`restored_rng` give) therefore jumps ahead with
    ``bit_generator.advance`` in O(log n) and gets its buffered half
    back, which ``advance`` clears.  Any other bit generator draws and
    discards in bounded chunks, exact by construction.
    """
    n_draws = int(n_draws)
    if n_draws < 0:
        raise ValueError(f"n_draws must be >= 0, got {n_draws}")
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.PCG64):
        before = bit_generator.state
        bit_generator.advance(n_draws)
        after = bit_generator.state
        after["has_uint32"] = before["has_uint32"]
        after["uinteger"] = before["uinteger"]
        bit_generator.state = after
        return
    buffer = np.empty(min(n_draws, _SKIP_CHUNK))
    while n_draws:
        step = min(n_draws, buffer.size)
        rng.random(out=buffer[:step])
        n_draws -= step


__all__ = ["DEFAULT_SEED", "ensure_rng", "restored_rng", "skip_uniform_draws"]
