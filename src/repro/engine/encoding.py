"""Batched spike encoding.

The default Poisson encoder fills one reused ``(n_steps, n_input)``
draw buffer per image and compares it into a preallocated boolean
``(B, n_steps, n_input)`` output — consuming *exactly* the same random
stream as ``B`` successive per-image
:func:`repro.snn.encoding.poisson_rate_code` calls (``Generator.random``
fills arrays from the bit stream in C order) without the ``B``-fold
float64 temporary of one whole-batch draw.  Encoded trains are
therefore identical whether samples are encoded one at a time, per
chunk, or all at once — the engine equivalence guarantee extends
through the encoder.

Non-default encoders fall back to a per-image loop (same stream by
construction); the simulation stays vectorized either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.snn.encoding import poisson_rate_code

#: Encoder signature used across the SNN stack.
Encoder = Callable[[np.ndarray, int, np.random.Generator], np.ndarray]


@dataclass
class EncodedMinibatch:
    """One encoded minibatch, replayable across repeated presentations.

    ``trains`` is the boolean ``(B, n_steps, n_input)`` spike tensor of
    one Poisson draw; ``matrix`` lazily caches the sparse drive
    operator
    (:meth:`repro.snn.network.DiehlCookNetwork.prepare_drive_matrix`)
    built from it, so a consumer presenting the same minibatch several
    times — the per-BER-stage amortization of
    :class:`repro.engine.trainer.StageEncodingCache` — pays the
    encoding draw *and* the CSR construction once.
    """

    trains: np.ndarray
    matrix: object = None

    @property
    def n_samples(self) -> int:
        return int(self.trains.shape[0])


def _check_images(images: np.ndarray) -> np.ndarray:
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(
            f"images must be a 2-D (n_samples, n_pixels) array, got shape {arr.shape}"
        )
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("pixel intensities must lie in [0, 1]")
    return arr


def encode_spike_trains(
    images: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
    encoder: Optional[Encoder] = None,
    dt_ms: float = 1.0,
    max_rate_hz: float = 63.75,
) -> np.ndarray:
    """Encode a batch of images into ``(B, n_steps, n_input)`` spikes.

    With ``encoder=None`` the default Poisson rate code is applied
    image by image into one reused draw buffer; a custom encoder is
    applied per image.  Either
    way the result (and the state of ``rng``) is identical to calling
    the encoder on each image in order.
    """
    if n_steps <= 0 or dt_ms <= 0:
        raise ValueError("n_steps and dt_ms must be > 0")
    images = _check_images(images)
    if images.shape[0] == 0:
        return np.zeros((0, n_steps, images.shape[1]), dtype=bool)
    if encoder is not None and encoder is not poisson_rate_code:
        return np.stack([encoder(image, n_steps, rng) for image in images])
    p = np.clip(images * max_rate_hz * dt_ms * 1e-3, 0.0, 1.0)
    # One reused (n_steps, n_input) draw buffer per sample instead of a
    # (B, n_steps, n_input) float64 temporary: the generator fills each
    # buffer in C order, so the stream (and every spike) is unchanged.
    trains = np.empty((images.shape[0], n_steps, images.shape[1]), dtype=bool)
    draws = np.empty((n_steps, images.shape[1]), dtype=np.float64)
    for b in range(images.shape[0]):
        rng.random(out=draws)
        np.less(draws, p[b], out=trains[b])
    return trains
