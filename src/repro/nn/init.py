"""Weight initialisers.

All initialisers take an explicit ``numpy.random.Generator`` so that every
experiment in the benchmark harness is reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["glorot_uniform", "he_normal", "zeros"]


def _fan_in_out(shape: tuple) -> tuple:
    if len(shape) == 2:  # dense: (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # conv: (F, C, KH, KW)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape))
    return fan_in, fan_out


def glorot_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """He normal initialisation (suits ReLU networks)."""
    fan_in, _ = _fan_in_out(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape: tuple, rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zeros initialisation (biases)."""
    return np.zeros(shape)
