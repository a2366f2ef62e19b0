"""Flight sampling for the heavy-tailed mobility model.

A flight is an isotropic step: angle uniform on (0, 2*pi], length drawn
from the Pareto law with exact power-law tail P{Z > z} = z^(-alpha) for
z >= 1, all its mass above 1, by the inverse CDF.  Every sampler draws a
whole array per call; flights come in polar form (angle, length).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "sample_flight_lengths",
    "sample_flight_polar",
]

_TWO_PI = 2.0 * math.pi


def _one_minus_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    # 1 - U for U uniform on [0, 1), in place; rng.random gives the same
    # bits as rng.uniform(0.0, 1.0) at a fraction of its cost
    u = rng.random(size)
    np.subtract(1.0, u, out=u)
    return u


def sample_flight_lengths(rng: np.random.Generator, alpha: float,
                          size: int) -> np.ndarray:
    """Pareto flight lengths of tail exponent alpha, one array per call.

    Raises OverflowError when a length is not a finite float, which
    happens at very small alpha.
    """
    # z = (1 - U)^(-1/alpha) in place, 1 - U in (0, 1]
    z = _one_minus_uniform(rng, size)
    with np.errstate(all="ignore"):
        z **= -1.0 / alpha
    # lengths are >= 1 and NaN propagates through max
    if z.size and not math.isfinite(z.max()):
        raise OverflowError(f"flight length overflows a float at alpha={alpha}")
    return z


def sample_flight_polar(rng: np.random.Generator, alpha: float, size: int):
    """Isotropic flights in polar form, as two (size,) arrays (theta, z).

    Draw order: all angles, uniform on (0, 2*pi], then all lengths.  Every
    flight draw of the package consumes its stream through here.
    """
    theta = _one_minus_uniform(rng, size)
    theta *= _TWO_PI
    return theta, sample_flight_lengths(rng, alpha, size)
