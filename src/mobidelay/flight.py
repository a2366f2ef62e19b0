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
    "to_flight_polar",
    "sample_flight_polar",
]

_TWO_PI = 2.0 * math.pi


def to_flight_polar(theta: np.ndarray, z: np.ndarray, alpha: float):
    """Isotropic flights from uniform draws, in place, as (theta, z).

    theta and z hold draws U uniform on [0, 1), as rng.random gives them
    (the same bits as rng.uniform(0.0, 1.0) at a fraction of its cost).
    Each angle becomes 2*pi (1 - U), uniform on (0, 2*pi], and each
    length the Pareto (1 - U)^(-1/alpha), 1 - U in (0, 1].  Raises
    OverflowError when a length is not a finite float, which happens at
    very small alpha.
    """
    np.subtract(1.0, theta, out=theta)
    theta *= _TWO_PI
    np.subtract(1.0, z, out=z)
    with np.errstate(all="ignore"):
        z **= -1.0 / alpha
    # lengths are >= 1 and NaN propagates through max
    if z.size and not math.isfinite(z.max()):
        raise OverflowError(f"flight length overflows a float at alpha={alpha}")
    return theta, z


def sample_flight_polar(rng: np.random.Generator, alpha: float, size: int):
    """Isotropic flights in polar form, as two (size,) arrays (theta, z).

    Draw order: all angles, then all lengths, mapped by to_flight_polar.
    Every flight draw of the package consumes its stream in this order;
    the slot loop of ``world`` draws block by block into its group's
    buffers and maps them with to_flight_polar too.
    """
    theta = rng.random(size)
    return to_flight_polar(theta, rng.random(size), alpha)
