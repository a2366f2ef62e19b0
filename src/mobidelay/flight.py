"""Flight sampling for the heavy-tailed mobility model.

A flight is an isotropic step: angle uniform on (0, 2*pi], length drawn
either from a truncated Pareto law (exact power-law tail P{Z > z} =
tail_c / z^alpha for z >= z_th, with all mass above z_th) or as |Z*| of a
symmetric alpha-stable variable with characteristic function
exp(-|s t|^alpha).  The stable sampler uses the Chambers-Mallows-Stuck
transformation, which is exact and rejection-free.  Every sampler draws
a whole array per call; flights come in polar form (angle, length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlightLaw",
    "sample_stable_symmetric_np",
    "sample_flight_lengths",
    "sample_flight_polar",
]

_TWO_PI = 2.0 * math.pi

SAMPLER_STABLE = "stable"
SAMPLER_TRUNCATED_PARETO = "truncated_pareto"


@dataclass(frozen=True)
class FlightLaw:
    """Flight-length law parameters.

    alpha: tail exponent in (0, 2].
    scale_s: scale of the stable variant.
    z_th: tail threshold; the truncated Pareto places all mass at z >= z_th.
    tail_c: tail constant; for the truncated Pareto it must equal z_th**alpha
        so that P{Z > z_th} = 1 (left as None it is filled in).
    sampler: "truncated_pareto" (default) or "stable".
    """

    alpha: float
    scale_s: float = 1.0
    z_th: float = 1.0
    tail_c: float | None = None
    sampler: str = SAMPLER_TRUNCATED_PARETO

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if self.scale_s <= 0:
            raise ValueError("scale_s must be positive")
        if self.z_th <= 0:
            raise ValueError("z_th must be positive")
        if self.sampler not in (SAMPLER_STABLE, SAMPLER_TRUNCATED_PARETO):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.tail_c is None:
            object.__setattr__(self, "tail_c", self.z_th ** self.alpha)
        elif self.sampler == SAMPLER_TRUNCATED_PARETO:
            if not math.isclose(self.tail_c, self.z_th ** self.alpha, rel_tol=1e-12):
                raise ValueError("truncated Pareto requires tail_c = z_th**alpha")
        elif self.tail_c <= 0:
            raise ValueError("tail_c must be positive")


def _cms_transform(u, w, alpha):
    if alpha == 1.0:
        return np.tan(u)
    su = np.sin(alpha * u)
    cu = np.cos(u)
    cd = np.cos((1.0 - alpha) * u)
    return (su / cu ** (1.0 / alpha)) * (cd / w) ** ((1.0 - alpha) / alpha)


def _one_minus_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    # 1 - U for U uniform on [0, 1), in place; rng.random gives the same
    # bits as rng.uniform(0.0, 1.0) at a fraction of its cost
    u = rng.random(size)
    np.subtract(1.0, u, out=u)
    return u


def sample_stable_symmetric_np(rng: np.random.Generator, alpha: float,
                               scale_s: float, size: int) -> np.ndarray:
    """Symmetric alpha-stable draws of scale scale_s, one array per call.

    Chambers-Mallows-Stuck: U uniform on (-pi/2, pi/2), W standard
    exponential.  alpha=2 reduces to a Gaussian with variance 2*scale_s**2,
    alpha=1 to a Cauchy.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError("alpha must lie in (0, 2]")
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(size)
    return scale_s * _cms_transform(u, w, alpha)


def sample_flight_lengths(rng: np.random.Generator, law: FlightLaw,
                          size: int) -> np.ndarray:
    """Nonnegative flight lengths under the law, one array per call.

    Raises OverflowError when a length is not a finite float, which
    happens at very small alpha.
    """
    with np.errstate(all="ignore"):
        if law.sampler == SAMPLER_TRUNCATED_PARETO:
            # exact inverse CDF of P{Z > z} = (z_th/z)^alpha, z >= z_th,
            # in place: z = z_th * (1 - U)^(-1/alpha), 1 - U in (0, 1]
            z = _one_minus_uniform(rng, size)
            z **= -1.0 / law.alpha
            z *= law.z_th
        else:
            z = np.abs(sample_stable_symmetric_np(rng, law.alpha, law.scale_s, size))
    # lengths are >= 0 and NaN propagates through max
    if z.size and not math.isfinite(z.max()):
        raise OverflowError(f"flight length overflows a float at alpha={law.alpha}")
    return z


def sample_flight_polar(rng: np.random.Generator, law: FlightLaw, size: int):
    """Isotropic flights in polar form, as two (size,) arrays (theta, z).

    Draw order: all angles, uniform on (0, 2*pi], then all lengths.  Every
    flight draw of the package consumes its stream through here.
    """
    theta = _one_minus_uniform(rng, size)
    theta *= _TWO_PI
    return theta, sample_flight_lengths(rng, law, size)

