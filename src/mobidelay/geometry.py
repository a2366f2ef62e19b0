"""Exact planar geometry on the wrapped disc, in array form.

Uniform point sampling, the clamped-quadratic segment/point distance (the
continuous contact primitive, broadcast over arrays) and the boundary
exit of a ray, which the antipodal wrap rule in ``world`` is built on.

Distances are plain Euclidean between wrapped positions; the wrap never
shortcuts a distance measurement.  A flight that exits the boundary at p
re-enters at -p travelling in the same direction, which preserves the
uniform stationary distribution and isotropy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "uniform_points_in_disc",
    "segment_point_dist_np",
]

_TWO_PI = 2.0 * math.pi


def uniform_points_in_disc(rng: np.random.Generator, radius: float, size: int):
    """Points uniform over the disc of the given radius, centred at 0.

    Returns two (size,) coordinate arrays; all angles are drawn first,
    then all radii.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = rng.uniform(0.0, _TWO_PI, size)
    rho = radius * np.sqrt(rng.uniform(0.0, 1.0, size))
    return rho * np.cos(theta), rho * np.sin(theta)


def segment_point_dist_np(ax, ay, bx, by, qx=0.0, qy=0.0):
    """Vectorised segment-to-point distance (arrays broadcast)."""
    ax = np.asarray(ax, dtype=float)
    ay = np.asarray(ay, dtype=float)
    dx = np.asarray(bx, dtype=float) - ax
    dy = np.asarray(by, dtype=float) - ay
    den = dx * dx + dy * dy
    px = qx - ax
    py = qy - ay
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(den > 0.0, (px * dx + py * dy) / np.where(den > 0, den, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - t * dx, py - t * dy)


def _exit_fraction(px, py, vx, vy, radius):
    """Smallest u >= 0 with |p + u v| = radius, inf where the ray stays inside.

    Arrays broadcast; each p must be inside the closed disc.  Returns the
    outgoing root of the quadratic u^2 |v|^2 + 2 u (p.v) + |p|^2 - R^2 = 0,
    NaN where that overflows.
    """
    a = vx * vx + vy * vy
    b = px * vx + py * vy
    c = px * px + py * py - radius * radius
    disc = b * b - a * c
    inside = (a == 0.0) | (disc <= 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(inside, np.inf, (-b + np.sqrt(disc)) / a)
