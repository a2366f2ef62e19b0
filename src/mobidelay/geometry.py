"""Exact planar geometry on the wrapped disc, in array form.

Uniform point sampling, the clamped-quadratic segment/point distance (the
continuous contact primitive, broadcast over arrays), the area a range
ball covers of the disc, and the boundary exit of a ray, which the
antipodal wrap rule in ``world`` is built on.

Distances are plain Euclidean between wrapped positions; the wrap never
shortcuts a distance measurement.  A flight that exits the boundary at p
re-enters at -p travelling in the same direction, which preserves the
uniform stationary distribution and isotropy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "uniform_disc_polar",
    "uniform_points_in_disc",
    "segment_point_dist_np",
    "lens_area",
]

_TWO_PI = 2.0 * math.pi


def uniform_disc_polar(rng: np.random.Generator, radius: float, size: int):
    """Points uniform over the disc of the given radius, in polar form.

    Returns two (size,) arrays (theta, rho): all angles, uniform on
    [0, 2*pi), are drawn first, then all radii.  rng.random gives the
    same bits as rng.uniform(0, 2*pi) and rng.uniform(0, 1) at a
    fraction of their cost.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = rng.random(size)
    theta *= _TWO_PI
    rho = rng.random(size)
    np.sqrt(rho, out=rho)
    rho *= radius
    return theta, rho


def uniform_points_in_disc(rng: np.random.Generator, radius: float, size: int):
    """Points uniform over the disc of the given radius, centred at 0.

    Returns two (size,) coordinate arrays: the draw of uniform_disc_polar
    in Cartesian form.
    """
    theta, rho = uniform_disc_polar(rng, radius, size)
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


def _segment(rho, beta):
    """Area of the circular segment of half-angle beta of a radius-rho circle."""
    # rho^2 (2 beta - sin 2 beta) / 2, by its series where that cancels
    x = 2.0 * beta
    x2 = x * x
    series = x * x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (1.0 - x2 / 72.0)))
    return 0.5 * rho * rho * np.where(x < 0.1, series, x - np.sin(x))


def lens_area(d, r: float, radius: float):
    """Area of B(p, r) intersected with the disc of the given radius.

    d = |p| broadcasts and must lie in [0, radius].  Closed form: pi r^2
    where the ball lies in the disc (d + r <= radius), pi radius^2 where
    it covers the disc (r >= radius + d), otherwise the lens, one circular
    segment of each circle cut off by their common chord.  The chord and
    the segments are computed from factors that do not cancel, so the
    area stays accurate relative to itself down to tiny r at the
    boundary, and it never leaves [0, min(pi r^2, pi radius^2)].
    """
    d = np.asarray(d, dtype=float)
    R = radius
    inside = d + r <= R
    cover = r >= R + d
    # d > 0 on the lens branch; the others take a stand-in that divides safely
    dl = np.where(inside | cover, R, d)
    e = R - dl
    # the half chord, and the signed distances to it from each centre
    c = np.sqrt(np.maximum((r + e) * (r - e) * (dl + R - r) * (dl + R + r), 0.0)) / (2.0 * dl)
    h_disc = (dl * dl + R * R - r * r) / (2.0 * dl)
    h_ball = (r * r - e * (dl + R)) / (2.0 * dl)
    lens = _segment(R, np.arctan2(c, h_disc)) + _segment(r, np.arctan2(c, h_ball))
    full = min(math.pi * r * r, math.pi * R * R)
    return np.where(inside, math.pi * r * r,
                    np.where(cover, math.pi * R * R, np.minimum(lens, full)))


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
