"""Exact planar geometry on the wrapped disc, in array form.

Uniform point sampling, the package's one contact rule
(``first_contact_np``: the earliest instant two linearly moving points
come within r, a clamped quadratic, which both the simulator in
``world`` and the no-contact Monte Carlo in ``analytics`` decide contact
by), the area a range ball covers of the disc, and the boundary exit of
a ray, which the antipodal wrap rule in ``world`` is built on.

Distances are plain Euclidean between wrapped positions; the wrap never
shortcuts a distance measurement.  A flight that exits the boundary at p
re-enters at -p travelling in the same direction, which preserves the
uniform stationary distribution and isotropy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "to_disc_polar",
    "uniform_disc_polar",
    "uniform_points_in_disc",
    "first_contact_np",
    "lens_area",
]

_TWO_PI = 2.0 * math.pi


def to_disc_polar(theta: np.ndarray, rho: np.ndarray, radius: float):
    """Points uniform over the disc of the given radius from uniform draws,
    in place, in polar form (theta, rho).

    theta and rho hold draws U uniform on [0, 1), as rng.random gives
    them (the same bits as rng.uniform(0, 1) at a fraction of its cost):
    each angle becomes 2*pi U, uniform on [0, 2*pi), and each radius
    radius * sqrt(U).
    """
    theta *= _TWO_PI
    np.sqrt(rho, out=rho)
    rho *= radius
    return theta, rho


def uniform_disc_polar(rng: np.random.Generator, radius: float, size: int):
    """Points uniform over the disc of the given radius, in polar form.

    Returns two (size,) arrays (theta, rho): all angles are drawn first,
    then all radii, and mapped by to_disc_polar.  The slot loop of
    ``world`` draws block by block into its group's buffers in this order
    and maps them with to_disc_polar too.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = rng.random(size)
    return to_disc_polar(theta, rng.random(size), radius)


def uniform_points_in_disc(rng: np.random.Generator, radius: float, size: int):
    """Points uniform over the disc of the given radius, centred at 0.

    Returns two (size,) coordinate arrays: the draw of uniform_disc_polar
    in Cartesian form.
    """
    theta, rho = uniform_disc_polar(rng, radius, size)
    return rho * np.cos(theta), rho * np.sin(theta)


def first_contact_np(ax, ay, bx, by, qx0, qy0, qx1, qy1, r):
    """Earliest fractions s in [0, 1] at which two moving points are within r.

    Arrays broadcast.  One point moves straight from (ax, ay) to (bx, by)
    and the other from (qx0, qy0) to (qx1, qy1) over the same unit of
    time.  Contact is the earliest root of the clamped quadratic of their
    distance, boundary inclusive.  Returns the fractions, inf where there
    is none.
    """
    ax = ax - qx0
    ay = ay - qy0
    ddx = bx - qx1 - ax
    ddy = by - qy1 - ay
    c = ax * ax + ay * ay - r * r
    # a, b and cross have the broadcast shape: from here on every
    # temporary is this call's own, so the arithmetic runs in place
    a = ddx * ddx + ddy * ddy
    b = ax * ddx + ay * ddy
    cross = ax * ddy - ay * ddx
    # the line's clearance decides the touch: b*b - a*c equals
    # a*r*r - cross**2 but cancels catastrophically near a tangent.
    # Clearance exactly r is an exact tangent touch; contact is inclusive
    ok = b < 0.0
    cross *= cross
    ok &= cross <= a * (r * r)
    root = b * b
    root -= a * c
    np.maximum(root, 0.0, out=root)
    np.sqrt(root, out=root)
    # s = (-b - root) / a, the earlier root, wherever ok holds; the lanes
    # that fail ok may divide 0 by 0 and are masked
    s = np.negative(b, out=b)
    s -= root
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s /= a
    ok &= s <= 1.0
    s = np.where(ok, s, np.inf)
    s[c <= 0.0] = 0.0
    return s


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
