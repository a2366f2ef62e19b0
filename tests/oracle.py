"""Independent reference geometry for checking the contact engine.

``mobidelay.world`` describes a wrapped slot in closed form: one pre-wrap
piece, then two chords that alternate with a fixed period.  The oracle
here walks the same motion boundary crossing by boundary crossing
instead, keeping every linear piece, and finds first contact by scanning
the merged relative-motion pieces in time order.  It shares no code with
the package, so agreement between the two is evidence for both.

Also here: ``seg_hit``, the scalar contact rule the vector kernel is
checked against element for element, and the closed-form central angle
of the miss arc, the reference the segment-distance tests check their
arc membership against.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Piece(NamedTuple):
    """Linear motion from (ax, ay) at slot time t0 to (bx, by) at t1."""

    ax: float
    ay: float
    bx: float
    by: float
    t0: float
    t1: float

    def at(self, t: float) -> tuple[float, float]:
        if self.t1 == self.t0:
            return self.ax, self.ay
        w = (t - self.t0) / (self.t1 - self.t0)
        return (self.ax + w * (self.bx - self.ax),
                self.ay + w * (self.by - self.ay))


def _exit_fraction(px, py, vx, vy, radius):
    # smallest u >= 0 with |p + u v| = radius, or None if the ray stays inside
    a = vx * vx + vy * vy
    if a == 0.0:
        return None
    b = px * vx + py * vy
    c = px * px + py * py - radius * radius
    disc = b * b - a * c
    if disc <= 0.0:
        return None
    return (-b + math.sqrt(disc)) / a


def wrap_flight(x: float, y: float, dx: float, dy: float, radius: float,
                max_pieces: int = 1_000_000) -> list[Piece]:
    """Split one slot's motion into pieces under the antipodal wrap rule.

    The node starts at (x, y) and moves by (dx, dy) at constant speed.
    Whenever the path exits the boundary at p it re-enters at -p with the
    same direction.  The pieces partition [0, 1] in slot time (time
    fraction equals distance fraction) and their lengths sum to |(dx, dy)|.
    """
    if math.hypot(x, y) > radius * (1.0 + 1e-12):
        raise ValueError("start must lie inside the disc")
    if dx == 0.0 and dy == 0.0:
        return [Piece(x, y, x, y, 0.0, 1.0)]
    pieces: list[Piece] = []
    px, py, vx, vy = x, y, dx, dy
    t0 = 0.0
    stalls = 0
    while True:
        if len(pieces) >= max_pieces:
            raise RuntimeError("wrap_flight piece cap exceeded")
        u = _exit_fraction(px, py, vx, vy, radius)
        if u is None or u >= 1.0:
            pieces.append(Piece(px, py, px + vx, py + vy, t0, 1.0))
            return pieces
        if u <= 1e-15:
            # on the boundary heading out: teleport without a zero-length piece
            stalls += 1
            if stalls > 3:
                # tangent degenerate (measure zero): absorb the remainder here
                pieces.append(Piece(px, py, px, py, t0, 1.0))
                return pieces
            px, py = -px, -py
            continue
        stalls = 0
        ex = px + u * vx
        ey = py + u * vy
        t1 = t0 + u * (1.0 - t0)
        if t1 >= 1.0:
            # remaining time rounds away; close out at the exit point
            pieces.append(Piece(px, py, ex, ey, t0, 1.0))
            return pieces
        pieces.append(Piece(px, py, ex, ey, t0, t1))
        # antipodal re-entry, re-pinned to the circle against fp drift
        nrm = math.hypot(ex, ey)
        px = -ex * (radius / nrm)
        py = -ey * (radius / nrm)
        vx *= 1.0 - u
        vy *= 1.0 - u
        t0 = t1


def relative_pieces(pieces_a: list[Piece], pieces_b: list[Piece]) -> list[Piece]:
    """Motion of a relative to b over the merged time grid of both paths."""
    out = []
    i = j = 0
    while i < len(pieces_a) and j < len(pieces_b):
        a, b = pieces_a[i], pieces_b[j]
        lo = max(a.t0, b.t0)
        hi = min(a.t1, b.t1)
        if hi > lo:
            (ax0, ay0), (bx0, by0) = a.at(lo), b.at(lo)
            (ax1, ay1), (bx1, by1) = a.at(hi), b.at(hi)
            out.append(Piece(ax0 - bx0, ay0 - by0, ax1 - bx1, ay1 - by1, lo, hi))
        if a.t1 <= b.t1:
            i += 1
        if b.t1 <= a.t1:
            j += 1
    return out


def _earliest_within(ax, ay, bx, by, r):
    # earliest s in [0, 1] with |(1-s) a + s b| <= r: test the closest
    # point first, then take the entering root of the distance quadratic
    if math.hypot(ax, ay) <= r:
        return 0.0
    dx = bx - ax
    dy = by - ay
    a = dx * dx + dy * dy
    if a == 0.0:
        return None
    foot = min(max(-(ax * dx + ay * dy) / a, 0.0), 1.0)
    if math.hypot(ax + foot * dx, ay + foot * dy) > r:
        return None
    b = ax * dx + ay * dy
    c = ax * ax + ay * ay - r * r
    return (-b - math.sqrt(max(b * b - a * c, 0.0))) / a


def seg_hit(ax: float, ay: float, bx: float, by: float, r: float) -> float | None:
    """Earliest s in [0, 1] with |(1-s)(ax, ay) + s(bx, by)| <= r, else None.

    The scalar form of the engine's contact rule, boundary inclusive: the
    line's clearance decides a touch, since b*b - a*c, which equals
    a*r*r - cross**2, cancels catastrophically near a tangent.
    """
    c = ax * ax + ay * ay - r * r
    if c <= 0.0:
        return 0.0
    dx = bx - ax
    dy = by - ay
    a = dx * dx + dy * dy
    if a == 0.0:
        return None
    b = ax * dx + ay * dy
    if b >= 0.0:
        return None
    cross = ax * dy - ay * dx
    if cross * cross > a * (r * r):
        return None
    s = (-b - math.sqrt(max(b * b - a * c, 0.0))) / a
    return s if s <= 1.0 else None


def first_contact(rel: list[Piece], r: float) -> float | None:
    """Earliest slot time at which relative motion comes within r of 0."""
    for p in rel:
        s = _earliest_within(p.ax, p.ay, p.bx, p.by, r)
        if s is not None:
            return p.t0 + s * (p.t1 - p.t0)
    return None


def central_angle_phi(x_mag: float, r: float, n: int) -> float:
    """Central angle of the miss arc: 2*pi - 2*asin(r/(2 sqrt(n))) - 2*asin(r/x_mag).

    For an endpoint at distance x_mag from the obstructing disc (radius r)
    and a start point at distance 2*sqrt(n), this is the angular measure of
    endpoint directions whose connecting segment misses the disc.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    two_sqrt_n = 2.0 * math.sqrt(n)
    if x_mag <= r:
        raise ValueError("require x_mag > r")
    if x_mag > two_sqrt_n * (1.0 + 1e-12):
        raise ValueError("require x_mag <= 2*sqrt(n)")
    if r >= two_sqrt_n:
        raise ValueError("require r < 2*sqrt(n)")
    return 2.0 * math.pi - 2.0 * math.asin(r / two_sqrt_n) - 2.0 * math.asin(r / x_mag)
