"""Pair meeting-process and relay-scheme delay simulation.

Pair meeting and relay delay are one process: the first instant one of a
set of carriers comes within r of the destination.  Relay delay places n
nodes and carries from every node within r of the source; pair meeting
places two, so the source is the only carrier.  One block engine runs
both, advancing all live trials of a block together slot by slot.

One slot of motion is piecewise linear: antipodal wraps split a node's
path into sub-segments, and within any time window where both nodes move
linearly the relative motion is linear too, so the continuous contact
event (distance dipping to r at any instant, boundary inclusive) reduces
to a clamped quadratic per window.

Flights with heavy-tailed lengths can wrap the disc astronomically many
times in one slot.  After the first boundary exit the antipodal rule
makes the path perfectly periodic with period two: it alternates between
two fixed chords of equal length, traversed with the node's constant
velocity.  The contact engine exploits that structure, so slots are exact
at any flight length:

  * no wrap on either side: one relative segment, tested for every such
    carrier/destination pair of the block in one vector pass;
  * modest wrap counts (at most _CAP_UNION between the pair's two paths):
    the union walk, one vector pass over the merged sub-segment grids of
    all such pairs of the slot, with every piece taken from the
    closed-form period-2 cycle;
  * enormous wrap counts: the union walk up to the faster node's first
    wrap; past it, candidate times are localised by convex distance
    functions of the slower node's pieces to the faster node's two
    chords, and only the chord-traversal windows inside those candidates
    are tested.

Randomness discipline (STREAM_VERSION 2): the batch runners
pair_meeting_times and scheme_delays shard trials into fixed 1024-trial
blocks, each with a stream derived from (master_seed, salt, block index),
so results are independent of the worker count.  A block consumes its
stream in this order: first the placements of all its trials, m nodes
per trial in trial order, drawn in row chunks of at most _PLACE_POINTS
points (each chunk all angles, then all radii); then, slot by slot, one
draw for every node of the still-live trials, carriers first and then
destinations, each in trial order: a uniform point per node under
teleport, a flight per node (all angles, then all lengths) under
heavy-flight.  Version 1 consumed the stream one trial at a time.
"""

from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .flight import FlightLaw, sample_flight_steps
from .geometry import _exit_fraction, uniform_points_in_disc

__all__ = [
    "MODEL_LEVY",
    "MODEL_IID",
    "DEFAULT_SEED",
    "STREAM_VERSION",
    "SALT_MEET",
    "SALT_DELAY",
    "SALT_GOF",
    "SALT_MC",
    "ModelConfig",
    "trial_stream",
    "pair_meeting_times",
    "scheme_delays",
]

MODEL_LEVY = "levy"
MODEL_IID = "iid"

# default horizons: relocation mixes fast; heavy-tailed pairs need longer
DEFAULT_HORIZON_IID = 1_000
DEFAULT_HORIZON_LEVY = 10_000

DEFAULT_SEED = 0x5EED_CAFE

# how the block streams are consumed; bumped whenever that order changes
STREAM_VERSION = 2

# stream salts (one namespace per purpose)
SALT_MEET = 11
SALT_DELAY = 12
SALT_GOF = 13
SALT_MC = 14

# wrap-count threshold between the union walk and the periodic candidate
# search
_CAP_UNION = 2048
# hard cap on exact window tests per slot in the periodic search
_WINDOW_BUDGET = 5_000_000

_BLOCK = 1024
# cap on node placements drawn at once, which bounds a block's memory at
# large n
_PLACE_POINTS = 1 << 14


@dataclass(frozen=True)
class ModelConfig:
    """One network instance.

    Exactly one of r/beta must be given; beta in [0, 1/4] sets r = n**beta.
    The heavy-tailed model requires a FlightLaw.
    """

    n: int
    r: float | None = None
    beta: float | None = None
    model: str = MODEL_IID
    law: FlightLaw | None = None
    horizon_slots: int | None = None
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.model not in (MODEL_LEVY, MODEL_IID):
            raise ValueError(f"unknown model {self.model!r}")
        if (self.r is None) == (self.beta is None):
            raise ValueError("give exactly one of r or beta")
        if self.beta is not None:
            if not (0.0 <= self.beta <= 0.25):
                raise ValueError("beta must be in [0, 0.25]")
            object.__setattr__(self, "r", float(self.n) ** self.beta)
        # 2*sqrt(n) is the disc diameter, the largest meaningful range
        if not (0.0 < self.r <= 2.0 * math.sqrt(self.n)):
            raise ValueError("require 0 < r <= 2*sqrt(n)")
        if self.model == MODEL_LEVY and self.law is None:
            raise ValueError("heavy-tailed model requires a FlightLaw")
        if self.horizon_slots is None:
            object.__setattr__(
                self, "horizon_slots",
                DEFAULT_HORIZON_LEVY if self.model == MODEL_LEVY else DEFAULT_HORIZON_IID)
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")

    @property
    def radius(self) -> float:
        return math.sqrt(self.n)


def trial_stream(master_seed: int, salt: int, index: int) -> np.random.Generator:
    """Deterministic stream for one unit of work; independent across indices."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((int(master_seed), int(salt), int(index)))))


# ---------------------------------------------------------------------------
# slot paths and the exact contact engine


def _seg_hit(ax: float, ay: float, bx: float, by: float, r: float):
    """Earliest s in [0,1] with |(1-s)(ax,ay) + s(bx,by)| <= r, else None."""
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
    # the line's clearance decides the touch: b*b - a*c equals
    # a*r*r - cross**2, but cancels catastrophically near a tangent.
    # Clearance exactly r is an exact tangent touch; contact is inclusive
    cross = ax * dy - ay * dx
    if cross * cross > a * (r * r):
        return None
    s = (-b - math.sqrt(max(b * b - a * c, 0.0))) / a
    return s if s <= 1.0 else None


# math.hypot is correctly rounded and np.hypot is not; wrapped positions
# are defined by the former
_hypot = np.frompyfunc(math.hypot, 2, 1)


# Closed-form wrap geometry of slot paths, one entry per path.  A path
# that leaves the disc first exits at slot time t1.  From then on the
# antipodal rule makes it alternate, with period dt, between chord A (from
# anchor ax, ay) and chord B (from bx, by), both traversed at the path's
# own velocity: chord m = 0 .. m_last starts at t1 + m dt, on A for even m
# and on B for odd m.  A tangent exit (chord length ~ 0) freezes the node
# at A from t1 on (dt = inf, m_last = 0).  A path that stays in the disc
# has t1 = dt = inf and m_last = -1.  m_last is a float holding an integer.
_Wraps = namedtuple("_Wraps", "t1 dt m_last ax ay bx by frozen")


def _wrap_geometry(x0, y0, dx, dy, R) -> _Wraps:
    """_Wraps of the paths that start at (x0, y0) and move by (dx, dy)."""
    u = _exit_fraction(x0, y0, dx, dy, R)
    ex_end = x0 + dx
    ey_end = y0 + dy
    # endpoints inside: the straight chord stays inside by convexity
    wraps = (ex_end * ex_end + ey_end * ey_end > R * R) & ~(u >= 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ex = x0 + u * dx
        ey = y0 + u * dy
        pin = R / _hypot(ex, ey).astype(float)
        p1x = ex * pin
        p1y = ey * pin
        speed = _hypot(dx, dy).astype(float)
        vhx = dx / speed
        vhy = dy / speed
        s = 2.0 * (p1x * vhx + p1y * vhy)
        frozen = wraps & (s <= 1e-12 * R)
        moving = wraps & ~frozen
        dt = np.where(moving, s / speed, np.inf)
        m_last = np.where(moving, np.trunc((1.0 - u) / dt), np.where(frozen, 0.0, -1.0))
    if not np.isfinite(m_last).all():
        raise OverflowError("a flight's wrap count overflows a float")
    return _Wraps(np.where(wraps, u, np.inf), dt, m_last, -p1x, -p1y,
                  np.where(moving, -(-p1x + s * vhx), -p1x),
                  np.where(moving, -(-p1y + s * vhy), -p1y), frozen)


def _piece(x0, y0, dx, dy, g, m):
    """Piece m of each path as (t0, px, py, vx, vy).

    On the piece the position at slot time t is (px, py) + (vx, vy)(t - t0).
    Piece -1 is the motion before the first wrap; piece m >= 0 is chord m
    of _Wraps, or the stand at A of a frozen path.
    """
    pre = m < 0
    still = g.frozen & ~pre
    odd = m % 2 == 1
    with np.errstate(invalid="ignore"):
        t0 = np.where(pre, 0.0, g.t1 + m * np.where(g.frozen, 0.0, g.dt))
    return (t0, np.where(pre, x0, np.where(odd, g.bx, g.ax)),
            np.where(pre, y0, np.where(odd, g.by, g.ay)),
            np.where(still, 0.0, dx), np.where(still, 0.0, dy))


class _SlotPath:
    """One path's _Wraps as Python scalars, for the periodic search."""

    __slots__ = ("x0", "y0", "dx", "dy", "t1", "dt", "n_wraps",
                 "ax", "ay", "bx", "by", "frozen", "_arrays")

    def __init__(self, x0, y0, dx, dy, R):
        self.x0, self.y0, self.dx, self.dy = x0, y0, dx, dy
        arrays = [np.array([v], dtype=float) for v in (x0, y0, dx, dy)]
        g = _wrap_geometry(*arrays, R)
        self._arrays = arrays, g
        self.t1, self.dt, self.ax, self.ay, self.bx, self.by = (
            float(v[0]) for v in (g.t1, g.dt, g.ax, g.ay, g.bx, g.by))
        self.n_wraps = 1 + int(g.m_last[0])
        self.frozen = bool(g.frozen[0])

    def pos(self, t: float):
        m = -1 if t <= self.t1 else int((t - self.t1) / self.dt)
        arrays, g = self._arrays
        t0, px, py, vx, vy = (float(v[0]) for v in _piece(*arrays, g, np.array([m])))
        return px + vx * (t - t0), py + vy * (t - t0)

    def end_pos(self):
        return self.pos(1.0)


def _convex_sublevel(px, py, vx, vy, dur, sx0, sy0, sx1, sy1, r):
    """{phi in [0, dur] : dist(point(phi), segment) <= r} for a linear point.

    Distance from an affinely moving point to a fixed segment is convex in
    phi, so the sublevel set is one interval; returns (phi_lo, phi_hi) or
    None.  Crossings are bracketed by bisection to ~1e-13*dur; the caller
    pads its window enumeration by one window either side.
    """

    def g(ph):
        qx = px + vx * ph
        qy = py + vy * ph
        dx = sx1 - sx0
        dy = sy1 - sy0
        den = dx * dx + dy * dy
        ex = qx - sx0
        ey = qy - sy0
        if den > 0.0:
            t = (ex * dx + ey * dy) / den
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            ex -= t * dx
            ey -= t * dy
        return math.hypot(ex, ey)

    lo_v = g(0.0)
    hi_v = g(dur)
    # ternary search for the convex minimum
    a, b = 0.0, dur
    for _ in range(80):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if g(m1) <= g(m2):
            b = m2
        else:
            a = m1
    pm = 0.5 * (a + b)
    if g(pm) > r:
        return None

    def cross(lo, hi, inside_at_hi):
        # one crossing of r in [lo, hi]; keep the bracket around it
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if (g(mid) <= r) == inside_at_hi:
                hi = mid
            else:
                lo = mid
        return lo if inside_at_hi else hi

    # enter branch: outside at 0, inside at pm; exit branch: the reverse
    phi_lo = 0.0 if lo_v <= r else cross(0.0, pm, True)
    phi_hi = dur if hi_v <= r else cross(pm, dur, False)
    return phi_lo, phi_hi


def _periodic_search(fast: _SlotPath, slow: _SlotPath, r: float):
    """Earliest contact from fast.t1 on, for a node that wraps too often
    to enumerate; the union walk covers the motion before fast.t1.

    For t >= fast.t1 the fast node occupies one of its two chords, so any
    contact instant satisfies dist(slow(t), chord) <= r for the active
    chord.  The slow node's pieces fall into at most four spatial classes
    (pre-wrap piece, chord A, chord B, final partial piece); per class and
    per fast chord the candidate times form one phase interval, repeated
    at the class period.  Only fast windows inside candidates are tested.
    """
    budget = _WINDOW_BUDGET
    best = math.inf
    dtf = fast.dt

    # slow-node classes: (piece duration, anchor, velocity, start0, step, count)
    classes = []
    if slow.n_wraps == 0:
        classes.append((1.0, slow.x0, slow.y0, slow.dx, slow.dy, 0.0, 1.0, 1))
    else:
        classes.append((slow.t1, slow.x0, slow.y0, slow.dx, slow.dy, 0.0, 1.0, 1))
        if slow.frozen:
            classes.append((1.0 - slow.t1, slow.ax, slow.ay, 0.0, 0.0, slow.t1, 1.0, 1))
        else:
            dts = slow.dt
            m_full = int((1.0 - slow.t1) / dts)
            n_a = (m_full + 1) // 2
            n_b = m_full // 2
            if n_a:
                classes.append((dts, slow.ax, slow.ay, slow.dx, slow.dy,
                                slow.t1, 2.0 * dts, n_a))
            if n_b:
                classes.append((dts, slow.bx, slow.by, slow.dx, slow.dy,
                                slow.t1 + dts, 2.0 * dts, n_b))
            t_part = slow.t1 + m_full * dts
            if t_part < 1.0:
                anch = (slow.ax, slow.ay) if m_full % 2 == 0 else (slow.bx, slow.by)
                classes.append((1.0 - t_part, anch[0], anch[1], slow.dx, slow.dy,
                                t_part, 1.0, 1))

    last_fast_piece = fast.n_wraps - 1
    for chord_par, (cx, cy) in ((0, (fast.ax, fast.ay)), (1, (fast.bx, fast.by))):
        sx1 = cx + fast.dx * dtf
        sy1 = cy + fast.dy * dtf
        for dur, px, py, vx, vy, start0, step, count in classes:
            if dur <= 0.0:
                continue
            sub = _convex_sublevel(px, py, vx, vy, dur, cx, cy, sx1, sy1, r)
            if sub is None:
                continue
            phi_lo, phi_hi = sub
            hit_t = None
            for k in range(count):
                o = start0 + k * step
                w_lo = max(o + phi_lo, fast.t1, o)
                w_hi = min(o + phi_hi, 1.0, o + dur)
                if w_hi < w_lo:
                    continue
                m0 = int((w_lo - fast.t1) / dtf) - 2
                m1 = int((w_hi - fast.t1) / dtf) + 2
                if m0 % 2 != chord_par:
                    m0 += 1
                for m in range(max(m0, chord_par), min(m1, last_fast_piece) + 1, 2):
                    wa = fast.t1 + m * dtf
                    wb = min(wa + dtf, 1.0)
                    # charge every enumerated window, collapsed ones too, so
                    # a flight that wraps ~1e18 times fails in bounded time
                    budget -= 1
                    if budget < 0:
                        raise RuntimeError("slot contact search budget exceeded")
                    a = max(wa, w_lo, o)
                    b = min(wb, w_hi, o + dur)
                    if b <= a:
                        continue
                    fx0 = cx + fast.dx * (a - wa)
                    fy0 = cy + fast.dy * (a - wa)
                    fx1 = cx + fast.dx * (b - wa)
                    fy1 = cy + fast.dy * (b - wa)
                    yx0 = px + vx * (a - o)
                    yy0 = py + vy * (a - o)
                    yx1 = px + vx * (b - o)
                    yy1 = py + vy * (b - o)
                    s = _seg_hit(fx0 - yx0, fy0 - yy0, fx1 - yx1, fy1 - yy1, r)
                    if s is not None:
                        hit_t = a + s * (b - a)
                        break
                if hit_t is not None:
                    break
            if hit_t is not None and hit_t < best:
                best = hit_t
    return None if math.isinf(best) else best


# ---------------------------------------------------------------------------
# the lockstep block engine


def _relay_slot_hits_np(rxs, rys, rexs, reys, dx0, dy0, dx1, dy1, r):
    """Earliest in-slot hit fractions of carriers against destinations.

    Carrier i moves straight from (rxs[i], rys[i]) to (rexs[i], reys[i])
    and its destination from (dx0[i], dy0[i]) to (dx1[i], dy1[i]); all
    paths must be wrap-free.  The arithmetic is _seg_hit's element for
    element, boundary inclusive.  Returns the hit fractions, inf where
    there is none.
    """
    ax = rxs - dx0
    ay = rys - dy0
    ddx = rexs - dx1 - ax
    ddy = reys - dy1 - ay
    c = ax * ax + ay * ay - r * r
    a = ddx * ddx + ddy * ddy
    b = ax * ddx + ay * ddy
    cross = ax * ddy - ay * ddx
    # touch decided by the line's clearance, as in _seg_hit
    s = np.divide(-b - np.sqrt(np.maximum(b * b - a * c, 0.0)), a, out=np.full(a.shape, np.inf),
                  where=(b < 0.0) & (cross * cross <= a * (r * r)))
    s[s > 1.0] = np.inf
    s[c <= 0.0] = 0.0
    return s


def _per_trial_min(values, owner, size):
    out = np.full(size, np.inf)
    np.minimum.at(out, owner, values)
    return out


# pieces the union walk lays out at once, which bounds its memory however
# many pairs wrap; a pair with more pieces is walked alone
_UNION_PIECES = 1 << 15


def _union_walk(x0, y0, dx, dy, g, stop, r):
    """Earliest contact of each pair over the merged pieces of its paths.

    Pair k is paths k and K + k of the path arrays and _Wraps g, with
    K = stop.size; only its motion in [0, stop[k] <= 1] is walked.  The
    windows are the steps of a merge of the pair's two piece lists by end
    time; in each, both paths move linearly, so contact is the clamped
    quadratic of _relay_slot_hits_np, and the pair's contact is the hit of
    its first window that has one.  Returns the times, inf where none.
    """
    K = stop.size
    with np.errstate(invalid="ignore"):
        # the last chord that starts before stop
        last = np.where(g.m_last < 0.0, -1.0, np.minimum(
            g.m_last, np.trunc((np.tile(stop, 2) - g.t1) / g.dt)))
    size = last[:K] + last[K:] + 4.0
    if np.max(size, initial=0.0) > _WINDOW_BUDGET:
        raise RuntimeError("slot contact search budget exceeded")
    count = (last + 2.0).astype(np.int64)
    size = size.astype(np.int64)
    end = np.cumsum(size)
    t = np.full(K, np.inf)
    lo = 0
    while lo < K:
        hi = max(lo + 1, int(np.searchsorted(end, end[lo] - size[lo] + _UNION_PIECES, "right")))
        pairs = np.arange(lo, hi)
        t[lo:hi] = _union_chunk(x0, y0, dx, dy, g, count,
                                np.stack((pairs, pairs + K), axis=1).ravel(), stop[lo:hi], r)
        lo = hi
    return t


def _union_chunk(x0, y0, dx, dy, g, count, paths, stop, r):
    # paths lists the chunk's pairs pair-major: (first, second) per pair
    k = stop.size
    c = count[paths]
    own = np.repeat(paths, c)
    m = np.arange(own.size) - np.repeat(np.cumsum(c) - c, c) - 1
    side = np.repeat(np.arange(2 * k) % 2, c)
    pair = np.repeat(np.arange(k), c[0::2] + c[1::2])
    go = _Wraps(*(f[own] for f in g))
    t0, px, py, vx, vy = _piece(x0[own], y0[own], dx[own], dy[own], go, m)
    a = np.maximum(t0, 0.0)
    b = np.minimum(np.where(m < 0, go.t1, t0 + go.dt), stop[pair])
    keep = b > a
    side, pair, a, b, t0, px, py, vx, vy = (
        v[keep] for v in (side, pair, a, b, t0, px, py, vx, vy))
    # kept pieces stay pair-major, first path before second, in time order
    n1 = np.bincount(pair[side == 0], minlength=k)
    n2 = np.bincount(pair[side == 1], minlength=k)
    start1 = np.cumsum(n1 + n2) - (n1 + n2)
    # merge step q of a pair ends at its q-th piece end, over the pieces
    # of both paths current there; after a tie (the slot end, say) one
    # path has no piece left or the window is empty
    order = np.lexsort((side, b, pair))
    sp = pair[order]
    first = side[order] == 0
    before1 = np.cumsum(first) - first - (np.cumsum(n1) - n1)[sp]
    before2 = np.cumsum(~first) - ~first - (np.cumsum(n2) - n2)[sp]
    step = (before1 < n1[sp]) & (before2 < n2[sp])
    sp = sp[step]
    p1 = (start1[sp] + before1[step])
    p2 = (start1[sp] + n1[sp] + before2[step])
    lo = np.maximum(a[p1], a[p2])
    hi = np.minimum(b[p1], b[p2])
    open_ = hi > lo
    sp, p1, p2, lo, hi = sp[open_], p1[open_], p2[open_], lo[open_], hi[open_]

    def at(p, t):
        return px[p] + vx[p] * (t - t0[p]), py[p] + vy[p] * (t - t0[p])

    s = _relay_slot_hits_np(*at(p1, lo), *at(p1, hi), *at(p2, lo), *at(p2, hi), r)
    hit = np.isfinite(s)
    sp = sp[hit]
    th = lo[hit] + s[hit] * (hi[hit] - lo[hit])
    # steps are in time order within a pair: keep each pair's first hit
    first_hit = np.diff(sp, prepend=-1) != 0
    out = np.full(k, np.inf)
    out[sp[first_hit]] = th[first_hit]
    return out


def _pair_slot_contacts(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r):
    """Exact earliest in-slot contact of each pair of paths.

    Path 1 of pair k starts at (x1[k], y1[k]) and moves by (d1x[k],
    d1y[k]), path 2 likewise.  Pairs whose paths wrap at most _CAP_UNION
    times between them are walked whole by _union_walk; the others are
    walked up to the first wrap of the path that wraps more, and past it
    take _periodic_search.  Returns (t, e1x, e1y, e2x, e2y): the contact
    times, inf where there is none, and the end positions of the paths.
    """
    K = x1.size
    x0, y0, dx, dy = (np.concatenate(v) for v in ((x1, x2), (y1, y2), (d1x, d2x), (d1y, d2y)))
    g = _wrap_geometry(x0, y0, dx, dy, R)
    n1 = g.m_last[:K] + 1.0
    n2 = g.m_last[K:] + 1.0
    first_fast = n1 >= n2
    periodic = n1 + n2 > _CAP_UNION
    stop = np.where(periodic, np.where(first_fast, g.t1[:K], g.t1[K:]), 1.0)
    t = _union_walk(x0, y0, dx, dy, g, stop, r)
    for k in np.flatnonzero(periodic & np.isinf(t)).tolist():
        p1 = _SlotPath(float(x1[k]), float(y1[k]), float(d1x[k]), float(d1y[k]), R)
        p2 = _SlotPath(float(x2[k]), float(y2[k]), float(d2x[k]), float(d2y[k]), R)
        hit = _periodic_search(*((p1, p2) if first_fast[k] else (p2, p1)), r)
        if hit is not None:
            t[k] = hit
    t0, px, py, vx, vy = _piece(x0, y0, dx, dy, g, g.m_last)
    ex = px + vx * (1.0 - t0)
    ey = py + vy * (1.0 - t0)
    return t, ex[:K], ey[:K], ex[K:], ey[K:]


def _contact_block(args):
    """One block of first-contact trials, all live trials in lockstep.

    Each trial places m nodes: node 0 is the source, node 1 the
    destination, and the carriers are the nodes within r of the source
    other than the destination (for m = 2, the source alone).  Returns
    (l0, neighbor_count, t_meet, t_slotted) arrays: the source-destination
    distance, the nodes within r of the source (itself included), the
    first instant a carrier is within r of the destination, and the first
    slot end at which one is.  Both times are 0 when the destination
    starts in range and inf when censored.  Otherwise t_slotted is only
    tracked when slotted is set, and then a trial runs until both fire.
    """
    master_seed, salt, block, count, cfg, m, slotted = args
    rng = trial_stream(master_seed, salt, block)
    R = cfg.radius
    r = cfg.r
    cols = l0, ncount, qx, qy, cx, cy, cown = [], [], [], [], [], [], []
    rows = max(1, _PLACE_POINTS // m)
    for lo in range(0, count, rows):
        xs, ys = uniform_points_in_disc(rng, R, min(rows, count - lo) * m)
        xs = xs.reshape(-1, m)
        ys = ys.reshape(-1, m)
        dist = np.hypot(xs - xs[:, :1], ys - ys[:, :1])
        near = dist <= r
        # copies, so the chunk's (rows, m) arrays are freed
        l0.append(dist[:, 1].copy())
        ncount.append(near.sum(axis=1))
        qx.append(xs[:, 1].copy())
        qy.append(ys[:, 1].copy())
        near[near[:, 1]] = False  # destination in range: delivered at 0
        near[:, 1] = False
        i, j = np.nonzero(near)
        cown.append(lo + i)
        cx.append(xs[i, j])
        cy.append(ys[i, j])
    l0, ncount, qx, qy, cx, cy, cown = map(np.concatenate, cols)
    live = np.flatnonzero(l0 > r)
    qx = qx[live]
    qy = qy[live]
    # each carrier's owner as a position in live; carriers stay in trial order
    cpos = np.searchsorted(live, cown)
    t_meet = np.where(l0 > r, np.inf, 0.0)
    t_slot = t_meet.copy()
    levy = cfg.model == MODEL_LEVY
    for k in range(1, cfg.horizon_slots + 1):
        if live.size == 0:
            break
        nc = cx.size
        # draw order: one batch for [carriers..., destinations...]
        if levy:
            sx, sy = sample_flight_steps(rng, cfg.law, nc + live.size)
            ex = cx + sx[:nc]
            ey = cy + sy[:nc]
            fx = qx + sx[nc:]
            fy = qy + sy[nc:]
        else:
            px, py = uniform_points_in_disc(rng, R, nc + live.size)
            ex, fx = px[:nc], px[nc:]
            ey, fy = py[:nc], py[nc:]
        hits = _relay_slot_hits_np(cx, cy, ex, ey, qx[cpos], qy[cpos],
                                   fx[cpos], fy[cpos], r)
        if levy:
            # pairs where either end leaves the disc take the wrap-aware
            # engine, which also gives the wrapped end positions
            i = np.flatnonzero((ex * ex + ey * ey > R * R) | (fx * fx + fy * fy > R * R)[cpos])
            j = cpos[i]
            hits[i], ex[i], ey[i], fx[j], fy[j] = _pair_slot_contacts(
                cx[i], cy[i], sx[i], sy[i], qx[j], qy[j], sx[nc + j], sy[nc + j], R, r)
        tm = t_meet[live]
        tm = np.where(np.isinf(tm), (k - 1) + _per_trial_min(hits, cpos, live.size), tm)
        t_meet[live] = tm
        done = np.isfinite(tm)
        if slotted:
            ts = t_slot[live]
            gap = _per_trial_min(np.hypot(ex - fx[cpos], ey - fy[cpos]), cpos, live.size)
            ts[np.isinf(ts) & (gap <= r)] = k
            t_slot[live] = ts
            done &= np.isfinite(ts)
        keep = ~done
        kept = keep[cpos]
        live = live[keep]
        qx = fx[keep]
        qy = fy[keep]
        cx = ex[kept]
        cy = ey[kept]
        cpos = (np.cumsum(keep) - 1)[cpos[kept]]
    return l0, ncount, t_meet, t_slot


def _run_sharded(cfg, trials, salt, workers, m, slotted):
    """_contact_block over fixed blocks of trials, columns concatenated."""
    if trials < 1:
        raise ValueError("trials must be positive")
    blocks = [(cfg.master_seed, salt, b, min(_BLOCK, trials - b * _BLOCK), cfg, m, slotted)
              for b in range((trials + _BLOCK - 1) // _BLOCK)]
    workers = min(workers, len(blocks))
    if workers <= 1:
        parts = [_contact_block(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_contact_block, blocks))
    return [np.concatenate(col) for col in zip(*parts)]


def pair_meeting_times(cfg: ModelConfig, trials: int, salt: int = SALT_MEET,
                       workers: int = 1, slotted: bool = False):
    """Batch pair-meeting trials: the one-carrier case of scheme_delays.

    Returns (l0, t_meet, t_slotted) float arrays; censored entries are inf.
    Trials are sharded into fixed blocks with per-block streams, so the
    result does not depend on the worker count.
    """
    l0, _, tm, ts = _run_sharded(cfg, trials, salt, workers, 2, slotted)
    return l0, tm, ts


def scheme_delays(cfg: ModelConfig, trials: int, salt: int = SALT_DELAY,
                  workers: int = 1):
    """Batch relay-scheme delay trials; returns (neighbor_counts, dest0, delays)."""
    if cfg.n < 2:
        raise ValueError("need n >= 2")
    l0, nc, dl, _ = _run_sharded(cfg, trials, salt, workers, cfg.n, False)
    return nc, l0 <= cfg.r, dl
