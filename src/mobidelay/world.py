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
  * modest wrap counts: explicit walk over the merged sub-segment grid;
  * enormous wrap counts: positions come from the closed-form period-2
    cycle; candidate times are localised by convex distance functions of
    the slower node's pieces to the faster node's two chords, and only
    the chord-traversal windows inside those candidates are tested.

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

# wrap-count threshold between the explicit union walk and the periodic
# candidate search
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
    disc = b * b - a * c
    if disc < 0.0:
        return None
    # disc == 0 is an exact tangent touch; contact is inclusive
    s = (-b - math.sqrt(disc)) / a
    return s if s <= 1.0 else None


class _SlotPath:
    """Closed-form description of one node's path over one slot.

    Constant velocity (dx, dy); antipodal wraps at t1, t1+dt, ... with the
    path alternating between chord A (anchor ax,ay) and chord B (anchor
    bx,by), both traversed at the same velocity.  A tangent exit (chord
    length ~ 0) freezes the node at its re-entry point; that case has one
    wrap and is handled by the explicit piece list.
    """

    __slots__ = ("x0", "y0", "dx", "dy", "R", "t1", "dt", "n_wraps",
                 "ax", "ay", "bx", "by", "frozen")

    def __init__(self, x0, y0, dx, dy, R):
        self.x0 = x0
        self.y0 = y0
        self.dx = dx
        self.dy = dy
        self.R = R
        self.frozen = False
        ex_end = x0 + dx
        ey_end = y0 + dy
        if ex_end * ex_end + ey_end * ey_end <= R * R:
            # endpoints inside; the straight chord stays inside by convexity
            self.t1 = math.inf
            self.n_wraps = 0
            return
        u = _exit_fraction(x0, y0, dx, dy, R)
        if u is None or u >= 1.0:
            self.t1 = math.inf
            self.n_wraps = 0
            return
        ex = x0 + u * dx
        ey = y0 + u * dy
        pin = R / math.hypot(ex, ey)
        p1x = ex * pin
        p1y = ey * pin
        self.t1 = u
        speed = math.hypot(dx, dy)
        vhx = dx / speed
        vhy = dy / speed
        s = 2.0 * (p1x * vhx + p1y * vhy)
        self.ax = -p1x
        self.ay = -p1y
        if s <= 1e-12 * R:
            self.frozen = True
            self.n_wraps = 1
            self.dt = math.inf
            self.bx = self.ax
            self.by = self.ay
            return
        p2x = -p1x + s * vhx
        p2y = -p1y + s * vhy
        self.bx = -p2x
        self.by = -p2y
        self.dt = s / speed
        self.n_wraps = 1 + int((1.0 - u) / self.dt)

    def pos(self, t: float):
        if self.n_wraps == 0 or t <= self.t1:
            return self.x0 + self.dx * t, self.y0 + self.dy * t
        if self.frozen:
            return self.ax, self.ay
        k = int((t - self.t1) / self.dt)
        ph = t - (self.t1 + k * self.dt)
        if k % 2 == 0:
            return self.ax + self.dx * ph, self.ay + self.dy * ph
        return self.bx + self.dx * ph, self.by + self.dy * ph

    def pieces_in(self, lo: float, hi: float):
        """Linear pieces (ta, tb, px, py, vx, vy) covering [lo, hi].

        Anchor (px, py) is the piece's position at ta' = piece start; the
        position at any t inside is anchor + v*(t - ta_piece).  Yielded
        tuples carry the piece's own start time for that purpose.
        """
        out = []
        if self.n_wraps == 0:
            out.append((max(0.0, lo), min(1.0, hi), 0.0, self.x0, self.y0, self.dx, self.dy))
            return out
        if lo < self.t1:
            out.append((max(0.0, lo), min(self.t1, hi), 0.0, self.x0, self.y0, self.dx, self.dy))
        if hi <= self.t1:
            return out
        if self.frozen:
            out.append((max(lo, self.t1), min(1.0, hi), self.t1, self.ax, self.ay, 0.0, 0.0))
            return out
        m_lo = max(0, int((max(lo, self.t1) - self.t1) / self.dt))
        m_hi = min(self.n_wraps - 1, int((min(hi, 1.0) - self.t1) / self.dt))
        for m in range(m_lo, m_hi + 1):
            ta = self.t1 + m * self.dt
            tb = min(ta + self.dt, 1.0)
            a = max(ta, lo)
            b = min(tb, hi)
            if b <= a:
                continue
            if m % 2 == 0:
                out.append((a, b, ta, self.ax, self.ay, self.dx, self.dy))
            else:
                out.append((a, b, ta, self.bx, self.by, self.dx, self.dy))
        return out

    def pieces(self):
        return self.pieces_in(0.0, 1.0)

    def end_pos(self):
        return self.pos(1.0)


def _walk_pieces(pieces1, pieces2, r: float):
    """Exact earliest contact over merged linear pieces; None if clear."""
    i = 0
    j = 0
    n1 = len(pieces1)
    n2 = len(pieces2)
    while i < n1 and j < n2:
        a1, b1, t01, px1, py1, vx1, vy1 = pieces1[i]
        a2, b2, t02, px2, py2, vx2, vy2 = pieces2[j]
        lo = a1 if a1 > a2 else a2
        hi = b1 if b1 < b2 else b2
        if hi > lo:
            rx0 = (px1 + vx1 * (lo - t01)) - (px2 + vx2 * (lo - t02))
            ry0 = (py1 + vy1 * (lo - t01)) - (py2 + vy2 * (lo - t02))
            rx1 = (px1 + vx1 * (hi - t01)) - (px2 + vx2 * (hi - t02))
            ry1 = (py1 + vy1 * (hi - t01)) - (py2 + vy2 * (hi - t02))
            s = _seg_hit(rx0, ry0, rx1, ry1, r)
            if s is not None:
                return lo + s * (hi - lo)
        if b1 <= b2:
            i += 1
        if b2 <= b1:
            j += 1
    return None


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
    """Earliest contact when the faster node wraps too often to enumerate.

    For t >= fast.t1 the fast node occupies one of its two chords, so any
    contact instant satisfies dist(slow(t), chord) <= r for the active
    chord.  The slow node's pieces fall into at most four spatial classes
    (pre-wrap piece, chord A, chord B, final partial piece); per class and
    per fast chord the candidate times form one phase interval, repeated
    at the class period.  Only fast windows inside candidates are tested.
    """
    budget = _WINDOW_BUDGET
    best = math.inf

    # before the fast node's first wrap it is linear: walk explicitly
    if fast.t1 > 0.0:
        zhit = _walk_pieces(fast.pieces_in(0.0, min(fast.t1, 1.0)),
                            slow.pieces_in(0.0, min(fast.t1, 1.0)), r)
        if zhit is not None:
            return zhit
    if fast.t1 >= 1.0:
        return None

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


def _pair_slot_contact(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r):
    """Exact earliest in-slot contact time for two wrapped paths.

    Returns (t_hit or None, end1x, end1y, end2x, end2y).
    """
    e1x = x1 + d1x
    e1y = y1 + d1y
    e2x = x2 + d2x
    e2y = y2 + d2y
    if (e1x * e1x + e1y * e1y <= R * R) and (e2x * e2x + e2y * e2y <= R * R):
        s = _seg_hit(x1 - x2, y1 - y2, e1x - e2x, e1y - e2y, r)
        return s, e1x, e1y, e2x, e2y
    p1 = _SlotPath(x1, y1, d1x, d1y, R)
    p2 = _SlotPath(x2, y2, d2x, d2y, R)
    if p1.n_wraps + p2.n_wraps <= _CAP_UNION:
        t = _walk_pieces(p1.pieces(), p2.pieces(), r)
    elif p1.n_wraps >= p2.n_wraps:
        t = _periodic_search(p1, p2, r)
    else:
        t = _periodic_search(p2, p1, r)
    ex1, ey1 = p1.end_pos()
    ex2, ey2 = p2.end_pos()
    return t, ex1, ey1, ex2, ey2


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
    bx = rexs - dx1
    by = reys - dy1
    c = ax * ax + ay * ay - r * r
    ddx = bx - ax
    ddy = by - ay
    a = ddx * ddx + ddy * ddy
    b = ax * ddx + ay * ddy
    disc = b * b - a * c
    # disc == 0 is an exact tangent touch; contact is inclusive
    ok = (c > 0.0) & (b < 0.0) & (disc >= 0.0) & (a > 0.0)
    s = np.full(ax.shape, np.inf)
    s[ok] = (-b[ok] - np.sqrt(disc[ok])) / a[ok]
    s[s > 1.0] = np.inf
    s[c <= 0.0] = 0.0
    return s


def _per_trial_min(values, owner, size):
    out = np.full(size, np.inf)
    np.minimum.at(out, owner, values)
    return out


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
            # pairs where either end wraps take the exact contact engine,
            # which also gives the wrapped end positions
            wraps = (ex * ex + ey * ey > R * R) | (fx * fx + fy * fy > R * R)[cpos]
            for i in np.flatnonzero(wraps).tolist():
                j = cpos[i]
                t, ex[i], ey[i], fx[j], fy[j] = _pair_slot_contact(
                    float(cx[i]), float(cy[i]), float(sx[i]), float(sy[i]),
                    float(qx[j]), float(qy[j]), float(sx[nc + j]), float(sy[nc + j]),
                    R, r)
                hits[i] = math.inf if t is None else t
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
