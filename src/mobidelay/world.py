"""Pair meeting-process and relay-scheme delay simulation.

Pair meeting and relay delay are one process: the first instant one of a
set of carriers comes within r of the destination.  Relay delay carries
from every node within r of the source; pair meeting places two nodes,
so the source is the only carrier.  Only the carriers and the destination
ever move, so relay delay places only them: the source's neighbours
other than the destination number Binomial(n - 2, q), with q the share
of the disc within r of the source, and lie uniformly in that lens, which
is the law of placing all n nodes.  One lockstep engine runs both,
advancing all live trials of a group of blocks together slot by slot.

One slot of motion is piecewise linear: antipodal wraps split a node's
path into sub-segments, and within any time window where both nodes move
linearly the relative motion is linear too, so the continuous contact
event (distance dipping to r at any instant, boundary inclusive) reduces
to one clamped quadratic per window: ``geometry.first_contact_np``, the
package's one contact rule, which every window below is tested with.

Flights with heavy-tailed lengths can wrap the disc astronomically many
times in one slot.  After the first boundary exit the antipodal rule
makes the path perfectly periodic with period two: it alternates between
two fixed chords of equal length, traversed with the node's constant
velocity.  The contact engine exploits that structure, so slots are exact
at any flight length:

  * no wrap on either side: one relative segment, tested for every such
    carrier/destination pair of the group in one vector pass;
  * a wrap on either side, each path starting at most nine chords: the
    window pass.  Where a piece of one path overlaps a piece of the other
    in time, the relative motion is linear: a window.  All windows of all
    such pairs of the slot are tested in one vector pass;
  * a path starting more chords: the capsule search, one vector pass
    over all such pairs of the slot.  Before the first wrap of the
    path that wraps more, the fast path, its node is on its pre-wrap
    piece, and from then on on one of its two chords; the other node is
    on one of at most four pieces, each repeated.  A piece is within r of
    a segment the other node sweeps over one closed-form phase interval,
    where its line crosses the segment's capsule, and only the windows of
    that segment inside those intervals are tested, lazily, up to the
    first hit.

Both wrapped passes hand their windows to one kernel, _window_times,
which builds each window from its two pieces and tests it; so on a pair
the window pass takes, the two find the same times.

Randomness discipline (STREAM_VERSION 3): the batch runners
pair_meeting_times and scheme_delays shard trials into fixed 1024-trial
blocks, each with a stream derived from (master_seed, salt, block index),
so results are independent of the worker count.  A block consumes its
stream in this order: first the sources and destinations of all its
trials, one draw of two points per trial in trial order (all angles,
then all radii); then, for relay runs with n > 2 only, the neighbour
count of every trial, one binomial draw in trial order; then the lens
carriers of the trials whose destination starts out of range, in
rejection rounds from the range ball around the source, each round one
point draw for the carriers still unplaced, in trial order; then, slot
by slot, one draw for every node of the block's still-live trials,
carriers first and then destinations, each in trial order: a uniform
point per node under teleport, a Pareto flight of the config's alpha
per node under heavy-flight, both in polar form (all angles, then all
radii or lengths).  A trial is live until the slot in which a carrier
first comes within r of its destination, or the horizon; it draws
nothing after that slot.  Pair meeting draws no neighbour counts or lens
carriers, so its streams are those of version 2, which placed all n
nodes of a relay trial instead; version 1 consumed the stream one trial
at a time.

A task of the runner advances a group of consecutive blocks in one slot
loop.  Each block still draws from its own stream as above, straight
into its own runs of the group's two slot buffers, one for angles and
one for radii or lengths, laid out as [carriers..., destinations...];
everything after the draws (the polar transform of the law, the map to
Cartesian steps, the contact engine, the live bookkeeping) runs once
per slot, elementwise over the group's nodes and pairs.  On a slot
where every live trial has one carrier, which is every pair-meeting
slot and every relay slot after the trials with more have met, carrier
i belongs to live trial i: the no-wrap pass reads the destinations
without a gather, and the per-trial minimum and the carrier index are
skipped.  So neither the grouping nor the worker count changes a
result.  With more than one worker and group, each call splits its groups
into min(workers, groups) contiguous shares, forks one child for each
share after the first and runs the first itself; each child sends its
columns, or its exception, back through a pipe, and the caller joins
them in share order.  Every child is reaped before the call returns or
raises, so none outlives it.  Without os.fork the groups run inline.
``tests/replay.py`` replays this contract trial by trial, with an
explicit-wrap walk in place of the closed forms above.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .flight import to_flight_polar
from .geometry import (_exit_fraction, first_contact_np, lens_area, to_disc_polar,
                       uniform_points_in_disc)

__all__ = [
    "MODEL_LEVY",
    "MODEL_IID",
    "DEFAULT_HORIZON_IID",
    "DEFAULT_HORIZON_LEVY",
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
STREAM_VERSION = 3

# stream salts (one namespace per purpose)
SALT_MEET = 11
SALT_DELAY = 12
SALT_GOF = 13
SALT_MC = 14

# hard cap on the windows one pair's capsule search may enumerate in a
# slot
_WINDOW_BUDGET = 5_000_000
# windows the capsule search tests at once, over all its rows, which
# bounds their memory however many pairs wrap
_WINDOW_BATCH = 1 << 13
# a pair whose paths start at most this many chords takes the window
# pass, whose piece pairs grow as the square of the chords but which
# saves the capsule search's higher cost per slot: in-process pair
# meeting at alpha 0.5 to 2 ran faster up to 9 and no faster at 17
_WINDOW_CHORDS = 9

_BLOCK = 1024
# nodes one group of blocks keeps in flight, 8 pair-meeting blocks: more
# per group saves numpy call overhead per slot, fewer bounds its memory
_GROUP_NODES = 1 << 14


@dataclass(frozen=True)
class ModelConfig:
    """One network instance.

    r is the transmission range.  The heavy-tailed model requires alpha,
    the tail exponent of its Pareto flight lengths, in (0, 2]; the
    teleport model takes none.
    """

    n: int
    r: float
    model: str = MODEL_IID
    alpha: float | None = None
    horizon_slots: int | None = None
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.model not in (MODEL_LEVY, MODEL_IID):
            raise ValueError(f"unknown model {self.model!r}")
        # 2*sqrt(n) is the disc diameter, the largest meaningful range
        if not (0.0 < self.r <= 2.0 * math.sqrt(self.n)):
            raise ValueError("require 0 < r <= 2*sqrt(n)")
        if self.model == MODEL_LEVY:
            # written so that NaN fails
            if self.alpha is None or not (0.0 < self.alpha <= 2.0):
                raise ValueError("heavy-tailed model requires alpha in (0, 2]")
        elif self.alpha is not None:
            raise ValueError("the teleport model takes no alpha")
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
        pin = R / np.hypot(ex, ey)
        p1x = ex * pin
        p1y = ey * pin
        speed = np.hypot(dx, dy)
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


def _piece(x0, y0, dx, dy, g, paths, m):
    """Piece m[k] of path paths[k] as (t0, px, py, vx, vy, dur).

    On the piece the position at slot time t is (px, py) + (vx, vy)(t - t0),
    for dur from t0.  Piece -1 is the motion before the first wrap; piece
    m >= 0 is chord m of _Wraps, or the stand at A of a frozen path, and
    piece m_last ends the slot.
    """
    x0, y0, dx, dy = x0[paths], y0[paths], dx[paths], dy[paths]
    g = _Wraps(*(v[paths] for v in g))
    pre = m < 0
    still = g.frozen & ~pre
    # m holds an integer: the truncated remainder is the floored one where
    # odd is read, m >= 0, and costs less
    odd = np.fmod(m, 2.0) == 1.0
    with np.errstate(invalid="ignore"):
        t0 = np.where(pre, 0.0, g.t1 + m * np.where(g.frozen, 0.0, g.dt))
    return (t0, np.where(pre, x0, np.where(odd, g.bx, g.ax)),
            np.where(pre, y0, np.where(odd, g.by, g.ay)),
            np.where(still, 0.0, dx), np.where(still, 0.0, dy),
            np.where(pre, np.minimum(g.t1, 1.0), np.where(m == g.m_last, 1.0 - t0, g.dt)))


def _window_times(x0, y0, dx, dy, g, w, mw, point, r):
    """Contact time of each window, inf where none.

    Window k is where piece mw[k] of path w[k], the segment, overlaps in
    time the point's piece, entry k of the _piece tuple point: both nodes
    move linearly there, so each window is tested whole by one
    first_contact_np call, the segment's motion first.  Pieces that do not
    overlap, or only at an instant, hold no window.
    """
    wa, fx, fy, fvx, fvy, _ = _piece(x0, y0, dx, dy, g, w, mw)
    ow, spx, spy, svx, svy, dur = point
    a = np.maximum(wa, ow)
    b = np.minimum(np.minimum(np.where(mw < 0.0, g.t1[w], wa + g.dt[w]), ow + dur), 1.0)
    hit_s = first_contact_np(fx + fvx * (a - wa), fy + fvy * (a - wa),
                             fx + fvx * (b - wa), fy + fvy * (b - wa),
                             spx + svx * (a - ow), spy + svy * (a - ow),
                             spx + svx * (b - ow), spy + svy * (b - ow), r)
    with np.errstate(invalid="ignore"):  # inf * 0 on a window without time
        return np.where((b > a) & np.isfinite(hit_s), a + hit_s * (b - a), np.inf)


# ---------------------------------------------------------------------------
# the lockstep block engine


def _per_trial_min(values, owner, size):
    out = np.full(size, np.inf)
    np.minimum.at(out, owner, values)
    return out


def _band(c, s, top):
    """Phases phi with 0 <= c + s phi <= top, as (lo, hi); NaN where none.

    A near-zero slope sends the bounds to +-inf, their limit.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p = -c / s
        q = (top - c) / s
    inside = (c >= 0.0) & (c <= top)
    flat = s == 0.0
    return (np.where(flat, np.where(inside, -np.inf, np.nan), np.minimum(p, q)),
            np.where(flat, np.where(inside, np.inf, np.nan), np.maximum(p, q)))


def _capsule(px, py, vx, vy, dur, cx, cy, wx, wy, r):
    """Phases phi in [0, dur] where (px, py) + (vx, vy) phi is within r of
    the segment from (cx, cy) to (cx + wx, cy + wy), as (lo, hi).

    The set is where the point's line crosses the capsule, the segment
    grown by r: the union of its crossings of the two end discs and of the
    slab over the segment, one interval because the capsule is convex.
    Exact up to rounding; lo <= hi fails where the set is empty.
    """
    ex = px - cx
    ey = py - cy
    vv = vx * vx + vy * vy
    lo = hi = np.nan
    for ox, oy in ((ex, ey), (ex - wx, ey - wy)):
        b = ox * vx + oy * vy
        c = ox * ox + oy * oy - r * r
        with np.errstate(invalid="ignore", divide="ignore"):
            root = np.sqrt(b * b - vv * c)
            # a parked point is inside for every phase or none
            lo = np.fmin(lo, np.where(vv == 0.0, np.where(c <= 0.0, -np.inf, np.nan), (-b - root) / vv))
            hi = np.fmax(hi, np.where(vv == 0.0, np.where(c <= 0.0, np.inf, np.nan), (-b + root) / vv))
    ww = wx * wx + wy * wy
    rw = r * np.sqrt(ww)
    # along the segment and at most r across it; a point segment has no slab
    l1, h1 = _band(ex * wx + ey * wy, vx * wx + vy * wy, ww)
    l2, h2 = _band(wx * ey - wy * ex + rw, wx * vy - wy * vx, 2.0 * rw)
    l1 = np.maximum(l1, l2)
    h1 = np.minimum(h1, h2)
    slab = (ww > 0.0) & (l1 <= h1)
    lo = np.fmin(lo, np.where(slab, l1, np.nan))
    hi = np.fmax(hi, np.where(slab, h1, np.nan))
    return np.maximum(lo, 0.0), np.minimum(hi, dur)


def _capsule_search(x0, y0, dx, dy, g, fast, slow, r):
    """Earliest contact of each pair over its whole slot.

    Pair k is paths fast[k] and slow[k] of the path arrays and _Wraps g,
    the fast path starting at least as many chords as the slow one.  Each
    row of the search pairs one piece class of one path, the point, with
    one kind of window of the other, the windows: window -1 is the
    pre-wrap piece, and chord A or B is every even or every odd chord.
    Before the fast path's first wrap, the point is its pre-wrap piece and
    the windows are each kind of the slow path; from then on the fast node
    is on chord A or B, and the point is one of the slow path's four piece
    classes, each one piece repeated every two chords: the pre-wrap piece,
    the even and the odd full chords, and the last piece (or the stand of
    a frozen path).  A contact needs the point within r of the segment its
    window sweeps, which holds over one closed-form phase interval of its
    piece (_capsule); only the windows meeting that interval are tested by
    _window_times, each over its whole overlap with the piece.  Rows
    enumerate their windows in time order, each up to its first hit, in
    batches of at most _WINDOW_BATCH windows over all rows; a pair's
    contact is the earliest of its rows' hits.
    Every enumerated window, collapsed ones too, is charged to the pair, so
    a flight that wraps ~1e18 times fails in bounded time.  Returns the
    times, inf where none.
    """
    K = fast.size
    L = g.m_last[slow]
    ones = np.ones(K)
    # row j of a pair: its point starts at piece mj of path pt and repeats
    # every two pieces count times, its windows are kind kind of path win
    classes = (-ones, np.zeros(K), ones, L)
    counts = (ones, np.floor((L + 1.0) / 2.0), np.floor(L / 2.0), 1.0 * (L >= 0.0))
    mj, count, pt, win = (np.stack(v, axis=1).ravel() for v in (
        classes * 2 + (-ones,) * 3, counts * 2 + (ones,) * 3, (slow,) * 8 + (fast,) * 3,
        (fast,) * 8 + (slow,) * 3))
    kind = np.tile([0.0] * 4 + [1.0] * 4 + [-1.0, 0.0, 1.0], K)
    pair = np.repeat(np.arange(K), 11)
    # a path without chords has no chord windows
    keep = (count > 0.0) & (g.m_last[win] >= kind)
    pair, mj, count, pt, win, kind = (v[keep] for v in (pair, mj, count, pt, win, kind))

    t0, px, py, vx, vy, dur = _piece(x0, y0, dx, dy, g, pt, mj)
    _, cx, cy, wx, wy, _ = _piece(x0, y0, dx, dy, g, win, kind)
    span = np.where(kind < 0.0, np.minimum(g.t1[win], 1.0), np.where(g.frozen[win], 0.0, g.dt[win]))
    lo, hi = _capsule(px, py, vx, vy, dur, cx, cy, wx * span, wy * span, r)
    with np.errstate(invalid="ignore"):
        # repeats that end before the first chord window have no window
        rep = np.where(count > 1.0, np.maximum(
            np.floor((g.t1[win] - t0 - hi) / (2.0 * g.dt[pt])) - 1.0, 0.0), 0.0)
    m_at = np.full(pair.size, -np.inf)  # where a row resumes within repeat rep
    t = np.full(K, np.inf)
    spent = np.zeros(K)
    rows = np.flatnonzero((lo <= hi) & (dur > 0.0) & (rep < count))
    batch = 4
    while rows.size:
        # most rows hit within a few windows: batches start small and double
        quota = max(1, min(batch, _WINDOW_BATCH // rows.size))
        batch *= 2
        # items: the next repeats of each row, at most quota of them
        n_items = np.minimum(count[rows] - rep[rows], quota).astype(np.int64)
        item_row = np.repeat(np.arange(rows.size), n_items)
        it = rows[item_row]
        j = np.arange(it.size) - np.repeat(np.cumsum(n_items) - n_items, n_items)
        point = _piece(x0, y0, dx, dy, g, pt[it], mj[it] + 2.0 * (rep[it] + j))
        o = point[0]
        wp = win[it]
        kd = kind[it]
        # hi <= dur, so the interval is within the point's piece
        w_lo = o + lo[it]
        w_hi = o + hi[it]
        # the windows of the row's kind that meet [w_lo, w_hi], with two
        # spare chords either side for rounding in the window index
        with np.errstate(invalid="ignore"):
            m0 = np.floor((w_lo - g.t1[wp]) / g.dt[wp]) - 2.0
            m0 += (m0 - kd) % 2.0
            m1 = np.floor((w_hi - g.t1[wp]) / g.dt[wp]) + 2.0
        pre = kd < 0.0
        m0 = np.where(pre, -1.0, np.maximum(np.maximum(m0, kd), np.where(j == 0, m_at[it], -np.inf)))
        m1 = np.where(pre, -1.0, np.minimum(m1, g.m_last[wp]))
        n = np.where(w_hi >= w_lo, np.maximum(np.floor((m1 - m0) / 2.0) + 1.0, 0.0), 0.0)
        # at most quota windows per row, in time order
        before = np.cumsum(n) - n
        before -= np.repeat(before[np.cumsum(n_items) - n_items], n_items)
        take = np.minimum(n, np.maximum(quota - before, 0.0)).astype(np.int64)
        wi = np.repeat(np.arange(it.size), take)
        m = m0[wi] + 2.0 * (np.arange(wi.size) - np.repeat(np.cumsum(take) - take, take))
        # each window over its whole overlap with the point's piece: the
        # capsule interval may be a single instant, as for a touch at phase 0
        tw = _window_times(x0, y0, dx, dy, g, wp[wi], m, [v[wi] for v in point], r)
        h = np.flatnonzero(np.isfinite(tw))
        hr = item_row[wi[h]]
        first_hit = np.diff(hr, prepend=-1) != 0
        h = h[first_hit]
        hr = hr[first_hit]
        np.minimum.at(t, pair[rows[hr]], tw[h])
        # charge each row its windows up to and including its first hit
        charge = np.bincount(item_row, take, minlength=rows.size)
        charge[hr] = h - (np.cumsum(charge) - charge)[hr] + 1
        np.add.at(spent, pair[rows], charge)
        if spent.max() > _WINDOW_BUDGET:
            raise RuntimeError("slot contact search budget exceeded")
        # resume at the first repeat not taken whole
        rep_next = rep[rows] + n_items
        m_next = np.full(rows.size, -np.inf)
        cut = np.flatnonzero(take < n)
        cr = item_row[cut]
        first_cut = np.diff(cr, prepend=-1) != 0
        cut = cut[first_cut]
        cr = cr[first_cut]
        rep_next[cr] = rep[it[cut]] + j[cut]
        m_next[cr] = m0[cut] + 2.0 * take[cut]
        rep[rows] = rep_next
        m_at[rows] = m_next
        alive = rep_next < count[rows]
        alive[hr] = False
        rows = rows[alive]
    return t


def _window_pass(x0, y0, dx, dy, g, fast, slow, r):
    """Earliest contact of each pair over its whole slot, window by window.

    Pair k is paths fast[k] and slow[k] of the path arrays and _Wraps g, as
    in _capsule_search.  A path's slot is its pre-wrap piece, then its
    chords 0 .. m_last; every piece of one path is paired with every piece
    of the other, and where the two overlap in time both nodes move
    linearly: a window.  All windows of all pairs go to _window_times at
    once, each with the segment and the point of the capsule-search row
    that covers it, so the two passes give the same times.  Paths that
    start c1 and c2 chords have (c1 + 1)(c2 + 1) piece pairs.  Returns the
    times, inf where none.
    """
    # pieces of each pair's fast and slow path
    nf = g.m_last[fast].astype(np.int64) + 2
    ns = g.m_last[slow].astype(np.int64) + 2
    count = nf * ns
    pair = np.repeat(np.arange(fast.size), count)
    c = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
    mf = c // ns[pair] - 1.0
    ms = c % ns[pair] - 1.0
    # the capsule search's roles: until the fast path's first exit its
    # pre-wrap piece is the point and the slow path's piece the window;
    # from then on the fast path's chord is the window
    chord = mf >= 0.0
    w = np.where(chord, fast[pair], slow[pair])
    p = np.where(chord, slow[pair], fast[pair])
    mw = np.where(chord, mf, ms)
    mp = np.where(chord, ms, mf)
    tw = _window_times(x0, y0, dx, dy, g, w, mw, _piece(x0, y0, dx, dy, g, p, mp), r)
    h = np.flatnonzero(np.isfinite(tw))
    t = np.full(fast.size, np.inf)
    np.minimum.at(t, pair[h], tw[h])
    return t


def _pair_slot_contacts(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r):
    """Exact earliest in-slot contact of each pair of paths.

    Path 1 of pair k starts at (x1[k], y1[k]) and moves by (d1x[k],
    d1y[k]), path 2 likewise.  The path that starts more chords is the
    pair's fast path.  A pair whose fast path starts at most _WINDOW_CHORDS
    chords takes _window_pass, and any other pair _capsule_search.
    Returns (t, e1x, e1y, e2x, e2y): the contact times, inf where there is
    none, and the end positions of the paths.
    """
    K = x1.size
    x0, y0, dx, dy = (np.concatenate(v) for v in ((x1, x2), (y1, y2), (d1x, d2x), (d1y, d2y)))
    g = _wrap_geometry(x0, y0, dx, dy, R)
    k = np.arange(K)
    swap = g.m_last[:K] < g.m_last[K:]
    fast = np.where(swap, K + k, k)
    slow = np.where(swap, k, K + k)
    few = g.m_last[fast] < _WINDOW_CHORDS
    t = np.empty(K)
    w = np.flatnonzero(few)
    c = np.flatnonzero(~few)
    # each pass has a fixed numpy cost per call, saved on slots it has no pairs
    if w.size:
        t[w] = _window_pass(x0, y0, dx, dy, g, fast[w], slow[w], r)
    if c.size:
        t[c] = _capsule_search(x0, y0, dx, dy, g, fast[c], slow[c], r)
    # every path's last piece ends the slot
    _, px, py, vx, vy, dur = _piece(x0, y0, dx, dy, g, slice(None), g.m_last)
    ex = px + vx * dur
    ey = py + vy * dur
    return t, ex[:K], ey[:K], ex[K:], ey[K:]


def _place_trials(rng, cfg, count, m):
    """The starting layout of count first-contact trials of m nodes each.

    Node 0 is the source S, node 1 the destination D; the carriers are the
    nodes within r of S other than D, and only trials with D out of range
    of S are live.  Returns (l0, ncount, live, qx, qy, cx, cy, cpos): the
    S-D distances, the nodes within r of S (S itself included), the live
    trial indices, the live destinations, and the carriers of the live
    trials in trial order, S first, with each carrier's trial as a
    position in live.  The m - 2 other nodes are iid uniform, so the
    count of them within r of S is Binomial(m - 2, q(S)), q the share of
    the disc in the lens B(S, r), and those nodes are uniform in the lens;
    nodes outside it never move the message and are not placed.
    """
    R = cfg.radius
    r = cfg.r
    xs, ys = uniform_points_in_disc(rng, R, 2 * count)
    xs = xs.reshape(count, 2)
    ys = ys.reshape(count, 2)
    sx, sy = xs[:, 0], ys[:, 0]
    l0 = np.hypot(xs[:, 1] - sx, ys[:, 1] - sy)
    k = np.zeros(count, dtype=np.int64)
    if m > 2:
        k = rng.binomial(m - 2, lens_area(np.hypot(sx, sy), r, R) / (math.pi * R * R))
    live = np.flatnonzero(l0 > r)
    cpos = np.repeat(np.arange(live.size), k[live] + 1)
    cx = sx[live][cpos]
    cy = sy[live][cpos]
    # each source leads its lens carriers, drawn by rejection from B(S, r)
    todo = np.flatnonzero(np.diff(cpos, prepend=-1) == 0)
    while todo.size:
        ux, uy = uniform_points_in_disc(rng, r, todo.size)
        ux += cx[todo]
        uy += cy[todo]
        ok = ux * ux + uy * uy <= R * R
        cx[todo[ok]] = ux[ok]
        cy[todo[ok]] = uy[ok]
        todo = todo[~ok]
    return l0, 1 + (l0 <= r) + k, live, xs[live, 1], ys[live, 1], cx, cy, cpos


def _contact_group(args):
    """Consecutive blocks of first-contact trials, all live trials in lockstep.

    Block first + b holds counts[b] trials, each laid out by _place_trials
    with m nodes from the block's own stream: for m = 2 the source is the
    only carrier.  On every slot each block with live trials draws for
    its carriers, then its destinations, into the group's slot buffers;
    the group then runs one contact pass over all its pairs, and a trial
    leaves the loop at the slot it meets.  Returns (l0, neighbor_count,
    t_meet) arrays over the group's trials in block order: the
    source-destination distance, the nodes within r of the source (itself
    included), and the first instant a carrier is within r of the
    destination, 0 when the destination starts in range and inf when
    censored.
    """
    master_seed, salt, first, counts, cfg, m = args
    rngs = [trial_stream(master_seed, salt, first + b) for b in range(len(counts))]
    R = cfg.radius
    r = cfg.r
    parts = [_place_trials(rng, cfg, count, m) for rng, count in zip(rngs, counts)]
    l0, ncount, live, qx, qy, cx, cy, cpos = (np.concatenate(col) for col in zip(*parts))
    n_live = [p[2].size for p in parts]
    n_car = [p[7].size for p in parts]
    live += np.repeat(np.cumsum(counts) - counts, n_live)
    cpos += np.repeat(np.cumsum(n_live) - n_live, n_car)
    # block b holds trials bounds[b] to bounds[b + 1]; live and cpos stay
    # ascending, so each block's live trials and carriers are one run of
    # them, found by bisection
    bounds = np.cumsum([0, *counts])
    t_meet = np.where(l0 > r, np.inf, 0.0)
    levy = cfg.model == MODEL_LEVY
    # a Pareto flight, or a relocation uniform over the disc
    to_polar, param = (to_flight_polar, cfg.alpha) if levy else (to_disc_polar, R)
    # the slot's angles and radii or lengths, laid out as [carriers...,
    # destinations...]; each slot uses a prefix
    theta_buf = np.empty(cx.size + live.size)
    rho_buf = np.empty(cx.size + live.size)
    for k in range(1, cfg.horizon_slots + 1):
        if live.size == 0:
            break
        nc = cx.size
        # one carrier per live trial, as on every pair-meeting slot:
        # carrier i belongs to live trial i, so nothing is gathered and
        # cpos is no longer updated.  A trial's carriers leave with it, so
        # a group that gets here stays here
        one = nc == live.size
        at = slice(None) if one else cpos
        theta = theta_buf[:nc + live.size]
        rho = rho_buf[:nc + live.size]
        # each block with live trials draws all its angles, then all its
        # radii or lengths, each for its carriers and then its
        # destinations, into its own runs of the group's buffers; a lone
        # block's runs are the whole buffers, drawn without a bisection
        if len(rngs) == 1:
            rngs[0].random(out=theta)
            rngs[0].random(out=rho)
        else:
            # block b's carriers are the run car[b]:car[b + 1] of the
            # slot's nodes, and its destinations the run dst[b]:dst[b + 1]
            cut = np.searchsorted(live, bounds)
            car = (cut if one else np.searchsorted(cpos, cut)).tolist()
            dst = (cut + nc).tolist()
            for b, rng in enumerate(rngs):
                if dst[b] < dst[b + 1]:
                    for u in (theta, rho):
                        rng.random(out=u[car[b]:car[b + 1]])
                        rng.random(out=u[dst[b]:dst[b + 1]])
        to_polar(theta, rho, param)
        if levy:
            # the slot's largest product, the contact discriminant, stays
            # below (6 R rho)^2 for the longest flight rho; where that
            # overflows the run fails here, before any arithmetic can warn
            with np.errstate(over="ignore"):
                if not np.isfinite(np.square(6.0 * R * rho.max())):
                    raise OverflowError("a flight's wrap count overflows a float")
        sx = np.cos(theta)
        sx *= rho
        sy = np.sin(theta)
        sy *= rho
        if levy:
            ex = cx + sx[:nc]
            ey = cy + sy[:nc]
            fx = qx + sx[nc:]
            fy = qy + sy[nc:]
        else:
            ex, fx = sx[:nc], sx[nc:]
            ey, fy = sy[:nc], sy[nc:]
        hits = first_contact_np(cx, cy, ex, ey, qx[at], qy[at], fx[at], fy[at], r)
        if levy:
            # pairs where either end leaves the disc take the wrap-aware
            # engine, which also gives the wrapped end positions
            i = np.flatnonzero((ex * ex + ey * ey > R * R) | (fx * fx + fy * fy > R * R)[at])
            if i.size:
                j = i if one else cpos[i]
                hits[i], ex[i], ey[i], fx[j], fy[j] = _pair_slot_contacts(
                    cx[i], cy[i], sx[i], sy[i], qx[j], qy[j], sx[nc + j], sy[nc + j], R, r)
        # every live trial is unmet: it leaves the loop at the slot it meets
        tm = hits if one else _per_trial_min(hits, cpos, live.size)
        tm += k - 1
        t_meet[live] = tm
        keep = np.isinf(tm)
        kept = keep[at]
        live = live[keep]
        qx = fx[keep]
        qy = fy[keep]
        cx = ex[kept]
        cy = ey[kept]
        if not one:
            cpos = (np.cumsum(keep) - 1)[cpos[kept]]
    return l0, ncount, t_meet


def _run_sharded(cfg, trials, salt, workers, m):
    """_contact_group over contiguous groups of fixed blocks, columns concatenated.

    A group holds as many blocks as keep about _GROUP_NODES nodes in
    flight, counting each trial as its two ends plus the carriers it
    expects, and there are at least as many groups as workers can take;
    with more than one worker they run in shares, by _fork_join.
    """
    if cfg.n < 2:
        raise ValueError("need n >= 2")
    if trials < 1:
        raise ValueError("trials must be positive")
    blocks = (trials + _BLOCK - 1) // _BLOCK
    nodes = 2.0 + (m - 2) * min(1.0, cfg.r * cfg.r / cfg.n)
    cap = max(1, int(_GROUP_NODES / (_BLOCK * nodes)))
    groups = max(-(-blocks // cap), min(workers, blocks))
    cuts = [blocks * g // groups for g in range(groups + 1)]
    tasks = [(cfg.master_seed, salt, lo,
              [min(_BLOCK, trials - b * _BLOCK) for b in range(lo, hi)], cfg, m)
             for lo, hi in zip(cuts, cuts[1:])]
    shares = min(workers, groups)
    if shares <= 1 or not hasattr(os, "fork"):
        parts = [_contact_group(t) for t in tasks]
    else:
        cuts = [groups * s // shares for s in range(shares + 1)]
        parts = _fork_join([tasks[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
    return [np.concatenate(col) for col in zip(*parts)]


def _fork_join(shares):
    """The _contact_group parts of every task of every share, in order.

    The first share runs here; each other runs in a child forked for it,
    which pickles its parts or its exception into a pipe of its own.  A
    child's exception is raised here, and a child that leaves no result
    raises a RuntimeError naming its exit status.  Every child is reaped
    before this returns or raises.
    """
    children = {}  # pid -> read end of its pipe, in share order
    try:
        for share in shares[1:]:
            rd, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rd)
                os.close(wr)
                raise
            if pid == 0:
                _child(share, wr)
            os.close(wr)
            children[pid] = os.fdopen(rd, "rb")
        parts = [_contact_group(t) for t in shares[0]]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code or not data:
                raise RuntimeError(f"a worker exited without a result (exit status {code})")
            ok, got = pickle.loads(data)
            if not ok:
                raise got
            parts += got
        return parts
    finally:
        # on a failure the children still running are stopped, and every
        # child not yet reaped is reaped here
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(share, wr):
    """Run a share in a forked child: pickle (True, parts) or (False,
    exception) into the write end wr and leave by os._exit, so the child
    never returns into its caller's code or flushes its caller's buffers."""
    code = 1
    try:
        try:
            data = pickle.dumps((True, [_contact_group(t) for t in share]), -1)
        except BaseException as exc:
            try:
                data = pickle.dumps((False, exc), -1)
                pickle.loads(data)
            except Exception:
                # an exception that does not survive pickling travels as its message
                data = pickle.dumps((False, RuntimeError(str(exc))), -1)
        with open(wr, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def pair_meeting_times(cfg: ModelConfig, trials: int, salt: int = SALT_MEET,
                       workers: int = 1):
    """Batch pair-meeting trials: the one-carrier case of scheme_delays.

    Returns (l0, t_meet) float arrays; censored entries are inf.  Trials
    are sharded into fixed blocks with per-block streams, so the result
    does not depend on the worker count.
    """
    l0, _, tm = _run_sharded(cfg, trials, salt, workers, 2)
    return l0, tm


def scheme_delays(cfg: ModelConfig, trials: int, salt: int = SALT_DELAY,
                  workers: int = 1):
    """Batch relay-scheme delay trials; returns (neighbor_counts, dest0, delays)."""
    l0, nc, dl = _run_sharded(cfg, trials, salt, workers, cfg.n)
    return nc, l0 <= cfg.r, dl
