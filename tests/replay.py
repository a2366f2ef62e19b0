"""Independent replay of the block-stream contract, STREAM_VERSION 3.

``mobidelay.world`` runs trials in lockstep groups with closed-form wrap
geometry and a vector capsule search.  The replay here runs the same
contract one block and one trial at a time: it reads every block's
stream from ``world.trial_stream`` in the documented order, written out
as plain expressions, moves each node with the explicit boundary walk of
``oracle.wrap_flight`` (under teleport, one straight piece to the new
point), and decides contact with ``oracle.relative_pieces`` and
``oracle.first_contact``.  It shares no other code with the package, so
agreement between the two, trial by trial, is evidence for both: for the
draw order and laws, and for the contact engine at every slot of a run.

Each block consumes its stream in this order:

1. the source S and destination D of every trial: one draw of two points
   per trial, all angles (uniform on [0, 2 pi)) then all radii;
2. relay runs with n > 2 only: the neighbour count K of every trial, one
   Binomial(n - 2, q) draw over the block, q the share of the disc within
   r of S;
3. relay runs only: the K lens carriers of each trial whose D starts out
   of range, by rejection rounds from the r-ball around S, each round one
   point draw for the carriers still unplaced, in trial order;
4. slot by slot, one draw for every node of the trials still unmet:
   carriers (each trial's S first) then destinations, in trial order; a
   uniform point under teleport, a Pareto flight under heavy flights (all
   angles, uniform on (0, 2 pi], then all lengths (1 - U)^(-1/alpha)).

A trial draws nothing after the slot in which it meets.  The replay also
records the first slot end, among the slots a trial ran, at which a
carrier lies within r of its destination: the slotted detector the
paper's discretized meeting time counts.
"""

from __future__ import annotations

import math

import numpy as np

import oracle
from mobidelay.world import trial_stream

# trials per block, each block with its own stream
BLOCK = 1024

_TWO_PI = 2.0 * math.pi


def _disc_points(rng, radius, size):
    # all angles, then all radii: sqrt(U) radius
    theta = rng.random(size) * _TWO_PI
    rho = np.sqrt(rng.random(size)) * radius
    return rho * np.cos(theta), rho * np.sin(theta)


def _flights(rng, alpha, size):
    # all angles on (0, 2 pi], then all Pareto lengths, as Cartesian steps
    theta = _TWO_PI * (1.0 - rng.random(size))
    z = (1.0 - rng.random(size)) ** (-1.0 / alpha)
    return z * np.cos(theta), z * np.sin(theta)


def lens_share(d, r, R):
    """Share of the radius-R disc within r of a point at distance d from its centre."""
    if d + r <= R:
        area = math.pi * r * r
    elif r >= R + d:
        area = math.pi * R * R
    else:
        # the two circular sectors less the kite between the centres
        a = math.acos(min(1.0, max(-1.0, (d * d + r * r - R * R) / (2.0 * d * r))))
        b = math.acos(min(1.0, max(-1.0, (d * d + R * R - r * r) / (2.0 * d * R))))
        kite = math.sqrt(max((-d + r + R) * (d + r - R) * (d - r + R) * (d + r + R), 0.0))
        area = r * r * a + R * R * b - 0.5 * kite
    return area / (math.pi * R * R)


def _path(x, y, nx, ny, R, levy):
    # one slot of motion: a flight by (nx, ny), or a straight move to it
    if levy:
        return oracle.wrap_flight(x, y, nx, ny, R)
    return [oracle.Piece(x, y, nx, ny, 0.0, 1.0)]


def _replay_block(rng, count, cfg, m):
    n, r = cfg.n, cfg.r
    R = math.sqrt(n)
    levy = cfg.model == "levy"
    xs, ys = _disc_points(rng, R, 2 * count)
    sx, sy, dx, dy = xs[0::2], ys[0::2], xs[1::2], ys[1::2]
    l0 = np.hypot(dx - sx, dy - sy)
    k = np.zeros(count, dtype=np.int64)
    if m > 2:
        q = np.array([lens_share(d, r, R) for d in np.hypot(sx, sy)])
        k = rng.binomial(m - 2, q)
    ncount = 1 + (l0 <= r) + k
    t_meet = np.where(l0 > r, np.inf, 0.0)
    t_slot = t_meet.copy()
    # live trials as (trial, carriers, destination), positions as [x, y]:
    # the source leads its carriers, the lens carriers are placed below
    live = [(i, [[float(sx[i]), float(sy[i])]] + [None] * int(k[i]), [float(dx[i]), float(dy[i])])
            for i in range(count) if l0[i] > r]
    todo = [(cars, c) for _, cars, _ in live for c in range(1, len(cars))]
    while todo:
        ux, uy = _disc_points(rng, r, len(todo))
        rest = []
        for (cars, c), px, py in zip(todo, ux.tolist(), uy.tolist()):
            px += cars[0][0]
            py += cars[0][1]
            if px * px + py * py <= R * R:
                cars[c] = [px, py]
            else:
                rest.append((cars, c))
        todo = rest
    for slot in range(1, cfg.horizon_slots + 1):
        if not live:
            break
        nc = sum(len(t[1]) for t in live)
        if levy:
            mx, my = _flights(rng, cfg.alpha, nc + len(live))
        else:
            mx, my = _disc_points(rng, R, nc + len(live))
        mx, my = mx.tolist(), my.tolist()
        still = []
        c = 0
        for j, (i, carriers, dest) in enumerate(live):
            d_path = _path(*dest, mx[nc + j], my[nc + j], R, levy)
            dest[:] = d_path[-1].bx, d_path[-1].by
            hit = math.inf
            at_end = False
            for car in carriers:
                path = _path(*car, mx[c], my[c], R, levy)
                c += 1
                s = oracle.first_contact(oracle.relative_pieces(path, d_path), r)
                if s is not None:
                    hit = min(hit, s)
                car[:] = path[-1].bx, path[-1].by
                at_end |= math.hypot(car[0] - dest[0], car[1] - dest[1]) <= r
            if at_end and math.isinf(t_slot[i]):
                t_slot[i] = slot
            if math.isfinite(hit):
                t_meet[i] = (slot - 1) + hit
            else:
                still.append(live[j])
        live = still
    return l0, ncount, t_meet, t_slot


def replay(cfg, trials, salt, relay=False):
    """The first-contact trials 0 .. trials - 1 of cfg, from their block streams.

    Pair meeting places two nodes, the source the only carrier; a relay
    run places the source's neighbours among cfg.n nodes too.  Returns
    (l0, ncount, t_meet, t_slot) arrays over the trials: the
    source-destination distance, the nodes within r of the source (itself
    included), the continuous first contact (0 when the destination
    starts in range, inf when censored), and the first slot end, among
    the slots the trial ran, at which a carrier lies within r of the
    destination (0 when it starts in range, inf when there is none).
    """
    m = cfg.n if relay else 2
    parts = [_replay_block(trial_stream(cfg.master_seed, salt, b), min(BLOCK, trials - b * BLOCK),
                           cfg, m)
             for b in range(-(-trials // BLOCK))]
    return tuple(np.concatenate(col) for col in zip(*parts))
