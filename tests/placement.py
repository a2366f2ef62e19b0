"""Explicit placement: every node of a first-contact trial, drawn uniformly.

``place_all`` lays out a block's trials the way STREAM_VERSION 2 did: it
places all m nodes of each trial, in row chunks of at most 16,384 points
(each chunk all angles, then all radii), and reads the carriers off the
distances to the source.  It takes and returns what
``mobidelay.world._place_trials`` does, so a test can swap it in and
compare the engine's binomial count and lens placement with explicit
placement in law.  It is O(m) per trial; the engine places only the
carriers.
"""

import numpy as np

from mobidelay.geometry import uniform_points_in_disc

_PLACE_POINTS = 1 << 14


def place_all(rng, cfg, count, m):
    """(l0, ncount, live, qx, qy, cx, cy, cpos) of count explicit trials."""
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
    return l0, ncount, live, qx[live], qy[live], cx, cy, np.searchsorted(live, cown)
