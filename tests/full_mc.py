"""Full-array Monte Carlo estimators: the references for the pruned ones.

``mobidelay.analytics`` sets aside heavy-flight pairs whose summed
flight length cannot reach the obstruction, and the tail estimator of
``lemmas`` those that cannot reach the smallest threshold; both measure
only the others, tile by tile.  The functions here are the
estimators as they were before that pre-test: every pair of a chunk is
turned into a vector and measured at once.  They consume the stream in
the same order, so their counts must match the package's bit for bit.

``no_contact_misses`` has the signature of
``analytics._no_contact_fraction`` and can stand in for it.  Its
keyword ``anchor_rotation`` turns the obstruction about the start, which
leaves an isotropic estimate unchanged in distribution.
"""

from __future__ import annotations

import math

import numpy as np

from mobidelay.analytics import _MC_CHUNK
from mobidelay.flight import sample_flight_lengths
from mobidelay.geometry import uniform_points_in_disc
from oracle import segment_point_dist_np

TWO_PI = 2.0 * math.pi


def _flights(rng, alpha, size):
    # all angles, then all lengths, written out as the package once did
    th = TWO_PI * (1.0 - rng.uniform(0.0, 1.0, size))
    return th, sample_flight_lengths(rng, alpha, size)


def _rotate(dx, dy, angle):
    # Counter-rotating the isotropic sample is the same as rotating the
    # obstruction anchor by +angle.
    if angle == 0.0:
        return dx, dy
    c, s = math.cos(angle), math.sin(angle)
    return c * dx + s * dy, -s * dx + c * dy


def no_contact_misses(rng, cfg, l0, trials, *, anchor_rotation=0.0):
    """Count samples whose one-slot relative path misses the r-disc."""
    radius = math.sqrt(cfg.n)
    r = cfg.r
    misses = 0
    done = 0
    while done < trials:
        k = min(_MC_CHUNK, trials - done)
        if cfg.model == "levy":
            th, z = _flights(rng, cfg.alpha, 2 * k)
            vx, vy = z * np.cos(th), z * np.sin(th)
            dx = vx[:k] - vx[k:]
            dy = vy[:k] - vy[k:]
        else:
            x1, y1 = uniform_points_in_disc(rng, radius, k)
            x2, y2 = uniform_points_in_disc(rng, radius, k)
            dx = x1 - x2
            dy = y1 - y2
        dx, dy = _rotate(dx, dy, anchor_rotation)
        # start at (0, l0), obstruction disc at the origin
        ax = np.zeros(k)
        ay = np.full(k, l0)
        if cfg.model == "levy":
            bx, by = ax + dx, ay + dy
        else:
            bx, by = dx, dy
        d = segment_point_dist_np(ax, ay, bx, by)
        misses += int(np.count_nonzero(d > r))
        done += k
    return misses


def cosine_diff_hits(rng, alpha, z_values, trials):
    """Count samples with Z1 cos(theta1) - Z2 cos(theta2) > z, per z."""
    hits = {float(z): 0 for z in z_values}
    done = 0
    while done < trials:
        k = min(_MC_CHUNK, trials - done)
        th, z = _flights(rng, alpha, 2 * k)
        proj = z * np.cos(th)
        diff = proj[:k] - proj[k:]
        for zv in hits:
            hits[zv] += int(np.count_nonzero(diff > zv))
        done += k
    return hits
