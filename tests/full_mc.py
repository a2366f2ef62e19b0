"""Full-array Monte Carlo estimators: the references for the package's.

``mobidelay.analytics`` sets aside heavy-flight pairs whose summed
flight length cannot reach the obstruction, and the tail estimator of
``lemmas`` those that cannot reach the smallest threshold; both measure
only the others, tile by tile.  The functions here turn every pair of a
tile (of a chunk, for ``lemmas``) into a vector and give it a 0/1
verdict, and they consume the stream in the same order as the package.

``no_contact_misses`` counts the misses that
``analytics._no_contact_sums`` sums as miss chances at one l0, and
``grid_misses`` at every l0 of a grid on the same draws.  They are the
exact reference under teleport, where the package counts the same 0/1
verdicts, and the distributional reference under heavy flights, where
the package averages each pair's miss chance given its step length: on
the same draws the miss count and the chance sum differ by a sum of
independent centred terms, of variance v (1 - v) each.
``cosine_diff_hits`` must match ``lemmas`` bit for bit.
``whole_chunk_fraction`` is the package's estimator written out once
more: it draws each tile as whole arrays, then evaluates every pair
that can reach the disc, and the package must match it bit for bit,
stream position included.  The keyword
``anchor_rotation`` turns the obstruction about the start, which leaves
an isotropic estimate unchanged in distribution.
"""

from __future__ import annotations

import math

import numpy as np

from lemmas import _MC_CHUNK
from mobidelay.analytics import _MC_TILE, _REACH_MARGIN, _hit_angle
from mobidelay.flight import sample_flight_polar
from mobidelay.geometry import first_contact_np, uniform_points_in_disc
from oracle import segment_point_dist_np

TWO_PI = 2.0 * math.pi


def _flights(rng, alpha, size):
    # all angles, then all lengths, written out as the package once did
    th = TWO_PI * (1.0 - rng.uniform(0.0, 1.0, size))
    return th, (1.0 - rng.uniform(0.0, 1.0, size)) ** (-1.0 / alpha)


def _rotate(dx, dy, angle):
    # Counter-rotating the isotropic sample is the same as rotating the
    # obstruction anchor by +angle.
    if angle == 0.0:
        return dx, dy
    c, s = math.cos(angle), math.sin(angle)
    return c * dx + s * dy, -s * dx + c * dy


def no_contact_misses(rng, cfg, l0, trials, *, anchor_rotation=0.0):
    """Count samples whose one-slot relative path misses the r-disc."""
    return grid_misses(rng, cfg, [l0], trials, anchor_rotation=anchor_rotation)[0]


def grid_misses(rng, cfg, l0s, trials, *, anchor_rotation=0.0):
    """no_contact_misses at every l0 of l0s, each tile drawn once and
    measured at every l0, as analytics._no_contact_sums shares its draws."""
    radius = math.sqrt(cfg.n)
    r = cfg.r
    misses = [0] * len(l0s)
    done = 0
    while done < trials:
        k = min(_MC_TILE, trials - done)
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
        for j, l0 in enumerate(l0s):
            # start at (0, l0), obstruction disc at the origin
            ax = np.zeros(k)
            ay = np.full(k, l0)
            if cfg.model == "levy":
                bx, by = ax + dx, ay + dy
            else:
                bx, by = dx, dy
            d = segment_point_dist_np(ax, ay, bx, by)
            misses[j] += int(np.count_nonzero(d > r))
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


def whole_chunk_fraction(rng, cfg, l0, trials):
    """(sum of v, sum of v (1 - v)) as analytics._no_contact_sums at the
    one l0, each tile drawn whole: under heavy flights 2k angles, then 2k
    lengths, as pairs (i, k + i); under teleport two uniform point sets."""
    r = cfg.r
    reach = (l0 - r) - _REACH_MARGIN * l0
    total = 0.0
    spread = 0.0
    done = 0
    while done < trials:
        k = min(_MC_TILE, trials - done)
        done += k
        if cfg.model == "levy":
            theta, z = sample_flight_polar(rng, cfg.alpha, 2 * k)
            i1 = np.flatnonzero(z[:k] + z[k:] >= reach)
            i2 = i1 + k
            z1, z2 = z[i1], z[i2]
            chord = 2.0 * np.sqrt(z1) * np.sqrt(z2) \
                * np.sin(0.5 * (theta[i1] - theta[i2]))
            a = np.minimum(np.abs(z1 - z2), l0)
            b = np.minimum(np.abs(chord), l0)
            w = _hit_angle(np.sqrt(a * a + b * b), l0, r) / math.pi
            total += k
            total -= float(w.sum())
            spread += float(np.dot(w, 1.0 - w))
        else:
            x1, y1 = uniform_points_in_disc(rng, cfg.radius, k)
            x2, y2 = uniform_points_in_disc(rng, cfg.radius, k)
            s = first_contact_np(0.0, l0, x1 - x2, y1 - y2, 0.0, 0.0, 0.0, 0.0, r)
            total += int(np.count_nonzero(s > 1.0))
    return total, spread
