"""Reference lemmas of the acceptance gate.

The program's bounds report runs none of these; the tests check the
paper's supporting statements through them: the out-of-range Monte
Carlo, the first-slot no-contact Monte Carlo at one distance, the
minimum-of-m sum of a CCDF, the binomial Chernoff tail and its
algebraic relaxation, the normalized two-hop capacity and the
cell-occupancy probability behind its 1 - 2/e limit, the linear
envelope of asin, and the Monte Carlo tail of the cosine-projected
flight difference.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from mobidelay.analytics import (_MC_TILE, _REACH_MARGIN, Estimate,
                                 _check_capacity_args, _estimate,
                                 _no_contact_sums, _occupancy_terms, _reachable)
from mobidelay.flight import sample_flight_polar
from mobidelay.geometry import uniform_points_in_disc
from mobidelay.world import ModelConfig

# Infinite sums over slot counts stop once a summand drops below this or
# the index reaches the tail cut; the remainder is closed off with a
# geometric continuation of the last observed ratio.
_SUMMAND_FLOOR = 1e-12
_DEFAULT_TAIL_CUT = 100_000
# The Monte Carlo lemmas draw their samples in chunks of this many, each
# a few whole arrays of one draw per sample; it fixes their stream layout.
_MC_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# out-of-range probability of a uniform pair

def estimate_p_out_mc(rng_stream: np.random.Generator, n: int, r: float,
                      trials: int) -> Estimate:
    """MC fraction of uniform disc pairs at distance greater than r."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if n < 1 or r < 0.0:
        raise ValueError("need n >= 1 and r >= 0")
    radius = math.sqrt(n)
    hits = 0
    done = 0
    while done < trials:
        k = min(_MC_CHUNK, trials - done)
        x1, y1 = uniform_points_in_disc(rng_stream, radius, k)
        x2, y2 = uniform_points_in_disc(rng_stream, radius, k)
        hits += int(np.count_nonzero(np.hypot(x1 - x2, y1 - y2) > r))
        done += k
    return _estimate(hits, 0.0, trials)


# ---------------------------------------------------------------------------
# first-slot no-contact probability at one distance

def estimate_H1_mc(rng_stream: np.random.Generator, cfg: ModelConfig,
                   l0: float, trials: int) -> Estimate:
    """MC estimate of the first-slot no-contact probability at distance l0.

    The one-element case of the grid that the bounds report estimates on
    one stream: on the report's stream it gives the report's entry at
    l0, bit for bit.  At l0 = 2*sqrt(n), the disc diameter, this is the
    no-contact probability p_hat itself.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not cfg.r < l0:
        raise ValueError("require 0 < r < l0")
    if l0 > 2.0 * cfg.radius * (1.0 + 1e-12):
        raise ValueError("require l0 <= 2*sqrt(n)")
    return _estimate(*_no_contact_sums(rng_stream, cfg, [l0], trials)[0], trials)


# ---------------------------------------------------------------------------
# meeting-time sums and binomial tails

def u_bar_from_ccdf(ccdf, m: int, tail_cut: int = _DEFAULT_TAIL_CUT) -> float:
    """Sum of the m-th powers of a CCDF over all slot counts.

    ccdf is either a callable tau -> P{T > tau} or a sequence indexed by
    tau.  The sum runs until the summand falls below 1e-12 or tail_cut is
    reached, then a geometric continuation of the last ratio closes the
    remainder, which makes the result exact for geometric inputs.
    """
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")
    if tail_cut < 1:
        raise ValueError("tail_cut must be positive")
    m = int(m)
    if callable(ccdf):
        get = ccdf
        limit = tail_cut
    else:
        seq = list(ccdf)
        if not seq:
            raise ValueError("ccdf sequence must be nonempty")
        get = seq.__getitem__
        limit = min(tail_cut, len(seq) - 1)

    total = 0.0
    prev = None
    last = None
    for tau in range(limit + 1):
        v = float(get(tau))
        if not (-1e-12 <= v <= 1.0 + 1e-12):
            raise ValueError("ccdf values must be in [0, 1]")
        if last is not None and v > last + 1e-12:
            raise ValueError("ccdf must be nonincreasing")
        term = v ** m
        total += term
        prev, last = last, v
        if term < _SUMMAND_FLOOR:
            break
    # Close the sum with a geometric continuation of the final ratio;
    # for a truly geometric CCDF this reproduces the infinite sum exactly.
    if last is None or last <= 0.0 or prev is None or prev <= 0.0:
        return total
    ratio = last / prev
    if ratio >= 1.0 - 1e-15:
        return math.inf if last ** m >= _SUMMAND_FLOOR else total
    rm = ratio ** m
    return total + (last ** m) * rm / (1.0 - rm)


def binomial_chernoff_tail(n_trials: int, p: float, x: float) -> float:
    """Chernoff bound on the lower binomial tail P{B <= x} for x <= n*p."""
    if n_trials < 1 or int(n_trials) != n_trials:
        raise ValueError("n_trials must be a positive integer")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    mu = n_trials * p
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x > mu:
        raise ValueError("x must not exceed n_trials * p")
    return math.exp(-((mu - x) ** 2) / (2.0 * mu))


def chernoff_tail_relaxed(n: int, r: float, gamma: float) -> float:
    """Algebraic relaxation of the neighbor-count Chernoff tail.

    2 * (3n / (n - 2 - 3*gamma*n))**2 / r**2, the form obtained by
    exp(-x) <= 1/x; needs n strictly above 2/(1 - 3*gamma).
    """
    _check_gamma(gamma)
    if r <= 0.0:
        raise ValueError("r must be positive")
    d = n - 2.0 - 3.0 * gamma * n
    if d <= 0.0:
        raise ValueError("n must exceed 2 / (1 - 3*gamma)")
    return 2.0 * (3.0 * n / d) ** 2 / (r * r)


def _check_gamma(gamma: float):
    if not (0.0 < gamma < 1.0 / 3.0):
        raise ValueError("gamma must be in (0, 1/3)")


# ---------------------------------------------------------------------------
# capacity

def capacity_ratio(n: int, beta: float) -> float:
    """Throughput normalized by its n**(-2 beta) scale; tends to 1 - 2/e at beta 0."""
    _check_capacity_args(n, beta)
    q = n ** (2.0 * beta - 1.0)
    pn, pn1 = _occupancy_terms(n, q)
    # n**(2 beta) == q * n
    return (1.0 - pn) - q * n * pn1


def cell_occupancy_prob(n: int, cell_area: float) -> float:
    """Probability a fixed cell of the given area holds two or more of n
    uniform nodes, over a region of total area n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0.0 < cell_area <= n):
        raise ValueError("cell_area must be in (0, n]")
    q = cell_area / n
    pn, pn1 = _occupancy_terms(n, q)
    return 1.0 - pn - n * q * pn1


# ---------------------------------------------------------------------------
# asin envelope and the flight-difference tail

def asin_envelope(x: float) -> tuple[float, float]:
    """The linear envelope x <= asin(x) <= (pi/2) x on [0, 1]."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must be in [0, 1]")
    return x, 0.5 * math.pi * x


def estimate_cosine_diff_tail_mc(rng_stream: np.random.Generator,
                                 alpha: float, z_values: Sequence[float],
                                 trials: int) -> dict[float, Estimate]:
    """MC upper-tail of Z1 cos(theta1) - Z2 cos(theta2) at each threshold."""
    if trials < 1:
        raise ValueError("trials must be positive")
    zs = [float(z) for z in z_values]
    if any(z <= 0.0 for z in zs):
        raise ValueError("thresholds must be positive")
    hits = {z: 0 for z in zs}
    # |Z1 cos(theta1) - Z2 cos(theta2)| <= Z1 + Z2, so only pairs that
    # reach the smallest threshold can pass any
    reach = min(zs) * (1.0 - _REACH_MARGIN)
    done = 0
    while done < trials:
        k = min(_MC_CHUNK, trials - done)
        done += k
        th, z = sample_flight_polar(rng_stream, alpha, 2 * k)
        for s in range(0, k, _MC_TILE):
            e = min(s + _MC_TILE, k)
            z1, z2, th1, th2 = z[s:e], z[k + s:k + e], th[s:e], th[k + s:k + e]
            i = _reachable(z1, z2, reach)
            diff = z1[i] * np.cos(th1[i]) - z2[i] * np.cos(th2[i])
            for zv in zs:
                hits[zv] += int(np.count_nonzero(diff > zv))
    return {zv: _estimate(h, 0.0, trials) for zv, h in hits.items()}
