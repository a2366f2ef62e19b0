"""Closed-form bounds and the Monte Carlo estimators that check them.

Everything here is a pure function of configuration parameters, except
the estimators, which take an explicit random stream and return a mean
of per-sample values with its sample standard error.  Simulation of the
actual meeting process lives in ``world``; this module evaluates the
formulas that sandwich it: the out-of-range probability of a uniform
pair, per-slot no-contact probability for both mobility models, the
geometric CCDF and expected-meeting-time bounds, the relay-scheme delay
bound, per-node throughput of the two-hop scheme, and the tail constants
of the cosine-projected flight difference.

Bound conventions: "lower"/"upper" always bracket the true probability,
so upper bounds of no-contact quantities are the safe side for delay
bounds.  The heavy-tail no-contact bounds are only claimed above an
unspecified population threshold; callers receive that caveat as text
and decide what to gate on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .flight import sample_flight_polar
from .geometry import first_contact_np, uniform_points_in_disc
from .world import MODEL_IID, MODEL_LEVY, SALT_MC, ModelConfig, trial_stream

__all__ = [
    "Estimate",
    "TailConstants",
    "BoundReport",
    "p_out_bounds",
    "p_hat_bounds_levy",
    "p_hat_bounds_iid",
    "p_hat_bounds",
    "ccdf_geometric_bound",
    "u_bar_bound",
    "iid_delay_bound",
    "capacity_per_node",
    "cosine_diff_tail_constants",
    "tradeoff_curve",
    "compute_bound_report",
    "format_real",
    "dumps_stable",
]

_TWO_PI = 2.0 * math.pi

# The teleport delay bound counts relays against k = ceil(gamma r^2); the
# bound needs gamma in (0, 1/3).
_GAMMA = 0.1
# copy counts m of the reported minimum-of-m bounds
_U_BAR_MS = range(1, 11)
# spaces per nesting level of the report JSON
_JSON_INDENT = 2

# The no-contact estimator draws and evaluates its samples in tiles of
# this many, which fixes its stream layout and bounds its memory.
_MC_TILE = 1 << 15
# A pair of flights of lengths z1, z2 moves its difference by at most
# z1 + z2.  The length pre-test sets aside pairs that fall short of a
# reach by more than this share of its scale, far above rounding error.
_REACH_MARGIN = 1e-9


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean of per-sample values in [0, 1] with its sample
    standard error, the binomial one when every value is 0 or 1."""

    value: float
    stderr: float
    trials: int

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0) or not math.isfinite(self.stderr):
            raise ValueError("estimate must be a probability with finite stderr")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class TailConstants:
    """Lower/upper tail coefficients of the cosine-projected flight difference.

    c_l and c_u multiply z**(-alpha) to bracket the upper tail of
    Z1*cos(theta1) - Z2*cos(theta2).
    """

    c_l: float
    c_u: float

    def __post_init__(self):
        if not (0.0 < self.c_l < self.c_u):
            raise ValueError("require 0 < c_l < c_u")


@dataclass(frozen=True)
class BoundReport:
    """Bundle of the closed-form bounds and estimates for one configuration.

    The no-contact pair (p_hat_lower, p_hat_upper) is clamped into [0, 1];
    raw formula values below zero are vacuous and reported as 0.  h1_mc
    maps initial distances to no-contact estimates, u_bar maps copy counts
    to the discretized-minimum bound.
    """

    p_out_lower: float
    p_out_upper: float
    p_hat_lower: float
    p_hat_upper: float
    p_hat_mc: Optional[Estimate]
    h1_mc: Optional[Mapping[float, Estimate]]
    u_bar: Mapping[int, float]
    delay_upper: float
    capacity_lambda: Optional[float]
    n_th_note: str

    def __post_init__(self):
        for name in ("p_out_lower", "p_out_upper", "p_hat_lower", "p_hat_upper"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.p_out_lower > self.p_out_upper:
            raise ValueError("p_out_lower must not exceed p_out_upper")
        if self.p_hat_lower > self.p_hat_upper:
            raise ValueError("p_hat_lower must not exceed p_hat_upper")
        if self.delay_upper < 0.0:
            raise ValueError("delay_upper must be nonnegative")

    def to_obj(self) -> dict:
        return {
            "p_out_lower": self.p_out_lower,
            "p_out_upper": self.p_out_upper,
            "p_hat_lower": self.p_hat_lower,
            "p_hat_upper": self.p_hat_upper,
            "p_hat_mc": _estimate_obj(self.p_hat_mc),
            "h1_mc": None if self.h1_mc is None else {
                format_real(l0): _estimate_obj(est) for l0, est in self.h1_mc.items()
            },
            "u_bar": {str(m): v for m, v in self.u_bar.items()},
            "delay_upper": self.delay_upper,
            "capacity_lambda": self.capacity_lambda,
            "n_th_note": self.n_th_note,
        }


def _estimate_obj(est: Optional[Estimate]):
    if est is None:
        return None
    return {"value": est.value, "stderr": est.stderr, "trials": est.trials}


# ---------------------------------------------------------------------------
# stable serialization

def format_real(x: float) -> str:
    """Fixed 17-significant-digit decimal form; non-finite becomes null."""
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(float(x), ".17g")


def dumps_stable(obj) -> str:
    """JSON text with insertion-order keys and 17-significant-digit reals.

    The stdlib encoder prints floats with shortest round-trip repr, which
    is stable across runs but not fixed-width; reports pin the textual
    form instead so emitted files are byte-comparable.
    """
    import json as _json

    out: list[str] = []

    def emit(o, depth: int):
        pad = " " * (_JSON_INDENT * depth)
        pad_in = " " * (_JSON_INDENT * (depth + 1))
        if o is None:
            out.append("null")
        elif isinstance(o, bool):
            out.append("true" if o else "false")
        elif isinstance(o, (int, np.integer)):
            out.append(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            out.append(format_real(float(o)))
        elif isinstance(o, str):
            out.append(_json.dumps(o))
        elif isinstance(o, Mapping):
            if not o:
                out.append("{}")
                return
            out.append("{\n")
            for i, (k, v) in enumerate(o.items()):
                out.append(pad_in + _json.dumps(str(k)) + ": ")
                emit(v, depth + 1)
                out.append(",\n" if i < len(o) - 1 else "\n")
            out.append(pad + "}")
        elif isinstance(o, (list, tuple)):
            if len(o) == 0:
                out.append("[]")
                return
            out.append("[\n")
            for i, v in enumerate(o):
                out.append(pad_in)
                emit(v, depth + 1)
                out.append(",\n" if i < len(o) - 1 else "\n")
            out.append(pad + "]")
        else:
            raise TypeError(f"cannot serialize {type(o).__name__}")

    emit(obj, 0)
    return "".join(out)


# ---------------------------------------------------------------------------
# out-of-range probability of a uniform pair

def p_out_bounds(n: int, r: float) -> tuple[float, float]:
    """Sandwich for the probability that a uniform pair starts out of range.

    Returns (1 - r**2/n, 1 - r**2/(3n)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 < r <= math.sqrt(n)):
        raise ValueError("r must be in (0, sqrt(n)]")
    return 1.0 - r * r / n, 1.0 - r * r / (3.0 * n)


def _estimate(total: float, spread: float, trials: int) -> Estimate:
    # from the sums of v and of v (1 - v): the squared error of the mean p
    # is (p (1 - p) - mean v (1 - v)) / trials, binomial when v is 0 or 1
    p = total / trials
    var = max(p * (1.0 - p) - spread / trials, 0.0)
    return Estimate(p, math.sqrt(var / trials), trials)


# ---------------------------------------------------------------------------
# per-slot no-contact probability at the worst initial distance

def p_hat_bounds_levy(n: int, r: float, alpha: float) -> tuple[float, float, str]:
    """Closed-form sandwich for the heavy-flight no-contact probability.

    The tail constants are those of Pareto flights of exponent alpha.
    Values are the raw formulas and may be vacuous (below 0) for small n;
    the returned caveat records that validity needs the population to
    exceed an unspecified threshold.
    """
    two_rt = 2.0 * math.sqrt(n)
    if not (0.0 < r < two_rt):
        raise ValueError("r must be in (0, 2*sqrt(n))")
    tail = cosine_diff_tail_constants(alpha)
    a = math.asin(r / two_rt)
    upper = 1.0 - (2.0 * tail.c_l / math.pi) * (two_rt + r) ** (-alpha) * a
    lower = 1.0 - (2.0 ** (alpha / 2.0 + 2.0) * tail.c_u / math.pi) \
        * (two_rt - r) ** (-alpha) * a
    caveat = ("bounds hold only for populations above an unspecified "
              "threshold; checks here run at n >= 10^4")
    return lower, upper, caveat


def p_hat_bounds_iid(n: int, r: float) -> tuple[float, float]:
    """Closed-form sandwich for the teleport-model no-contact probability.

    Valid for every population size.  upper = 1 - asin(r/(2 sqrt(n)))/pi;
    lower subtracts the three boundary-correction terms and may be
    vacuous (below 0) when r is a large fraction of the disc.
    """
    two_rt = 2.0 * math.sqrt(n)
    if not (0.0 < r < two_rt):
        raise ValueError("r must be in (0, 2*sqrt(n))")
    a = math.asin(r / two_rt)
    upper = 1.0 - a / math.pi
    lower = (1.0 - r * r / (2.0 * n) - 2.0 * r / (math.pi * math.sqrt(n))
             - 5.0 * a / math.pi)
    return lower, upper


def p_hat_bounds(cfg: ModelConfig) -> tuple[float, float, str]:
    """The no-contact sandwich of the config's model, clamped into [0, 1].

    Returns (lower, upper, note); the note says for which populations
    the pair holds.  Raw values below 0 are vacuous and come back as 0.
    """
    if cfg.model == MODEL_LEVY:
        lower, upper, note = p_hat_bounds_levy(cfg.n, cfg.r, cfg.alpha)
    else:
        lower, upper = p_hat_bounds_iid(cfg.n, cfg.r)
        note = "no-contact bounds valid for all n"
    return min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0), note


def _reachable(z1: np.ndarray, z2: np.ndarray, reach: float):
    """Indexer of the pairs of flight lengths (z1, z2) whose sum is at
    least reach: a slice of all of them when every pair qualifies, which
    copies nothing, otherwise their indices."""
    keep = z1 + z2 >= reach
    return slice(None) if keep.all() else np.flatnonzero(keep)


def _hit_angle(length: np.ndarray, l0: float, r: float) -> np.ndarray:
    """Half-width phi of the cone of directions along which a step of each
    length L, from distance l0 of the r-disc's centre, comes within r:
    0 below l0 - r, acos((l0^2 + L^2 - r^2) / (2 l0 L)) up to the tangent
    length sqrt(l0^2 - r^2), and asin(r/l0) beyond it."""
    tangent2 = (l0 - r) * (l0 + r)
    short = length < math.sqrt(tangent2)
    phi = np.where(short, 0.0, math.asin(r / l0))
    band = np.flatnonzero(short & (length >= l0 - r))
    lb = length[band]
    phi[band] = np.arccos(np.minimum((tangent2 + lb * lb) / (2.0 * l0 * lb), 1.0))
    return phi


def _flight_hit_chances(rng, cfg: ModelConfig, l0s: Sequence[float],
                        size: int) -> list[np.ndarray]:
    """Per l0 of l0s, the hit chances w of size heavy-flight pairs drawn
    from rng; pairs whose summed length cannot reach the r-disc from
    distance l0 have w = 0.

    One draw of 2 size flights, paired as (i, size + i).  D's direction
    is uniform and independent of its length, so w is the hit chance
    given |D|, _hit_angle(|D|)/pi, and |D| <= z1 + z2.
    """
    theta, z = sample_flight_polar(rng, cfg.alpha, 2 * size)
    th1, th2, z1, z2 = theta[:size], theta[size:], z[:size], z[size:]
    reach = [(l0 - cfg.r) - _REACH_MARGIN * l0 for l0 in l0s]
    i = _reachable(z1, z2, min(reach))
    z1, z2 = z1[i], z2[i]
    # |D| = hypot(z1 - z2, chord), with no cancellation near z1 = z2 and
    # no product z1 * z2; each leg is clamped at the largest l0 before it
    # is squared, which keeps every |D| below any l0's tangent length
    # exact and every other one beyond it
    chord = 2.0 * np.sqrt(z1) * np.sqrt(z2) * np.sin(0.5 * (th1[i] - th2[i]))
    top = max(l0s)
    a = np.minimum(np.abs(z1 - z2), top)
    b = np.minimum(np.abs(chord), top)
    length = np.sqrt(a * a + b * b)
    return [_hit_angle(length[_reachable(z1, z2, at)], l0, cfg.r) / math.pi
            for l0, at in zip(l0s, reach)]


def _teleport_hits(rng, cfg: ModelConfig, l0s: Sequence[float],
                   size: int) -> list[np.ndarray]:
    """Per l0 of l0s, the 0/1 hits of size teleport samples drawn from
    rng: the simulator's contact rule on the segment from the start to a
    fresh uniform-pair difference, the obstruction parked.  The first
    points are drawn whole, then the second."""
    x1, y1 = uniform_points_in_disc(rng, cfg.radius, size)
    x2, y2 = uniform_points_in_disc(rng, cfg.radius, size)
    ex, ey = x1 - x2, y1 - y2
    return [(first_contact_np(0.0, l0, ex, ey, 0.0, 0.0, 0.0, 0.0, cfg.r) <= 1.0)
            .astype(float) for l0 in l0s]


def _no_contact_sums(rng: np.random.Generator, cfg: ModelConfig,
                     l0s: Sequence[float], trials: int) -> list[tuple[float, float]]:
    """Per l0 of l0s, the sums over samples of the chance v that the
    one-slot relative path from distance l0 misses the r-disc, and of
    v (1 - v).

    The start sits at (0, l0), the obstruction disc at the origin.  Each
    tile of k samples is drawn straight from rng, 4k draws in four blocks
    of k, one draw per sample each (_flight_hit_chances and
    _teleport_hits say which), and evaluated at every l0 before the next
    is drawn.  So every l0 sees the same samples, and each l0's sums are
    those of a run over l0 alone, bit for bit.
    """
    hit_chances = _flight_hit_chances if cfg.model == MODEL_LEVY else _teleport_hits
    sums = [[0.0, 0.0] for _ in l0s]
    for s in range(0, trials, _MC_TILE):
        k = min(_MC_TILE, trials - s)
        for acc, w in zip(sums, hit_chances(rng, cfg, l0s, k)):
            acc[0] += k  # less the hit chances
            acc[0] -= float(w.sum())
            acc[1] += float(np.dot(w, 1.0 - w))
    return [tuple(acc) for acc in sums]


# ---------------------------------------------------------------------------
# meeting-time distribution bounds

def ccdf_geometric_bound(tau: int, p_hat: float, p_out: float) -> float:
    """Geometric bound on P{first meeting time > tau}: p_hat**tau * p_out."""
    if tau < 0 or int(tau) != tau:
        raise ValueError("tau must be a nonnegative integer")
    _check_prob("p_hat", p_hat)
    _check_prob("p_out", p_out)
    return p_hat ** int(tau) * p_out


def _check_prob(name: str, v: float):
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} must be in [0, 1]")


def u_bar_bound(m: int, p_hat: float, p_out: float) -> float:
    """Bound on the expected minimum of m discretized meeting times.

    p_out**m / (1 - p_hat**m); diverges as p_hat approaches 1, so p_hat
    must be strictly below it.
    """
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")
    _check_prob("p_out", p_out)
    if not (0.0 <= p_hat < 1.0):
        raise ValueError("p_hat must be in [0, 1)")
    m = int(m)
    return p_out ** m / (1.0 - p_hat ** m)


def iid_delay_bound(n: int, r: float, p_hat: float, p_out: float) -> float:
    """Three-term bound on the mean relay-scheme delay, teleport model.

    p_out + p_out * U(1) * P{B <= k - 2} + p_out * U(k) with
    k = ceil(gamma r^2), gamma = 0.1, U the closed-form u_bar_bound, and
    B binomial over the n-2 candidate relays with in-range probability
    1 - p_out.
    """
    if n * (1.0 - 3.0 * _GAMMA) < 2.0:
        raise ValueError(f"need n >= 2 / (1 - 3*gamma) with gamma = {_GAMMA}")
    if r <= 0.0:
        raise ValueError("r must be positive")
    _check_prob("p_out", p_out)
    if not (0.0 <= p_hat < 1.0):
        raise ValueError("p_hat must be in [0, 1)")
    k = math.ceil(_GAMMA * r * r)
    x = k - 2
    p_in = 1.0 - p_out
    if x < 0 or p_in == 0.0:
        few_neighbors = 1.0 if x >= 0 else 0.0
    else:
        # imported here: scipy.stats dominates the package's import time
        from scipy.stats import binom
        few_neighbors = float(binom.cdf(x, n - 2, p_in))
    return (p_out
            + p_out * u_bar_bound(1, p_hat, p_out) * few_neighbors
            + p_out * u_bar_bound(k, p_hat, p_out))


# ---------------------------------------------------------------------------
# per-node throughput of the two-hop scheme

def _occupancy_terms(n: int, q: float) -> tuple[float, float]:
    # (1-q)^n and (1-q)^(n-1) via log1p so n up to 10^6 keeps full precision.
    log1mq = math.log1p(-q)
    return math.exp(n * log1mq), math.exp((n - 1) * log1mq)


def _check_capacity_args(n: int, beta: float):
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0.0 <= beta <= 0.25):
        raise ValueError("beta must be in [0, 0.25]")


def capacity_per_node(n: int, beta: float) -> float:
    """Per-node throughput of the two-hop relay scheme at range n**beta.

    n^(-2 beta) - n^(-2 beta) (1 - n^(2 beta - 1))^n
    - (1 - n^(2 beta - 1))^(n-1).
    """
    _check_capacity_args(n, beta)
    q = n ** (2.0 * beta - 1.0)
    pn, pn1 = _occupancy_terms(n, q)
    scale = n ** (-2.0 * beta)
    return scale * (1.0 - pn) - pn1


# ---------------------------------------------------------------------------
# tail constants of the cosine-projected flight difference

def cosine_diff_tail_constants(alpha: float) -> TailConstants:
    """Tail coefficients of the Pareto flights of tail exponent alpha.

    c_l = I / 2 pi and c_u = (2**(1+alpha) / pi) * I where I is the
    integral of cos**alpha over a quarter period, in closed form
    sqrt(pi) Gamma((alpha+1)/2) / (2 Gamma(alpha/2 + 1)).  The flights'
    own tail constant, P{Z > 1} = 1, is the unit factor in front of each.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError("alpha must be in (0, 2]")
    integral = 0.5 * math.sqrt(math.pi) * math.exp(
        math.lgamma(0.5 * (alpha + 1.0)) - math.lgamma(0.5 * alpha + 1.0))
    c_l = 1.0 / _TWO_PI * integral
    c_u = 2.0 ** (1.0 + alpha) / math.pi * integral
    return TailConstants(c_l=c_l, c_u=c_u)


# ---------------------------------------------------------------------------
# tradeoff curve and report assembly

def tradeoff_curve(model: str, alpha_opt: Optional[float],
                   eta_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Delay-bound exponents along a throughput grid lambda = n**(-eta).

    Returns (eta, exponent) pairs with delay bounded by order
    n**exponent.  Heavy-flight model: min((1 + alpha)/2 - beta, 1); the
    teleport model: max(0, 1/2 - 3 beta); both with beta = eta / 2.
    """
    if model not in (MODEL_LEVY, MODEL_IID):
        raise ValueError(f"unknown model {model!r}")
    if model == MODEL_LEVY:
        if alpha_opt is None or not (0.0 < alpha_opt <= 2.0):
            raise ValueError("heavy-flight curve needs alpha in (0, 2]")
    curve = []
    for eta in eta_grid:
        eta = float(eta)
        if not (0.0 <= eta <= 0.5):
            raise ValueError("eta must be in [0, 1/2]")
        beta = 0.5 * eta
        if model == MODEL_LEVY:
            expo = min((1.0 + alpha_opt) / 2.0 - beta, 1.0)
        else:
            expo = max(0.0, 0.5 - 3.0 * beta)
        curve.append((eta, expo))
    return curve


def compute_bound_report(cfg: ModelConfig, trials: int) -> BoundReport:
    """Evaluate every bound this module knows for one configuration.

    trials = 0 skips the Monte Carlo entries.  The delay bound uses the
    dominating (p_hat upper, p_out upper) pair, as does u_bar; h1 is
    estimated on the grid {1.5r, 3r, 2 sqrt(n)} clipped to its domain,
    every entry on the same samples of one stream, and p_hat_mc is its
    2 sqrt(n) entry, the no-contact probability p_hat itself.  Heavy
    flights average the conditional miss chance given the step length;
    teleport counts misses.
    """
    n, r = cfg.n, cfg.r
    if n < 2:
        raise ValueError("n must be at least 2")
    p_out_lo, p_out_up = p_out_bounds(n, r)
    p_hat_lo, p_hat_up, note = p_hat_bounds(cfg)

    p_hat_mc = None
    h1_mc = None
    if trials > 0:
        two_rt = 2.0 * math.sqrt(n)
        h1_grid = [l0 for l0 in (1.5 * r, 3.0 * r, two_rt) if r < l0 <= two_rt]
        sums = _no_contact_sums(trial_stream(cfg.master_seed, SALT_MC, 0),
                                cfg, h1_grid, trials)
        h1_mc = {l0: _estimate(*s, trials) for l0, s in zip(h1_grid, sums)}
        p_hat_mc = h1_mc[two_rt]

    u_bar = {m: u_bar_bound(m, p_hat_up, p_out_up) for m in _U_BAR_MS}
    if cfg.model == MODEL_IID and n * (1.0 - 3.0 * _GAMMA) >= 2.0:
        delay_upper = iid_delay_bound(n, r, p_hat_up, p_out_up)
    else:
        # Pathwise the scheme is never slower than the bare pair meeting,
        # so the geometric pair bound, the one-copy u_bar, is a valid fallback.
        delay_upper = u_bar[1]

    # r > 0 here: p_out_bounds has checked it
    beta_eq = math.log(r) / math.log(n)
    capacity = capacity_per_node(n, beta_eq) if 0.0 <= beta_eq <= 0.25 else None

    return BoundReport(
        p_out_lower=p_out_lo, p_out_upper=p_out_up,
        p_hat_lower=p_hat_lo, p_hat_upper=p_hat_up,
        p_hat_mc=p_hat_mc, h1_mc=h1_mc, u_bar=u_bar,
        delay_upper=delay_upper, capacity_lambda=capacity,
        n_th_note=note,
    )
