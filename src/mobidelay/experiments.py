"""Orchestrated experiment sweeps and their statistical summaries.

``grid_configs`` turns a population grid and one range setting, a
fixed r or r = n**beta, into one ``ModelConfig`` per grid point.  The
runners take such configs and a trial count, run the simulators from
``world`` under the deterministic stream contract, and reduce the
samples to tables or a log-log regression.  Nothing here draws
randomness of its own: every trial stream is derived from a config's
master seed, so identical configs produce byte-identical outputs
whatever the worker count.

The goodness-of-fit harness places the probe node at the chart center,
where the neighbor count over the remaining nodes is exactly binomial;
a uniformly placed probe mixes position-dependent in-range
probabilities and is visibly overdispersed at large sample sizes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analytics import format_real, p_hat_bounds, p_out_bounds, \
    ccdf_geometric_bound, dumps_stable
from .world import (
    DEFAULT_SEED,
    MODEL_LEVY,
    SALT_GOF,
    ModelConfig,
    pair_meeting_times,
    scheme_delays,
    trial_stream,
)

__all__ = [
    "grid_configs",
    "ScalingFit",
    "GofResult",
    "DelaySummary",
    "summarize_delays",
    "fit_loglog",
    "run_delay_sweep",
    "run_ccdf_sweep",
    "run_dominance_check",
    "sample_neighbor_counts",
    "neighbor_binomial_gof",
    "write_rows_csv",
    "write_json",
]

# Placements per goodness-of-fit block; fixed so chunking never shows up
# in the sampled counts.
_GOF_BLOCK = 1024
# the goodness-of-fit pools cells until each expects at least this many
_MIN_EXPECTED = 5.0

# a delay sample censoring this fraction or more is not summarised reliably
_CENSORED_LIMIT = 0.01


def grid_configs(n_grid: Sequence[int], *, r: Optional[float] = None,
                 beta: Optional[float] = None, model: str,
                 alpha: Optional[float] = None, horizon: Optional[int] = None,
                 master_seed: int = DEFAULT_SEED) -> list[ModelConfig]:
    """One ModelConfig per population of a strictly increasing grid.

    Grid point i runs on master seed master_seed + i, which keeps the
    points statistically independent while staying a pure function of
    the arguments.  ModelConfig validates every other field; horizon of
    None defers to the model default.
    """
    grid = [int(n) for n in n_grid]
    if not grid:
        raise ValueError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    return [ModelConfig(n=n, r=r, beta=beta, model=model, alpha=alpha,
                        horizon_slots=horizon, master_seed=master_seed + i)
            for i, n in enumerate(grid)]


@dataclass(frozen=True)
class ScalingFit:
    """Log-log OLS of mean delay against population size.

    points are the rows fitted, one per grid point, as a sweep writes
    them.  slope and friends are NaN when valid is False, which happens
    when any grid point censored at least 1% of its trials; the points
    are still carried so the failure is inspectable.
    """

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    points: tuple[dict, ...]
    valid: bool = True
    note: str = ""

    def __post_init__(self):
        if self.valid and not (-1e-12 <= self.r_squared <= 1.0 + 1e-12):
            raise ValueError("r_squared must be in [0, 1]")

    def summary(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "slope_stderr": self.slope_stderr,
            "valid": self.valid,
            "note": self.note,
            "points": self.points,
        }


class GofResult(NamedTuple):
    p: float
    chi2: float
    dof: int
    passed: bool


class DelaySummary(NamedTuple):
    """Finite-delay statistics of one relay-delay sample.

    Censored (infinite) delays are excluded from the statistics but
    counted in censored_fraction; statistics of an empty finite set are
    NaN, as is stderr with fewer than two finite delays.
    """

    trials: int
    mean: float
    stderr: float
    median: float
    mean_ceil: float
    censored_fraction: float

    @property
    def censored_ok(self) -> bool:
        """True when less than 1% of the trials were censored."""
        return self.censored_fraction < _CENSORED_LIMIT


def summarize_delays(delays: np.ndarray) -> DelaySummary:
    """Reduce a delay array (inf where censored) to a DelaySummary."""
    finite = delays[np.isfinite(delays)]
    return DelaySummary(
        trials=int(delays.size),
        mean=float(finite.mean()) if finite.size else math.nan,
        stderr=(float(finite.std(ddof=1) / math.sqrt(finite.size))
                if finite.size > 1 else math.nan),
        median=float(np.median(finite)) if finite.size else math.nan,
        mean_ceil=float(np.ceil(finite).mean()) if finite.size else math.nan,
        censored_fraction=1.0 - finite.size / delays.size,
    )


def fit_loglog(points: Sequence[dict]) -> ScalingFit:
    """Ordinary least squares of ln(mean) on ln(n), kept with its points.

    points are rows with keys "n" and "mean"; all means must be positive.
    R squared is defined as 1 for a constant response, where the zero
    slope fits exactly.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    ns = np.array([float(p["n"]) for p in points])
    means = np.array([float(p["mean"]) for p in points])
    if np.any(means <= 0.0):
        raise ValueError("means must be positive")
    x = np.log(ns)
    y = np.log(means)
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("points must span more than one n")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ssr = float(np.sum(resid ** 2))
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    se = math.sqrt(ssr / (len(points) - 2) / sxx) if len(points) > 2 else math.nan
    return ScalingFit(slope=slope, intercept=intercept,
                      r_squared=min(max(r2, 0.0), 1.0),
                      slope_stderr=se, points=tuple(points))


def run_delay_sweep(configs: Sequence[ModelConfig], trials: int,
                    workers: int = 1) -> ScalingFit:
    """Mean relay-scheme delay across the configs' populations, fitted log-log.

    Censored trials are excluded from the mean but counted; a point with
    1% or more censoring invalidates the fit rather than biasing it, and
    the per-point data is returned either way.
    """
    if len(configs) < 3:
        raise ValueError("regression sweeps need at least 3 grid points")
    if trials < 1000:
        raise ValueError("regression sweeps need at least 10^3 trials per point")
    pts = []
    bad = []
    for cfg in configs:
        _, _, delays = scheme_delays(cfg, trials, workers=workers)
        stat = summarize_delays(delays)
        pts.append({"n": cfg.n, "r": cfg.r, "trials": stat.trials, "mean": stat.mean,
                    "stderr": stat.stderr, "median": stat.median,
                    "censored_fraction": stat.censored_fraction})
        if not stat.censored_ok:
            bad.append(cfg.n)
    if bad:
        return ScalingFit(slope=math.nan, intercept=math.nan,
                          r_squared=math.nan, slope_stderr=math.nan,
                          points=tuple(pts), valid=False,
                          note="censored fraction >= 1% at n in "
                               f"{sorted(bad)}")
    return fit_loglog(pts)


def _ccdf_point(times: np.ndarray, t: int) -> tuple[float, float]:
    """Empirical P{T > t} of a meeting-time sample and its standard error."""
    p = float(np.mean(times > t))
    return p, math.sqrt(p * (1.0 - p) / times.size)


def run_ccdf_sweep(configs: Sequence[ModelConfig], trials: int,
                   tau_max: int = 30, workers: int = 1) -> list[dict]:
    """Empirical meeting-time CCDF rows against the geometric bound.

    One row per (n, tau); the bound column is the geometric form at the
    model's no-contact upper bound and the out-of-range upper bound.
    """
    if tau_max < 0:
        raise ValueError("tau_max must be nonnegative")
    rows = []
    for cfg in configs:
        if cfg.horizon_slots <= tau_max:
            raise ValueError("horizon must exceed tau_max")
        p_out_up = p_out_bounds(cfg.n, cfg.r)[1]
        p_hat_up = p_hat_bounds(cfg)[1]
        _, tm = pair_meeting_times(cfg, trials, workers=workers)
        censored = float(np.mean(np.isinf(tm)))
        for tau in range(tau_max + 1):
            p, se = _ccdf_point(tm, tau)
            rows.append({
                "model": cfg.model, "n": cfg.n, "r": cfg.r, "tau": tau,
                "trials": int(tm.size), "ccdf": p, "stderr": se,
                "bound": ccdf_geometric_bound(tau, p_hat_up, p_out_up),
                "censored_fraction": censored,
            })
    return rows


def run_dominance_check(configs: Sequence[ModelConfig], trials: int,
                        alpha_low: float, alpha_high: float,
                        t_grid: Optional[Sequence[int]] = None,
                        workers: int = 1) -> list[dict]:
    """Empirical CCDF comparison between two tail exponents.

    Each config runs twice, its alpha set to each exponent on the
    config's own seed.  Heavier tails (smaller alpha) must not meet
    later: the low-alpha CCDF is required to sit at or below the
    high-alpha one within 3 combined standard errors at every requested
    t.  At t=0 nobody has moved, so both columns estimate the same
    out-of-range probability.
    """
    if any(cfg.model != MODEL_LEVY for cfg in configs):
        raise ValueError("dominance checks need the heavy-flight model")
    if not (0.0 < alpha_low <= alpha_high <= 2.0):
        raise ValueError("need 0 < alpha_low <= alpha_high <= 2")
    taus = list(t_grid) if t_grid is not None else list(range(0, 51))
    if any(t < 0 for t in taus):
        raise ValueError("t values must be nonnegative")
    rows = []
    for cfg in configs:
        if cfg.horizon_slots <= max(taus):
            raise ValueError("horizon must exceed the largest t")
        lo_t, hi_t = [
            pair_meeting_times(replace(cfg, alpha=a), trials, workers=workers)[1]
            for a in (alpha_low, alpha_high)]
        for t in taus:
            p_lo, se_lo = _ccdf_point(lo_t, t)
            p_hi, se_hi = _ccdf_point(hi_t, t)
            rows.append({
                "n": cfg.n, "r": cfg.r, "t": t,
                "alpha_low": alpha_low, "alpha_high": alpha_high,
                "ccdf_low": p_lo, "stderr_low": se_lo,
                "ccdf_high": p_hi, "stderr_high": se_hi,
                "dominated": p_lo <= p_hi + 3.0 * math.hypot(se_lo, se_hi),
            })
    return rows


# ---------------------------------------------------------------------------
# neighbor-count goodness of fit


def sample_neighbor_counts(master_seed: int, n: int, r: float,
                           placements: int) -> np.ndarray:
    """Neighbor counts of a center probe, conditioned on the destination
    starting out of range.

    The probe sits at the chart center; n-1 further nodes are uniform on
    the disc of area pi*n.  Placements whose designated destination lands
    within r are rejected, and the returned counts run over the other
    n-2 nodes, so fewer than `placements` samples come back.  At
    r >= sqrt(n) every destination starts in range, so such r is rejected.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not (0.0 < r < math.sqrt(n)):
        raise ValueError("r must be in (0, sqrt(n)): at r >= sqrt(n) every "
                         "destination starts in range")
    if placements < 1:
        raise ValueError("placements must be positive")
    thr = r * r / n  # squared-radius fraction below which a node is in range
    out = []
    blocks = (placements + _GOF_BLOCK - 1) // _GOF_BLOCK
    for b in range(blocks):
        k = min(_GOF_BLOCK, placements - b * _GOF_BLOCK)
        rng = trial_stream(master_seed, SALT_GOF, b)
        u = rng.uniform(size=(k, n - 1))  # u = (rho/R)^2 is uniform
        in_range = u <= thr
        keep = ~in_range[:, 0]
        out.append(in_range[keep, 1:].sum(axis=1))
    return np.concatenate(out).astype(np.int64)


def _pool_expected(obs: np.ndarray, exp: np.ndarray):
    """Merge adjacent cells until each pooled expectation reaches _MIN_EXPECTED."""
    po, pe = [], []
    co = ce = 0.0
    for o, e in zip(obs, exp):
        co += o
        ce += e
        if ce >= _MIN_EXPECTED:
            po.append(co)
            pe.append(ce)
            co = ce = 0.0
    if ce > 0.0 and po:
        po[-1] += co
        pe[-1] += ce
    return np.asarray(po), np.asarray(pe)


def neighbor_binomial_gof(samples: Sequence[int], n: int) -> GofResult:
    """Chi-square of observed neighbor counts against the binomial law.

    The in-range probability p of Binomial(n-2, p) is estimated from the
    samples, which spends one further degree of freedom.  Cells are
    pooled so every expectation is at least 5.  Passing means not
    rejected at the 1% level.
    """
    # imported here: scipy.stats dominates the package's import time
    from scipy import stats

    counts = np.asarray(samples, dtype=np.int64)
    if counts.size < 10_000:
        raise ValueError("need at least 10^4 samples")
    m = n - 2
    if m < 1 or counts.max() > m or counts.min() < 0:
        raise ValueError("counts must lie in [0, n-2]")
    p = float(counts.mean() / m)
    support = np.arange(0, m + 1)
    expected = stats.binom.pmf(support, m, p) * counts.size
    observed = np.bincount(counts, minlength=m + 1).astype(float)
    obs_p, exp_p = _pool_expected(observed, expected)
    if len(exp_p) < 3:
        raise ValueError("too few cells after pooling")
    chi2 = float(np.sum((obs_p - exp_p) ** 2 / exp_p))
    dof = len(exp_p) - 2
    crit = float(stats.chi2.isf(0.01, dof))
    return GofResult(p=p, chi2=chi2, dof=dof, passed=chi2 < crit)


# ---------------------------------------------------------------------------
# emission


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        s = format_real(float(v))
        return "" if s == "null" else s
    return "" if v is None else str(v)


def write_rows_csv(path: str, rows: Sequence[dict]) -> None:
    """RFC-4180 table, one header row, reals at 17 significant digits."""
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(row[f]) for f in fields])


def write_json(path: str, obj) -> None:
    """Stable-order JSON document, UTF-8, newline terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_stable(obj))
        fh.write("\n")
