"""Acceptance gate: eleven bound-consistency and oracle-equivalence checks.

Each criterion is one test, so a verbose run gives one pass/fail line
per criterion; the prints carry the measured numbers.  Tolerances are
3 binomial standard errors on Monte Carlo estimates unless a criterion
states a tighter figure.  Criterion 4 is asserted against the valid
direction of the closed-form sandwich (the dominating no-contact upper
bound); the run prints the number the subordinate bound would give,
which the empirical mean exceeds.  See the decisions ledger.
"""

import math
import time
from itertools import product

import numpy as np
from scipy import stats

from lemmas import (
    asin_envelope,
    binomial_chernoff_tail,
    cell_occupancy_prob,
    estimate_cosine_diff_tail_mc,
    estimate_H1_mc,
    estimate_p_out_mc,
    u_bar_from_ccdf,
)
from mobidelay.analytics import (
    capacity_per_node,
    cosine_diff_tail_constants,
    p_hat_bounds_iid,
    p_hat_bounds_levy,
    p_out_bounds,
)
from mobidelay.experiments import (
    grid_configs,
    neighbor_binomial_gof,
    run_ccdf_sweep,
    run_delay_sweep,
    run_dominance_check,
    sample_neighbor_counts,
    write_rows_csv,
)
from mobidelay.world import (
    DEFAULT_SEED,
    MODEL_IID,
    MODEL_LEVY,
    SALT_MEET,
    ModelConfig,
    pair_meeting_times,
    scheme_delays,
    trial_stream,
)
from replay import replay

SALT_ACC = 900  # acceptance-only stream family, disjoint from library salts


def _stream(index: int) -> np.random.Generator:
    return trial_stream(DEFAULT_SEED, SALT_ACC, index)


def _report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:>2}: {text}")


def test_criterion_01_out_of_range_sandwich():
    t0 = time.time()
    for i, (n, r) in enumerate(product((100, 400, 1600), (1.0, 2.0, 4.0))):
        assert r <= math.sqrt(n)
        est = estimate_p_out_mc(_stream(i), n, r, 10**6)
        lo, up = p_out_bounds(n, r)
        assert lo - 3 * est.stderr <= est.value <= up + 3 * est.stderr, \
            f"(n={n}, r={r}): {est.value} outside [{lo}, {up}] + 3 sigma"
    elapsed = time.time() - t0
    _report(1, f"9 configurations inside the sandwich, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_02_iid_no_contact_sandwich():
    t0 = time.time()
    # (100, 2) and (400, 4) share R/r, so H1 is the same there; (10^4, 4)
    # adds a second point, H1 about 0.97126 at 2 sqrt(n)
    for i, (n, r) in enumerate(((100, 2.0), (400, 4.0), (10**4, 4.0))):
        est = estimate_H1_mc(_stream(10 + i), ModelConfig(n=n, r=r),
                             2.0 * math.sqrt(n), 10**6)
        lo, up = p_hat_bounds_iid(n, r)
        assert lo - 3 * est.stderr <= est.value <= up + 3 * est.stderr, \
            f"n={n}: {est.value} outside [{lo}, {up}] + 3 sigma"
        _report(2, f"n={n}: estimate {est.value:.5f} in "
                   f"[{lo:.5f}, {up:.5f}] +- 3 sigma")
    elapsed = time.time() - t0
    assert elapsed < 60.0


def test_criterion_03_geometric_ccdf_domination():
    t0 = time.time()
    iid = grid_configs((400,), r=4.0, model=MODEL_IID, master_seed=DEFAULT_SEED)
    alpha = 1.0
    levy = grid_configs((10**4,), beta=0.0, model=MODEL_LEVY, alpha=alpha,
                        horizon=40, master_seed=DEFAULT_SEED)
    for configs in (iid, levy):
        rows = run_ccdf_sweep(configs, 10**5, tau_max=30)
        for row in rows:
            assert row["ccdf"] <= row["bound"] + 3.0 * row["stderr"], \
                f"{row['model']} tau={row['tau']}: {row['ccdf']} > {row['bound']}"
    n = levy[0].n
    _, _, caveat = p_hat_bounds_levy(n, 1.0, alpha)
    _report(3, f"62 rows dominated; heavy-flight run at n={n} "
               f"honors the bound's validity note: {caveat}")
    elapsed = time.time() - t0
    assert elapsed < 300.0


def test_criterion_04_expected_ceil_meeting_bound():
    n, r = 400, 4.0
    cfg = ModelConfig(n=n, r=r, model=MODEL_IID, horizon_slots=2000,
                      master_seed=DEFAULT_SEED)
    _, tm = pair_meeting_times(cfg, 10**5)
    censored = float(np.mean(np.isinf(tm)))
    assert censored < 0.01, f"censored fraction {censored}"
    ceil_t = np.ceil(tm[np.isfinite(tm)])
    mean = float(ceil_t.mean())
    se = float(ceil_t.std(ddof=1) / math.sqrt(ceil_t.size))
    _, po_up = p_out_bounds(n, r)
    ph_lo, ph_up = p_hat_bounds_iid(n, r)
    dominating = po_up / (1.0 - ph_up)
    subordinate = po_up / (1.0 - ph_lo)
    _report(4, f"mean ceil meeting time {mean:.3f} +- {se:.3f} <= "
               f"{dominating:.3f} (dominating form); the subordinate form "
               f"gives {subordinate:.3f}, below the empirical mean, "
               f"so it is not a bound (see decisions ledger)")
    assert mean <= dominating + 3.0 * se
    assert censored < 0.01


def test_criterion_05_binomial_neighbor_gof():
    n, r = 500, 5.0
    counts = sample_neighbor_counts(DEFAULT_SEED, n, r, 10**5)
    res = neighbor_binomial_gof(counts, n)
    _report(5, f"chi2 {res.chi2:.2f} on {res.dof} dof "
               f"({counts.size} conditioned placements), "
               f"{'pass' if res.passed else 'reject'} at 1%")
    assert res.passed


def test_criterion_06_capacity_limit_and_occupancy():
    t0 = time.time()
    limit = 1.0 - 2.0 * math.exp(-1.0)
    value = capacity_per_node(10**6, 0.0)
    assert abs(value - limit) < 1e-3
    # occupancy over unit cells: n nodes uniform on an area-n square
    n, side, placements = 10**4, 100, 300
    rng = _stream(20)
    fractions = np.empty(placements)
    for k in range(placements):
        x = rng.uniform(0.0, side, n)
        y = rng.uniform(0.0, side, n)
        cells = np.floor(x).astype(int) * side + np.floor(y).astype(int)
        per_cell = np.bincount(cells, minlength=side * side)
        fractions[k] = np.mean(per_cell >= 2)
    mc = fractions.mean()
    se = fractions.std(ddof=1) / math.sqrt(placements)
    closed = cell_occupancy_prob(n, 1.0)
    assert abs(mc - closed) <= 3.0 * se, f"{mc} vs {closed} +- {3*se}"
    elapsed = time.time() - t0
    _report(6, f"capacity ratio {value:.7f} within 1e-3 of {limit:.7f}; "
               f"occupancy MC {mc:.5f} vs closed form {closed:.5f} "
               f"+- {3*se:.5f}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_07_iid_delay_scaling_slopes():
    t0 = time.time()
    grid = (250, 500, 1000, 2000, 4000)
    for beta, horizon, cap in ((0.0, 5000, 0.65), (1.0 / 6.0, 2000, 0.15)):
        configs = grid_configs(grid, beta=beta, model=MODEL_IID, horizon=horizon,
                               master_seed=DEFAULT_SEED)
        fit = run_delay_sweep(configs, 10**3)
        assert fit.valid, fit.note
        _report(7, f"beta={beta:.4f}: slope {fit.slope:.4f} <= {cap} "
                   f"(r2 {fit.r_squared:.4f})")
        assert fit.slope <= cap
    elapsed = time.time() - t0
    assert elapsed < 1200.0


def test_criterion_08_levy_delay_envelope():
    t0 = time.time()
    alpha = 1.0
    exponent = (1.0 + alpha) / 2.0 - 0.25
    points = []
    for cfg in grid_configs((256, 1024, 4096), beta=0.25, model=MODEL_LEVY,
                            alpha=alpha, master_seed=DEFAULT_SEED):
        _, _, delays = scheme_delays(cfg, 10**3)
        finite = delays[np.isfinite(delays)]
        points.append((cfg.n, float(finite.mean()),
                       float(finite.std(ddof=1) / math.sqrt(finite.size)),
                       1.0 - finite.size / delays.size))
    scale_c = points[0][1] / points[0][0] ** exponent
    for n, mean, se, censored in points:
        envelope = scale_c * n ** exponent
        assert mean <= envelope + 3.0 * se, \
            f"n={n}: {mean} > {envelope} + {3*se}"
        assert censored < 0.01
    detail = ", ".join(f"n={n}: {m:.2f} <= {scale_c * n**exponent:.2f}"
                       for n, m, _, _ in points)
    elapsed = time.time() - t0
    _report(8, f"envelope exponent {exponent}: {detail}, {elapsed:.1f}s")
    assert elapsed < 1200.0


def test_criterion_09_cosine_difference_tail():
    for j, alpha in enumerate((1.0, 2.0)):
        tail = cosine_diff_tail_constants(alpha)
        ests = estimate_cosine_diff_tail_mc(_stream(30 + j), alpha,
                                            (4.0, 8.0), 10**7)
        for z, est in ests.items():
            lo = tail.c_l / z ** alpha
            up = tail.c_u / z ** alpha
            assert lo - 3 * est.stderr <= est.value <= up + 3 * est.stderr, \
                f"alpha={alpha}, z={z}: {est.value} outside [{lo}, {up}]"
        _report(9, f"alpha={alpha}: tails at z=4, 8 inside "
                   f"[c_l/z^a, c_u/z^a] +- 3 sigma")


def test_criterion_10_alpha_dominance():
    configs = grid_configs((400,), r=4.0, model=MODEL_LEVY, alpha=1.0,
                           horizon=60, master_seed=DEFAULT_SEED)
    rows = run_dominance_check(configs, 2 * 10**4, 0.5, 2.0)
    bad = [row for row in rows if not row["dominated"]]
    gap = max(row["ccdf_high"] - row["ccdf_low"] for row in rows)
    _report(10, f"{len(rows)} grid points, {len(bad)} violations, "
                f"max CCDF gap {gap:.3f}")
    assert not bad


def test_criterion_11_property_suites(tmp_path):
    t0 = time.time()

    # linear envelope of asin on a dense grid
    for x in np.linspace(0.0, 1.0, 10**4):
        lo, up = asin_envelope(float(x))
        val = math.asin(float(x))
        assert lo <= val + 1e-15 and val <= up + 1e-15

    # one-slot no-contact probability rises with initial separation
    n, r = 100, 2.0
    grid = [1.5 * r, 3.0 * r, 2.0 * math.sqrt(n)]
    ests = [estimate_H1_mc(_stream(40), ModelConfig(n=n, r=r), l0, 3 * 10**5)
            for l0 in grid]
    for near, far in zip(ests, ests[1:]):
        slack = 3.0 * math.hypot(near.stderr, far.stderr)
        assert near.value <= far.value + slack

    # Chernoff lower tail dominates the exact binomial CDF
    cases = [(nt, p, frac) for nt in (10, 100, 1000, 5000, 20000)
             for p in (0.05, 0.5) for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert len(cases) == 50
    for nt, p, frac in cases:
        x = frac * nt * p
        exact = float(stats.binom.cdf(math.floor(x), nt, p))
        assert exact <= binomial_chernoff_tail(nt, p, x) * (1.0 + 1e-12)

    # the minimum-of-m sum is exact on geometric CCDFs
    for p, q, m in ((0.9, 0.99, 1), (0.7, 0.95, 3), (0.5, 0.8, 7)):
        got = u_bar_from_ccdf(lambda tau: q * p ** tau, m)
        want = q ** m / (1.0 - p ** m)
        assert abs(got - want) <= 1e-12 * want

    # slot-boundary contact can only be later than continuous contact:
    # the replay reads the slot ends of the slots each trial ran, and its
    # continuous times are the engine's on the same trials
    for cfg in (
        ModelConfig(n=100, r=2.0, model=MODEL_IID, horizon_slots=200,
                    master_seed=DEFAULT_SEED),
        ModelConfig(n=100, r=2.0, model=MODEL_LEVY,
                    alpha=1.5,
                    horizon_slots=150, master_seed=DEFAULT_SEED),
    ):
        _, _, tm, ts = replay(cfg, 10**4, SALT_MEET)
        assert not np.any(np.isinf(tm) & np.isfinite(ts))
        both = np.isfinite(tm) & np.isfinite(ts)
        assert np.all(ts[both] >= tm[both])
        _, engine = pair_meeting_times(cfg, 10**4)
        fin = np.isfinite(engine)
        assert np.array_equal(np.isfinite(tm), fin)
        assert np.all(np.abs(tm[fin] - engine[fin]) <= 1e-9)

    # byte-identical replay, worker-count invariance
    configs = grid_configs((64,), beta=0.0, model=MODEL_IID,
                           master_seed=DEFAULT_SEED)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(str(p1), run_ccdf_sweep(configs, 2048, tau_max=8))
    write_rows_csv(str(p2), run_ccdf_sweep(configs, 2048, tau_max=8, workers=2))
    assert p1.read_bytes() == p2.read_bytes()

    elapsed = time.time() - t0
    _report(11, f"six property suites green, {elapsed:.1f}s")
    assert elapsed < 300.0
