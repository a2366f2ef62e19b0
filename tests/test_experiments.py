"""Sweep orchestration, regression, and goodness-of-fit tests.

Regression oracles are exact algebraic cases (points on a perfect power
law) plus a known-noise synthetic whose analytic slope error is checked
against both coverage and the reported standard error.
"""

import csv
import io
import math

import numpy as np
import pytest
from scipy import stats

from mobidelay.experiments import (
    GofResult,
    ScalingFit,
    fit_loglog,
    grid_configs,
    neighbor_binomial_gof,
    run_ccdf_sweep,
    run_delay_sweep,
    run_dominance_check,
    sample_neighbor_counts,
    write_json,
    write_rows_csv,
)
from mobidelay.analytics import p_out_bounds

SEED = 20260817


# ---------------------------------------------------------------------------
# grid configs


def test_grid_rejects_empty_or_unsorted():
    with pytest.raises(ValueError, match="nonempty"):
        grid_configs((), beta=0.0, model="iid")
    with pytest.raises(ValueError, match="strictly increasing"):
        grid_configs((100, 100), beta=0.0, model="iid")
    with pytest.raises(ValueError, match="strictly increasing"):
        grid_configs((200, 100), beta=0.0, model="iid")


def test_grid_leaves_fields_to_model_config():
    with pytest.raises(ValueError, match="beta"):
        grid_configs((100,), beta=0.3, model="iid")
    with pytest.raises(ValueError, match="model"):
        grid_configs((100,), beta=0.0, model="brownian")
    with pytest.raises(ValueError, match="alpha"):
        grid_configs((100,), beta=0.0, model="levy")
    with pytest.raises(ValueError, match="horizon"):
        grid_configs((100,), beta=0.0, model="iid", horizon=0)
    with pytest.raises(ValueError, match="one of r or beta"):
        grid_configs((100,), model="iid")


def test_grid_configs_differ_by_point():
    c0, c1 = grid_configs((100, 200), beta=0.0, model="iid", master_seed=7)
    assert (c0.n, c1.n) == (100, 200)
    assert c0.master_seed == 7 and c1.master_seed == 8
    assert c0.r == 1.0 and c1.r == 1.0
    # a fixed range is used as given, not passed through an exponent
    assert [c.r for c in grid_configs((100, 400), r=2.0, model="iid")] == [2.0, 2.0]


# ---------------------------------------------------------------------------
# log-log regression


def _rows(ns, means):
    return [{"n": n, "mean": m} for n, m in zip(ns, means)]


def test_fit_loglog_exact_line():
    pts = _rows([10, 100], [10.0, 100.0])
    fit = fit_loglog(pts)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # the fit carries the rows it was given
    assert fit.points == tuple(pts)


def test_fit_loglog_recovers_half_power():
    ns = [250, 500, 1000, 2000, 4000]
    pts = _rows(ns, [3.0 * math.sqrt(n) for n in ns])
    fit = fit_loglog(pts)
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_constant_response():
    fit = fit_loglog(_rows([10, 100, 1000], [5.0, 5.0, 5.0]))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_loglog_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 2"):
        fit_loglog(_rows([10], [1.0]))
    with pytest.raises(ValueError, match="positive"):
        fit_loglog(_rows([10, 100], [0.0, 1.0]))
    with pytest.raises(ValueError, match="more than one n"):
        fit_loglog(_rows([10, 10], [1.0, 2.0]))


def test_fit_loglog_stderr_matches_known_noise():
    # y = ln(2 n^0.7) + eps with iid gaussian eps: the analytic slope
    # error is sigma / sqrt(Sxx).  Check 2-sigma coverage and that the
    # residual-based estimate is unbiased across repetitions.
    rng = np.random.default_rng(SEED)
    ns = np.array([100, 300, 1000, 3000, 10000, 30000], dtype=float)
    sigma = 0.05
    x = np.log(ns)
    analytic = sigma / math.sqrt(np.sum((x - x.mean()) ** 2))
    hits = 0
    reported = []
    for _ in range(100):
        means = 2.0 * ns ** 0.7 * np.exp(rng.normal(0.0, sigma, ns.size))
        fit = fit_loglog(_rows(ns, means))
        if abs(fit.slope - 0.7) <= 2.0 * analytic:
            hits += 1
        reported.append(fit.slope_stderr)
    assert hits >= 88
    assert np.mean(reported) == pytest.approx(analytic, rel=0.25)


# ---------------------------------------------------------------------------
# delay sweep


def test_delay_sweep_slope_near_half_power():
    configs = grid_configs((64, 256, 1024), beta=0.0, model="iid",
                           horizon=3000, master_seed=SEED)
    fit = run_delay_sweep(configs, 1000)
    assert fit.valid
    assert all(p["censored_fraction"] < 0.01 for p in fit.points)
    assert fit.slope <= 0.70
    assert fit.r_squared > 0.9
    means = [p["mean"] for p in fit.points]
    assert means == sorted(means)  # delay grows with n at fixed r


def test_delay_sweep_reports_censoring_instead_of_dropping():
    configs = grid_configs((100, 200, 400), beta=0.0, model="iid",
                           horizon=1, master_seed=SEED)
    fit = run_delay_sweep(configs, 1000)
    assert not fit.valid
    assert math.isnan(fit.slope)
    assert "censored" in fit.note
    assert len(fit.points) == 3
    assert all(p["censored_fraction"] >= 0.01 for p in fit.points)
    # the points are the rows a sweep writes, in column order
    assert list(fit.points[0]) == ["n", "r", "trials", "mean", "stderr", "median",
                                   "censored_fraction"]
    assert [p["n"] for p in fit.points] == [100, 200, 400]


def test_delay_sweep_input_gates():
    configs = grid_configs((100, 200), beta=0.0, model="iid")
    with pytest.raises(ValueError, match="3 grid points"):
        run_delay_sweep(configs, 1000)
    configs = grid_configs((100, 200, 400), beta=0.0, model="iid")
    with pytest.raises(ValueError, match="10\\^3 trials"):
        run_delay_sweep(configs, 100)


def test_delay_sweep_summary_shape():
    configs = grid_configs((64, 128, 256), beta=0.0, model="iid",
                           horizon=2000, master_seed=SEED)
    fit = run_delay_sweep(configs, 1000)
    s = fit.summary()
    assert set(s) == {"slope", "intercept", "r_squared", "slope_stderr",
                      "valid", "note", "points"}
    assert len(s["points"]) == 3
    assert set(s["points"][0]) == {"n", "r", "trials", "mean", "stderr",
                                   "median", "censored_fraction"}


# ---------------------------------------------------------------------------
# ccdf sweep


def test_ccdf_sweep_iid_dominated_and_monotone():
    configs = grid_configs((100,), r=2.0, model="iid", master_seed=SEED)
    rows = run_ccdf_sweep(configs, 20000, tau_max=12)
    assert len(rows) == 13
    po_lo, po_up = p_out_bounds(100, rows[0]["r"])
    se0 = rows[0]["stderr"]
    assert po_lo - 3 * se0 <= rows[0]["ccdf"] <= po_up + 3 * se0
    prev = 1.1
    for row in rows:
        assert row["ccdf"] <= row["bound"] + 3.0 * row["stderr"]
        assert row["ccdf"] <= prev + 1e-15
        prev = row["ccdf"]
        assert row["trials"] == 20000
        assert row["censored_fraction"] < 0.01


def test_ccdf_sweep_levy_rows_complete():
    configs = grid_configs((100,), beta=0.0, model="levy", alpha=1.0,
                           horizon=40, master_seed=SEED)
    rows = run_ccdf_sweep(configs, 2000, tau_max=8)
    assert len(rows) == 9
    keys = {"model", "n", "r", "tau", "trials", "ccdf", "stderr", "bound",
            "censored_fraction"}
    assert all(set(r) == keys for r in rows)
    assert all(r["model"] == "levy" for r in rows)
    assert all(0.0 <= r["bound"] <= 1.0 for r in rows)


def test_ccdf_sweep_validates_horizon():
    configs = grid_configs((100,), beta=0.0, model="iid", horizon=10)
    with pytest.raises(ValueError, match="horizon"):
        run_ccdf_sweep(configs, 100, tau_max=30)


def test_ccdf_sweep_worker_invariance():
    configs = grid_configs((64,), beta=0.0, model="iid", master_seed=SEED)
    r1 = run_ccdf_sweep(configs, 3000, tau_max=5, workers=1)
    r2 = run_ccdf_sweep(configs, 3000, tau_max=5, workers=2)
    assert r1 == r2


# ---------------------------------------------------------------------------
# dominance


def test_dominance_equal_alphas_match_exactly():
    configs = grid_configs((64,), beta=0.0, model="levy", alpha=1.2,
                           horizon=20, master_seed=SEED)
    rows = run_dominance_check(configs, 800, 1.2, 1.2, t_grid=range(0, 6))
    for row in rows:
        assert row["ccdf_low"] == row["ccdf_high"]
        assert row["dominated"]


def test_dominance_heavier_tail_meets_sooner():
    configs = grid_configs((100,), beta=0.0, model="levy", alpha=1.0,
                           horizon=30, master_seed=SEED)
    rows = run_dominance_check(configs, 1500, 0.8, 1.6, t_grid=range(0, 9))
    assert all(row["dominated"] for row in rows)
    # before anyone moves both columns estimate the out-of-range prob
    t0 = rows[0]
    assert t0["t"] == 0
    po_lo, po_up = p_out_bounds(100, t0["r"])
    for side, se_key in (("ccdf_low", "stderr_low"), ("ccdf_high", "stderr_high")):
        assert po_lo - 3 * t0[se_key] <= t0[side] <= po_up + 3 * t0[se_key]
    gap = 3 * math.hypot(t0["stderr_low"], t0["stderr_high"])
    assert abs(t0["ccdf_low"] - t0["ccdf_high"]) <= gap
    # and by t = 8 the heavier tail is strictly ahead
    t8 = rows[-1]
    assert t8["ccdf_low"] < t8["ccdf_high"]


def test_dominance_input_gates():
    iid = grid_configs((64,), beta=0.0, model="iid")
    with pytest.raises(ValueError, match="heavy-flight"):
        run_dominance_check(iid, 100, 0.5, 2.0)
    configs = grid_configs((64,), beta=0.0, model="levy", alpha=1.0)
    with pytest.raises(ValueError, match="alpha_low"):
        run_dominance_check(configs, 100, 1.5, 0.5)


# ---------------------------------------------------------------------------
# neighbor-count goodness of fit


def test_neighbor_counts_deterministic_and_conditioned():
    a = sample_neighbor_counts(SEED, 500, 5.0, 30000)
    b = sample_neighbor_counts(SEED, 500, 5.0, 30000)
    assert np.array_equal(a, b)
    # the destination-in-range rejection removes about r^2/n of placements
    accept = a.size / 30000
    p_in = 25.0 / 500.0
    se = math.sqrt(p_in * (1 - p_in) / 30000)
    assert abs(accept - (1.0 - p_in)) < 4 * se


def test_neighbor_counts_mean_matches_binomial():
    counts = sample_neighbor_counts(SEED, 500, 5.0, 40000)
    p = 25.0 / 500.0
    mean = counts.mean()
    se = math.sqrt(498 * p * (1 - p) / counts.size)
    assert abs(mean - 498 * p) < 3 * se


def test_gof_passes_on_world_samples():
    counts = sample_neighbor_counts(0x5EED_CAFE, 500, 5.0, 30000)
    res = neighbor_binomial_gof(counts, 500)
    assert isinstance(res, GofResult)
    assert res.p == counts.mean() / 498.0
    assert res.passed
    assert res.dof >= 1


def test_gof_world_pass_rate_near_nominal():
    # a 1%-level test should accept almost every independent replication
    passes = 0
    for seed in range(30):
        counts = sample_neighbor_counts(seed, 500, 5.0, 30000)
        passes += neighbor_binomial_gof(counts, 500).passed
    assert passes >= 28


def test_gof_passes_on_synthetic_null():
    # close to the nominal 99% acceptance across independent repetitions
    rng = np.random.default_rng(SEED)
    passes = 0
    for _ in range(40):
        draws = rng.binomial(498, 0.05, size=20000)
        if neighbor_binomial_gof(draws, 500).passed:
            passes += 1
    assert passes >= 36


def test_gof_rejects_wrong_law():
    rng = np.random.default_rng(SEED)
    # a 50/50 mixture of two binomials is overdispersed
    lo = rng.binomial(498, 0.03, size=10000)
    hi = rng.binomial(498, 0.07, size=10000)
    draws = np.concatenate([lo, hi])
    res = neighbor_binomial_gof(draws, 500)
    assert not res.passed


def test_gof_input_gates():
    with pytest.raises(ValueError, match="10\\^4"):
        neighbor_binomial_gof([1, 2, 3], 500)
    bad = np.full(20000, 499)
    with pytest.raises(ValueError, match="counts"):
        neighbor_binomial_gof(bad, 500)


def test_sample_neighbor_counts_gates():
    with pytest.raises(ValueError, match="n >= 3"):
        sample_neighbor_counts(SEED, 2, 1.0, 100)
    with pytest.raises(ValueError, match="r must"):
        sample_neighbor_counts(SEED, 100, 11.0, 100)
    # at r = sqrt(n) every destination starts in range
    with pytest.raises(ValueError, match="every destination starts in range"):
        sample_neighbor_counts(SEED, 100, 10.0, 100)
    with pytest.raises(ValueError, match="placements"):
        sample_neighbor_counts(SEED, 100, 1.0, 0)


# ---------------------------------------------------------------------------
# emission and replay


def test_csv_formatting(tmp_path):
    rows = [
        {"name": "a,b", "k": 3, "v": 0.1, "ok": True, "gap": math.nan},
        {"name": 'q"x', "k": -1, "v": 2.0, "ok": False, "gap": 1.5},
    ]
    path = tmp_path / "t.csv"
    write_rows_csv(str(path), rows)
    raw = path.read_bytes()
    assert b"\r\n" in raw
    with open(path, newline="", encoding="utf-8") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["name", "k", "v", "ok", "gap"]
    assert back[1] == ["a,b", "3", "0.10000000000000001", "true", ""]
    assert back[2] == ['q"x', "-1", "2", "false", "1.5"]


def test_csv_rejects_empty():
    with pytest.raises(ValueError, match="no rows"):
        write_rows_csv("/tmp/unused.csv", [])


def test_json_writer(tmp_path):
    path = tmp_path / "t.json"
    write_json(str(path), {"b": 1, "a": [1.5, math.inf]})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"b"') < text.index('"a"')  # insertion order kept
    assert "null" in text


def test_ccdf_sweep_byte_identical_replay(tmp_path):
    configs = grid_configs((64,), beta=0.0, model="iid", master_seed=SEED)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_rows_csv(str(p1), run_ccdf_sweep(configs, 2000, tau_max=6))
    write_rows_csv(str(p2), run_ccdf_sweep(configs, 2000, tau_max=6))
    assert p1.read_bytes() == p2.read_bytes()
    j1 = tmp_path / "a.json"
    write_json(str(j1), run_ccdf_sweep(configs, 2000, tau_max=6))
    j2 = tmp_path / "b.json"
    write_json(str(j2), run_ccdf_sweep(configs, 2000, tau_max=6))
    assert j1.read_bytes() == j2.read_bytes()
