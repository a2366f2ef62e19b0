"""Closed-form bounds, their frozen-value oracles, and the MC estimators."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gamma as gamma_fn

import full_mc
import oracle
from lemmas import (
    asin_envelope,
    binomial_chernoff_tail,
    capacity_ratio,
    cell_occupancy_prob,
    chernoff_tail_relaxed,
    estimate_cosine_diff_tail_mc,
    estimate_p_out_mc,
    u_bar_from_ccdf,
)
from mobidelay import analytics
from mobidelay.analytics import (
    BoundReport,
    Estimate,
    TailConstants,
    capacity_per_node,
    ccdf_geometric_bound,
    compute_bound_report,
    cosine_diff_tail_constants,
    dumps_stable,
    estimate_H1_mc,
    format_real,
    iid_delay_bound,
    p_hat_bounds,
    p_hat_bounds_iid,
    p_hat_bounds_levy,
    p_out_bounds,
    tradeoff_curve,
    u_bar_bound,
)
from mobidelay.flight import sample_flight_lengths
from mobidelay.geometry import uniform_points_in_disc
from mobidelay.world import (
    ModelConfig,
    _pair_slot_contacts,
    pair_meeting_times,
    scheme_delays,
    trial_stream,
)

RNG = lambda seed: np.random.default_rng(seed)
TWO_PI = 2.0 * math.pi


def _cfg(n, r, alpha=None):
    # heavy-flight when given a tail exponent, teleport otherwise
    return ModelConfig(n=n, r=r, model="iid" if alpha is None else "levy", alpha=alpha)


# ---------------------------------------------------------------------------
# out-of-range probability


def test_p_out_bounds_values():
    lo, up = p_out_bounds(100, 2.0)
    assert lo == pytest.approx(0.96, abs=1e-15)
    assert up == pytest.approx(1.0 - 4.0 / 300.0, abs=1e-15)
    # vanishing range: both ends collapse to 1
    lo, up = p_out_bounds(100, 1e-12)
    assert lo == pytest.approx(1.0) and up == pytest.approx(1.0)


def test_p_out_bounds_domain():
    with pytest.raises(ValueError):
        p_out_bounds(100, 10.5)  # r > sqrt(n)
    with pytest.raises(ValueError):
        p_out_bounds(100, 0.0)


def test_p_out_mc_within_sandwich():
    est = estimate_p_out_mc(trial_stream(3, 14, 0), 100, 2.0, 1_000_000)
    lo, up = p_out_bounds(100, 2.0)
    assert lo - 3 * est.stderr <= est.value <= up + 3 * est.stderr


def test_p_out_mc_trivial_edges():
    # r at least the diameter: nothing is ever out of range
    est = estimate_p_out_mc(RNG(0), 100, 20.0, 10_000)
    assert est.value == 0.0
    # vanishing r: every pair is out of range
    est = estimate_p_out_mc(RNG(1), 100, 1e-12, 10_000)
    assert est.value == 1.0


# ---------------------------------------------------------------------------
# no-contact probability bounds


def test_p_hat_bounds_iid_frozen_values():
    lo, up = p_hat_bounds_iid(100, 2.0)
    a = math.asin(0.1)
    assert up == pytest.approx(1.0 - a / math.pi, abs=1e-15)
    assert lo == pytest.approx(1.0 - 0.02 - 0.4 / math.pi - 5.0 * a / math.pi,
                               abs=1e-15)
    # decimal spot values, frozen
    assert up == pytest.approx(0.9681157, abs=1e-6)
    assert lo == pytest.approx(0.6932546, abs=1e-6)
    with pytest.raises(ValueError):
        p_hat_bounds_iid(100, 20.0)


def test_p_hat_bounds_levy_formula():
    tail = cosine_diff_tail_constants(1.0)
    lo, up, caveat = p_hat_bounds_levy(10_000, 1.0, 1.0)
    manual_up = 1.0 - (2.0 * tail.c_l / math.pi) * (1.0 / 201.0) * math.asin(1.0 / 200.0)
    manual_lo = 1.0 - (2.0 ** 2.5 * tail.c_u / math.pi) * (1.0 / 199.0) * math.asin(1.0 / 200.0)
    assert up == pytest.approx(manual_up, rel=1e-15)
    assert lo == pytest.approx(manual_lo, rel=1e-15)
    assert lo < up
    assert "n >= 10^4" in caveat
    with pytest.raises(ValueError):
        p_hat_bounds_levy(100, 21.0, 1.0)


def test_bound_pairs_ordered_on_grid():
    # lower <= upper over an (n, r, alpha) scan wherever defined
    for n in (100, 400, 1600, 10_000):
        rt = math.sqrt(n)
        for r in (0.5, 1.0, 2.0, 0.5 * rt, 0.9 * rt):
            lo, up = p_out_bounds(n, min(r, rt))
            assert lo <= up
            lo, up = p_hat_bounds_iid(n, r)
            assert lo <= up
            for alpha in (0.5, 1.0, 1.5, 2.0):
                lo, up, _ = p_hat_bounds_levy(n, r, alpha)
                assert lo <= up


def test_p_hat_bounds_clamps_either_model():
    clamp = lambda v: min(max(v, 0.0), 1.0)
    for n, r in ((100, 2.0), (100, 19.0), (10_000, 4.0)):
        lo, up = p_hat_bounds_iid(n, r)
        assert p_hat_bounds(ModelConfig(n=n, r=r)) == (
            clamp(lo), clamp(up), "no-contact bounds valid for all n")
        lo, up, note = p_hat_bounds_levy(n, r, 1.0)
        assert p_hat_bounds(_cfg(n, r, 1.0)) == (
            clamp(lo), clamp(up), note)
    # a vacuous raw lower bound comes back as 0
    assert p_hat_bounds(ModelConfig(n=100, r=19.0))[0] == 0.0


@pytest.mark.parametrize("alpha, lower, upper", [
    (0.5, "0x1.fece25e780b88p-1", "0x1.ffe9b7b58523cp-1"),
    (1.0, "0x1.ffe155ab14b51p-1", "0x1.fffeb2aaa14aap-1"),
    (2.0, "0x1.ffffa706764f5p-1", "0x1.fffffeb777a09p-1"),
], ids=["alpha-0.5", "alpha-1", "alpha-2"])
def test_p_hat_bounds_levy_bits_pinned(alpha, lower, upper):
    # bounds reports print these bits; a reordering of the tail-constant
    # arithmetic that moves them changes every heavy-flight report
    lo, up, _ = p_hat_bounds(_cfg(10_000, 4.0, alpha))
    assert (lo.hex(), up.hex()) == (lower, upper)


def test_p_hat_mc_iid_inside_bounds():
    n, r = 100, 2.0
    est = estimate_H1_mc(trial_stream(5, 14, 0), _cfg(n, r), 2.0 * math.sqrt(n), 400_000)
    lo, up = p_hat_bounds_iid(n, r)
    assert lo - 3 * est.stderr <= est.value <= up + 3 * est.stderr


def test_p_hat_mc_levy_inside_bounds_large_n():
    # the heavy-flight sandwich is only claimed for large populations;
    # the check runs at the two sizes the caveat allows
    for idx, n in enumerate((10_000, 40_000)):
        r = 1.0
        est = estimate_H1_mc(trial_stream(6, 14, idx), _cfg(n, r, 1.0),
                             2.0 * math.sqrt(n), 1_000_000)
        lo, up, _ = p_hat_bounds_levy(n, r, 1.0)
        assert lo - 3 * est.stderr <= est.value <= up + 3 * est.stderr


def test_p_hat_mc_trivial_r():
    # a vanishing obstruction is almost surely missed
    est = estimate_H1_mc(RNG(2), _cfg(100, 1e-9), 2.0 * math.sqrt(100), 20_000)
    assert est.value == 1.0


def test_p_hat_mc_rotation_invariance():
    # the reference estimator with the obstruction turned about the start
    n, r, trials = 100, 2.0, 300_000
    l0 = 2.0 * math.sqrt(n)

    def estimate(index, rot):
        misses = full_mc.no_contact_misses(trial_stream(7, 14, index), _cfg(n, r),
                                           l0, trials, anchor_rotation=rot)
        return analytics._binomial_estimate(misses, trials)

    base = estimate(0, 0.0)
    for rot in (0.5 * math.pi, 2.1):
        turned = estimate(1, rot)
        se = math.hypot(base.stderr, turned.stderr)
        assert abs(base.value - turned.value) < 3 * se


def test_h1_monotone_in_initial_distance():
    n, r, trials = 400, 2.0, 150_000
    two_rt = 2.0 * math.sqrt(n)
    for cfg in (_cfg(n, r), _cfg(n, r, 1.5)):
        grid = [1.5 * r, 3.0 * r, two_rt]
        ests = [estimate_H1_mc(trial_stream(8, 14, i), cfg, l0, trials)
                for i, l0 in enumerate(grid)]
        for a, b in zip(ests, ests[1:]):
            assert a.value <= b.value + 3 * math.hypot(a.stderr, b.stderr)


def test_h1_at_max_distance_is_p_hat():
    n, r, trials = 100, 2.0, 300_000
    two_rt = 2.0 * math.sqrt(n)
    h1 = estimate_H1_mc(trial_stream(9, 14, 0), _cfg(n, r), two_rt, trials)
    ph = estimate_H1_mc(trial_stream(9, 14, 1), _cfg(n, r), 2.0 * math.sqrt(n), trials)
    assert abs(h1.value - ph.value) < 3 * math.hypot(h1.stderr, ph.stderr)


def test_h1_domain_errors():
    with pytest.raises(ValueError):
        estimate_H1_mc(RNG(0), _cfg(100, 2.0), 2.0, 100)  # l0 <= r
    with pytest.raises(ValueError):
        estimate_H1_mc(RNG(0), _cfg(100, 2.0), 30.0, 100)  # beyond diameter
    with pytest.raises(ValueError):
        estimate_H1_mc(RNG(0), ModelConfig(n=100, r=2.0, model="nope"), 5.0, 100)
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="0 < r"):
            estimate_H1_mc(RNG(0), _cfg(100, r), 5.0, 100)


def _conditioned_pairs(rng, n, l0, want):
    """Uniform pairs accepted into the band |dist - l0| <= 0.005 l0."""
    R = math.sqrt(n)
    out = []
    while len(out) < want:
        k = 1 << 18
        x1, y1 = uniform_points_in_disc(rng, R, k)
        x2, y2 = uniform_points_in_disc(rng, R, k)
        d = np.hypot(x1 - x2, y1 - y2)
        keep = np.abs(d - l0) <= 0.005 * l0
        out.extend(zip(x1[keep], y1[keep], x2[keep], y2[keep]))
    return out[:want]


def test_h1_matches_conditioned_simulation_iid():
    n, r, l0 = 100, 2.0, 10.0
    rng = RNG(11)
    pairs = _conditioned_pairs(rng, n, l0, 20_000)
    hits = 0
    R = math.sqrt(n)
    for x1, y1, x2, y2 in pairs:
        nx1, ny1 = uniform_points_in_disc(rng, R, 1)
        nx2, ny2 = uniform_points_in_disc(rng, R, 1)
        hit = oracle.seg_hit(x1 - x2, y1 - y2,
                             float(nx1[0] - nx2[0]), float(ny1[0] - ny2[0]), r)
        hits += hit is not None
    frac = hits / len(pairs)
    se_sim = math.sqrt(frac * (1 - frac) / len(pairs))
    est = estimate_H1_mc(trial_stream(11, 14, 0), _cfg(n, r), l0, 400_000)
    assert abs(frac - (1.0 - est.value)) < 3 * math.hypot(se_sim, est.stderr)


def test_h1_matches_conditioned_simulation_levy():
    # parameters keep boundary wraps rare so the one-segment idealization
    # and the wrapped simulation agree to MC accuracy
    n, r, l0 = 10_000, 2.0, 6.0
    rng = RNG(12)
    pairs = _conditioned_pairs(rng, n, l0, 3_000)
    R = math.sqrt(n)
    steps = []
    for _ in pairs:
        th = TWO_PI * (1.0 - rng.uniform(size=2))
        z = sample_flight_lengths(rng, 1.9, 2)
        steps.append((z[0] * math.cos(th[0]), z[0] * math.sin(th[0]),
                      z[1] * math.cos(th[1]), z[1] * math.sin(th[1])))
    x1, y1, x2, y2 = np.array(pairs, dtype=float).T
    d1x, d1y, d2x, d2y = np.array(steps).T
    t, *_ = _pair_slot_contacts(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r)
    hits = int(np.isfinite(t).sum())
    frac = hits / len(pairs)
    se_sim = math.sqrt(frac * (1 - frac) / len(pairs))
    est = estimate_H1_mc(trial_stream(12, 14, 0), _cfg(n, r, 1.9), l0, 400_000)
    assert abs(frac - (1.0 - est.value)) < 3 * math.hypot(se_sim, est.stderr)


# ---------------------------------------------------------------------------
# the flight-length pre-test of the heavy-flight estimators

N_MC, R_MC = 10_000, 4.0
L0_GRID = (R_MC * (1.0 + 1e-9), 1.5 * R_MC, 3.0 * R_MC, 2.0 * math.sqrt(N_MC))
LAWS = {"pareto-0.5": 0.5, "pareto-1": 1.0, "pareto-2": 2.0}


def _both_no_contact(alpha, l0, trials, seed):
    args = (_cfg(N_MC, R_MC, alpha), l0, trials)
    got = analytics._no_contact_fraction(trial_stream(seed, 14, 0), *args)
    want = full_mc.no_contact_misses(trial_stream(seed, 14, 0), *args)
    return got, want


@pytest.mark.parametrize("name", sorted(LAWS))
def test_pruned_no_contact_counts_match_full_array(name):
    # every l0 from just outside r (no pair can be set aside) to the
    # diameter (almost every pair is)
    for i, l0 in enumerate(L0_GRID):
        got, want = _both_no_contact(LAWS[name], l0, 60_000, 60 + i)
        assert got == want


@pytest.mark.parametrize("model, l0", [
    ("levy", 3.0 * R_MC),
    ("levy", 1.5 * R_MC),
    ("levy", 2.0 * math.sqrt(N_MC)),
    ("iid", 3.0 * R_MC),
])
def test_pruned_no_contact_counts_match_across_chunks(model, l0):
    # one full chunk and a partial one that ends in a partial tile
    alpha = LAWS["pareto-1"] if model == "levy" else None
    trials = analytics._MC_CHUNK + 17
    got, want = _both_no_contact(alpha, l0, trials, 70)
    assert got == want
    assert 0 < got < trials


def test_length_pretest_skips_far_pairs(monkeypatch):
    # at the diameter almost no pair can reach the disc, so almost none is
    # turned into a vector and measured
    measured = []
    real = analytics.first_contact_np

    def counting(*args):
        s = real(*args)
        measured.append(s.size)
        return s

    monkeypatch.setattr(analytics, "first_contact_np", counting)
    trials = 200_000
    estimate_H1_mc(trial_stream(71, 14, 0), _cfg(N_MC, R_MC, LAWS["pareto-1"]),
                   2.0 * math.sqrt(N_MC), trials)
    assert 0 < sum(measured) < 0.05 * trials


@settings(max_examples=300, deadline=None)
@given(l0=st.floats(1e-3, 1e6), r_share=st.floats(1e-6, 1.0 - 1e-6),
       below=st.floats(0.0, 1e-6), split=st.floats(0.0, 1.0),
       th1=st.floats(0.0, 2.0 * math.pi), th2=st.floats(0.0, 2.0 * math.pi),
       aimed=st.booleans(), rotation=st.sampled_from([0.0, 0.7, 2.1]))
def test_length_pretest_only_sets_aside_misses(l0, r_share, below, split, th1,
                                               th2, aimed, rotation):
    # flights whose summed length falls just short of the pre-test's reach,
    # some of them collinear and aimed straight at the obstruction: the
    # pre-test sets the pair aside, and the full measurement calls it a miss
    r = r_share * l0
    reach = (l0 - r) - analytics._REACH_MARGIN * l0
    assume(reach > 0.0)
    total = reach * (1.0 - below)
    z = np.array([total * split, total * (1.0 - split)])
    assume(z[0] + z[1] < reach)
    if aimed:
        th1, th2 = 1.5 * math.pi, 0.5 * math.pi  # the difference points at 0
        if rotation:
            th1 += rotation
            th2 += rotation
    assert [i.size for i, _ in analytics._reachable_pairs(z, 1, reach)] == [0]
    dx = z[0] * np.cos([th1]) - z[1] * np.cos([th2])
    dy = z[0] * np.sin([th1]) - z[1] * np.sin([th2])
    dx, dy = full_mc._rotate(dx, dy, rotation)
    ax = np.zeros(1)
    ay = np.full(1, l0)
    assert oracle.segment_point_dist_np(ax, ay, ax + dx, ay + dy)[0] > r


@pytest.mark.parametrize("alpha", [0.5], ids=["law0"])
def test_pruned_estimators_raise_no_numpy_warnings(alpha):
    # a RuntimeWarning on the pre-test or the candidate path would reach
    # the stderr of every bounds run
    cfg = _cfg(N_MC, R_MC, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = [analytics._no_contact_fraction(trial_stream(72, 14, i), cfg,
                                                  l0, 100_000)
                   for i, l0 in enumerate(L0_GRID)]
            tails = estimate_cosine_diff_tail_mc(trial_stream(73, 14, 0), alpha,
                                                 [0.5, 4.0], 100_000)
    want = [full_mc.no_contact_misses(trial_stream(72, 14, i), cfg, l0, 100_000)
            for i, l0 in enumerate(L0_GRID)]
    assert got == want
    hits = full_mc.cosine_diff_hits(trial_stream(73, 14, 0), alpha, [0.5, 4.0], 100_000)
    assert {z: e.value for z, e in tails.items()} == {z: h / 100_000 for z, h in hits.items()}


# ---------------------------------------------------------------------------
# meeting-time bounds


def test_ccdf_geometric_bound_values():
    assert ccdf_geometric_bound(0, 0.5, 0.9) == 0.9
    assert ccdf_geometric_bound(3, 0.5, 0.9) == pytest.approx(0.1125, abs=1e-15)
    for tau in range(5):
        assert ccdf_geometric_bound(tau, 1.0, 0.7) == 0.7
    with pytest.raises(ValueError):
        ccdf_geometric_bound(-1, 0.5, 0.9)
    with pytest.raises(ValueError):
        ccdf_geometric_bound(1, 1.5, 0.9)


def test_u_bar_geometric_exactness():
    p, q = 0.9, 0.99
    ccdf = lambda t: q * p ** t
    assert u_bar_from_ccdf(ccdf, 1) == pytest.approx(9.9, rel=1e-12)
    for m in (1, 2, 3, 7):
        exact = q ** m / (1.0 - p ** m)
        assert u_bar_from_ccdf(ccdf, m) == pytest.approx(exact, rel=1e-12)
        assert u_bar_bound(m, p, q) == pytest.approx(exact, rel=1e-15)


def test_u_bar_monotone_and_vanishing_in_m():
    p, q = 0.9, 0.8
    vals = [u_bar_from_ccdf(lambda t: q * p ** t, m) for m in range(1, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3
    # closed form is nonincreasing too when p_out <= p_hat
    bounds = [u_bar_bound(m, 0.9, 0.8) for m in range(1, 101)]
    assert all(a >= b - 1e-15 for a, b in zip(bounds, bounds[1:]))


def test_u_bar_from_ccdf_validation():
    with pytest.raises(ValueError):
        u_bar_from_ccdf([0.5, 0.7, 0.1], 1)  # not nonincreasing
    with pytest.raises(ValueError):
        u_bar_from_ccdf(lambda t: 1.5, 1)
    with pytest.raises(ValueError):
        u_bar_from_ccdf(lambda t: 0.5, 0)


def test_u_bar_sequence_input_and_divergence():
    # sequence input: geometric continuation from the final ratio
    seq = [0.9 * 0.5 ** t for t in range(10)]
    exact = 0.9 / (1.0 - 0.5)
    assert u_bar_from_ccdf(seq, 1) == pytest.approx(exact, rel=1e-12)
    # a flat positive ccdf has an infinite sum
    assert u_bar_from_ccdf(lambda t: 0.3, 2, tail_cut=50) == math.inf


def test_u_bar_empirical_dominated_by_closed_form():
    # empirical meeting-time CCDF summed per the definition stays under
    # the closed form at the dominating (p_hat, p_out) pair
    cfg = ModelConfig(n=100, r=2.0, model="iid", horizon_slots=400, master_seed=21)
    _, tm, _ = pair_meeting_times(cfg, 20_000)
    taus = np.arange(0, 400)
    ccdf = (tm[None, :] > taus[:, None]).mean(axis=1)
    p_hat_up = p_hat_bounds_iid(100, 2.0)[1]
    p_out_up = p_out_bounds(100, 2.0)[1]
    for m in (1, 2, 5):
        emp = u_bar_from_ccdf(list(ccdf), m)
        bound = u_bar_bound(m, p_hat_up, p_out_up)
        # delta-method cushion for MC noise in the summed powers
        se = np.sqrt(ccdf * (1 - ccdf) / len(tm))
        cushion = 3.0 * math.sqrt(float(np.sum((m * ccdf ** (m - 1) * se) ** 2)))
        assert emp <= bound + cushion
        assert u_bar_from_ccdf(list(ccdf), m) >= u_bar_from_ccdf(list(ccdf), m + 1)


def test_levy_delay_upper_values():
    # the pair-delay bound is the one-copy u_bar: p_out / (1 - p_hat)
    assert u_bar_bound(1, 0.5, 0.0) == 0.0
    assert u_bar_bound(1, 0.99, 0.99) == pytest.approx(99.0, rel=1e-12)
    with pytest.raises(ValueError):
        u_bar_bound(1, 1.0, 0.5)


# ---------------------------------------------------------------------------
# binomial tails and the relay-count argument


def test_chernoff_frozen_example():
    # Binomial(100, 0.5) lower tail at 30: bound is exp(-(50-30)^2/(2*50))
    val = binomial_chernoff_tail(100, 0.5, 30)
    assert val == pytest.approx(math.exp(-4.0), rel=1e-15)
    assert float(stats.binom.cdf(30, 100, 0.5)) <= val
    assert binomial_chernoff_tail(100, 0.5, 50) == 1.0
    with pytest.raises(ValueError):
        binomial_chernoff_tail(100, 0.5, 51)


def test_chernoff_monotone_in_x():
    xs = np.linspace(0, 50, 40)
    vals = [binomial_chernoff_tail(100, 0.5, x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@given(st.integers(5, 2000), st.floats(0.01, 0.99), st.floats(0.0, 1.0))
@settings(max_examples=120, deadline=None)
def test_chernoff_dominates_exact_tail(n_trials, p, frac):
    x = math.floor(frac * n_trials * p)
    bound = binomial_chernoff_tail(n_trials, p, x)
    assert float(stats.binom.cdf(x, n_trials, p)) <= bound * (1 + 1e-12)


def test_chernoff_relaxed_chain():
    # exact tail <= exponential form <= algebraic relaxation, with the
    # in-range probability anywhere in its sandwich band
    for n, r, gam in ((10_000, 10.0, 0.1), (2_000, 6.0, 0.2), (500, 5.0, 0.05)):
        exp_form = math.exp(-0.5 * ((n - 2 - 3 * gam * n) / (3.0 * n)) ** 2 * r * r)
        relaxed = chernoff_tail_relaxed(n, r, gam)
        assert exp_form <= relaxed
        for p_in in (r * r / (3.0 * n), r * r / (2.0 * n), r * r / n):
            assert binomial_chernoff_tail(n - 2, p_in, gam * r * r) <= exp_form * (1 + 1e-12)
            assert float(stats.binom.cdf(math.floor(gam * r * r), n - 2, p_in)) <= relaxed


def test_chernoff_relaxed_domain():
    with pytest.raises(ValueError):
        chernoff_tail_relaxed(2, 5.0, 0.1)  # n at the degenerate threshold
    with pytest.raises(ValueError):
        chernoff_tail_relaxed(100, 5.0, 0.4)


def test_iid_delay_bound_variants():
    n, r = 10_000, 10.0
    p_out = p_out_bounds(n, r)[1]
    p_hat = p_hat_bounds_iid(n, r)[1]
    with pytest.raises(ValueError):
        iid_delay_bound(2, r, p_hat, p_out)  # n below 2/(1-3 gamma)
    # vanishing out-of-range probability: everything is delivered at once
    assert iid_delay_bound(n, r, p_hat, 0.0) == 0.0


def test_iid_delay_bound_dominates_simulation():
    n = 1000
    cfg = ModelConfig(n=n, beta=0.25, model="iid", master_seed=31)
    r = cfg.r
    _, _, delays = scheme_delays(cfg, 3000)
    finite = delays[np.isfinite(delays)]
    assert finite.size / delays.size > 0.99
    mean = float(finite.mean())
    se = float(finite.std(ddof=1) / math.sqrt(finite.size))
    bound = iid_delay_bound(n, r, p_hat_bounds_iid(n, r)[1], p_out_bounds(n, r)[1])
    assert mean <= bound + 3 * se


# ---------------------------------------------------------------------------
# capacity


def test_capacity_limit_and_edge():
    assert abs(capacity_ratio(10 ** 6, 0.0) - (1.0 - 2.0 / math.e)) < 1e-3
    assert abs(capacity_ratio(10 ** 6, 0.25) - 1.0) < 0.05
    assert capacity_per_node(10 ** 6, 0.0) == pytest.approx(
        capacity_ratio(10 ** 6, 0.0), rel=1e-12)  # scale is 1 at beta 0
    with pytest.raises(ValueError):
        capacity_per_node(10, 0.3)
    with pytest.raises(ValueError):
        capacity_per_node(1, 0.1)


def test_capacity_ratio_converges_on_doubling_grid():
    for beta in (0.0, 0.125, 0.25):
        ns = [10_000 * 2 ** k for k in range(6)]
        ratios = [capacity_ratio(n, beta) for n in ns]
        diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
        # at beta 1/4 the correction terms underflow already at 10^4, so
        # the difference sequence may sit flat at zero
        assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-6


def test_cell_occupancy_matches_binomial_mc():
    # square region of area n tiled by unit cells; fraction of cells
    # holding two or more of the n uniform nodes
    n, side = 10_000, 100
    rng = RNG(41)
    reps = 60
    fracs = np.empty(reps)
    for k in range(reps):
        ix = rng.integers(0, side, n)
        iy = rng.integers(0, side, n)
        counts = np.bincount(ix * side + iy, minlength=side * side)
        fracs[k] = np.mean(counts >= 2)
    se = fracs.std(ddof=1) / math.sqrt(reps)
    assert abs(fracs.mean() - cell_occupancy_prob(n, 1.0)) < 3 * se
    with pytest.raises(ValueError):
        cell_occupancy_prob(n, 0.0)


# ---------------------------------------------------------------------------
# envelope and tail constants


def test_asin_envelope_examples():
    assert asin_envelope(0.0) == (0.0, 0.0)
    lo, up = asin_envelope(1.0)
    assert math.asin(1.0) == pytest.approx(up, rel=1e-15)
    lo, up = asin_envelope(0.5)
    assert lo <= math.asin(0.5) <= up
    assert math.asin(0.5) == pytest.approx(math.pi / 6, rel=1e-15)
    with pytest.raises(ValueError):
        asin_envelope(1.2)
    with pytest.raises(ValueError):
        asin_envelope(-0.1)


@given(st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_asin_envelope_property(x):
    lo, up = asin_envelope(x)
    a = math.asin(x)
    assert lo <= a * (1 + 1e-15) and a <= up * (1 + 1e-15) + 1e-300


def test_cosine_integral_against_gamma_closed_form():
    for alpha in (0.25, 0.5, 1.0, 1.3, 1.5, 2.0):
        tc = cosine_diff_tail_constants(alpha)
        exact = math.sqrt(math.pi) / 2.0 * gamma_fn((alpha + 1) / 2.0) \
            / gamma_fn(alpha / 2.0 + 1.0)
        assert tc.cos_integral == pytest.approx(exact, rel=1e-10)
        assert tc.c_l == pytest.approx(1.0 / TWO_PI * exact, rel=1e-10)
        assert tc.c_u == pytest.approx(2.0 ** (1 + alpha) / math.pi * exact, rel=1e-10)
        assert tc.c_l < tc.c_u


def test_cosine_tail_constants_frozen():
    tc = cosine_diff_tail_constants(1.0)
    assert tc.cos_integral == pytest.approx(1.0, rel=1e-12)
    assert tc.c_l == pytest.approx(1.0 / TWO_PI, rel=1e-12)
    assert tc.c_u == pytest.approx(4.0 / math.pi, rel=1e-12)
    tc = cosine_diff_tail_constants(2.0)
    assert tc.cos_integral == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert tc.c_l == pytest.approx(0.125, rel=1e-12)
    assert tc.c_u == pytest.approx(2.0, rel=1e-12)


def test_cosine_diff_tail_mc_within_constants():
    tc = cosine_diff_tail_constants(1.0)
    ests = estimate_cosine_diff_tail_mc(trial_stream(51, 14, 0), 1.0,
                                        [4.0, 8.0], 1_000_000)
    for z, est in ests.items():
        assert tc.c_l / z - 3 * est.stderr <= est.value <= tc.c_u / z + 3 * est.stderr


@pytest.mark.parametrize("alpha, trials", [
    (0.5, 80_000),
    (1.0, analytics._MC_CHUNK + 17),
    (2.0, 80_000),
], ids=["law0-80000", "law1-1048593", "law2-80000"])
def test_cosine_diff_tail_counts_match_full_array(alpha, trials):
    zs = [8.0, 0.25, 2.0]
    ests = estimate_cosine_diff_tail_mc(trial_stream(52, 14, 0), alpha, zs, trials)
    hits = full_mc.cosine_diff_hits(trial_stream(52, 14, 0), alpha, zs, trials)
    assert {z: e.value for z, e in ests.items()} == {z: h / trials for z, h in hits.items()}


@settings(max_examples=300, deadline=None)
@given(zmin=st.floats(1e-3, 1e6), below=st.floats(0.0, 1e-6),
       split=st.floats(0.0, 1.0), th1=st.floats(0.0, 2.0 * math.pi),
       th2=st.floats(0.0, 2.0 * math.pi), aimed=st.booleans())
def test_cosine_pretest_only_sets_aside_misses(zmin, below, split, th1, th2, aimed):
    reach = zmin * (1.0 - analytics._REACH_MARGIN)
    total = reach * (1.0 - below)
    z = np.array([total * split, total * (1.0 - split)])
    assume(z[0] + z[1] < reach)
    if aimed:
        th1, th2 = 0.0, math.pi  # both projections at full length
    assert [i.size for i, _ in analytics._reachable_pairs(z, 1, reach)] == [0]
    assert z[0] * np.cos(th1) - z[1] * np.cos(th2) <= zmin


def test_tail_constants_validation():
    with pytest.raises(ValueError):
        TailConstants(c_l=1.0, c_u=0.5, cos_integral=1.0)
    with pytest.raises(ValueError):
        cosine_diff_tail_constants(2.5)


# ---------------------------------------------------------------------------
# tradeoff curve


def test_tradeoff_curve_table_rows():
    assert tradeoff_curve("iid", None, [0.0]) == [(0.0, 0.5)]
    assert tradeoff_curve("levy", 1.0, [0.0]) == [(0.0, 1.0)]
    assert tradeoff_curve("iid", None, [0.5]) == [(0.5, 0.0)]
    # heavy flights interpolate between the full and the cap regime
    curve = tradeoff_curve("levy", 0.6, [0.0, 0.2, 0.5])
    assert curve[0][1] == pytest.approx(0.8)
    assert curve[-1][1] == pytest.approx(0.55)


def test_tradeoff_curve_domain():
    with pytest.raises(ValueError):
        tradeoff_curve("iid", None, [0.6])
    with pytest.raises(ValueError):
        tradeoff_curve("levy", None, [0.1])
    with pytest.raises(ValueError):
        tradeoff_curve("walk", 1.0, [0.1])


# ---------------------------------------------------------------------------
# report assembly and serialization


def test_format_real_round_trip():
    rng = RNG(61)
    xs = list(rng.normal(size=50)) + [0.96, 1e-300, 1e300, 123456789.123456789]
    for x in xs:
        assert float(format_real(float(x))) == float(x)
    assert format_real(math.nan) == "null"
    assert format_real(math.inf) == "null"


def test_dumps_stable_shapes():
    txt = dumps_stable({"b": 1, "a": [1.5, None, True], "c": {"x": math.nan}})
    obj = json.loads(txt)
    assert obj == {"b": 1, "a": [1.5, None, True], "c": {"x": None}}
    # insertion order is preserved, not sorted
    assert txt.index('"b"') < txt.index('"a"')
    assert dumps_stable({}) == "{}"
    with pytest.raises(TypeError):
        dumps_stable({"bad": object()})


def test_bound_report_iid():
    rep = compute_bound_report(ModelConfig(n=100, r=2.0, master_seed=7), 50_000)
    assert rep.p_out_lower == pytest.approx(0.96)
    assert rep.p_hat_lower <= rep.p_hat_mc.value <= rep.p_hat_upper
    assert set(rep.u_bar) == set(range(1, 11))
    assert rep.u_bar[1] == pytest.approx(
        u_bar_bound(1, rep.p_hat_upper, rep.p_out_upper), rel=1e-15)
    assert rep.delay_upper > 0
    assert rep.capacity_lambda == pytest.approx(
        capacity_per_node(100, math.log(2.0) / math.log(100.0)), rel=1e-15)
    obj = json.loads(dumps_stable(rep.to_obj()))
    assert obj["p_out_lower"] == 0.96
    assert list(obj)[0] == "p_out_lower"
    # h1 grid keys are the defaults, clipped to the domain
    assert set(obj["h1_mc"]) == {"3", "6", "20"}


def test_bound_report_levy_and_gaps():
    rep = compute_bound_report(_cfg(10_000, 1.0, 1.0), 0)
    assert rep.p_hat_mc is None and rep.h1_mc is None
    assert 0.0 <= rep.p_hat_lower <= rep.p_hat_upper <= 1.0
    assert "threshold" in rep.n_th_note
    # r = n^beta with beta > 1/4 has no capacity formula
    rep2 = compute_bound_report(ModelConfig(n=100, r=4.0), 0)
    assert rep2.capacity_lambda is None
    with pytest.raises(ValueError):
        compute_bound_report(ModelConfig(n=100, r=2.0, model="levy"), 0)


def test_estimate_and_report_validation():
    with pytest.raises(ValueError):
        Estimate(1.2, 0.0, 10)
    with pytest.raises(ValueError):
        Estimate(0.5, 0.1, 0)
    ok = dict(p_out_lower=0.5, p_out_upper=0.6, p_hat_lower=0.2,
              p_hat_upper=0.4, p_hat_mc=None, h1_mc=None, u_bar={},
              delay_upper=1.0, capacity_lambda=None, n_th_note="")
    BoundReport(**ok)
    bad = dict(ok, p_out_lower=0.7)
    with pytest.raises(ValueError):
        BoundReport(**bad)
    bad = dict(ok, p_hat_upper=1.3)
    with pytest.raises(ValueError):
        BoundReport(**bad)
