"""Flight-length laws, flight vectors, relocation, and in-slot motion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mobidelay.flight import (
    FlightLaw,
    sample_flight_lengths,
    sample_flight_polar,
    sample_stable_symmetric_np,
)
from mobidelay.geometry import uniform_points_in_disc
from slot_path import SlotPath

RNG = lambda seed: np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# FlightLaw invariants and the flight-vector draw


def test_flightlaw_validation():
    FlightLaw(alpha=2.0)
    FlightLaw(alpha=0.5, sampler="stable")
    with pytest.raises(ValueError):
        FlightLaw(alpha=0.0)
    with pytest.raises(ValueError):
        FlightLaw(alpha=2.1)
    with pytest.raises(ValueError):
        FlightLaw(alpha=1.0, scale_s=0.0)
    with pytest.raises(ValueError):
        FlightLaw(alpha=1.0, z_th=-1.0)
    with pytest.raises(ValueError):
        FlightLaw(alpha=1.0, sampler="gaussian")


def test_flightlaw_truncated_pareto_ties_tail_c_to_z_th():
    law = FlightLaw(alpha=1.5, z_th=2.0)
    assert law.tail_c == pytest.approx(2.0**1.5, rel=1e-12)
    with pytest.raises(ValueError):
        FlightLaw(alpha=1.5, z_th=2.0, tail_c=1.0)


def test_flight_vector_autofill_and_consistency():
    # every angle is drawn before any length; the engine's streams
    # depend on that order
    for law in (FlightLaw(alpha=1.0), FlightLaw(alpha=1.5, sampler="stable")):
        got_theta, got_z = sample_flight_polar(RNG(20), law, 1000)
        rng = RNG(20)
        theta = 2.0 * math.pi * (1.0 - rng.uniform(0.0, 1.0, 1000))
        z = sample_flight_lengths(rng, law, 1000)
        assert np.array_equal(got_theta, theta) and np.array_equal(got_z, z)


# ---------------------------------------------------------------------------
# symmetric stable sampler


def test_stable_alpha2_is_gaussian_with_variance_2s2():
    rng = RNG(11)
    n = 10**6
    s = 1.3
    x = sample_stable_symmetric_np(rng, 2.0, s, n)
    var = x.var(ddof=1)
    want = 2.0 * s * s
    se = want * math.sqrt(2.0 / n)
    assert abs(var - want) <= 3.0 * se
    kurt = stats.kurtosis(x, fisher=False)
    assert abs(kurt - 3.0) <= 3.0 * math.sqrt(24.0 / n)


def test_stable_alpha1_cauchy_median_and_quartile():
    rng = RNG(12)
    n = 10**6
    x = sample_stable_symmetric_np(rng, 1.0, 1.0, n)
    med_frac = float(np.mean(x > 0.0))
    se_half = math.sqrt(0.25 / n)
    assert abs(med_frac - 0.5) <= 3.0 * se_half
    # standard Cauchy has P{X > 1} = 1/4
    q = float(np.mean(x > 1.0))
    se_q = math.sqrt(0.25 * 0.75 / n)
    assert abs(q - 0.25) <= 3.0 * se_q


def test_stable_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sample_stable_symmetric_np(RNG(0), 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        sample_stable_symmetric_np(RNG(0), 2.5, 1.0, 1)


# ---------------------------------------------------------------------------
# flight lengths


def test_truncated_pareto_tail_and_support():
    rng = RNG(13)
    law = FlightLaw(alpha=1.0)
    n = 10**6
    z = sample_flight_lengths(rng, law, n)
    assert z.min() >= law.z_th
    got = float(np.mean(z > 10.0))
    se = math.sqrt(0.1 * 0.9 / n)
    assert abs(got - 0.1) <= 3.0 * se


def test_truncated_pareto_mean_alpha2():
    rng = RNG(14)
    law = FlightLaw(alpha=2.0)
    n = 10**6
    z = sample_flight_lengths(rng, law, n)
    mean = z.mean()
    se = z.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 2.0) <= 3.0 * se


def test_truncated_pareto_ks_exact_ccdf():
    rng = RNG(15)
    law = FlightLaw(alpha=1.5, z_th=2.0)
    n = 10**6
    z = sample_flight_lengths(rng, law, n)
    res = stats.kstest(z, lambda v: 1.0 - (law.z_th / v) ** law.alpha)
    assert res.pvalue > 0.01


def test_overflowing_length_raises_without_warning():
    # at alpha 0.01 u ** -100 is inf for u below ~8e-4; such a draw must
    # fail loudly instead of reaching the contact tests as inf
    law = FlightLaw(alpha=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="alpha=0.01"):
            sample_flight_lengths(RNG(17), law, 100_000)


def test_stable_length_is_abs_of_stable():
    rng = RNG(16)
    law = FlightLaw(alpha=2.0, sampler="stable", tail_c=1.0)
    z = sample_flight_lengths(rng, law, 50_000)
    assert z.min() >= 0.0
    # |N(0, 2s^2)| has mean 2s/sqrt(pi)
    want = 2.0 / math.sqrt(math.pi)
    se = z.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.mean() - want) <= 3.0 * se


def test_alpha_dominance_of_truncated_pareto_ccdf():
    # heavier tail (smaller alpha) dominates pointwise for z >= z_th
    grid = np.logspace(0.0, 3.0, 50)
    for a1, a2 in ((0.5, 1.0), (1.0, 2.0), (0.8, 1.9)):
        ccdf1 = grid**-a1
        ccdf2 = grid**-a2
        assert np.all(ccdf1 >= ccdf2 - 1e-15)


# ---------------------------------------------------------------------------
# flight vectors


@pytest.mark.parametrize("law", [
    FlightLaw(alpha=0.5), FlightLaw(alpha=1.0), FlightLaw(alpha=2.0, z_th=0.3),
    FlightLaw(alpha=1.5, sampler="stable", tail_c=1.0),
])
def test_flight_draw_order_and_bits(law):
    # all angles, uniform on (0, 2*pi], then all lengths; the Pareto
    # lengths are z_th * (1 - U)^(-1/alpha).  Written out here as plain
    # expressions, bit for bit.
    theta, z = sample_flight_polar(RNG(40), law, 5000)
    rng = RNG(40)
    want_theta = 2.0 * math.pi * (1.0 - rng.uniform(0.0, 1.0, 5000))
    if law.sampler == "truncated_pareto":
        want_z = law.z_th * (1.0 - rng.uniform(0.0, 1.0, 5000)) ** (-1.0 / law.alpha)
    else:
        want_z = np.abs(sample_stable_symmetric_np(rng, law.alpha, law.scale_s, 5000))
    assert np.array_equal(theta, want_theta) and np.array_equal(z, want_z)


@pytest.fixture(scope="module")
def flight_batch():
    rng = RNG(17)
    law = FlightLaw(alpha=1.0)
    theta, z = sample_flight_polar(rng, law, 10**6)
    dx, dy = z * np.cos(theta), z * np.sin(theta)
    ang = np.arctan2(dy, dx)
    ang = np.where(ang <= 0.0, ang + 2.0 * math.pi, ang)  # onto (0, 2*pi]
    return ang, np.hypot(dx, dy)


def test_flight_angle_uniform_chi_square(flight_batch):
    ang, _ = flight_batch
    assert ang.min() > 0.0 and ang.max() <= 2.0 * math.pi
    counts, _ = np.histogram(ang, bins=32, range=(0.0, 2.0 * math.pi))
    res = stats.chisquare(counts)
    assert res.pvalue > 0.01


def test_flight_angle_length_independence(flight_batch):
    ang, ln = flight_batch
    # rank-free check on a bounded transform to tame the heavy tail
    corr = np.corrcoef(ang, np.log(ln))[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(ang.size)


def test_flight_x_component_symmetry(flight_batch):
    ang, ln = flight_batch
    vx = ln * np.cos(ang)
    n = vx.size
    for t in (1.0, 5.0):
        p_hi = float(np.mean(vx > t))
        p_lo = float(np.mean(vx < -t))
        se = math.sqrt((p_hi + p_lo) / n)
        assert abs(p_hi - p_lo) <= 3.0 * se + 1e-12


def test_flight_isotropy_under_rotation(flight_batch):
    ang, _ = flight_batch
    rotated = np.mod(ang + 0.7, 2.0 * math.pi)
    counts, _ = np.histogram(rotated, bins=32, range=(0.0, 2.0 * math.pi))
    assert stats.chisquare(counts).pvalue > 0.01


# ---------------------------------------------------------------------------
# relocation and wrapped stepping


def test_next_position_levy_matches_wrap_rules():
    still = SlotPath(3.0, 4.0, 0.0, 0.0, 10.0)
    assert still.n_wraps == 0 and still.end_pos() == (3.0, 4.0)

    step = SlotPath(0.0, 0.0, 1.0, 0.0, 10.0)  # along +x
    assert step.n_wraps == 0
    assert step.end_pos()[0] == pytest.approx(1.0, rel=1e-12)

    wrapped = SlotPath(9.0, 0.0, 2.0, 0.0, 10.0)  # exits at (10, 0)
    assert wrapped.n_wraps == 1
    assert wrapped.t1 == pytest.approx(0.5, abs=1e-12)
    ex, ey = wrapped.end_pos()
    assert ex == pytest.approx(-9.0, abs=1e-12)
    assert ey == pytest.approx(0.0, abs=1e-12)


def test_next_position_iid_marginal_and_autocorrelation():
    n = 100_000
    xs, ys = uniform_points_in_disc(RNG(18), 10.0, n)
    sq = xs * xs + ys * ys
    # marginal: E|p|^2 = R^2/2
    se_sq = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 50.0) <= 3.0 * se_sq
    # consecutive x-coordinates uncorrelated
    corr = np.corrcoef(xs[:-1], xs[1:])[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n - 1)


def test_pair_distance_density_bounded_by_2x_over_n():
    # distance of two independent uniform points on the disc of area n:
    # density is at most 2x/n everywhere
    n_area = 100
    R = math.sqrt(n_area)
    rng = RNG(19)
    m = 10**6
    th = rng.uniform(0, 2 * math.pi, (2, m))
    rho = R * np.sqrt(rng.uniform(0, 1, (2, m)))
    dx = rho[0] * np.cos(th[0]) - rho[1] * np.cos(th[1])
    dy = rho[0] * np.sin(th[0]) - rho[1] * np.sin(th[1])
    d = np.hypot(dx, dy)
    edges = np.linspace(0.0, 2.0 * R, 41)
    counts, _ = np.histogram(d, bins=edges)
    frac = counts / m
    for k in range(len(edges) - 1):
        width = edges[k + 1] - edges[k]
        cap = (2.0 * edges[k + 1] / n_area) * width
        se = math.sqrt(max(frac[k], 1e-9) / m)
        assert frac[k] <= cap + 3.0 * se


# ---------------------------------------------------------------------------
# constant-velocity motion inside a slot (no wrap)


def test_interpolate_examples():
    p = SlotPath(0.0, 0.0, 2.0, 4.0, 10.0)
    assert p.pos(0.0) == (0.0, 0.0)
    assert p.pos(1.0) == (2.0, 4.0)
    assert p.pos(0.5) == (1.0, 2.0)


@given(ax=st.floats(-10, 10), ay=st.floats(-10, 10),
       bx=st.floats(-10, 10), by=st.floats(-10, 10),
       d=st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_interpolate_affine(ax, ay, bx, by, d):
    # both endpoints lie in the disc of radius 20, so the chord does too
    px, py = SlotPath(ax, ay, bx - ax, by - ay, 20.0).pos(d)
    assert px == pytest.approx((1 - d) * ax + d * bx, abs=1e-12)
    assert py == pytest.approx((1 - d) * ay + d * by, abs=1e-12)
