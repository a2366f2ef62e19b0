"""Pareto flight lengths, flight vectors, relocation, and in-slot motion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mobidelay.flight import sample_flight_polar, to_flight_polar
from mobidelay.geometry import uniform_points_in_disc
from slot_path import SlotPath

RNG = lambda seed: np.random.default_rng(seed)


def _lengths(rng, alpha, size):
    # Pareto lengths alone: size draws mapped by the package's transform
    _, z = to_flight_polar(np.empty(0), rng.random(size), alpha)
    return z


# ---------------------------------------------------------------------------
# flight lengths


def test_truncated_pareto_tail_and_support():
    rng = RNG(13)
    n = 10**6
    z = _lengths(rng, 1.0, n)
    assert z.min() >= 1.0
    got = float(np.mean(z > 10.0))
    se = math.sqrt(0.1 * 0.9 / n)
    assert abs(got - 0.1) <= 3.0 * se


def test_truncated_pareto_mean_alpha2():
    rng = RNG(14)
    n = 10**6
    z = _lengths(rng, 2.0, n)
    mean = z.mean()
    se = z.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 2.0) <= 3.0 * se


def test_truncated_pareto_ks_exact_ccdf():
    rng = RNG(15)
    n = 10**6
    z = _lengths(rng, 1.5, n)
    res = stats.kstest(z, lambda v: 1.0 - (1.0 / v) ** 1.5)
    assert res.pvalue > 0.01


def test_overflowing_length_raises_without_warning():
    # at alpha 0.01 u ** -100 is inf for u below ~8e-4; such a draw must
    # fail loudly instead of reaching the contact tests as inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="alpha=0.01"):
            _lengths(RNG(17), 0.01, 100_000)


def test_alpha_dominance_of_truncated_pareto_ccdf():
    # heavier tail (smaller alpha) dominates pointwise for z >= 1
    grid = np.logspace(0.0, 3.0, 50)
    for a1, a2 in ((0.5, 1.0), (1.0, 2.0), (0.8, 1.9)):
        ccdf1 = grid**-a1
        ccdf2 = grid**-a2
        assert np.all(ccdf1 >= ccdf2 - 1e-15)


# ---------------------------------------------------------------------------
# flight vectors


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0], ids=["law0", "law1", "law2"])
def test_flight_draw_order_and_bits(alpha):
    # all angles, uniform on (0, 2*pi], then all lengths; the Pareto
    # lengths are (1 - U)^(-1/alpha).  Written out here as plain
    # expressions, bit for bit.
    theta, z = sample_flight_polar(RNG(40), alpha, 5000)
    rng = RNG(40)
    want_theta = 2.0 * math.pi * (1.0 - rng.uniform(0.0, 1.0, 5000))
    want_z = (1.0 - rng.uniform(0.0, 1.0, 5000)) ** (-1.0 / alpha)
    assert np.array_equal(theta, want_theta) and np.array_equal(z, want_z)


@pytest.fixture(scope="module")
def flight_batch():
    rng = RNG(17)
    theta, z = sample_flight_polar(rng, 1.0, 10**6)
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
