"""Geometry primitives: disc sampling, the contact rule against the
reference segment distance, blocked-set membership against the
central-angle formula, and the antipodal-wrap oracle that the contact
engine is checked against."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from mobidelay.analytics import estimate_H1_mc
from mobidelay.geometry import first_contact_np, lens_area, uniform_disc_polar, uniform_points_in_disc
from mobidelay.world import ModelConfig
from oracle import central_angle_phi, segment_point_dist_np, wrap_flight

RNG = lambda seed: np.random.default_rng(seed)


def _dist(a, b, q):
    return float(segment_point_dist_np(a[0], a[1], b[0], b[1], q[0], q[1]))


def _in_S(l0, x, y, r):
    # flight-differential no-contact set: the segment from the origin to
    # x misses the r-disc centred at (0, -l0)
    return segment_point_dist_np(0.0, 0.0, x, y, 0.0, -l0) > r


def _in_S_star(l0, x, y, r):
    # location-differential no-contact set: the segment from (0, l0) to
    # x misses the r-disc centred at the origin
    return segment_point_dist_np(0.0, l0, x, y) > r


# ---------------------------------------------------------------------------
# uniform_points_in_disc


def test_disc_sampling_support():
    xs, ys = uniform_points_in_disc(RNG(1), 1.0, 2000)
    assert np.all(np.hypot(xs, ys) <= 1.0)


def test_disc_sampling_rejects_bad_radius():
    for draw in (uniform_points_in_disc, uniform_disc_polar):
        with pytest.raises(ValueError):
            draw(RNG(0), 0.0, 1)
        with pytest.raises(ValueError):
            draw(RNG(0), -2.0, 1)


@pytest.mark.parametrize("radius,size", [(1.0, 1), (20.0, 1000), (math.pi, 4099)])
def test_polar_disc_draw_matches_the_uniform_form(radius, size):
    # the streams of every teleport run rest on these bits: all angles as
    # rng.uniform(0, 2 pi), then all radii as radius * sqrt(rng.uniform(0, 1))
    theta, rho = uniform_disc_polar(RNG(8), radius, size)
    rng = RNG(8)
    assert np.array_equal(theta, rng.uniform(0.0, 2.0 * math.pi, size))
    assert np.array_equal(rho, radius * np.sqrt(rng.uniform(0.0, 1.0, size)))
    xs, ys = uniform_points_in_disc(RNG(8), radius, size)
    assert np.array_equal(xs, rho * np.cos(theta)) and np.array_equal(ys, rho * np.sin(theta))


def test_disc_sampling_moments():
    # E|p|^2 = R^2/2 and P{|p| <= R/2} = 1/4 for uniform area sampling
    n = 10**6
    xs, ys = uniform_points_in_disc(RNG(2), 10.0, n)
    sq = xs * xs + ys * ys
    mean_sq = sq.mean()
    se_sq = sq.std(ddof=1) / math.sqrt(n)
    assert abs(mean_sq - 50.0) <= 3.0 * se_sq

    inner = float(np.mean(sq <= 25.0))
    se_in = math.sqrt(0.25 * 0.75 / n)
    assert abs(inner - 0.25) <= 3.0 * se_in


# ---------------------------------------------------------------------------
# lens_area, the disc share within r of a point


@pytest.mark.parametrize("d,r", [
    (3.0, 2.0),    # interior: pi r^2
    (9.0, 2.0),    # straddling the boundary
    (10.0, 3.0),   # centred on the boundary
    (6.0, 12.0),   # straddling with r above the disc radius
    (0.0, 4.0),    # centred, inside
    (0.0, 10.0),   # centred, r = R: inside and covering at once
    (0.0, 15.0),   # centred, covering
    (4.0, 15.0),   # covering: pi R^2
    (10.0, 20.0),  # the largest range, a disc diameter
], ids=["interior", "straddling", "on-boundary", "straddling-wide", "centred",
        "centred-R", "centred-covering", "covering", "diameter"])
def test_lens_area_matches_monte_carlo(d, r):
    R = 10.0
    k = 400_000
    xs, ys = uniform_points_in_disc(RNG(31), R, k)
    f = float(np.mean(np.hypot(xs - d, ys) <= r))
    disc = math.pi * R * R
    se = disc * math.sqrt(f * (1.0 - f) / k)
    got = float(lens_area(d, r, R))
    assert abs(got - disc * f) <= 3.0 * se + 1e-12 * disc


def test_lens_share_is_a_probability():
    # q = area / (pi R^2) over the whole accepted range grid, with the
    # d = 0 and branch-edge points computed without a floating-point fault
    for n in (2, 50, 10**6):
        R = math.sqrt(n)
        d = np.linspace(0.0, R, 101)
        for r in (1e-9, 0.5, R / 2, R, 1.5 * R, 2.0 * R):
            with np.errstate(all="raise"):
                a = lens_area(d, r, R)
                q = a / (math.pi * R * R)
            assert np.all((q >= 0.0) & (q <= 1.0))
            assert np.all(a <= math.pi * r * r * (1.0 + 1e-12))
            # more of the ball leaves the disc as its centre moves out
            assert np.all(np.diff(a) <= 1e-9 * a.max())
    # the lens meets both closed forms at the branch edges, and a tiny
    # ball centred on the boundary covers half its area
    R = 10.0
    assert float(lens_area(R - 3.0 + 1e-9, 3.0, R)) == pytest.approx(9.0 * math.pi, rel=1e-8)
    assert float(lens_area(1.0, R + 1.0 - 1e-9, R)) == pytest.approx(R * R * math.pi, rel=1e-8)
    for r in (1e-9, 1e-4):
        assert float(lens_area(R, r, R)) == pytest.approx(0.5 * math.pi * r * r, rel=1e-6)


# ---------------------------------------------------------------------------
# the reference segment distance, and first_contact_np against its
# verdict dist <= r


@pytest.mark.parametrize("a,b,q,want", [
    ((0, 3), (0, 5), (0, 0), 3.0),            # nearest endpoint
    ((-2, 1), (2, 1), (0, 0), 1.0),           # interior foot
    ((1, 0), (0, 1), (0, 0), math.sqrt(2) / 2),
])
def test_min_dist_examples(a, b, q, want):
    assert _dist(a, b, q) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a,b,c,r,want", [
    ((0, 3), (0, 5), (0, 0), 1.0, False),
    ((-2, 0), (2, 0), (0, 0), 1.0, True),
    ((0, 3), (0, 5), (0, 0), 3.0, True),      # boundary touch counts
])
def test_segment_hits_disc_examples(a, b, c, r, want):
    assert (_dist(a, b, c) <= r) is want


def test_segment_dist_broadcasts_over_arrays():
    # one call over many segments equals the per-segment calls
    rng = RNG(4)
    ax, ay, bx, by = rng.uniform(-5.0, 5.0, (4, 500))
    got = segment_point_dist_np(ax, ay, bx, by, 0.5, -1.0)
    assert got.shape == (500,)
    each = [_dist((ax[i], ay[i]), (bx[i], by[i]), (0.5, -1.0)) for i in range(500)]
    np.testing.assert_allclose(got, each, rtol=1e-14)
    # zero-length segments fall back to the point distance
    assert segment_point_dist_np(3.0, 4.0, 3.0, 4.0) == 5.0


finite_coord = st.floats(min_value=-50, max_value=50, allow_nan=False)


@given(ax=finite_coord, ay=finite_coord, bx=finite_coord, by=finite_coord,
       qx=finite_coord, qy=finite_coord)
@settings(max_examples=300, deadline=None)
def test_min_dist_symmetry_and_endpoint_bound(ax, ay, bx, by, qx, qy):
    a, b, q = (ax, ay), (bx, by), (qx, qy)
    d_ab = _dist(a, b, q)
    d_ba = _dist(b, a, q)
    assert d_ab == pytest.approx(d_ba, abs=1e-9)
    assert d_ab <= min(math.hypot(ax - qx, ay - qy),
                       math.hypot(bx - qx, by - qy)) + 1e-12


@given(ax=finite_coord, ay=finite_coord, bx=finite_coord, by=finite_coord,
       r=st.floats(min_value=0, max_value=10),
       bump=st.floats(min_value=0, max_value=10))
@settings(max_examples=300, deadline=None)
# clears the origin by 1.2e-7, where b*b - a*c cancels to a touch
@example(ax=0.0, ay=16.0, bx=1.192092896e-07, by=0.0, r=0.0, bump=0.0)
def test_segment_hits_disc_monotone_in_r(ax, ay, bx, by, r, bump):
    # the engine's contact rule agrees with the distance verdict away from
    # the boundary, and a hit at range r stays a hit at any larger range
    def hits(rr):
        s = first_contact_np(*(np.array([v]) for v in (ax, ay, bx, by)), 0.0, 0.0, 0.0, 0.0, rr)
        return bool(np.isfinite(s[0]))

    hit = hits(r)
    d = _dist((ax, ay), (bx, by), (0.0, 0.0))
    if abs(d - r) > 1e-7:
        assert hit == (d <= r)
    if hit:
        assert hits(r + bump)


def _mc_hit(l0, bx, by, r):
    # the contact rule as the no-contact Monte Carlo calls it: a scalar
    # start (0, l0) and the obstruction parked at the origin
    return first_contact_np(0.0, l0, bx, by, 0.0, 0.0, 0.0, 0.0, r)


def test_contact_rule_in_monte_carlo_form_matches_segment_distance():
    # element for element, a hit fraction <= 1 exactly where the segment
    # from (0, l0) comes within r of the origin
    rng = RNG(41)
    r = 4.0
    hits = misses = 0
    for l0 in (6.0, 12.0, 40.0, 200.0):
        bx, by = rng.uniform(-2.0 * l0, 2.0 * l0, (2, 30_000))
        s = _mc_hit(l0, bx, by, r)
        d = segment_point_dist_np(0.0, l0, bx, by)
        assert np.array_equal(s <= 1.0, d <= r)
        assert np.all((s >= 0.0) & (s <= 1.0) | np.isinf(s))
        hits += int(np.count_nonzero(d <= r))
        misses += int(np.count_nonzero(d > r))
    assert hits > 5_000 and misses > 5_000
    # an exact tangent: from (0, 25) through (12, 9), 15 from the origin,
    # to (24, -7); it touches at s = 1/2 and clears any smaller range
    end = np.array([24.0]), np.array([-7.0])
    assert segment_point_dist_np(0.0, 25.0, *end)[0] == 15.0
    assert _mc_hit(25.0, *end, 15.0)[0] == 0.5
    assert np.isinf(_mc_hit(25.0, *end, 15.0 - 1e-9)[0])
    # a start within range, or on the range circle, is a contact at s = 0
    for l0 in (3.0, 4.0):
        assert segment_point_dist_np(0.0, l0, *end)[0] <= r
        assert _mc_hit(l0, *end, r)[0] == 0.0


# ---------------------------------------------------------------------------
# blocked sets


def test_in_S_trivial_membership():
    assert _in_S(10.0, 5.0, 5.0, 1.0)
    assert not _in_S(10.0, 0.0, -10.0, 1.0)


def test_in_S_rejects_bad_l0():
    # the set is undefined for l0 <= r; its Monte Carlo estimator refuses it
    for l0 in (1.0, 0.5):
        with pytest.raises(ValueError):
            estimate_H1_mc(RNG(0), ModelConfig(n=100, r=1.0), l0, 10)


def test_in_S_tangent_angle_fraction():
    # x uniform on the circle of radius 20 around the blocking disc's
    # center (0,-l0); the visible fraction is set by the two tangent
    # half-angles asin(r/l0) (from the segment anchor) and asin(r/20).
    l0, r, rad = 10.0, 1.0, 20.0
    want = 1.0 - (math.asin(r / l0) + math.asin(r / rad)) / math.pi

    # independent oracle: exhaustive evenly spaced angle scan
    m = 400_000
    ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)[:: m // 4000]
    scan_frac = _in_S(l0, rad * np.cos(ang), -l0 + rad * np.sin(ang), r).mean()
    assert scan_frac == pytest.approx(want, abs=2e-3)

    rng = RNG(3)
    n = 200_000
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    got = _in_S(l0, rad * np.cos(th), -l0 + rad * np.sin(th), r).mean()
    se = math.sqrt(want * (1.0 - want) / n)
    assert abs(got - want) <= 3.0 * se


def test_in_S_star_trivial_membership():
    assert _in_S_star(10.0, 0.0, 5.0, 1.0)
    assert not _in_S_star(10.0, 0.0, -5.0, 1.0)


@pytest.mark.parametrize("x_mag", [3.0, 8.0, 14.0, 20.0])
def test_in_S_star_arc_matches_central_angle(x_mag):
    # membership of x on the circle |x| = x_mag forms an arc whose central
    # angle is the phi formula at l0 = 2*sqrt(n)
    n = 100
    l0 = 2.0 * math.sqrt(n)
    r = 1.0
    m = 200_000
    sel = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)[:: m // 5000]
    frac = _in_S_star(l0, x_mag * np.sin(sel), x_mag * np.cos(sel), r).mean()
    want = central_angle_phi(x_mag, r, n) / (2.0 * math.pi)
    assert frac == pytest.approx(want, abs=2e-3)


# ---------------------------------------------------------------------------
# central_angle_phi, the arc reference above


def test_phi_no_obstruction_limit():
    assert central_angle_phi(20.0, 1e-12, 100) == pytest.approx(
        2.0 * math.pi, abs=1e-9)


def test_phi_reference_value():
    got = central_angle_phi(20.0, 2.0, 100)
    want = 2.0 * math.pi - 4.0 * math.asin(0.1)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(5.8824, abs=5e-4)


def test_phi_symmetric_at_diameter():
    n = 49
    r = 1.5
    got = central_angle_phi(2.0 * math.sqrt(n), r, n)
    want = 2.0 * math.pi - 4.0 * math.asin(r / (2.0 * math.sqrt(n)))
    assert got == pytest.approx(want, rel=1e-12)


def test_phi_domain_errors():
    with pytest.raises(ValueError):
        central_angle_phi(1.0, 2.0, 100)          # x_mag <= r
    with pytest.raises(ValueError):
        central_angle_phi(25.0, 1.0, 100)         # beyond diameter


@given(r=st.floats(min_value=0.01, max_value=1.5),
       bump=st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_phi_decreasing_in_r(r, bump):
    if r + bump < 10.0:
        assert central_angle_phi(10.0, r + bump, 100) < central_angle_phi(10.0, r, 100)


@given(x=st.floats(min_value=2.0, max_value=19.0),
       bump=st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_phi_increasing_in_x(x, bump):
    got_lo = central_angle_phi(x, 1.0, 100)
    got_hi = central_angle_phi(x + bump, 1.0, 100)
    assert got_hi > got_lo


# ---------------------------------------------------------------------------
# set monotonicity and rotation invariance

point_in_box = st.tuples(st.floats(min_value=-30, max_value=30),
                         st.floats(min_value=-30, max_value=30))


@given(xy=point_in_box,
       l0=st.floats(min_value=2.0, max_value=15.0),
       grow=st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=300, deadline=None)
def test_S_membership_monotone_in_l0(xy, l0, grow):
    x, y = xy
    r = 1.0
    if _in_S(l0, x, y, r):
        assert _in_S(l0 + grow, x, y, r)
    if _in_S_star(l0, x, y, r):
        assert _in_S_star(l0 + grow, x, y, r)


@given(ax=finite_coord, ay=finite_coord, bx=finite_coord, by=finite_coord,
       cx=finite_coord, cy=finite_coord,
       r=st.floats(min_value=0.1, max_value=5.0),
       theta=st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=300, deadline=None)
def test_contact_rotation_invariance(ax, ay, bx, by, cx, cy, r, theta):
    # rotating segment and disc center together never changes the verdict
    def rot(p):
        c, s = math.cos(theta), math.sin(theta)
        return c * p[0] - s * p[1], s * p[0] + c * p[1]

    a, b, c = (ax, ay), (bx, by), (cx, cy)
    d0 = _dist(a, b, c)
    d1 = _dist(rot(a), rot(b), rot(c))
    assert d1 == pytest.approx(d0, abs=1e-9)
    if abs(d0 - r) > 1e-7:        # verdict stable away from the boundary
        assert (d0 <= r) == (d1 <= r)


# ---------------------------------------------------------------------------
# the antipodal-wrap oracle


def test_wrap_flight_no_crossing():
    pieces = wrap_flight(0.0, 0.0, 1.0, 0.0, 10.0)
    assert pieces == [(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)]


def test_wrap_flight_single_antipodal_crossing():
    pieces = wrap_flight(9.0, 0.0, 2.0, 0.0, 10.0)
    assert len(pieces) == 2
    assert (pieces[0].ax, pieces[0].ay) == (9.0, 0.0)
    assert pieces[0].bx == pytest.approx(10.0, abs=1e-12)
    assert pieces[0].by == pytest.approx(0.0, abs=1e-12)
    assert pieces[1].ax == pytest.approx(-10.0, abs=1e-12)
    assert pieces[1].bx == pytest.approx(-9.0, abs=1e-12)
    # time split at the boundary crossing
    assert pieces[0].t1 == pytest.approx(0.5, abs=1e-12)
    assert pieces[1].t0 == pytest.approx(0.5, abs=1e-12)


def test_wrap_flight_rejects_outside_start():
    with pytest.raises(ValueError):
        wrap_flight(11.0, 0.0, 1.0, 0.0, 10.0)


def test_wrap_flight_zero_displacement():
    pieces = wrap_flight(3.0, 4.0, 0.0, 0.0, 10.0)
    assert pieces == [(3.0, 4.0, 3.0, 4.0, 0.0, 1.0)]


@given(sx=st.floats(min_value=-7, max_value=7),
       sy=st.floats(min_value=-7, max_value=7),
       dx=st.floats(min_value=-300, max_value=300),
       dy=st.floats(min_value=-300, max_value=300))
@settings(max_examples=300, deadline=None)
def test_wrap_flight_pieces_partition_and_stay_inside(sx, sy, dx, dy):
    radius = 10.0
    pieces = wrap_flight(sx, sy, dx, dy, radius)
    tol = 1e-9 * radius
    assert pieces[0].t0 == 0.0
    assert pieces[-1].t1 == 1.0
    total = 0.0
    for i, p in enumerate(pieces):
        assert math.hypot(p.ax, p.ay) <= radius + tol
        assert math.hypot(p.bx, p.by) <= radius + tol
        total += math.hypot(p.bx - p.ax, p.by - p.ay)
        if i:
            assert p.t0 == pytest.approx(pieces[i - 1].t1, abs=1e-12)
    assert total == pytest.approx(math.hypot(dx, dy), rel=1e-9, abs=1e-9)


def test_wrap_flight_preserves_uniform_stationarity():
    # uniform starts + wrapped flights of |d| <= R/2 keep uniform ends;
    # radial KS with F(rho) = (rho/R)^2 at the 1% level
    radius = 10.0
    rng = RNG(5)
    n = 100_000
    th0 = rng.uniform(0, 2 * math.pi, n)
    rh0 = radius * np.sqrt(rng.uniform(0, 1, n))
    fa = rng.uniform(0, 2 * math.pi, n)
    fz = rng.uniform(0, radius / 2, n)
    u = np.empty(n)
    for i in range(n):
        end = wrap_flight(rh0[i] * math.cos(th0[i]), rh0[i] * math.sin(th0[i]),
                          fz[i] * math.cos(fa[i]), fz[i] * math.sin(fa[i]),
                          radius)[-1]
        u[i] = (math.hypot(end.bx, end.by) / radius) ** 2
    assert stats.kstest(u, "uniform").pvalue > 0.01
