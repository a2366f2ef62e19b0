"""Meeting-process and relay-scheme simulation, including the exact
in-slot contact engine for wrapped paths."""

import concurrent.futures
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import oracle
import placement
import union_walk
from mobidelay import world
from mobidelay.flight import sample_flight_polar
from mobidelay.geometry import first_contact_np, uniform_points_in_disc
from mobidelay.world import (
    ModelConfig,
    _pair_slot_contacts,
    _piece,
    _wrap_geometry,
    pair_meeting_times,
    scheme_delays,
    trial_stream,
)
from oracle import segment_point_dist_np
from replay import replay
from slot_path import SlotPath

RNG = lambda seed: np.random.default_rng(seed)


def _contact(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r):
    """The vector engine on one pair: (t or None, e1x, e1y, e2x, e2y)."""
    one = [np.array([v], dtype=float) for v in (x1, y1, d1x, d1y, x2, y2, d2x, d2y)]
    t, *ends = (float(v[0]) for v in _pair_slot_contacts(*one, R, r))
    return (None if math.isinf(t) else t), *ends


# ---------------------------------------------------------------------------
# config invariants


def test_model_config_validation():
    ModelConfig(n=100, r=2.0)
    with pytest.raises(ValueError):
        ModelConfig(n=100, r=0.0)
    with pytest.raises(ValueError):
        ModelConfig(n=100, r=21.0)              # beyond the diameter
    # heavy-flight needs alpha in (0, 2]; the teleport model takes none
    for alpha in (None, 0.0, 2.5, math.nan):
        with pytest.raises(ValueError, match=r"alpha in \(0, 2\]"):
            ModelConfig(n=100, r=2.0, model="levy", alpha=alpha)
    with pytest.raises(ValueError, match="teleport model takes no alpha"):
        ModelConfig(n=100, r=2.0, alpha=1.0)


def test_model_config_defaults():
    iid = ModelConfig(n=100, r=2.0)
    assert iid.horizon_slots == 1000
    levy = ModelConfig(n=100, r=2.0, model="levy", alpha=1.0)
    assert levy.horizon_slots == 10_000


# ---------------------------------------------------------------------------
# slot contact with one node parked at the origin


def _contact_with_parked(x, y, dx, dy, r):
    return _contact(x, y, dx, dy, 0.0, 0.0, 0.0, 0.0, 10.0, r)[0]


def test_slot_contact_examples():
    assert _contact_with_parked(0.0, 3.0, 0.0, 2.0, 1.0) is None
    # mid-slot pass that an endpoint-only test would miss
    assert _contact_with_parked(-2.0, 0.0, 4.0, 0.0, 1.0) == pytest.approx(0.25)
    # a touch at the start counts
    assert _contact_with_parked(0.0, 3.0, 0.0, 2.0, 3.0) == 0.0


# ---------------------------------------------------------------------------
# contact engine: the three tiers must agree exactly


def _random_slot(rng, R, huge=False):
    th = rng.uniform(0, 2 * np.pi, 2)
    rho = R * np.sqrt(rng.uniform(0, 1, 2))
    x1, y1 = rho[0] * np.cos(th[0]), rho[0] * np.sin(th[0])
    x2, y2 = rho[1] * np.cos(th[1]), rho[1] * np.sin(th[1])
    lo, hi = (5.0, 6.0) if huge else (-1, 4)
    z1 = 10 ** rng.uniform(lo, hi)
    z2 = 10 ** rng.uniform(-1, 3 if huge else 4)
    a1, a2 = rng.uniform(0, 2 * np.pi, 2)
    return (float(x1), float(y1), float(z1 * np.cos(a1)), float(z1 * np.sin(a1)),
            float(x2), float(y2), float(z2 * np.cos(a2)), float(z2 * np.sin(a2)))


def _walk_and_search(slot, R, r):
    # the same pair through the test-only union walk, which enumerates
    # every piece, and through the engine's capsule search
    walked = float(union_walk.union_walk(*(np.array([v], dtype=float) for v in slot), R, r)[0])
    searched = _contact(*slot, R, r)[0]
    return (None if math.isinf(walked) else walked), searched


def test_union_walk_agrees_with_periodic_search():
    rng = RNG(101)
    R = 20.0
    hits = 0
    for _ in range(3000):
        slot = _random_slot(rng, R)
        r = float(rng.uniform(0.3, 3.0))
        tb, tc = _walk_and_search(slot, R, r)
        assert (tb is None) == (tc is None)
        if tb is not None:
            hits += 1
            assert tc == pytest.approx(tb, abs=1e-9)
    assert hits > 500  # the comparison actually exercised contacts


def test_periodic_search_exact_at_large_wrap_counts():
    rng = RNG(102)
    R = 20.0
    for _ in range(120):
        slot = _random_slot(rng, R, huge=True)
        r = float(rng.uniform(0.3, 3.0))
        tb, tc = _walk_and_search(slot, R, r)
        assert (tb is None) == (tc is None)
        if tb is not None:
            assert tc == pytest.approx(tb, abs=1e-9)


def test_periodic_search_stops_at_the_first_hit_of_a_huge_wrap_count(monkeypatch):
    # the fast node runs along y = 6 and wraps 1e12 times between the
    # chords y = -6 (A, even windows) and y = 6 (B, odd windows); the parked
    # node at (-4, 6.5) is within r = 1 of chord B only, for the whole slot.
    # The first candidate is window 1, entered at x = -8 at t1 + dt, and
    # contact comes at x = -4 - sqrt(0.75).  The ~1e12 windows after it are
    # never charged: a budget of 1 covers the search's one window, and the
    # fast node's pre-wrap piece never comes within r of the parked node
    R = 10.0
    z = 16e12
    monkeypatch.setattr(world, "_WINDOW_BUDGET", 1)
    t, *_ = _contact(0.0, 6.0, z, 0.0, -4.0, 6.5, 0.0, 0.0, R, 1.0)
    g = _wrap_geometry(*(np.array([v]) for v in (0.0, 6.0, z, 0.0)), R)
    assert g.m_last[0] + 1.0 >= 1e12  # wraps
    assert g.t1[0] == 8.0 / z and g.dt[0] == 16.0 / z
    assert t == pytest.approx((8.0 + 16.0 + 4.0 - math.sqrt(0.75)) / z, rel=1e-12)


def test_periodic_search_is_independent_of_its_batch_size(monkeypatch):
    # rows resume where the previous batch stopped: tiny batches find the
    # same contacts, bit for bit, as one pass
    rng = RNG(115)
    R = 20.0
    slots = [_random_slot(rng, R, huge=True) for _ in range(40)]
    cols = [np.array(c, dtype=float) for c in zip(*slots)]
    want = _pair_slot_contacts(*cols, R, 2.0)[0]
    assert np.isfinite(want).sum() > 10
    monkeypatch.setattr(world, "_WINDOW_BATCH", 3)
    assert np.array_equal(_pair_slot_contacts(*cols, R, 2.0)[0], want)


def test_capsule_interval_is_where_the_point_is_within_r():
    # the closed-form phase interval against the segment distance: its
    # ends sit at distance r unless clipped to 0 or dur, its midpoint is
    # within r, and where it is empty a fine grid never comes within r
    rng = RNG(114)
    n = 2000
    px, py, cx, cy = rng.uniform(-10.0, 10.0, (4, n))
    vx, vy, wx, wy = rng.normal(0.0, 8.0, (4, n))
    r = rng.uniform(0.2, 3.0, n)
    dur = rng.uniform(0.1, 1.0, n)
    # parked points, then lines parallel to the segment, all starting
    # about the segment's middle
    px[:400] = cx[:400] + 0.5 * wx[:400] + rng.normal(0.0, 3.0, 400)
    py[:400] = cy[:400] + 0.5 * wy[:400] + rng.normal(0.0, 3.0, 400)
    vx[:200] = vy[:200] = 0.0
    vx[200:400] = -0.7 * wx[200:400]
    vy[200:400] = -0.7 * wy[200:400]
    lo, hi = world._capsule(px, py, vx, vy, dur, cx, cy, wx, wy, r)

    def dist(phi):
        return segment_point_dist_np(cx, cy, cx + wx, cy + wy, px + vx * phi, py + vy * phi)

    full = lo <= hi
    for part in (slice(0, 200), slice(200, 400), slice(400, n)):
        assert 20 < full[part].sum() < full[part].size - 20
    for end, clip in ((lo, 0.0), (hi, dur)):
        d = dist(np.where(full, end, 0.0))
        on_circle = full & (end != clip)
        assert on_circle[400:].sum() > 100
        np.testing.assert_allclose(d[on_circle], r[on_circle], rtol=0, atol=1e-9)
        assert np.all(d[full] <= r[full] + 1e-9)
    assert np.all(dist(0.5 * (lo + hi))[full] <= r[full])
    grid = np.linspace(0.0, 1.0, 2001)[:, None] * dur
    assert np.all(dist(grid).min(axis=0)[~full] > r[~full])


def test_band_and_capsule_take_near_zero_slopes_silently():
    # alpha / beta overflows for a subnormal slope; +-inf is the limit, so
    # the band is every phase or none, and no RuntimeWarning may escape
    alpha = np.array([0.5, 0.5, 2.0, 2.0, -1.0])
    beta = np.array([1e-310, -1e-310, 1e-310, -1e-310, 1e-310])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = world._band(alpha, beta, 1.0)
        # the smallest speeds whose square stays nonzero, from inside and
        # from outside the capsule
        v = np.array([2.3e-162, 1e-160, 2.3e-162, 1e-160])
        clo, chi = world._capsule(np.array([0.5, 0.5, 3.0, 3.0]),
                                  np.array([0.1, 0.1, -40.0, -40.0]),
                                  v, 0.3 * v, 1.0, 0.0, 0.0, 1.0, 0.5, 2.0)
    assert np.array_equal(lo, [-np.inf, -np.inf, -np.inf, np.inf, np.inf])
    assert np.array_equal(hi, [np.inf, np.inf, -np.inf, np.inf, np.inf])
    # inside: all of [0, dur]; outside: empty
    assert np.array_equal(clo[:2], [0.0, 0.0]) and np.array_equal(chi[:2], [1.0, 1.0])
    assert not np.any(clo[2:] <= chi[2:])


def test_contact_time_lies_on_range_circle():
    # away from teleport instants the first contact must land exactly on
    # distance r; at a teleport the re-entry value may already be inside
    rng = RNG(103)
    R = 20.0
    r = 1.5
    checked = 0
    for _ in range(500):
        x1, y1, d1x, d1y, x2, y2, d2x, d2y = _random_slot(rng, R)
        if math.hypot(x1 - x2, y1 - y2) <= r:
            continue
        t, *_ = _contact(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r)
        if t is None:
            continue
        p1 = SlotPath(x1, y1, d1x, d1y, R)
        p2 = SlotPath(x2, y2, d2x, d2y, R)
        at_jump = False
        for p in (p1, p2):
            if p.n_wraps and not math.isinf(p.t1):
                ph = (t - p.t1) / p.dt if not p.frozen else 0.0
                if abs(t - p.t1) < 1e-9 or (p.n_wraps > 1 and
                                            abs(ph - round(ph)) < 1e-9):
                    at_jump = True
        q1 = p1.pos(t)
        q2 = p2.pos(t)
        d = math.hypot(q1[0] - q2[0], q1[1] - q2[1])
        if not at_jump:
            assert d == pytest.approx(r, abs=1e-6)
            checked += 1
    assert checked > 50


def test_slot_paths_never_leave_disc():
    rng = RNG(104)
    R = 20.0
    for _ in range(200):
        x1, y1, d1x, d1y, *_ = _random_slot(rng, R)
        p = SlotPath(x1, y1, d1x, d1y, R)
        for t in np.linspace(0, 1, 97):
            qx, qy = p.pos(float(t))
            assert math.hypot(qx, qy) <= R * (1 + 1e-9)


def _hit_parked(ax, ay, bx, by, r):
    # the engine's contact rule for a carrier moving from a to b against a
    # destination parked at the origin
    s = first_contact_np(*(np.array([v]) for v in (ax, ay, bx, by)), 0.0, 0.0, 0.0, 0.0, r)
    return float(s[0])


def test_seg_hit_boundary_inclusive():
    assert _hit_parked(0.0, 3.0, 0.0, 5.0, 3.0) == 0.0
    assert _hit_parked(-2.0, 1.0, 2.0, 1.0, 1.0) == pytest.approx(0.5)
    assert _hit_parked(0.0, 3.0, 0.0, 5.0, 1.0) == math.inf


def test_vector_kernel_shares_the_inclusive_contact_rule():
    # a carrier from (-1, 2) to (1, 2) grazes the parked destination's
    # range circle r = 2 at s = 0.5: an exact tangent counts as contact
    assert oracle.seg_hit(-1.0, 2.0, 1.0, 2.0, 2.0) == 0.5
    assert _hit_parked(-1.0, 2.0, 1.0, 2.0, 2.0) == 0.5
    # a pass that clears the range circle by 1.2e-7 is no contact in either
    assert oracle.seg_hit(0.0, 16.0, 1.192092896e-07, 0.0, 1e-9) is None
    assert _hit_parked(0.0, 16.0, 1.192092896e-07, 0.0, 1e-9) == math.inf
    # and both agree element for element on random straight slots
    rng = RNG(112)
    xs = rng.uniform(-5.0, 5.0, (8, 2000))
    got = first_contact_np(*xs, 1.5)
    for i in range(xs.shape[1]):
        x1, y1, e1x, e1y, x2, y2, e2x, e2y = xs[:, i]
        want = oracle.seg_hit(x1 - x2, y1 - y2, e1x - e2x, e1y - e2y, 1.5)
        assert got[i] == (math.inf if want is None else want)


# ---------------------------------------------------------------------------
# the contact engine against the explicit-wrap oracle


def _wraps_match_oracle(x, y, dx, dy, R):
    # wrap times and end position of one slot path against the oracle;
    # returns the path's wrap count
    path = SlotPath(x, y, dx, dy, R)
    pieces = oracle.wrap_flight(x, y, dx, dy, R)
    want = [p.t1 for p in pieces[:-1]]
    if path.n_wraps == 0:
        got = []
    elif path.frozen:
        got = [path.t1]
    else:
        got = [path.t1 + m * path.dt for m in range(path.n_wraps)]
    # a wrap rounding onto the slot end may be counted by one side only
    if len(got) != len(want):
        assert abs(len(got) - len(want)) == 1
        extra = got[-1] if len(got) > len(want) else want[-1]
        assert extra == pytest.approx(1.0, abs=1e-9)
        got, want = got[:len(want)], want[:len(got)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    ex, ey = path.end_pos()
    tol = 1e-9 * (R + math.hypot(dx, dy))
    assert ex == pytest.approx(pieces[-1].bx, abs=tol)
    assert ey == pytest.approx(pieces[-1].by, abs=tol)
    return path.n_wraps


def test_slot_path_wraps_match_oracle():
    rng = RNG(110)
    R = 20.0
    most = 0
    for _ in range(400):
        slot = _random_slot(rng, R)
        most = max(most, _wraps_match_oracle(*slot[:4], R),
                   _wraps_match_oracle(*slot[4:], R))
    assert most > 500  # the comparison reached several hundred wraps


def test_pair_slot_contact_matches_oracle_walk():
    rng = RNG(111)
    R = 20.0
    hits = 0
    for _ in range(1500):
        x1, y1, d1x, d1y, x2, y2, d2x, d2y = _random_slot(rng, R)
        r = float(rng.uniform(0.3, 3.0))
        t, *_ = _contact(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r)
        rel = oracle.relative_pieces(oracle.wrap_flight(x1, y1, d1x, d1y, R),
                                     oracle.wrap_flight(x2, y2, d2x, d2y, R))
        want = oracle.first_contact(rel, r)
        assert (t is None) == (want is None)
        if t is not None:
            hits += 1
            assert t == pytest.approx(want, abs=1e-9)
    assert hits > 300  # the comparison actually exercised contacts


def _check_kernel(monkeypatch, slots, R, r):
    # the capsule search on a batch of pairs against the search on each
    # pair alone, the union walk, the oracle walk and the scalar end
    # positions
    cols = [np.array(c, dtype=float) for c in zip(*slots)]
    t, e1x, e1y, e2x, e2y = _pair_slot_contacts(*cols, R, r)
    monkeypatch.setattr(world, "_WINDOW_BATCH", 64)  # many small batches
    assert np.array_equal(_pair_slot_contacts(*cols, R, r)[0], t)
    monkeypatch.setattr(union_walk, "UNION_PIECES", 64)  # many small chunks
    union = union_walk.union_walk(*cols, R, r)
    hits = 0
    for k, slot in enumerate(slots):
        searched = _contact(*slot, R, r)[0]
        rel = oracle.relative_pieces(oracle.wrap_flight(*slot[:4], R),
                                     oracle.wrap_flight(*slot[4:], R))
        walked = oracle.first_contact(rel, r)
        assert math.isinf(t[k]) == (searched is None) == (walked is None) == math.isinf(union[k])
        if walked is not None:
            hits += 1
            assert t[k] == pytest.approx(searched, abs=1e-9)
            assert t[k] == pytest.approx(union[k], abs=1e-9)
            assert t[k] == pytest.approx(walked, abs=1e-9)
        for (x, y, dx, dy), ex, ey in ((slot[:4], e1x[k], e1y[k]), (slot[4:], e2x[k], e2y[k])):
            assert (ex, ey) == pytest.approx(SlotPath(x, y, dx, dy, R).end_pos(), abs=1e-12 * R)
    monkeypatch.undo()
    return hits


def test_vector_kernel_matches_periodic_search_and_oracle(monkeypatch):
    rng = RNG(113)
    R = 20.0
    slots = [_random_slot(rng, R) for _ in range(600)]
    # keep the corpus to at most 2,048 wraps a pair, where the union walk
    # is cheap
    slots = [s for s in slots if SlotPath(*s[:4], R).n_wraps
             + SlotPath(*s[4:], R).n_wraps <= 2048]
    assert len(slots) > 500
    assert _check_kernel(monkeypatch, slots, R, 1.5) > 100


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_vector_kernel_matches_oracle_up_to_the_cap(data):
    R = 20.0
    slot = []
    for _ in range(2):
        rho = data.draw(st.floats(0.0, 1.0))
        th, phi = data.draw(st.floats(0.0, 2 * math.pi)), data.draw(st.floats(0.0, 2 * math.pi))
        z = 10.0 ** data.draw(st.floats(-1.0, 4.5))
        slot += [R * math.sqrt(rho) * math.cos(th), R * math.sqrt(rho) * math.sin(th),
                 z * math.cos(phi), z * math.sin(phi)]
    wraps = SlotPath(*slot[:4], R).n_wraps + SlotPath(*slot[4:], R).n_wraps
    assume(wraps <= 2000)
    r = data.draw(st.floats(0.3, 3.0))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_kernel(monkeypatch, [tuple(slot)], R, r)


def test_vector_kernel_edge_cases():
    R = 10.0
    # a tangent exit: the node leaves (0, 10) grazing the boundary and
    # stands at the antipode (0, -10) for the whole slot, while the other
    # node passes below it at height -9.5 and wraps later (t1 = 0.76)
    frozen = SlotPath(0.0, 10.0, 3.0, 3e-13, R)
    assert frozen.frozen and frozen.t1 == 0.0
    t, e1x, e1y, *_ = _contact(0.0, 10.0, 3.0, 3e-13, -6.0, -9.5, 12.0, 0.0, R, 1.0)
    assert t == pytest.approx((6.0 - math.sqrt(0.75)) / 12.0, abs=1e-9)
    assert (e1x, e1y) == pytest.approx((0.0, -10.0), abs=1e-12 * R)
    # only one end wraps, and the relative motion grazes the range circle
    # of the parked node exactly (clearance 2 = r) at t = 1/3
    slot = (-8.0, 2.0, 24.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert SlotPath(*slot[:4], R).n_wraps == 1
    t, *_ = _contact(*slot, R, 2.0)
    assert t == pytest.approx(1.0 / 3.0, abs=1e-9)
    rel = oracle.relative_pieces(oracle.wrap_flight(*slot[:4], R),
                                 oracle.wrap_flight(*slot[4:], R))
    assert oracle.first_contact(rel, 2.0) == pytest.approx(t, abs=1e-9)
    # and just outside the tangent it misses
    assert _contact(*slot, R, 2.0 - 1e-9)[0] is None
    # a flight whose squared length overflows has no wrap count: an
    # error, not a path that silently leaves the disc
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        _contact(1.0, 2.0, 1e200, 3e200, 0.0, 0.0, 0.0, 0.0, R, 1.0)


def test_flight_whose_slot_products_overflow_fails_without_warning(monkeypatch):
    # a first flight of length 1e153 squares to a finite 1e306, but the
    # slot's products reach ~32 R^2 rho^2 (R = 20 at n = 400), beyond a
    # float: the run fails with the overflow error and raises no numpy
    # warning on the way
    real = world.to_flight_polar

    def crafted(theta, z, alpha):
        real(theta, z, alpha)
        z[0] = 1e153
        return theta, z

    monkeypatch.setattr(world, "to_flight_polar", crafted)
    cfg = ModelConfig(n=400, r=2.0, model="levy", alpha=1.0, horizon_slots=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="overflows a float"):
            pair_meeting_times(cfg, 8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_heavy_flight_runs_raise_no_numpy_warning(alpha):
    # the wrap passes compute over lanes they then mask (unwrapped paths
    # have infinite exit times, frozen ones infinite periods): none of that
    # arithmetic may warn
    cfg = ModelConfig(n=400, r=4.0, model="levy", alpha=alpha, horizon_slots=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair_meeting_times(cfg, 2000, salt=340)
        scheme_delays(cfg, 300, salt=341)


def test_contacts_on_slow_chords_before_the_fast_wrap_match_oracle():
    # the slow node wraps first, near the boundary, and the fast node
    # later; contacts between the two first wraps are found by the search
    # rows of the fast pre-wrap piece against the slow node's chords, or
    # by the window pass on pairs of few chords.  A
    # wrapping path exits within one chord length of its start (t1 <= dt),
    # so the slow path starts at most two chords before the fast path's
    # first wrap
    rng = RNG(116)
    R = 20.0
    cases = hits = between = 0
    for _ in range(3000):
        th = rng.uniform(0, 2 * np.pi, 2)
        rho = R * np.array([math.sqrt(rng.uniform(0, 0.5)), 1 - 10 ** rng.uniform(-6, -1)])
        z = np.array([10 ** rng.uniform(1.5, 3.5), 10 ** rng.uniform(0.5, 3)])
        a = rng.uniform(0, 2 * np.pi, 2)
        a[1] = th[1] + rng.uniform(-1.2, 1.2)
        slot = []
        for k in range(2):
            slot += [rho[k] * math.cos(th[k]), rho[k] * math.sin(th[k]),
                     z[k] * math.cos(a[k]), z[k] * math.sin(a[k])]
        fast, slow = SlotPath(*slot[:4], R), SlotPath(*slot[4:], R)
        if not (fast.n_wraps >= slow.n_wraps and slow.t1 < fast.t1 < 1.0):
            continue
        cases += 1
        assert slow.t1 + 2.0 * slow.dt >= fast.t1
        r = float(rng.uniform(0.3, 3.0))
        t, *_ = _contact(*slot, R, r)
        rel = oracle.relative_pieces(oracle.wrap_flight(*slot[:4], R),
                                     oracle.wrap_flight(*slot[4:], R))
        want = oracle.first_contact(rel, r)
        assert (t is None) == (want is None)
        if t is not None:
            hits += 1
            between += slow.t1 < t < fast.t1
            assert t == pytest.approx(want, abs=1e-9)
    assert cases > 1500 and hits > 500
    assert between > 50  # the slow chords before the fast wrap were reached


def _both_passes(slots, R, r):
    # the window pass and the capsule search on the same pairs, each with
    # the fast path first as _pair_slot_contacts orders them; every pair
    # must be one the window pass takes
    cols = [np.array(c, dtype=float) for c in zip(*slots)]
    x0, y0, dx, dy = (np.concatenate(v) for v in zip(cols[:4], cols[4:]))
    g = _wrap_geometry(x0, y0, dx, dy, R)
    K = len(slots)
    k = np.arange(K)
    swap = g.m_last[:K] < g.m_last[K:]
    fast, slow = np.where(swap, K + k, k), np.where(swap, k, K + k)
    assert np.all(g.m_last < world._WINDOW_CHORDS)
    return (world._window_pass(x0, y0, dx, dy, g, fast, slow, r),
            world._capsule_search(x0, y0, dx, dy, g, fast, slow, r))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_window_pass_is_the_capsule_search_on_its_pairs(alpha):
    # pairs of the engine's own law, at least one end out of the disc and
    # no path starting more than _WINDOW_CHORDS chords: the window pass
    # finds the capsule search's times bit for bit, and the oracle's
    # within 1e-9, on pairs that wrap once and pairs that wrap more
    rng = RNG(117)
    R = 20.0
    x, y = uniform_points_in_disc(rng, R, 8000)
    theta, z = sample_flight_polar(rng, alpha, 8000)
    dx, dy = z * np.cos(theta), z * np.sin(theta)
    g = _wrap_geometry(x, y, dx, dy, R)
    out = (x + dx) ** 2 + (y + dy) ** 2 > R * R
    chords = np.maximum(g.m_last[:4000], g.m_last[4000:]) + 1.0
    taken = np.flatnonzero((chords <= world._WINDOW_CHORDS) & (out[:4000] | out[4000:]))
    slots = [(x[i], y[i], dx[i], dy[i], x[j], y[j], dx[j], dy[j])
             for i, j in zip(taken, taken + 4000)][:600]
    assert len(slots) > 300
    assert np.sum(chords[taken[:600]] == 1.0) > 200 and np.sum(chords[taken[:600]] > 1.0) > 5
    windows, searched = _both_passes(slots, R, 2.0)
    assert np.array_equal(windows, searched)
    hits = 0
    for slot, t in zip(slots, windows):
        rel = oracle.relative_pieces(oracle.wrap_flight(*slot[:4], R),
                                     oracle.wrap_flight(*slot[4:], R))
        want = oracle.first_contact(rel, 2.0)
        assert math.isinf(t) == (want is None)
        if want is not None:
            hits += 1
            assert t == pytest.approx(want, abs=1e-9)
    assert hits > 10


def test_window_pass_edge_cases():
    # (slot, r, contact time, whether the oracle's walk can follow it)
    R = 10.0
    cases = [
        # an exit exactly at t = 1 starts no chord; the other path wraps
        # once, running 14 faster along a line 0.5 below the first
        ((0.0, 0.0, 10.0, 0.0, -6.0, -0.5, 24.0, 0.0), 1.0,
         (6.0 - math.sqrt(0.75)) / 14.0, True),
        # a tangent exit freezes the node at (0, -10) from t = 0, and the
        # other node passes below it at height -9.5 before its own exit;
        # the oracle's walk never gets past a tangent exit
        ((0.0, 10.0, 3.0, 3e-13, -6.0, -9.5, 12.0, 0.0), 1.0,
         (6.0 - math.sqrt(0.75)) / 12.0, False),
        # one path wraps once and the other stays parked; the relative
        # motion grazes the parked node's range circle at t = 1/3
        ((-8.0, 2.0, 24.0, 0.0, 0.0, 0.0, 0.0, 0.0), 2.0, 1.0 / 3.0, True),
        # contact at an exit instant: the node leaves at (10, 0) at t = 1/2
        # and re-enters at (-10, 0), exactly r = 1 from the parked node
        ((0.0, 0.0, 20.0, 0.0, -9.0, 0.0, 0.0, 0.0), 1.0, 0.5, True),
    ]
    g = _wrap_geometry(*(np.array([v, w]) for v, w in zip(cases[0][0][:4], cases[1][0][:4])), R)
    assert g.t1[0] == np.inf and g.m_last[0] == -1.0
    assert g.frozen[1] and g.t1[1] == 0.0
    for slot, r, want, walkable in cases:
        windows, searched = _both_passes([slot], R, r)
        assert windows[0] == searched[0] == _contact(*slot, R, r)[0]
        assert windows[0] == pytest.approx(want, abs=1e-9)
        if walkable:
            rel = oracle.relative_pieces(oracle.wrap_flight(*slot[:4], R),
                                         oracle.wrap_flight(*slot[4:], R))
            assert oracle.first_contact(rel, r) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# pair_meeting_times


def test_meeting_time_zero_iff_initially_in_range():
    # r = diameter
    cfg = ModelConfig(n=100, r=20.0, horizon_slots=5, master_seed=105)
    l0, tm = pair_meeting_times(cfg, 200)
    assert np.all(l0 <= cfg.r)
    assert np.all(tm == 0.0)


def test_meeting_sample_consistency():
    cfg = ModelConfig(n=100, r=2.0, horizon_slots=20, master_seed=106)
    l0, tm = pair_meeting_times(cfg, 300)
    assert l0.shape == tm.shape == (300,)
    # met at t=0 exactly when the pair starts in range
    assert np.array_equal(tm == 0.0, l0 <= cfg.r)
    censored = np.isinf(tm)
    assert censored.any()
    # every other trial meets inside the horizon, mid-slot times allowed
    met = ~censored & (tm > 0.0)
    assert met.any()
    assert np.all(tm[met] <= cfg.horizon_slots)
    assert np.all(l0[met] > cfg.r)


def test_initial_miss_fraction_within_outage_sandwich():
    # fraction of trials with T > 0 must sit between the area bounds
    # 1 - r^2/n and 1 - r^2/(3n) up to MC error
    cfg = ModelConfig(n=100, r=3.0, horizon_slots=1)
    _, tm = pair_meeting_times(cfg, 10**6, salt=201)
    miss = float(np.mean(tm > 0.0))
    lo = 1.0 - 9.0 / 100.0
    hi = 1.0 - 9.0 / 300.0
    se = math.sqrt(0.25 / tm.size)
    assert lo - 3.0 * se <= miss <= hi + 3.0 * se


def test_iid_ccdf_below_geometric_bound_light():
    # light version of the acceptance check: empirical P{T > tau} must
    # stay below (phat upper)^tau * (po upper) + 3 sigma
    n, r = 400, 4.0
    cfg = ModelConfig(n=n, r=r, horizon_slots=200)
    _, tm = pair_meeting_times(cfg, 10_000, salt=202)
    po_up = 1.0 - r * r / (3.0 * n)
    phat_up = 1.0 - math.asin(r / (2.0 * math.sqrt(n))) / math.pi
    m = tm.size
    for tau in range(1, 11):
        emp = float(np.mean(tm > tau))
        bound = po_up * phat_up**tau
        se = math.sqrt(max(emp * (1 - emp), 1e-9) / m)
        assert emp <= bound + 3.0 * se


def test_expected_ceiling_meeting_time_bound():
    # discrete meeting-slot mean against the outage/no-contact bound with
    # the per-slot probability at its model upper bound
    n, r = 400, 4.0
    cfg = ModelConfig(n=n, r=r, horizon_slots=1000)
    _, tm = pair_meeting_times(cfg, 8000, salt=203)
    assert float(np.mean(np.isinf(tm))) < 0.01
    ceil_t = np.where(np.isinf(tm), cfg.horizon_slots, np.ceil(tm))
    po_up = 1.0 - r * r / (3.0 * n)
    phat_up = 1.0 - math.asin(r / (2.0 * math.sqrt(n))) / math.pi
    bound = po_up / (1.0 - phat_up)
    se = ceil_t.std(ddof=1) / math.sqrt(ceil_t.size)
    assert ceil_t.mean() <= bound + 3.0 * se


def _slot_ends(cfg, trials, salt):
    # continuous and slot-end contacts from the replay, whose continuous
    # times are the engine's on the same trials
    _, _, tm, ts = replay(cfg, trials, salt)
    _, engine = pair_meeting_times(cfg, trials, salt=salt)
    fin = np.isfinite(engine)
    assert np.array_equal(np.isfinite(tm), fin)
    np.testing.assert_allclose(tm[fin], engine[fin], rtol=0, atol=1e-9)
    return tm, ts


def test_slotted_detection_never_earlier_than_continuous():
    # a trial runs up to its meeting slot, so a slot-end contact before
    # t_meet, or of a censored trial, would break the order
    cfg = ModelConfig(n=100, r=2.0, horizon_slots=300)
    tm, ts = _slot_ends(cfg, 2000, 204)
    finite = np.isfinite(tm)
    assert np.all(tm[finite] <= ts[finite] + 1e-12)
    # slotted hit implies a continuous hit no later than that slot
    assert not np.any(np.isinf(tm) & np.isfinite(ts))

    cfg2 = ModelConfig(n=100, r=2.0, model="levy", alpha=1.0, horizon_slots=300)
    tm2, ts2 = _slot_ends(cfg2, 2000, 205)
    fin2 = np.isfinite(tm2)
    assert np.all(tm2[fin2] <= ts2[fin2] + 1e-12)
    assert not np.any(np.isinf(tm2) & np.isfinite(ts2))
    # heavy-tailed motion gives strictly more mid-slot contacts: on most
    # trials the meeting slot ends out of range, so ts2 is inf there (the
    # share would be 0 with the slotted times in place of tm2)
    assert np.mean(np.ceil(tm2) < ts2) > 0.5


# ---------------------------------------------------------------------------
# neighbor sets


def test_neighbor_set_examples():
    # the source's neighbor set I(s) counts the source itself: a range
    # below any spacing leaves only s, the disc diameter takes everyone
    n = 12
    tiny = ModelConfig(n=n, r=1e-9, horizon_slots=1, master_seed=1)
    nc, d0, _ = scheme_delays(tiny, 200)
    assert np.all(nc == 1) and not d0.any()
    whole = ModelConfig(n=n, r=2.0 * math.sqrt(n), horizon_slots=1, master_seed=1)
    nc, d0, dl = scheme_delays(whole, 200)
    assert np.all(nc == n) and d0.all() and np.all(dl == 0.0)


def _pool_cells(obs, exp, min_exp=5.0):
    po, pe = [], []
    co = ce = 0.0
    for o, e in zip(obs, exp):
        co += o
        ce += e
        if ce >= min_exp:
            po.append(co)
            pe.append(ce)
            co = ce = 0.0
    if ce > 0.0 and po:
        po[-1] += co
        pe[-1] += ce
    return np.asarray(po), np.asarray(pe)


def test_neighbor_count_binomial_at_chart_center():
    # with the probe at its chart's center the neighbor count over the
    # remaining n-2 nodes is exactly Binomial(n-2, r^2/n)
    n, r = 500, 5.0
    R = math.sqrt(n)
    rng = RNG(107)
    trials = 20_000
    counts = np.empty(trials, dtype=int)
    for i in range(trials):
        rho2 = R * R * rng.uniform(0, 1, n - 2)  # squared radii suffice
        counts[i] = int(np.sum(rho2 <= r * r))
        if i < 200:
            # the squared-radius count must agree with planar distances
            # from the probe at the chart center
            th = rng.uniform(0, 2 * math.pi, n - 2)
            rh = np.sqrt(rho2)
            near = np.hypot(rh * np.cos(th), rh * np.sin(th)) <= r
            assert int(near.sum()) == counts[i]
    # estimate p from the counts themselves (a fitted parameter)
    p_hat = counts.sum() / (trials * (n - 2))
    kmax = int(counts.max())
    pmf = stats.binom.pmf(np.arange(kmax + 1), n - 2, p_hat)
    exp = pmf * trials
    exp[-1] += trials * float(stats.binom.sf(kmax, n - 2, p_hat))
    obs = np.bincount(counts, minlength=kmax + 1).astype(float)
    obs_p, exp_p = _pool_cells(obs, exp)
    chi2 = float(np.sum((obs_p - exp_p) ** 2 / exp_p))
    dof = obs_p.size - 2
    assert stats.chi2.sf(chi2, dof) > 0.01


# ---------------------------------------------------------------------------
# scheme_delays


def _agree(a, b):
    """Two independent samples' means within 3 standard errors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) <= 3.0 * se


@pytest.mark.parametrize("cfg", [
    ModelConfig(n=200, r=2.0, horizon_slots=300),
    # r above sqrt(n): most sources see the boundary and many the destination
    ModelConfig(n=50, r=9.0, horizon_slots=300),
    ModelConfig(n=200, r=2.0, model="levy", alpha=1.0,
                horizon_slots=300),
], ids=["iid", "iid-wide", "levy-1"])
def test_relay_layout_matches_explicit_placement(monkeypatch, cfg):
    # the engine draws the neighbour count and places the lens carriers;
    # explicit placement of all n nodes (tests/placement.py) has the same
    # law, so neighbour counts, destination-in-range shares and delays
    # agree at every quartile of the explicit run
    trials = 4000
    nc, d0, dl = scheme_delays(cfg, trials, salt=320)
    monkeypatch.setattr(world, "_place_trials", placement.place_all)
    nc_x, d0_x, dl_x = scheme_delays(cfg, trials, salt=321)
    H = cfg.horizon_slots
    _agree(nc, nc_x)
    _agree(d0, d0_x)
    _agree(np.minimum(dl, H), np.minimum(dl_x, H))
    for c in np.unique(np.quantile(nc_x, [0.25, 0.5, 0.75], method="lower")):
        _agree(nc <= c, nc_x <= c)
    for t in np.unique(np.quantile(dl_x[~d0_x], [0.25, 0.5, 0.75], method="lower")):
        _agree(dl > t, dl_x > t)


@pytest.mark.parametrize("cfg", [
    ModelConfig(n=400, r=4.0, horizon_slots=60),
    ModelConfig(n=400, r=4.0, model="levy", alpha=0.5, horizon_slots=60),
], ids=["iid", "levy-0.5"])
def test_pair_streams_match_explicit_placement(monkeypatch, cfg):
    # pair meeting places its two nodes as explicit placement always did,
    # so its times are the explicit reference's bit for bit
    want = pair_meeting_times(cfg, 1500, salt=322)
    monkeypatch.setattr(world, "_place_trials", placement.place_all)
    got = pair_meeting_times(cfg, 1500, salt=322)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


@pytest.mark.parametrize("alpha", [0.5, 1.0], ids=["levy-0.5", "levy-1"])
def test_wrap_engine_is_called_only_on_wrapped_pairs(monkeypatch, alpha):
    # late slots of a small group often wrap no pair: the wrap-aware engine
    # is skipped there, and the times stay the replay's.  The group maps
    # its slot's draws to flights once per slot, which counts the slots
    cfg = ModelConfig(n=400, r=4.0, model="levy", alpha=alpha, horizon_slots=60)
    engine, per_slot = world._pair_slot_contacts, world.to_flight_polar
    calls = {"engine": 0, "slots": 0}

    def guarded(x1, *args):
        assert x1.size > 0, "the wrap-aware engine got no pairs"
        calls["engine"] += 1
        return engine(x1, *args)

    def counted(*args):
        calls["slots"] += 1
        return per_slot(*args)

    monkeypatch.setattr(world, "_pair_slot_contacts", guarded)
    monkeypatch.setattr(world, "to_flight_polar", counted)
    l0, _, tm = world._run_sharded(cfg, 20, 341, 1, 2)
    want_l0, _, want, _ = replay(cfg, 20, 341, False)
    assert 0 < calls["engine"] < calls["slots"]
    assert np.array_equal(l0, want_l0)
    fin = np.isfinite(want)
    assert fin.any() and np.array_equal(fin, np.isfinite(tm))
    np.testing.assert_allclose(tm[fin], want[fin], rtol=0, atol=1e-9)


def test_relay_setup_places_only_the_carriers(monkeypatch):
    # at n = 10^6 no point request may exceed two per trial plus the lens
    # carriers: a placement of all n nodes fails on its first request
    cfg = ModelConfig(n=10**6, r=1.0, horizon_slots=20)
    trials = 2000
    draw = world.uniform_points_in_disc
    sizes = []

    def guarded(rng, radius, size):
        sizes.append(size)
        # the lens carriers number about trials * r^2 (n - 2) / n <= trials
        if size > 4 * trials:
            raise AssertionError(f"a request for {size} points")
        return draw(rng, radius, size)

    monkeypatch.setattr(world, "uniform_points_in_disc", guarded)
    nc, d0, dl = scheme_delays(cfg, trials)
    carriers = int(np.sum(nc - 1 - d0))
    assert 0 < carriers and max(sizes) <= 2 * trials + carriers
    assert np.any(nc > 2) and np.any(np.isfinite(dl) & ~d0)


@pytest.mark.parametrize("n,r", [(200, 2.0), (50, 9.0), (50, 2.0 * math.sqrt(50)), (10**6, 3.0)])
def test_lens_carriers_lie_in_the_lens(n, r):
    cfg = ModelConfig(n=n, r=r, horizon_slots=1)
    R = cfg.radius
    count = 1000
    l0, ncount, live, qx, qy, cx, cy, cpos = world._place_trials(
        trial_stream(5, 323, 0), cfg, count, n)
    assert np.array_equal(live, np.flatnonzero(l0 > r))
    # carriers in trial order, as many as the live trials' neighbours
    assert np.all(np.diff(cpos) >= 0)
    assert np.array_equal(np.bincount(cpos, minlength=live.size), ncount[live])
    # each trial's first carrier is its source, the rest lie in its lens
    lead = np.cumsum(ncount[live]) - ncount[live]
    assert np.array_equal(np.hypot(cx[lead] - qx, cy[lead] - qy), l0[live])
    sx = cx[lead][cpos]
    sy = cy[lead][cpos]
    assert np.all(np.hypot(cx - sx, cy - sy) <= r * (1.0 + 1e-12))
    assert np.all(np.hypot(cx, cy) <= R * (1.0 + 1e-12))
    assert np.all(ncount >= 1 + (l0 <= r)) and np.all(ncount <= n)



def test_delay_zero_iff_dest_in_range():
    cfg = ModelConfig(n=9, r=2.5, horizon_slots=100, master_seed=108)
    nc, d0, dl = scheme_delays(cfg, 300)
    assert np.all(dl[d0] == 0.0)
    assert d0.any()
    # a relay may already touch the destination at t=0
    finite = ~d0 & np.isfinite(dl)
    assert np.all(dl[finite] >= 0.0)
    assert np.any(dl[finite] > 0.0)
    assert np.all(nc >= 1)


def test_delay_requires_two_nodes():
    cfg = ModelConfig(n=1, r=0.5, horizon_slots=5)
    with pytest.raises(ValueError):
        scheme_delays(cfg, 1)
    with pytest.raises(ValueError, match="n >= 2"):
        pair_meeting_times(cfg, 1)


def test_batch_runners_reject_empty_runs():
    cfg = ModelConfig(n=10, r=1.0, horizon_slots=5)
    with pytest.raises(ValueError, match="trials"):
        scheme_delays(cfg, 0)
    with pytest.raises(ValueError, match="trials"):
        pair_meeting_times(cfg, 0)


def test_lone_source_delay_matches_pair_meeting():
    # when the source has no initial neighbors the scheme reduces to the
    # (s, d) pair meeting; compare conditional distributions
    n, r = 9, 0.6
    cfg = ModelConfig(n=n, r=r, horizon_slots=2000)
    nc, d0, dl = scheme_delays(cfg, 4000, salt=301)
    lone = (~d0) & (nc == 1) & np.isfinite(dl)
    assert lone.sum() > 500
    _, tm = pair_meeting_times(cfg, 4000, salt=302)
    pair = tm[(tm > 0.0) & np.isfinite(tm)]
    res = stats.ks_2samp(dl[lone], pair)
    assert res.pvalue > 0.01


def test_scheme_delay_never_exceeds_pair_meeting_pathwise():
    # same world, same moves: the carrier set includes the source, so
    # delivery can only be earlier than the plain (s,d) meeting;
    # simulated here with the oracle's per-slot pieces and contact walk
    n, r = 30, 1.5
    cfg = ModelConfig(n=n, r=r, horizon_slots=150)
    R = cfg.radius
    rng = RNG(109)
    worlds = 0
    while worlds < 60:
        xs, ys = uniform_points_in_disc(rng, R, n)
        near = np.hypot(xs - xs[0], ys - ys[0]) <= r
        if near[1]:
            continue  # trivially zero for both
        worlds += 1
        carriers = np.flatnonzero(near)
        streams = [trial_stream(7, 400 + worlds, i) for i in range(n)]
        t_pair = math.inf
        t_scheme = math.inf
        for k in range(1, cfg.horizon_slots + 1):
            # each node relocates uniformly, moving linearly over the slot
            moves = [uniform_points_in_disc(s, R, 1) for s in streams]
            trajs = [[oracle.Piece(float(xs[i]), float(ys[i]), float(mx[0]),
                                   float(my[0]), 0.0, 1.0)]
                     for i, (mx, my) in enumerate(moves)]
            for i in carriers:
                rel = oracle.relative_pieces(trajs[i], trajs[1])
                if oracle.first_contact(rel, r) is not None:
                    if math.isinf(t_scheme):
                        t_scheme = float(k)
                    if i == 0 and math.isinf(t_pair):
                        t_pair = float(k)
            if not math.isinf(t_pair):
                break
            xs = np.array([t[-1].bx for t in trajs])
            ys = np.array([t[-1].by for t in trajs])
        assert t_scheme <= t_pair


def test_mean_delay_below_empirical_ccdf_chain():
    # bound the scheme's mean discrete delay by
    # 1 + P_o + P_o * E[Ubar(B+1)] built from the pair run's own CCDF
    n = 1000
    cfg = ModelConfig(n=n, r=1.0, horizon_slots=1500)
    _, tm = pair_meeting_times(cfg, 10_000, salt=303)
    assert float(np.mean(np.isinf(tm))) < 0.01
    positive = tm[tm > 0.0]
    po = positive.size / tm.size
    horizon = cfg.horizon_slots
    taus = np.arange(0, horizon + 1)
    capped = np.sort(np.where(np.isinf(positive), horizon, positive))
    ccdf = 1.0 - np.searchsorted(capped, taus, side="right") / capped.size

    def ubar(m):
        return float(np.sum(ccdf**m))

    kmax = 30
    pmf = stats.binom.pmf(np.arange(kmax + 1), n - 2, 1.0 - po)
    e_ubar = float(sum(pmf[b] * ubar(b + 1) for b in range(kmax + 1)))
    bound = 1.0 + po + po * e_ubar

    nc, d0, dl = scheme_delays(cfg, 3000, salt=304)
    ceil_d = np.where(np.isinf(dl), cfg.horizon_slots, np.ceil(dl))
    se = ceil_d.std(ddof=1) / math.sqrt(ceil_d.size)
    assert ceil_d.mean() <= bound + 3.0 * se


# ---------------------------------------------------------------------------
# slot paths and determinism


def test_trajectories_preserve_count_and_continuity():
    # one heavy-flight slot per node: the path's pieces start at the
    # node's position and partition the slot without gaps
    cfg = ModelConfig(n=100, r=2.0, model="levy", alpha=1.0)
    x0 = np.array([0.0, 3.0, -5.0, 1.0])
    y0 = np.array([0.0, 4.0, 1.0, 2.0])
    theta, z = sample_flight_polar(trial_stream(1, 500, 0), cfg.alpha, 3)
    dx, dy = z * np.cos(theta), z * np.sin(theta)
    # plus one fixed flight that wraps several times
    dx = np.append(dx, 137.0)
    dy = np.append(dy, -55.0)
    g = _wrap_geometry(x0, y0, dx, dy, cfg.radius)
    assert g.m_last[3] > 2
    for i in range(4):
        gi = world._Wraps(*(np.repeat(f[i], g.m_last[i] + 2) for f in g))
        m = np.arange(-1.0, g.m_last[i] + 1)
        t0, px, py, vx, vy, _ = _piece(x0, y0, dx, dy, g, np.full(m.size, i), m)
        end = np.where(m < 0, gi.t1, t0 + gi.dt)
        assert t0[0] == 0.0 and (px[0], py[0]) == (x0[i], y0[i])
        assert min(end[-1], 1.0) == 1.0
        np.testing.assert_allclose(t0[1:], end[:-1], rtol=0, atol=1e-12)
        # consecutive pieces join on antipodal boundary points
        jx = px[:-1] + vx[:-1] * (end[:-1] - t0[:-1])
        jy = py[:-1] + vy[:-1] * (end[:-1] - t0[:-1])
        np.testing.assert_allclose(px[1:], -jx, rtol=0, atol=1e-9)
        np.testing.assert_allclose(py[1:], -jy, rtol=0, atol=1e-9)


def test_batch_runs_replay_and_ignore_worker_count():
    for cfg in (
        ModelConfig(n=100, r=2.0, horizon_slots=50),
        # heavy flights wrap on most slots: covers the lockstep wrap fallback
        ModelConfig(n=100, r=2.0, model="levy", alpha=0.5,
                    horizon_slots=10),
        # a large relay population, affordable since only carriers are placed
        ModelConfig(n=50_000, r=2.0, horizon_slots=50),
    ):
        # two blocks each, so two workers really split the work
        a = pair_meeting_times(cfg, 1500, salt=305)
        b = pair_meeting_times(cfg, 1500, salt=305)
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[0], b[0])
        c = pair_meeting_times(cfg, 1500, salt=305, workers=2)
        assert np.array_equal(a[1], c[1])

        d1 = scheme_delays(cfg, 1100, salt=306)
        d2 = scheme_delays(cfg, 1100, salt=306, workers=2)
        for u, v in zip(d1, d2):
            assert np.array_equal(u, v)


def test_single_block_runs_without_a_pool(monkeypatch):
    # one block leaves nothing to split: two workers run it inline
    cfg = ModelConfig(n=100, r=2.0, model="levy", alpha=1.0,
                      horizon_slots=10)
    want = pair_meeting_times(cfg, 500, salt=310)
    want_delay = scheme_delays(cfg, 500, salt=311)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started for one block")

    # the runner imports the pool only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    got = pair_meeting_times(cfg, 500, salt=310, workers=2)
    got_delay = scheme_delays(cfg, 500, salt=311, workers=2)
    for w, g in zip((*want, *want_delay), (*got, *got_delay)):
        assert np.array_equal(w, g)


@pytest.mark.parametrize("run,cfg", [
    (pair_meeting_times, ModelConfig(n=400, r=4.0)),
    # most slots have pairs that wrap, many of them thousands of times
    (pair_meeting_times, ModelConfig(n=400, r=4.0, model="levy", alpha=0.5,
                                     horizon_slots=20)),
    (scheme_delays, ModelConfig(n=2, r=0.3, horizon_slots=60)),
    (scheme_delays, ModelConfig(n=50_000, r=2.0, horizon_slots=50)),
    (scheme_delays, ModelConfig(n=60, r=1.5, model="levy", alpha=0.8,
                                horizon_slots=20)),
], ids=["iid", "pareto-0.5-periodic", "relay-2", "relay-50000", "relay-levy"])
def test_grouping_and_workers_never_change_a_result(monkeypatch, run, cfg):
    # three blocks, the last one short: one block per group must give the
    # default groups' arrays bit for bit, whatever the worker count
    trials = 2 * world._BLOCK + 300
    with monkeypatch.context() as m:
        m.setattr(world, "_GROUP_NODES", 1)
        want = run(cfg, trials, salt=330, workers=1)
    for workers in (1, 2, 3):
        got = run(cfg, trials, salt=330, workers=workers)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)


# the slot loop's test for one carrier per live trial
_ONE_CARRIER = "one = nc == live.size"


def _gathered_contact_group():
    """world._contact_group with its one-carrier pass switched off: every
    slot gathers the destinations by cpos and takes per-trial minima.
    Built from the module's current globals."""
    src = textwrap.dedent(inspect.getsource(world._contact_group))
    assert src.count(_ONE_CARRIER) == 1
    namespace = dict(vars(world))
    exec(src.replace(_ONE_CARRIER, "one = False"), namespace)
    return namespace["_contact_group"]


@pytest.mark.parametrize("run,cfg", [
    (scheme_delays, ModelConfig(n=36, r=1.0, horizon_slots=200)),
    (scheme_delays, ModelConfig(n=36, r=1.0, model="levy", alpha=1.0, horizon_slots=100)),
    (pair_meeting_times, ModelConfig(n=400, r=4.0, model="levy", alpha=0.5, horizon_slots=20)),
], ids=["relay-iid", "relay-levy", "pair-levy-0.5"])
@pytest.mark.parametrize("group_nodes", [1, 6200, world._GROUP_NODES],
                         ids=["1-block", "2-blocks", "default"])
def test_one_carrier_pass_matches_the_gathered_path(monkeypatch, run, cfg, group_nodes):
    # three blocks, grouped one, two or three at a time.  A relay group
    # starts with trials of several carriers and, once those have met,
    # runs on one carrier per trial; pair meeting has one from the start.
    # Forced through the gather on every slot, the arrays stay the same
    monkeypatch.setattr(world, "_GROUP_NODES", group_nodes)
    calls = {"slots": 0, "gathered": 0}
    to_polar = "to_flight_polar" if cfg.model == "levy" else "to_disc_polar"
    real_polar, real_min = getattr(world, to_polar), world._per_trial_min

    def slot(*args):
        calls["slots"] += 1
        return real_polar(*args)

    def gathered(*args):
        calls["gathered"] += 1
        return real_min(*args)

    monkeypatch.setattr(world, to_polar, slot)
    monkeypatch.setattr(world, "_per_trial_min", gathered)
    trials = 2 * world._BLOCK + 300
    want = run(cfg, trials, salt=350)
    slots = calls["slots"]
    if run is scheme_delays:
        assert 0 < calls["gathered"] < slots
    else:
        assert calls["gathered"] == 0
    calls.update(slots=0, gathered=0)
    monkeypatch.setattr(world, "_contact_group", _gathered_contact_group())
    got = run(cfg, trials, salt=350)
    assert calls["gathered"] == calls["slots"] == slots
    for w, g in zip(want, got):
        assert w.dtype == g.dtype and w.tobytes() == g.tobytes()


def test_blocks_of_a_group_may_finish_at_different_slots(monkeypatch):
    # blocks leave the group's slot loop one by one, the first of them with
    # no live trial at all: the survivors keep their own streams
    # (this salt's one-trial last block starts in range)
    cfg = ModelConfig(n=36, r=2.5, horizon_slots=200)
    trials = 3 * world._BLOCK + 1
    want = pair_meeting_times(cfg, trials, salt=333)
    monkeypatch.setattr(world, "_GROUP_NODES", 1)
    got = pair_meeting_times(cfg, trials, salt=333)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    tm = want[1]
    assert np.all(np.isfinite(tm)) and tm[-1] == 0.0
    last = [np.ceil(tm[b:b + world._BLOCK]).max() for b in range(0, trials, world._BLOCK)]
    assert len(set(last)) == 4


def test_groups_hold_blocks_by_nodes_in_flight(monkeypatch):
    # a relay trial expecting about 1,000 carriers fills a group alone; a
    # pair-meeting trial has two nodes, so eight blocks share a group
    tasks = []

    def record(args):
        _, _, first, counts, *_ = args
        tasks.append((first, counts))
        zeros = np.zeros(sum(counts))
        return zeros, zeros, zeros

    monkeypatch.setattr(world, "_contact_group", record)
    cfg = ModelConfig(n=10**6, r=math.sqrt(1000.0), horizon_slots=10)
    scheme_delays(cfg, 3 * world._BLOCK)
    assert tasks == [(b, [world._BLOCK]) for b in range(3)]
    tasks.clear()
    pair_meeting_times(cfg, 16 * world._BLOCK + 5)
    assert [first for first, _ in tasks] == [0, 5, 11]
    assert [len(counts) for _, counts in tasks] == [5, 6, 6]
    assert sum(map(sum, (counts for _, counts in tasks))) == 16 * world._BLOCK + 5


def _walked_slot_contacts(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r):
    # _pair_slot_contacts with the contact times of the union walk for the
    # pairs that wrap at most 2,048 times, where walking every piece is
    # cheap; the end positions come from the closed form either way
    t, *ends = _pair_slot_contacts(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r)
    g1 = _wrap_geometry(x1, y1, d1x, d1y, R)
    g2 = _wrap_geometry(x2, y2, d2x, d2y, R)
    few = np.flatnonzero(g1.m_last + g2.m_last + 2.0 <= 2048)
    cols = (v[few] for v in (x1, y1, d1x, d1y, x2, y2, d2x, d2y))
    t[few] = union_walk.union_walk(*cols, R, r)
    return t, *ends


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_union_walk_matches_periodic_search_over_whole_runs(monkeypatch, alpha):
    # whole runs with every slot contact from the union walk and from the
    # capsule search must meet on the same trials, at the same times up to
    # the search's precision
    cfg = ModelConfig(n=50, r=2.0, model="levy", alpha=alpha,
                      horizon_slots=20)
    runs = []
    for contacts in (_walked_slot_contacts, _pair_slot_contacts):
        monkeypatch.setattr(world, "_pair_slot_contacts", contacts)
        _, tm = pair_meeting_times(cfg, 1100, salt=312)
        _, _, dl = scheme_delays(cfg, 1100, salt=313)
        runs.append((tm, dl))
    for walked, searched in zip(*runs):
        assert np.array_equal(np.isfinite(walked), np.isfinite(searched))
        fin = np.isfinite(walked)
        assert np.any(walked[fin] > 0.0)
        np.testing.assert_allclose(walked[fin], searched[fin], rtol=0, atol=1e-9)


@pytest.mark.parametrize("cfg", [
    ModelConfig(n=2, r=0.3, horizon_slots=60),
    ModelConfig(n=2, r=0.3, model="levy", alpha=1.0,
                horizon_slots=40),
    # alpha 0.5 wraps on most slots, so the exact-engine fallback runs
    ModelConfig(n=2, r=0.3, model="levy", alpha=0.5,
                horizon_slots=40),
], ids=["iid", "levy-1", "levy-0.5"])
def test_two_node_delay_is_pair_meeting(cfg):
    # with n = 2 the source is the only carrier: one engine, one stream,
    # so the relay delays are the pair meeting times bit for bit
    _, tm = pair_meeting_times(cfg, 1500, salt=307)
    _, _, dl = scheme_delays(cfg, 1500, salt=307)
    assert np.array_equal(dl, tm)
    assert np.any(tm > 0.0) and np.any(tm == 0.0)
