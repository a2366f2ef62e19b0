"""The union walk: a second whole-slot contact search for wrapped pairs.

``union_walk`` lays out every piece of both paths of each pair, from the
closed form of ``mobidelay.world`` (``_wrap_geometry``, ``_piece``), merges
the two piece lists of a pair by end time, and tests each window of the
merge with the engine's contact rule.  It enumerates every piece, so its
cost grows with the wrap count; the engine's capsule search tests only the
windows near a contact.  Both read the same closed form, so agreement is
evidence for the search's window selection; ``oracle`` is the independent
reference for the geometry itself.
"""

import numpy as np

from mobidelay.geometry import first_contact_np
from mobidelay.world import _piece, _wrap_geometry, _Wraps

# pieces laid out at once; a pair with more pieces is walked alone
UNION_PIECES = 1 << 13


def union_walk(x1, y1, d1x, d1y, x2, y2, d2x, d2y, R, r):
    """Earliest in-slot contact of each pair of paths, inf where none.

    Takes the arrays of ``mobidelay.world._pair_slot_contacts``.
    """
    K = x1.size
    x0, y0, dx, dy = (np.concatenate(v) for v in ((x1, x2), (y1, y2), (d1x, d2x), (d1y, d2y)))
    g = _wrap_geometry(x0, y0, dx, dy, R)
    count = (g.m_last + 2.0).astype(np.int64)
    size = count[:K] + count[K:]
    end = np.cumsum(size)
    t = np.full(K, np.inf)
    lo = 0
    while lo < K:
        hi = max(lo + 1, int(np.searchsorted(end, end[lo] - size[lo] + UNION_PIECES, "right")))
        pairs = np.arange(lo, hi)
        t[lo:hi] = _union_chunk(x0, y0, dx, dy, g, count,
                                np.stack((pairs, pairs + K), axis=1).ravel(), r)
        lo = hi
    return t


def _union_chunk(x0, y0, dx, dy, g, count, paths, r):
    # paths lists the chunk's pairs pair-major: (first, second) per pair
    k = paths.size // 2
    c = count[paths]
    own = np.repeat(paths, c)
    m = np.arange(own.size) - np.repeat(np.cumsum(c) - c, c) - 1
    side = np.repeat(np.arange(2 * k) % 2, c)
    pair = np.repeat(np.arange(k), c[0::2] + c[1::2])
    go = _Wraps(*(f[own] for f in g))
    t0, px, py, vx, vy = _piece(x0[own], y0[own], dx[own], dy[own], go, m)
    a = np.maximum(t0, 0.0)
    b = np.minimum(np.where(m < 0, go.t1, t0 + go.dt), 1.0)
    keep = b > a
    side, pair, a, b, t0, px, py, vx, vy = (
        v[keep] for v in (side, pair, a, b, t0, px, py, vx, vy))
    # kept pieces stay pair-major, first path before second, in time order
    n1 = np.bincount(pair[side == 0], minlength=k)
    n2 = np.bincount(pair[side == 1], minlength=k)
    start1 = np.cumsum(n1 + n2) - (n1 + n2)
    # merge step q of a pair ends at its q-th piece end, over the pieces
    # of both paths current there; after a tie (the slot end, say) one
    # path has no piece left or the window is empty
    order = np.lexsort((side, b, pair))
    sp = pair[order]
    first = side[order] == 0
    before1 = np.cumsum(first) - first - (np.cumsum(n1) - n1)[sp]
    before2 = np.cumsum(~first) - ~first - (np.cumsum(n2) - n2)[sp]
    step = (before1 < n1[sp]) & (before2 < n2[sp])
    sp = sp[step]
    p1 = start1[sp] + before1[step]
    p2 = start1[sp] + n1[sp] + before2[step]
    lo = np.maximum(a[p1], a[p2])
    hi = np.minimum(b[p1], b[p2])
    open_ = hi > lo
    sp, p1, p2, lo, hi = sp[open_], p1[open_], p2[open_], lo[open_], hi[open_]

    def at(p, t):
        return px[p] + vx[p] * (t - t0[p]), py[p] + vy[p] * (t - t0[p])

    s = first_contact_np(*at(p1, lo), *at(p1, hi), *at(p2, lo), *at(p2, hi), r)
    hit = np.isfinite(s)
    sp = sp[hit]
    th = lo[hit] + s[hit] * (hi[hit] - lo[hit])
    # steps are in time order within a pair: keep each pair's first hit
    first_hit = np.diff(sp, prepend=-1) != 0
    out = np.full(k, np.inf)
    out[sp[first_hit]] = th[first_hit]
    return out
