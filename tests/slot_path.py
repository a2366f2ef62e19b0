"""Scalar view of one slot path through the engine's closed form.

``SlotPath`` reads ``mobidelay.world._wrap_geometry`` and ``_piece`` for
tests that probe a single path: its wrap count, first wrap time, period,
and position at any slot time.  It is the engine's own geometry, not an
independent reference; ``oracle`` is that.
"""

import numpy as np

from mobidelay.world import _piece, _wrap_geometry


class SlotPath:
    """The path that starts at (x0, y0) and moves by (dx, dy) in one slot."""

    def __init__(self, x0, y0, dx, dy, R):
        self._path = [np.array([v], dtype=float) for v in (x0, y0, dx, dy)]
        self._g = _wrap_geometry(*self._path, R)
        self.t1 = float(self._g.t1[0])
        self.dt = float(self._g.dt[0])
        self.n_wraps = 1 + int(self._g.m_last[0])
        self.frozen = bool(self._g.frozen[0])

    def pos(self, t: float):
        m = -1 if t <= self.t1 else int((t - self.t1) / self.dt)
        t0, px, py, vx, vy, _ = (float(v[0]) for v in _piece(*self._path, self._g, slice(None),
                                                                 np.array([m])))
        return px + vx * (t - t0), py + vy * (t - t0)

    def end_pos(self):
        return self.pos(1.0)
