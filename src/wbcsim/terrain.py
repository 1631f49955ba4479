"""Parametric terrain geometry with analytic heights and normals.

All terrains are height fields z = h(x, y) with C1 profiles (smoothstep
ramps / monotone cubic knots) so the ground normal is continuous along any
rolling path.  The asymmetric terrain keeps two independent lanes split at
y = 0; each wheel stays in its own lane.  Heights and gradients are Python
floats.  The scenario file's terrain section is parsed in `wbcsim.scenario`.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np


def _smoothstep(t: float) -> tuple[float, float]:
    """C1 ramp 0 -> 1 on [0, 1] and its derivative."""
    t = min(max(t, 0.0), 1.0)
    return t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t)


class Terrain:
    """A height field with friction coefficient mu; a subclass defines
    height(x, y) and grad(x, y) -> (dz/dx, dz/dy) on Python floats."""

    kind = "abstract"

    def __init__(self, mu: float = 0.8):
        if mu < 0.0:
            raise ValueError("friction coefficient 'mu' must be non-negative")
        self.mu = float(mu)

    def normal(self, x: float, y: float) -> np.ndarray:
        """Upward unit normal (-gx, -gy, 1) / |(-gx, -gy, 1)|, on Python floats."""
        gx, gy = self.grad(x, y)
        s = math.sqrt(gx * gx + gy * gy + 1.0)
        return np.array([-gx / s, -gy / s, 1.0 / s])

    def surface_point(self, x: float, y: float) -> np.ndarray:
        return np.array([x, y, self.height(x, y)])


class FlatTerrain(Terrain):
    kind = "flat"

    def __init__(self, z0: float = 0.0, mu: float = 0.8):
        super().__init__(mu)
        self.z0 = float(z0)

    def height(self, x, y):
        return self.z0

    def grad(self, x, y):
        return 0.0, 0.0


class SlopeTerrain(Terrain):
    """Flat, then a C1 blend into a constant grade of `angle_deg` along +x.

    The gradient ramps smoothly over `blend` meters after `start`, so the
    interior grade is exactly tan(angle) and the normal never jumps.  The
    angle lies strictly between -90 and 90 degrees: a height field has no
    vertical or overhanging grade.
    """

    kind = "slope"

    def __init__(self, angle_deg: float, start: float = 0.0,
                 blend: float = 0.3, mu: float = 0.8):
        super().__init__(mu)
        if blend <= 0.0:
            raise ValueError("blend length must be positive")
        if not -90.0 < angle_deg < 90.0:
            raise ValueError(f"'angle_deg' must be > -90 and < 90, got {angle_deg!r}")
        self.angle_deg = float(angle_deg)
        self.m = float(np.tan(np.deg2rad(angle_deg)))
        self.start = float(start)
        self.blend = float(blend)

    def height(self, x, y):
        t = (x - self.start) / self.blend
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            # integral of the smoothstep grade over the blend is m*L/2
            return self.m * (self.blend * 0.5 + (x - self.start - self.blend))
        # integral of m*s^2(3-2s): m*L*(t^3 - t^4/2)
        return self.m * self.blend * (t**3 - 0.5 * t**4)

    def grad(self, x, y):
        s, _ = _smoothstep((x - self.start) / self.blend)
        return self.m * s, 0.0


class LaneProfile:
    """One lane's height along x: a C1 step of `height` m rising over `ramp`."""

    def __init__(self, height: float = 0.0, start: float = 0.0, ramp: float = 0.3):
        if ramp <= 0.0:
            raise ValueError("ramp length must be positive")
        self.h = float(height)
        self.start = float(start)
        self.ramp = float(ramp)

    def value(self, x):
        s, _ = _smoothstep((x - self.start) / self.ramp)
        return self.h * s

    def slope(self, x):
        _, ds = _smoothstep((x - self.start) / self.ramp)
        return self.h * ds / self.ramp


class AsymmetricTerrain(Terrain):
    """Independent left (y > 0) / right (y <= 0) support profiles."""

    kind = "asymmetric_support"

    def __init__(self, left: LaneProfile | None = None,
                 right: LaneProfile | None = None, mu: float = 0.8):
        super().__init__(mu)
        self.left = left or LaneProfile()      # an omitted lane is flat
        self.right = right or LaneProfile()

    def _lane(self, y):
        return self.left if y > 0.0 else self.right

    def height(self, x, y):
        return self._lane(y).value(x)

    def grad(self, x, y):
        return self._lane(y).slope(x), 0.0


class CompositeTerrain(Terrain):
    """Monotone-cubic height profile through (x, h) knots, constant outside:
    SciPy's `PchipInterpolator` on floats (Fritsch & Carlson 1980).  A knot
    slope (Fritsch & Butland 1984) is inside the weighted harmonic mean of the
    adjacent secants, 0 where they differ in sign or one is 0; at an end the
    three-point estimate, clamped to 0 and to 3 times the end secant."""

    kind = "composite"

    def __init__(self, knots_x, knots_h, mu: float = 0.8):
        super().__init__(mu)
        x, h = [float(v) for v in knots_x], [float(v) for v in knots_h]
        w = [b - a for a, b in zip(x, x[1:])]
        if len(x) < 2 or len(h) != len(x) or not all(dx > 0.0 for dx in w):
            raise ValueError("composite knots need two or more increasing positions, a height each")
        m = [(b - a) / dx for a, b, dx in zip(h, h[1:], w)]
        d = [_end_slope(w, m),
             *(0.0 if _sign(m0) != _sign(m1) or m0 == 0.0
               else 1.0 / (((2.0 * w1 + w0) / m0 + (w1 + 2.0 * w0) / m1) / (3.0 * (w0 + w1)))
               for w0, w1, m0, m1 in zip(w, w[1:], m, m[1:])),
             _end_slope(w[::-1], m[::-1])]
        # each interval as (x_i, c3, c2, c1, h_i): h = ((c3 s + c2) s + c1) s + h_i
        t = [(d0 + d1 - 2.0 * mi) / dx for dx, mi, d0, d1 in zip(w, m, d, d[1:])]
        self._x, self._cubic = x, [(xi, ti / dx, (mi - d0) / dx - ti, d0, hi) for
                                   xi, hi, dx, mi, d0, ti in zip(x, h, w, m, d, t)]
        # a knot that is not finite gives a width or secant that is not
        if not all(map(math.isfinite, w + m + [c for p in self._cubic for c in p])):
            raise ValueError("composite knots must be finite and give a finite cubic")

    def _piece(self, x):
        # the interval holding x, the first or last one outside the knots
        x0, c3, c2, c1, c0 = self._cubic[bisect_right(self._x, x, 1, len(self._x) - 1) - 1]
        return x - x0, c3, c2, c1, c0

    def height(self, x, y):
        s, c3, c2, c1, c0 = self._piece(min(max(x, self._x[0]), self._x[-1]))
        return ((c3 * s + c2) * s + c1) * s + c0

    def grad(self, x, y):
        if x <= self._x[0] or x >= self._x[-1]:
            return 0.0, 0.0
        s, c3, c2, c1, _ = self._piece(x)
        return (3.0 * c3 * s + 2.0 * c2) * s + c1, 0.0


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _end_slope(w: list, m: list) -> float:
    """Slope at the first knot from the interval widths w and secants m."""
    if len(m) == 1:
        return m[0]                                 # two knots: a line
    d = ((2.0 * w[0] + w[1]) * m[0] - w[0] * m[1]) / (w[0] + w[1])
    if _sign(d) != _sign(m[0]):
        return 0.0
    return 3.0 * m[0] if _sign(m[0]) != _sign(m[1]) and abs(d) > 3.0 * abs(m[0]) else d
