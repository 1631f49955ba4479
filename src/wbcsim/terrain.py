"""Parametric terrain geometry with analytic heights and normals.

All terrains are height fields z = h(x, y) with C1 profiles (smoothstep
ramps / monotone cubic knots) so the ground normal is continuous along any
rolling path.  The asymmetric terrain keeps two independent lanes split at
y = 0; each wheel stays in its own lane.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def _smoothstep(t: float) -> tuple[float, float]:
    """C1 ramp 0 -> 1 on [0, 1] and its derivative."""
    t = min(max(t, 0.0), 1.0)
    return t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t)


class Terrain:
    kind = "abstract"

    def __init__(self, mu: float = 0.8):
        if mu < 0.0:
            raise ValueError("friction coefficient must be non-negative")
        self.mu = float(mu)

    def height(self, x: float, y: float) -> float:
        raise NotImplementedError

    def grad(self, x: float, y: float) -> tuple:
        raise NotImplementedError

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

    def __init__(self, left: LaneProfile, right: LaneProfile, mu: float = 0.8):
        super().__init__(mu)
        self.left = left
        self.right = right

    def _lane(self, y):
        return self.left if y > 0.0 else self.right

    def height(self, x, y):
        return self._lane(y).value(x)

    def grad(self, x, y):
        return self._lane(y).slope(x), 0.0


class CompositeTerrain(Terrain):
    """Monotone-cubic height profile through (x, h) knots, constant outside."""

    kind = "composite"

    def __init__(self, knots_x, knots_h, mu: float = 0.8):
        # imported here: SciPy's import costs more than most runs, and only
        # this terrain needs it
        from scipy.interpolate import PchipInterpolator
        super().__init__(mu)
        x = np.asarray(knots_x, dtype=float)
        h = np.asarray(knots_h, dtype=float)
        if len(x) < 2 or np.any(np.diff(x) <= 0.0):
            raise ValueError("need at least two strictly increasing knots")
        self.x0, self.x1 = float(x[0]), float(x[-1])
        self._f = PchipInterpolator(x, h)
        self._df = self._f.derivative()

    def height(self, x, y):
        return float(self._f(np.clip(x, self.x0, self.x1)))

    def grad(self, x, y):
        if x <= self.x0 or x >= self.x1:
            return 0.0, 0.0
        return float(self._df(x)), 0.0


def finite_number(key: str, v) -> float:
    """v as a float; ValueError naming the key unless v is a finite int or
    float (a YAML bool or string is not a number)."""
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ValueError(f"'{key}' must be a finite number, got {v!r}")


def terrain_from_dict(cfg: dict) -> Terrain:
    """Build a terrain from a scenario-file dictionary.  KeyError names a
    missing key; ValueError a key the kind does not take or a bad value."""
    cfg = dict(cfg)
    kind = cfg.pop("kind", "flat")

    def num(key, *default):
        return finite_number(key, cfg.pop(key, *default))

    def nums(key):
        return [finite_number(f"{key}[{i}]", v) for i, v in enumerate(cfg.pop(key))]

    def lane(key):
        return LaneProfile(**{k: finite_number(f"{key}.{k}", v)
                              for k, v in dict(cfg.pop(key, {})).items()})

    mu = num("mu", 0.8)
    if kind == "flat":
        terrain = FlatTerrain(z0=num("z0", 0.0), mu=mu)
    elif kind == "slope":
        terrain = SlopeTerrain(angle_deg=num("angle_deg"), start=num("start", 0.0),
                               blend=num("blend", 0.3), mu=mu)
    elif kind == "asymmetric_support":
        terrain = AsymmetricTerrain(lane("left"), lane("right"), mu=mu)
    elif kind == "composite":
        terrain = CompositeTerrain(nums("knots_x"), nums("knots_h"), mu=mu)
    else:
        raise ValueError(f"unknown terrain kind: {kind!r}")
    if cfg:
        raise ValueError(f"unknown key(s) {sorted(map(str, cfg))} for kind {kind!r}")
    return terrain
