"""Terrain geometry tests: analytic heights, gradients, normals, config parsing."""

import numpy as np
import pytest

from wbcsim.scenario import Scenario, ScenarioError
from wbcsim.terrain import (
    AsymmetricTerrain,
    CompositeTerrain,
    FlatTerrain,
    LaneProfile,
    SlopeTerrain,
)


def fd_grad(terrain, x, y, eps=1e-6):
    gx = (terrain.height(x + eps, y) - terrain.height(x - eps, y)) / (2 * eps)
    gy = (terrain.height(x, y + eps) - terrain.height(x, y - eps)) / (2 * eps)
    return gx, gy


# -- flat -------------------------------------------------------------------

def test_flat_height_and_normal():
    t = FlatTerrain(z0=0.3)
    assert t.height(2.0, -1.0) == 0.3
    assert t.grad(5.0, 5.0) == (0.0, 0.0)
    assert np.allclose(t.normal(0.0, 0.0), [0.0, 0.0, 1.0])
    assert np.allclose(t.surface_point(1.0, 2.0), [1.0, 2.0, 0.3])


# -- slope ------------------------------------------------------------------

def test_slope_interior_grade_exact():
    for angle in (15.0, 25.0, 45.0):
        t = SlopeTerrain(angle_deg=angle, start=0.5, blend=0.4)
        m = np.tan(np.radians(angle))
        # before the blend: flat
        assert t.height(0.0, 0.0) == 0.0
        assert t.grad(0.2, 0.0)[0] == 0.0
        # past the blend: exact constant grade
        for x in (1.0, 2.0, 5.0):
            assert t.grad(x, 0.0)[0] == pytest.approx(m, rel=1e-12)
        # incline angle of the normal equals the stated angle
        n = t.normal(3.0, 0.0)
        assert np.degrees(np.arccos(n[2])) == pytest.approx(angle, abs=1e-9)


def test_slope_height_is_integral_of_grade():
    t = SlopeTerrain(angle_deg=20.0, start=0.3, blend=0.5)
    xs = np.linspace(-0.5, 3.0, 400)
    # trapezoid integration of the analytic gradient reproduces the height
    g = np.array([t.grad(x, 0.0)[0] for x in xs])
    h_num = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(xs))])
    h_num += t.height(xs[0], 0.0)
    h = np.array([t.height(x, 0.0) for x in xs])
    assert np.abs(h - h_num).max() < 1e-4


def test_slope_c1_continuity_and_fd_normal():
    t = SlopeTerrain(angle_deg=25.0, start=0.3, blend=0.4)
    # gradient is continuous across both blend edges
    for edge in (0.3, 0.7):
        lo = t.grad(edge - 1e-9, 0.0)[0]
        hi = t.grad(edge + 1e-9, 0.0)[0]
        assert abs(hi - lo) < 1e-6
    # analytic gradient matches finite differences everywhere
    for x in np.linspace(-0.2, 1.5, 30):
        gx, gy = t.grad(x, 0.0)
        fx, fy = fd_grad(t, x, 0.0)
        assert gx == pytest.approx(fx, abs=1e-6)
        assert gy == pytest.approx(fy, abs=1e-9)


def test_slope_requires_positive_blend():
    with pytest.raises(ValueError):
        SlopeTerrain(angle_deg=10.0, blend=0.0)


# -- lanes / asymmetric -----------------------------------------------------

def test_lane_profile_step():
    lane = LaneProfile(height=0.1, start=1.0, ramp=0.5)
    assert lane.value(0.5) == 0.0
    assert lane.value(2.0) == pytest.approx(0.1)
    assert lane.value(1.25) == pytest.approx(0.05)   # smoothstep midpoint
    # slope matches finite differences on the ramp
    for x in np.linspace(0.8, 1.7, 20):
        fd = (lane.value(x + 1e-6) - lane.value(x - 1e-6)) / 2e-6
        assert lane.slope(x) == pytest.approx(fd, abs=1e-6)


def test_asymmetric_lanes_are_independent():
    t = AsymmetricTerrain(LaneProfile(), LaneProfile(height=0.1, start=0.8, ramp=0.5))
    # left lane (y > 0) flat, right lane (y <= 0) steps up
    assert t.height(2.0, 0.2) == 0.0
    assert t.height(2.0, -0.2) == pytest.approx(0.1)
    assert np.allclose(t.normal(2.0, 0.2), [0.0, 0.0, 1.0])
    # right-lane normal tilts in x only
    n = t.normal(1.0, -0.2)
    assert n[0] < 0.0 and n[1] == 0.0 and n[2] > 0.0


# -- composite --------------------------------------------------------------

def test_composite_through_knots_and_fd():
    xs = [0.0, 1.0, 2.0, 3.5]
    hs = [0.0, 0.2, 0.2, -0.1]
    t = CompositeTerrain(xs, hs)
    for x, h in zip(xs, hs):
        assert t.height(x, 0.0) == pytest.approx(h, abs=1e-12)
    for x in np.linspace(0.1, 3.4, 25):
        gx, _ = t.grad(x, 0.0)
        fx, _ = fd_grad(t, x, 0.0)
        assert gx == pytest.approx(fx, abs=1e-5)
    # constant outside the knot span
    assert t.height(-5.0, 0.0) == pytest.approx(0.0)
    assert t.height(10.0, 0.0) == pytest.approx(-0.1)
    assert t.grad(10.0, 0.0) == (0.0, 0.0)


def test_composite_rejects_bad_knots():
    with pytest.raises(ValueError):
        CompositeTerrain([0.0], [0.0])
    with pytest.raises(ValueError):
        CompositeTerrain([0.0, 0.0], [0.0, 1.0])
    for knots_x, knots_h in (
            ([0.0, 1.0, 2.0], [0.0, 1.0]),              # lengths differ
            ([0.0, float("nan")], [0.0, 1.0]),          # a knot not finite
            ([0.0, 1.0], [0.0, float("inf")]),
            ([-1.0e308, 1.0e308], [0.0, 1.0]),          # a knot width overflows
            ([0.0, 0.5], [0.0, 1.0e308]),               # a secant overflows
            ([0.0, 1.0], [0.0, 1.0e308]),               # a cubic coefficient is nan
            ([0.0, 1.0, 2.0], [0.0, 1.0e308, 0.0])):
        with pytest.raises(ValueError, match="composite knots"):
            CompositeTerrain(knots_x, knots_h)


def _pchip_cases():
    """(knots_x, knots_h) sets for the PchipInterpolator oracle."""
    rng = np.random.default_rng(7)
    cases = [([0.0, 1.0], [0.0, 0.3]),                  # two knots: a line
             ([-1.0, 0.5], [0.2, -0.4]),
             ([0.0, 1.0, 2.0], [0.0, 0.1, 1.1]),        # end slope set to 0
             ([0.0, 1.0, 2.0], [0.0, 1.0, -9.0]),       # end slope 3 x the secant
             ([0.0, 1.0, 2.0, 3.0], [0.0, 0.2, 0.2, 0.0])]   # a flat segment
    for i in range(120):
        n = int(rng.integers(3, 9))
        x = np.cumsum(rng.uniform(0.05, 1.5, n)) - 2.0
        h = (np.cumsum(rng.uniform(0.0, 0.3, n)) if i % 3 == 0      # monotone
             else np.round(rng.normal(0.0, 0.2, n), 1) if i % 3 == 1  # flat runs
             else rng.normal(0.0, 0.2, n))                          # non-monotone
        cases.append((x.tolist(), h.tolist()))
    return cases


def test_composite_matches_pchip_oracle():
    """Heights and gradients at, between and outside the knots agree with
    SciPy's PchipInterpolator, clipped to the knot span, to 1e-12 of the
    profile's scale; the end-slope cases hit both clamps of the end rule."""
    interpolate = pytest.importorskip("scipy.interpolate")
    cases = _pchip_cases()
    slope = interpolate.PchipInterpolator(cases[2][0], cases[2][1]).derivative()
    assert slope(0.0) == 0.0
    slope = interpolate.PchipInterpolator(cases[3][0], cases[3][1]).derivative()
    assert slope(0.0) == pytest.approx(3.0)
    for knots_x, knots_h in cases:
        t = CompositeTerrain(knots_x, knots_h)
        f = interpolate.PchipInterpolator(knots_x, knots_h)
        df = f.derivative()
        x0, x1 = knots_x[0], knots_x[-1]
        mids = np.add(knots_x[1:], knots_x[:-1]) / 2.0
        xs = np.concatenate([knots_x, mids, np.linspace(x0 - 1.0, x1 + 1.0, 41)]).tolist()
        h_ref = f(np.clip(xs, x0, x1))
        g_ref = [0.0 if x <= x0 or x >= x1 else float(df(x)) for x in xs]
        h_scale = np.abs(knots_h).max()
        g_scale = np.abs(np.diff(knots_h) / np.diff(knots_x)).max()
        np.testing.assert_allclose([t.height(x, 0.3) for x in xs], h_ref,
                                   rtol=1e-12, atol=1e-12 * h_scale)
        np.testing.assert_allclose([t.grad(x, 0.3)[0] for x in xs], g_ref,
                                   rtol=1e-12, atol=1e-12 * g_scale)
        assert all(t.grad(x, 0.3)[1] == 0.0 for x in xs)


# -- normals are unit and upward everywhere ---------------------------------

def test_normals_unit_and_upward():
    terrains = [
        FlatTerrain(),
        SlopeTerrain(angle_deg=45.0, start=0.0, blend=0.3),
        AsymmetricTerrain(LaneProfile(height=0.2, start=0.0, ramp=0.3),
                          LaneProfile()),
        CompositeTerrain([0.0, 1.0, 2.0], [0.0, 0.3, 0.0]),
    ]
    for t in terrains:
        for x in np.linspace(-1.0, 3.0, 17):
            for y in (-0.2, 0.2):
                n = t.normal(x, y)
                assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
                assert n[2] > 0.0


# -- the float queries against the array form they replaced -----------------

def _array_smoothstep(t):
    t = np.clip(np.array(t), 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t), 6.0 * t * (1.0 - t)


def array_grad(terrain, x, y):
    """Gradient on 0-d arrays with np.clip; flat and composite are unchanged."""
    if isinstance(terrain, SlopeTerrain):
        s, _ = _array_smoothstep((x - terrain.start) / terrain.blend)
        return terrain.m * float(s), 0.0
    if isinstance(terrain, AsymmetricTerrain):
        lane = terrain.left if y > 0.0 else terrain.right
        _, ds = _array_smoothstep((x - lane.start) / lane.ramp)
        return lane.h * float(ds) / lane.ramp, 0.0
    return terrain.grad(x, y)


def array_normal(terrain, x, y):
    gx, gy = array_grad(terrain, x, y)
    n = np.array([-gx, -gy, 1.0])
    return n / np.linalg.norm(n)


@pytest.mark.parametrize("terrain", [
    FlatTerrain(),
    SlopeTerrain(angle_deg=35.0, start=0.5, blend=0.4),
    SlopeTerrain(angle_deg=-20.0, start=0.5, blend=0.4),
    AsymmetricTerrain(LaneProfile(height=0.2, start=0.5, ramp=0.4),
                      LaneProfile(height=-0.1, start=0.7, ramp=0.3)),
    CompositeTerrain([0.5, 0.7, 0.9], [0.0, 0.3, 0.1]),
], ids=["flat", "slope", "downslope", "asymmetric_support", "composite"])
def test_float_queries_match_array_form(terrain):
    """Before, inside and past the blend, ramp or knots: grad and normal to
    1e-15 of the array form, and the normal unit to 1e-15."""
    for x in np.linspace(-0.5, 2.0, 26).tolist():
        for y in (-0.2, 0.2):
            assert np.allclose(terrain.grad(x, y), array_grad(terrain, x, y), rtol=0.0, atol=1e-15)
            n = terrain.normal(x, y)
            np.testing.assert_allclose(n, array_normal(terrain, x, y), rtol=0.0, atol=1e-15)
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-15


@pytest.mark.parametrize("angle", [90.0, -90.0, 135.0, 270.0])
def test_slope_angle_must_be_below_vertical(angle):
    """A height field has no vertical or overhanging grade; 135 degrees would
    otherwise run as a -45 degree slope."""
    with pytest.raises(ValueError, match="angle_deg"):
        SlopeTerrain(angle_deg=angle)


# -- config parsing ---------------------------------------------------------

def parse_terrain(cfg):
    return Scenario.from_dict({"terrain": cfg}).terrain


def test_from_dict_dispatch():
    t = parse_terrain({"kind": "flat", "z0": 0.1, "mu": 0.5})
    assert isinstance(t, FlatTerrain) and t.z0 == 0.1 and t.mu == 0.5
    t = parse_terrain({"kind": "slope", "angle_deg": 25.0, "start": 0.3})
    assert isinstance(t, SlopeTerrain) and t.angle_deg == 25.0
    t = parse_terrain({"kind": "asymmetric_support",
                           "right": {"height": 0.1, "start": 0.8, "ramp": 0.5}})
    assert isinstance(t, AsymmetricTerrain)
    assert t.height(2.0, -0.1) == pytest.approx(0.1)
    assert t.height(2.0, 0.1) == 0.0                  # the omitted left lane is flat
    t = parse_terrain({"kind": "composite",
                           "knots_x": [0.0, 1.0], "knots_h": [0.0, 0.1]})
    assert isinstance(t, CompositeTerrain)
    assert isinstance(parse_terrain({}), FlatTerrain)     # kind defaults to flat


def test_from_dict_errors():
    """ScenarioError is a ValueError; each names the key path."""
    with pytest.raises(ScenarioError, match=r"'terrain\.kind'"):
        parse_terrain({"kind": "stairs"})
    with pytest.raises(ScenarioError, match=r"missing key 'terrain\.angle_deg'"):
        parse_terrain({"kind": "slope"})
    with pytest.raises(ScenarioError, match="friction coefficient"):
        parse_terrain({"kind": "flat", "mu": -0.1})
