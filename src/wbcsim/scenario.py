"""Scenario files: their YAML dialect, the scenario they describe, overrides.

A scenario scripts a run: terrain, reference segments, disturbances, the
lidar and the controller's ground normals (true, horizontal or estimated).
`load_scenario` reads a file, applies ``KEY=VALUE`` overrides and builds
the `Scenario`, rejecting unknown keys and bad values with a ScenarioError
naming the key path.  `YamlLoader` reads the robot file too.
"""

from __future__ import annotations

import inspect
import math
import re
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import yaml

from .terrain import (AsymmetricTerrain, CompositeTerrain, FlatTerrain, LaneProfile,
                      SlopeTerrain, Terrain)
from .terrain_estimation import K_MIN


class ScenarioError(ValueError):
    pass


# -- YAML dialect -------------------------------------------------------------

class YamlLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe YAML that also reads 1e-9 and 4.0e5 as floats, as YAML 1.2 does.

    It parses with libyaml when PyYAML has it, and in pure Python otherwise;
    the resolvers are Python in both, so the values are the same."""


YamlLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


def read_yaml(source, what: str):
    """The value of source (text or a binary file); a ScenarioError `what: ...` if not YAML."""
    try:
        return yaml.load(source, Loader=YamlLoader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{what}: {exc}") from exc


# -- the scenario -------------------------------------------------------------

@dataclass
class SensorConfig:
    radius: float = 2.5          # m
    points: int = 1200           # per frame
    noise: float = 0.01          # m, isotropic
    rate_hz: float = 10.0


@dataclass
class Disturbance:
    kind: str                    # push | block_impact
    t_start: float
    duration: float = 0.0        # push window (ramp 0 -> f_max)
    f_max: float = 0.0           # N
    # world direction; a push defaults to +x, a block impact to (as with a
    # zero direction) the inward top-plate normal, -base z at impact time
    direction: np.ndarray | None = None
    mass: float = 0.0            # block kg
    drop_height: float = 0.0     # m

    def __post_init__(self):
        if self.direction is None and self.kind == "push":
            self.direction = np.array([1.0, 0.0, 0.0])


@dataclass
class ReferenceSegment:
    t_start: float = 0.0
    speed: float = 0.0           # m/s along heading
    yaw_rate: float = 0.0        # rad/s
    height: float = 0.25         # m


@dataclass
class Scenario:
    terrain: Terrain
    name: str = "scenario"
    duration: float = 5.0
    control_rate: float = 500.0
    sim_rate: float = 1000.0
    estimation_mode: str = "true_normal"
    start_xy: np.ndarray = field(default_factory=lambda: np.zeros(2))
    start_yaw: float = 0.0
    reference: list = field(default_factory=lambda: [ReferenceSegment()])
    disturbances: list = field(default_factory=list)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    lookahead: float = 0.0       # m ahead of each contact for normal queries
    kp: np.ndarray | None = None      # pose-gain override (5 values)
    lqr_q: np.ndarray | None = None   # balance weight override (4 diagonal values)
    lqr_r: float = 1.0

    def __post_init__(self):
        if not self.control_rate > 0.0:
            raise ScenarioError("'control_rate' must be > 0")
        if not self.reference:
            raise ScenarioError("'reference' must not be empty")
        try:
            # timing() rounds these ratios: one that is not whole would run the
            # controller or the lidar at another rate than the one given
            substeps = self.sim_rate / self.control_rate
            for a, b, ratio in (("sim_rate", "control_rate", substeps),
                                ("control_rate", "sensor.rate_hz",
                                 self.control_rate / self.sensor.rate_hz)):
                if not (ratio >= 1.0 and abs(ratio - round(ratio)) <= 1e-9 * ratio):
                    raise ScenarioError(f"'{a}' / '{b}' must be a whole number >= 1, got {ratio:g}")
            if substeps > MAX_SUBSTEPS:
                raise ScenarioError(f"'sim_rate' / 'control_rate' must be at most "
                                    f"{MAX_SUBSTEPS}, got {substeps:g}")
            _, n_sub, cycles, _ = self.timing()
            if cycles < 1:
                raise ScenarioError(f"'duration' of {self.duration:g} s is "
                                    "shorter than one control cycle")
            if cycles > MAX_CYCLES:
                raise ScenarioError(f"'duration' x 'control_rate' must be at most {MAX_CYCLES:g} "
                                    f"control cycles, got {cycles:.9g}")
            if cycles * n_sub > MAX_STEPS:
                raise ScenarioError(f"'duration' x 'sim_rate' must be at most {MAX_STEPS:g} "
                                    f"physics steps, got {cycles * n_sub:.9g}")
        except OverflowError:
            raise ScenarioError("'duration', 'control_rate', 'sim_rate' or "
                                "'sensor.rate_hz' out of range") from None

    def timing(self) -> tuple[float, int, int, int]:
        """Physics step (s), physics steps per control cycle, control cycles,
        and control cycles per lidar frame."""
        dt_sim = 1.0 / self.sim_rate
        n_sub = round(self.sim_rate / self.control_rate)
        return (dt_sim, n_sub, round(self.duration / (n_sub * dt_sim)),
                round(self.control_rate / self.sensor.rate_hz))

    @classmethod
    def from_dict(cls, cfg: dict) -> "Scenario":
        """Scenario from a scenario-file mapping.  Every section rejects unknown
        keys and bad values with a ScenarioError naming the key path."""
        def vector(n, optional=False):
            return lambda key, v: (None if optional and v is None
                                   else np.array(_list(key, v, _number, n)))

        def disturbance(key, v):
            d = _section(Disturbance, key, v, direction=vector(3))
            with np.errstate(over="ignore"):   # an overflowing length is rejected below
                length = np.linalg.norm(d.direction) if d.direction is not None else 1.0
            # a run divides a nonzero direction by this length (a block's zero one is the default)
            if np.any(d.direction) and not 0.0 < length < math.inf:
                raise ScenarioError(f"'{key}.direction' must have a length in floating-point "
                                    f"range, got {v['direction']!r}")
            if d.kind == "push" and not length > 0.0:
                raise ScenarioError(f"'{key}.direction' of a push must not be zero")
            if d.kind == "push" and not d.duration > 0.0:
                raise ScenarioError(f"'{key}.duration' of a push must be > 0")
            return d

        return _section(
            cls, "", cfg, terrain=_terrain, sensor=partial(_section, SensorConfig),
            start_xy=vector(2), kp=vector(5, True), lqr_q=vector(4, True),
            reference=partial(_list, item=partial(_section, ReferenceSegment)),
            disturbances=partial(_list, item=disturbance))

    def segment_at(self, t: float) -> ReferenceSegment:
        """The latest-starting segment begun by t, else the earliest one."""
        ordered = sorted(self.reference, key=lambda r: r.t_start)
        started = [r for r in ordered if r.t_start <= t]
        return started[-1] if started else ordered[0]


# -- section parser -----------------------------------------------------------

# scenario value checks by field name (list entries by the list's name):
# lower bounds as (bound, whether the bound itself is allowed), and choices
_LOWER = {"duration": (0.0, True), "control_rate": (0.0, False),
          "rate_hz": (0.0, False), "radius": (0.0, False), "noise": (0.0, True),
          "points": (K_MIN, True), "mass": (0.0, True), "drop_height": (0.0, True),
          "lqr_r": (0.0, False), "kp": (0.0, False), "lqr_q": (0.0, False)}
_CHOICES = {"kind": ("push", "block_impact"),
            "estimation_mode": ("true_normal", "estimated_normal", "horizontal_normal")}
# largest |value| (m) of the start position, the lookahead and the sensor's
# radius and noise, whose points the normal map's integer cell keys must
# hold, and of the ground and lane heights, the slope and lane starts and
# the reference height, at which the leg geometry still has precision left
POSITION_LIMIT = 1e6
# largest friction coefficient, far above any physical one (rubber on dry
# concrete is about 1): mu = 1e300 overflowed the contact rows.  It is no
# stability limit: the regularized friction is stiff at moderate mu already
MU_LIMIT = 10.0
# largest |value| of a key, with its unit.  Far past them, a reference speed,
# a push or a block failed the run's first cycle (task rows not finite, a math
# domain error, a NaN velocity), and balance weights (lqr_q, lqr_r) out of
# [WEIGHT_FLOOR, GAIN_LIMIT] can fail the balance gain's Riccati solve.  Its
# Newton-Kleinman solve met SciPy's solution within 2.2e-11 relative at the
# box's 32 corners at pendulum heights 0.05 and 0.5 m, in at most 26
# iterations, and failed none of 15,000 random designs with weights in
# [1e-4, 1e6]
GAIN_LIMIT = 1e6
WEIGHT_FLOOR = 0.01
_LIMITS = {**dict.fromkeys(("start_xy", "lookahead", "radius", "noise", "z0", "knots_h",
                            "height", "start"), (POSITION_LIMIT, " m")),
           "mu": (MU_LIMIT, ""),
           "speed": (1e3, " m/s"), "yaw_rate": (1e3, " rad/s"), "f_max": (1e4, " N"),
           "mass": (100.0, " kg"), "drop_height": (100.0, " m"),
           **dict.fromkeys(("kp", "lqr_q", "lqr_r"), (GAIN_LIMIT, ""))}
# most physics substeps per control cycle: a run's cost grows with the
# ratio, and sim_rate = 1e12 would ask 2e9 substeps of every cycle
MAX_SUBSTEPS = 1000
# most control cycles and physics steps (duration x sim_rate) of a run: 1e7
# cycles hold about 2 GB of log at 208 B a cycle, and at about 0.75 ms of CPU
# a 2-substep cycle and 0.23 ms a substep (2-core Xeon), a run within both
# bounds takes at most about 2.1 CPU-hours
MAX_CYCLES = 10_000_000
MAX_STEPS = 20_000_000
# most lidar points a frame: a point costs 0.3-1 us (by terrain kind) and 115 B
# to sample, and the normal map holds 24 B a point and 8 B an occupied cell
# of each of its newest MAX_FRAMES frames, so 1e5 points take at most about
# 0.1 s and 12 MB to sample, and the map at most about 40 MB
MAX_POINTS = 100_000


def _number(key: str, v, integer: bool = False):
    """v as a finite float (or int), not a bool or string, within the bounds of its key."""
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        raise ScenarioError(f"'{key}' must be a finite number, got {v!r}")
    x = float(v)
    if integer and not isinstance(v, int):
        raise ScenarioError(f"'{key}' must be an integer, got {v!r}")
    name = key.rpartition(".")[2].partition("[")[0]
    lo, closed = _LOWER.get(name, (-math.inf, True))
    if x < lo or (x == lo and not closed):
        raise ScenarioError(f"'{key}' must be {'>=' if closed else '>'} {lo:g}, got {v!r}")
    limit, unit = _LIMITS.get(name, (math.inf, ""))
    if abs(x) > limit:
        raise ScenarioError(f"'{key}' must be within {limit:g}{unit} of 0, got {v!r}")
    if name in ("lqr_q", "lqr_r") and x < WEIGHT_FLOOR:
        raise ScenarioError(f"'{key}' must be at least {WEIGHT_FLOOR:g}, got {v!r}")
    if name == "points" and x > MAX_POINTS:
        raise ScenarioError(f"'{key}' must be at most {MAX_POINTS:g}, got {v!r}")
    return v if integer else x


def _list(key: str, v, item, n: int | None = None) -> list:
    """The list v of length n (any if None), each entry checked by item(key, entry)."""
    if not isinstance(v, list) or n not in (None, len(v)):
        raise ScenarioError(f"'{key}' must be a list{f' of {n} numbers' if n else ''}, got {v!r}")
    return [item(f"{key}[{i}]", x) for i, x in enumerate(v)]


def _terrain(key: str, v) -> Terrain:
    """The terrain section: `kind` (default flat) names the class, and
    _section reads its parameters from the other keys."""
    kinds = {c.kind: c for c in (FlatTerrain, SlopeTerrain, AsymmetricTerrain, CompositeTerrain)}
    if not isinstance(v, dict):
        raise ScenarioError(f"'{key}' must be a mapping, got {v!r}")
    kind = v.get("kind", "flat")
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioError(f"'{key}.kind' must be one of {tuple(kinds)}, got {kind!r}")
    lane, knots = partial(_section, LaneProfile), partial(_list, item=_number)
    try:
        return _section(kinds[kind], key, {k: x for k, x in v.items() if k != "kind"},
                        left=lane, right=lane, knots_x=knots, knots_h=knots)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"bad '{key}' section: {exc}") from None


def _section(cls, path: str, cfg, **parse):
    """cls(**kwargs) from the mapping cfg of the section at key `path`.

    The keys are cls's parameters, those without a default required.  One in
    `parse` is converted by that function of (key, value); any other by its
    annotation (str, int or float), _LOWER and _CHOICES.
    """
    if not isinstance(cfg, dict):
        raise ScenarioError(f"'{path}' must be a mapping, got {cfg!r}")
    params = inspect.signature(cls).parameters
    key = (lambda k: f"{path}.{k}") if path else str
    unknown = [key(k) for k in cfg if k not in params]
    if unknown:
        raise ScenarioError(f"unknown scenario key(s): {', '.join(unknown)}")
    kwargs = {}
    for name, p in params.items():
        if name not in cfg:
            if p.default is p.empty:
                raise ScenarioError(f"missing key '{key(name)}'")
        elif name in parse:
            kwargs[name] = parse[name](key(name), cfg[name])
        elif p.annotation == "str":
            v, choices = cfg[name], _CHOICES.get(name)
            if not isinstance(v, str) or (choices and v not in choices):
                raise ScenarioError(f"'{key(name)}' must be "
                                    f"{f'one of {choices}' if choices else 'a string'}"
                                    f", got {v!r}")
            kwargs[name] = v
        else:
            kwargs[name] = _number(key(name), cfg[name], integer=p.annotation == "int")
    return cls(**kwargs)


# -- files and overrides ------------------------------------------------------

def parse_param(text: str) -> tuple[str, object]:
    """Split ``KEY=VALUE``; the value is YAML-typed (numbers, bools, lists)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ScenarioError(f"override '{text}' is not of the form KEY=VALUE")
    return key.strip(), read_yaml(raw, f"override '{text}': unparsable value")


def parse_sweep(text: str) -> tuple[str, list]:
    """Split ``KEY=V1,V2,...`` into the key and its YAML-typed values; a value
    that is a YAML list is the list of values."""
    key, raw = parse_param(text)
    return key, raw if isinstance(raw, list) else [
        read_yaml(v, f"--sweep '{text}': unparsable value") for v in str(raw).split(",")]


def apply_override(cfg: dict, key: str, value) -> None:
    """Set a possibly dotted key (``terrain.angle_deg=20``) in a config dict."""
    *sections, last = key.split(".")
    node = cfg
    for p in sections:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ScenarioError(f"override '{key}': '{p}' is not a section")
    node[last] = value


def load_scenario(path: str, params: dict) -> Scenario:
    """The scenario of the file at path, with the overrides {key: value} applied."""
    with open(path, "rb") as fh:          # YAML reads the encoding, UTF-8 by default
        cfg = read_yaml(fh, "cannot parse scenario file")
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario file must contain a mapping")
    for key, value in params.items():
        apply_override(cfg, key, value)
    return Scenario.from_dict(cfg)
