"""Span tracing of wbcsim's layers from outside the program.

A :class:`Tracer` replaces each entry point in :data:`ENTRIES` with a
wrapper that records one span per call: name, layer, start, end and the
span that was open when it was called.  A module-level function is
replaced under every wbcsim module name bound to it, so a call is seen
whichever namespace the caller resolves it from (``simulator`` calls
``closed_loop_dynamics`` through its own import, ``dynamics`` calls
``spanning_tree_dynamics`` through its globals).  Methods are replaced on
the class that defines them.  Spans stay in memory until the caller writes
them out.  An entry point that no longer exists is reported as absent.

``rotations`` is left unwrapped: it is called about 10^5 times per
simulated second from inside ``model`` and ``dynamics``, so a wrapper there
would dominate the trace; its cost shows in those layers' self time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple


def _active_rows(args, result):
    return sum(len(a) for a in result.active_sets)


def _lookup_hit(args, result):
    nmap, x, y = args[:3]
    return int(nmap.key_of(x, y) in nmap.cells)


def _returned(args, result):
    return result


@dataclass(frozen=True)
class Entry:
    layer: str
    module: str                    # importable module that defines it
    qualname: str                  # "function" or "Class.method"
    info: Callable | None = None   # (args, result) -> number kept on the span
    subclasses: bool = False       # also wrap overrides in subclasses

    @property
    def name(self) -> str:
        return f"{self.module.rpartition('.')[2]}.{self.qualname}"


ENTRIES = (
    Entry("model", "wbcsim.model", "KinematicsCache.__init__"),
    Entry("model", "wbcsim.model", "RobotModel.task_state"),
    Entry("model", "wbcsim.model", "RobotModel.com_state"),
    Entry("model", "wbcsim.model", "RobotModel.task_jacobians"),
    Entry("dynamics", "wbcsim.dynamics", "closed_loop_dynamics"),
    Entry("dynamics", "wbcsim.dynamics", "spanning_tree_dynamics"),
    Entry("dynamics", "wbcsim.dynamics", "mechanical_energy"),
    Entry("hqp", "wbcsim.hqp", "HierarchySolver.solve", _active_rows),
    Entry("hqp", "wbcsim.hqp", "solve_level"),
    Entry("hqp", "wbcsim.hqp", "feasible_start"),
    Entry("hqp", "wbcsim.hqp", "dynamics_constraints"),
    Entry("hqp", "scipy.optimize", "linprog"),
    Entry("task_control", "wbcsim.task_control", "pd_accel"),
    Entry("task_control", "wbcsim.task_control", "balance_accel"),
    Entry("task_control", "wbcsim.task_control", "assemble_task_stack"),
    Entry("task_control", "wbcsim.task_control", "GainScheduler.gain"),
    Entry("task_control", "wbcsim.task_control", "lqr_gain"),
    Entry("terrain", "wbcsim.terrain", "Terrain.height", subclasses=True),
    Entry("terrain", "wbcsim.terrain", "Terrain.grad", subclasses=True),
    Entry("terrain", "wbcsim.terrain", "Terrain.normal", subclasses=True),
    Entry("terrain", "wbcsim.terrain", "Terrain.surface_point", subclasses=True),
    Entry("terrain_estimation", "wbcsim.terrain_estimation", "NormalMap.update",
          _returned),
    Entry("terrain_estimation", "wbcsim.terrain_estimation", "NormalMap.lookup",
          _lookup_hit),
    Entry("terrain_estimation", "wbcsim.terrain_estimation",
          "optimal_neighborhood"),
    Entry("terrain_estimation", "wbcsim.terrain_estimation", "estimate_normal"),
    Entry("terrain_estimation", "wbcsim.terrain_estimation", "query_normal"),
    Entry("terrain_estimation", "wbcsim.terrain_estimation", "NormalFilter.push"),
    Entry("simulator", "wbcsim.simulator", "run_scenario"),
    Entry("simulator", "wbcsim.simulator", "initial_state"),
    Entry("simulator", "wbcsim.simulator", "step"),
    Entry("simulator", "wbcsim.simulator", "forward_dynamics"),
    Entry("simulator", "wbcsim.simulator", "true_normals"),
    Entry("simulator", "wbcsim.simulator", "apply_block_impact"),
    Entry("simulator", "wbcsim.simulator", "synth_pointcloud"),
    Entry("cli", "wbcsim.cli", "load_scenario"),
    Entry("cli", "wbcsim.cli", "write_artifacts"),
)

ROOT = "simulator.run_scenario"


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int                    # index of the enclosing span, -1 at top
    info: float | None = None


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` puts the originals back."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, layer: str,
             info: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock
        absent = self.absent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)             # reserved: children come later
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                value = None
                if info is not None and result is not None:
                    try:
                        value = info(args, result)
                    except (AttributeError, TypeError):
                        # a refactor moved what the reader reads: the
                        # metrics built on it are unmeasured, not 0
                        if f"{name}.info" not in absent:
                            absent.append(f"{name}.info")
                spans[sid] = Span(name, layer, t0, t1, parent, value)
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, entries=ENTRIES) -> None:
        for e in entries:
            try:
                mod = importlib.import_module(e.module)
            except ImportError:
                self.absent.append(e.name)
                continue
            owner_name, _, attr = e.qualname.rpartition(".")
            if owner_name:
                cls = getattr(mod, owner_name, None)
                if not isinstance(cls, type) or attr not in cls.__dict__:
                    self.absent.append(e.name)
                    continue
                classes = [cls] + (_subclasses(cls) if e.subclasses else [])
                for c in classes:
                    if attr in c.__dict__:
                        name = f"{e.name.partition('.')[0]}.{c.__name__}.{attr}"
                        self._replace(c, attr, self.wrap(c.__dict__[attr], name,
                                                         e.layer, e.info))
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(e.name)
                continue
            wrapped = self.wrap(fn, e.name, e.layer, e.info)
            for m in [mod] + _wbcsim_modules():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._replace(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def finished(self) -> list[Span]:
        """Spans of calls that have returned."""
        return [s for s in self.spans if s is not None]

    def write_csv(self, path) -> None:
        t0 = min((s.start for s in self.finished()), default=0.0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "layer", "name", "start_s", "end_s",
                        "info"])
            for i, s in enumerate(self.spans):
                if s is not None:
                    w.writerow([i, s.parent, s.layer, s.name,
                                f"{s.start - t0:.9f}", f"{s.end - t0:.9f}",
                                "" if s.info is None else s.info])


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


def _wbcsim_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "wbcsim" or n.startswith("wbcsim."))]


def read_csv(path) -> list[Span]:
    """Spans written by :meth:`Tracer.write_csv`, in id order.

    The worker writes them after every traced call has returned, so the ids
    are contiguous and a span's position is its id.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [Span(r["name"], r["layer"], float(r["start_s"]), float(r["end_s"]),
                 int(r["parent"]), float(r["info"]) if r["info"] else None)
            for r in rows]


# -- analysis ------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def _within(spans: list[Span], root: int) -> list[bool]:
    """Whether each span is ``root`` or one of its descendants.

    A span's parent always precedes it, so one pass in index order works.
    """
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = i == root or (s.parent >= 0 and inside[s.parent])
    return inside


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _pct(xs, q: int) -> float:
    """q-th percentile (inclusive method); needs at least two samples."""
    if len(xs) < 2:
        return _median(xs)
    return float(statistics.quantiles(xs, n=100, method="inclusive")[q - 1])


# highest percentile with at least ten solves beyond it in the shortest
# repetition (flat_push, 100 cycles)
TAIL_PERCENTILE = 90


def layer_metrics(spans: list[Span], cycles: int) -> dict[str, float]:
    """Per-layer metrics of one traced run of ``cycles`` control cycles.

    Everything except the ``cli.*`` spans is counted inside the
    ``run_scenario`` span.  Rates are per control cycle; times are in ms.
    """
    root = next((i for i, s in enumerate(spans) if s.name == ROOT), None)
    if root is None or cycles <= 0:
        raise ValueError("trace holds no completed run_scenario span")
    selfs = self_times(spans)
    inside = _within(spans, root)
    run = [(s, t) for s, t, ok in zip(spans, selfs, inside) if ok]

    def calls(name):
        return [s for s, _ in run if s.name == name]

    def count(name):
        return len(calls(name))

    def durs_ms(name):
        return [1e3 * (s.end - s.start) for s in calls(name)]

    def self_ms(layer):
        return 1e3 * sum(t for s, t in run if s.layer == layer) / cycles

    def has_ancestor(s, name):
        while s.parent >= 0:
            s = spans[s.parent]
            if s.name == name:
                return True
        return False

    solves = calls("hqp.HierarchySolver.solve")
    updates = calls("terrain_estimation.NormalMap.update")
    lookups = calls("terrain_estimation.NormalMap.lookup")
    cells = sum(s.info or 0 for s in updates)
    frames = durs_ms("simulator.synth_pointcloud")
    terrain_queries = [s for s, _ in run if s.layer == "terrain"
                       and (s.parent < 0 or spans[s.parent].layer != "terrain")]
    root_span = spans[root]
    root_dur = root_span.end - root_span.start
    cli_ms = {n: sum(1e3 * (s.end - s.start) for s in spans if s.name == n)
              for n in ("cli.load_scenario", "cli.write_artifacts")}

    m = {
        "model.kinematics_builds_per_cycle":
            count("model.KinematicsCache.__init__") / cycles,
        "model.task_jacobians_calls_per_cycle":
            count("model.RobotModel.task_jacobians") / cycles,
        "model.self_ms_per_cycle": self_ms("model"),
        "dynamics.closed_loop_calls_per_cycle":
            count("dynamics.closed_loop_dynamics") / cycles,
        "dynamics.tree_dynamics_calls_per_cycle":
            count("dynamics.spanning_tree_dynamics") / cycles,
        "dynamics.self_ms_per_cycle": self_ms("dynamics"),
        "hqp.solve_ms_p50": _median(durs_ms("hqp.HierarchySolver.solve")),
        "hqp.solve_ms_tail": _pct(durs_ms("hqp.HierarchySolver.solve"),
                                  TAIL_PERCENTILE),
        "hqp.self_ms_per_cycle": self_ms("hqp"),
        "hqp.levels_per_solve":
            count("hqp.solve_level") / len(solves) if solves else 0.0,
        "hqp.active_rows_per_cycle": sum(s.info or 0 for s in solves) / cycles,
        "hqp.saturated_cycle_frac":
            sum(1 for s in solves if s.info) / len(solves) if solves else 0.0,
        "hqp.phase1_lp_per_cycle": sum(
            1 for s in calls("optimize.linprog")
            if has_ancestor(s, "hqp.feasible_start")) / cycles,
        "task_control.self_ms_per_cycle": self_ms("task_control"),
        "task_control.lqr_solves_per_run": float(count("task_control.lqr_gain")),
        "terrain.queries_per_cycle": len(terrain_queries) / cycles,
        "terrain.self_ms_per_cycle": self_ms("terrain"),
        "terrain_estimation.update_ms_p50":
            _median(durs_ms("terrain_estimation.NormalMap.update")),
        "terrain_estimation.cells_per_update":
            cells / len(updates) if updates else 0.0,
        "terrain_estimation.neighborhood_queries_per_cell":
            (count("terrain_estimation.optimal_neighborhood")
             + count("terrain_estimation.estimate_normal")) / cells
            if cells else 0.0,
        "terrain_estimation.lookup_hit_frac":
            sum(s.info or 0 for s in lookups) / len(lookups) if lookups else 0.0,
        "terrain_estimation.lookup_ms_per_cycle":
            sum(durs_ms("terrain_estimation.NormalMap.lookup")) / cycles,
        "terrain_estimation.self_ms_per_cycle": self_ms("terrain_estimation"),
        "simulator.step_ms_p50": _median(durs_ms("simulator.step")),
        "simulator.substeps_per_cycle": count("simulator.step") / cycles,
        "simulator.lidar_ms_per_frame":
            sum(frames) / len(frames) if frames else 0.0,
        "simulator.self_ms_per_cycle": self_ms("simulator"),
        "cli.load_ms": cli_ms["cli.load_scenario"],
        "cli.write_ms": cli_ms["cli.write_artifacts"],
        "trace.coverage_frac":
            1.0 - selfs[root] / root_dur if root_dur > 0 else 0.0,
    }
    return m


def entry_shares(spans: list[Span]) -> dict[str, float]:
    """Self time of each entry point inside run_scenario, as a share of it."""
    root = next(i for i, s in enumerate(spans) if s.name == ROOT)
    selfs = self_times(spans)
    total = spans[root].end - spans[root].start
    shares: dict[str, float] = {}
    for s, t, ok in zip(spans, selfs, _within(spans, root)):
        if ok:
            shares[s.name] = shares.get(s.name, 0.0) + t / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
