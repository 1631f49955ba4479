"""Constraint-based forward dynamics, scenario runner, and synthetic LiDAR.

The simulator integrates the closed-loop EoM with bilateral rolling
constraints (KKT solve for accelerations and contact forces), Baumgarte
stabilization on the contact rows, semi-implicit Euler stepping with the
base rotation integrated on the manifold.  A run follows a scenario
(`wbcsim.scenario`): its terrain, references, disturbances and the
estimation mode of the controller.
"""

from __future__ import annotations

import dataclasses
import math
import random
from array import array
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    GRAVITY,
    ClosedLoopDynamics,
    closed_loop_dynamics,
    mechanical_energy,
)
from .hqp import HierarchySolver, HqpError, HqpSolution
from .model import EZ, KinematicsCache, MinimalState, OutOfReachError, RobotModel, leg_ik
from .rotations import exp_so3, project_to_so3, rot_z, wrap_angle
from .scenario import Disturbance, Scenario, ScenarioError, SensorConfig
from .task_control import (
    DEFAULT_KP,
    DEFAULT_Q,
    CareError,
    GainScheduler,
    assemble_task_stack,
    balance_accel,
    pd_accel,
)
from .terrain import Terrain
from .terrain_estimation import (
    NormalFilter,
    NormalMap,
    PointCloud,
    incline_angle,
    query_normal,
)

BAUMGARTE_OMEGA = 50.0
BAUMGARTE_ZETA = 1.0

# The wheel contact is bilateral, so the simulated ground can pull a wheel
# down, which real ground cannot.  A run has fallen once either wheel's pull,
# summed over the whole run without decay (so brief pulls in a long run add
# up), passes an impulse of this many seconds of body weight.
PULL_LIMIT_S = 0.05


class SimulationError(RuntimeError):
    pass


# -- state / logging --------------------------------------------------------

@dataclass
class SimState:
    y: MinimalState
    F_C: np.ndarray
    t: float = 0.0
    work_in: float = 0.0         # actuator + disturbance work, J
    dissipated: float = 0.0      # lateral friction, J (>= 0)


# a run's log has one row per control cycle, these columns in this order: the
# task state Lambda, the CoM state, the torques, the contact forces, the mean
# estimated and true inclines (deg) and the base position
LOG_COLUMNS = ("t", "phi", "h", "alpha", "beta", "gamma",
               "r_x", "dr_x", "s_x", "ds_x",
               "tau_hl", "tau_kl", "tau_wl", "tau_hr", "tau_kr", "tau_wr",
               "F_xl", "F_zl", "F_xr", "F_zr",
               "psi_hat", "psi_true", "base_x", "base_y", "base_z")


@dataclass
class MetricsSummary:
    """A run's outcome; a run without a logged cycle keeps the defaults."""
    name: str
    fell: bool
    failed: bool
    failure: str
    max_abs_beta: float = 0.0
    max_abs_r_x: float = 0.0
    settle_time: float = math.nan   # s after push release; nan if no push
    height_mean: float = 0.0
    height_sd: float = 0.0
    roll_mean: float = 0.0
    roll_sd: float = 0.0
    psi_hat_mean: float = 0.0
    psi_err_mean: float = 0.0
    com_dev_max: float = 0.0        # max |s_x - s_ref|, s_ref as each cycle tracked it
    energy_residual_frac: float = 0.0

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def to_text(self) -> str:
        lines = []
        for k, v in self.to_dict().items():
            lines.append(f"{k} = {v:.6g}" if isinstance(v, float) else f"{k} = {v}")
        return "\n".join(lines) + "\n"


def write_csv(path: str, columns, log: np.ndarray) -> None:
    """Write the rows of log under a header of the column names, to 9 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fmt = ",".join(["%.9g"] * len(columns)) + "\n"
        for row in log.tolist():
            fh.write(fmt % tuple(row))


# -- forward dynamics -------------------------------------------------------

def contact_dynamics(model: RobotModel, kc: KinematicsCache,
                     terrain: Terrain) -> ClosedLoopDynamics:
    """kc's closed-loop dynamics at the terrain normals under its wheel centers."""
    (xl, yl, _), (xr, yr, _) = (w.tolist() for w in kc.wheel_centers())
    return closed_loop_dynamics(model, kc, terrain.normal(xl, yl), terrain.normal(xr, yr),
                                mu=terrain.mu)


def forward_dynamics(model: RobotModel, y: MinimalState, cl: ClosedLoopDynamics,
                     tau_a: np.ndarray, terrain: Terrain,
                     ext_wrench: np.ndarray | None = None):
    """Accelerations and contact forces from the constrained EoM KKT solve.

    cl is contact_dynamics at y; ext_wrench is a world-frame (force, moment)
    pair acting on the base.
    """
    rhs_top = model.B[:12] @ np.asarray(tau_a, float) - cl.C_y
    if ext_wrench is not None:
        rhs_top = rhs_top + np.concatenate([ext_wrench, np.zeros(6)])

    cvel = cl.J_xz @ y.vel
    gap = np.zeros(4)
    for i, p, n in ((1, cl.p_cl, cl.n[0]), (3, cl.p_cr, cl.n[1])):
        x, y, z = p.tolist()
        gap[i] = n[2] * (z - terrain.height(x, y))
    drift = (cl.Jdot_xz_u + 2.0 * BAUMGARTE_ZETA * BAUMGARTE_OMEGA * cvel
             + BAUMGARTE_OMEGA**2 * gap)

    try:
        sol = np.linalg.solve(cl.K, np.concatenate([rhs_top, -drift]))
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"singular contact KKT system: {exc}") from exc
    return sol[:12], sol[12:16]


def step(model: RobotModel, state: SimState, cl: ClosedLoopDynamics, tau_a: np.ndarray,
         dt: float, terrain: Terrain, ext_wrench: np.ndarray | None = None) -> SimState:
    """Semi-implicit Euler step from state, cl its contact_dynamics; exp-map rotation."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    y = state.y
    udot, F_C = forward_dynamics(model, y, cl, tau_a, terrain, ext_wrench)
    u_new = y.vel + dt * udot
    if not np.isfinite(u_new).all():
        raise SimulationError(f"NaN/Inf velocity at t = {state.t:.4f}")

    # energy audit: actuator power at the actuated joints, whose rates are
    # u_y[6:], disturbance power, lateral friction dissipation (F_y = f F_z
    # against v_y)
    work_in = state.work_in + dt * float(np.asarray(tau_a, float) @ u_new[6:])
    if ext_wrench is not None:
        work_in += dt * float(ext_wrench @ u_new[:6])
    F_y = cl.f * F_C[[1, 3]]
    dissipated = state.dissipated - dt * float(F_y @ (cl.J_y @ u_new))
    return SimState(y=MinimalState(pos=y.pos + dt * u_new[:3],
                                   rot=project_to_so3(exp_so3(dt * u_new[3:6]) @ y.rot),
                                   qj=y.qj + dt * u_new[6:], vel=u_new),
                    F_C=F_C, t=state.t + dt, work_in=work_in, dissipated=dissipated)


def apply_block_impact(model: RobotModel, state: SimState, terrain: Terrain,
                       mass: float, drop_height: float,
                       direction: np.ndarray | None = None) -> np.ndarray:
    """Instantaneous momentum transfer from a dropped frictionless block.

    Impulse magnitude mass * sqrt(2 g h) along `direction`; without one (None
    or zero) along the inward normal of the base top plate (-base z).  The
    velocity jump is solved with the rolling constraints active (impulsive
    KKT).
    """
    if mass < 0.0 or drop_height < 0.0:
        raise ValueError("mass and drop height must be non-negative")
    J_mag = mass * math.sqrt(2.0 * GRAVITY * drop_height)
    if direction is None or not np.any(direction):
        direction = -state.y.rot[:, 2]
    direction = np.asarray(direction, float)
    direction = direction / np.linalg.norm(direction)
    imp = J_mag * direction

    kc = model.kinematics(state.y)
    cl = contact_dynamics(model, kc, terrain)
    rhs = np.concatenate([imp, np.zeros(9), -cl.J_xz @ state.y.vel])
    du = np.linalg.solve(cl.K, rhs)[:12]

    e0 = mechanical_energy(kc)
    # a new state, so that no cache of the old one sees the new velocity
    state.y = dataclasses.replace(state.y, vel=state.y.vel + du)
    e1 = mechanical_energy(model.kinematics(state.y))
    state.work_in += e1 - e0     # book the kinetic energy the impact injects
    return imp


# -- initial conditions -----------------------------------------------------

def initial_state(model: RobotModel, terrain: Terrain,
                  start_xy=(0.0, 0.0), yaw: float = 0.0,
                  height: float = 0.25, speed: float = 0.0) -> MinimalState:
    """Place the robot on the terrain with both wheels in rolling contact."""
    desc = model.desc
    R = rot_z(yaw)
    r_w = desc.wheel_radius
    pos = np.array([start_xy[0], start_xy[1], height])
    for _ in range(6):
        hips_xy = (pos + desc.hip_origins @ R.T)[:, :2].tolist()
        targets = [terrain.surface_point(hx, hy) + r_w * terrain.normal(hx, hy)
                   for hx, hy in hips_xy]
        pos[2] = 0.5 * (terrain.height(*hips_xy[0]) + terrain.height(*hips_xy[1])) + height
        hips = pos + desc.hip_origins @ R.T
        offsets = [R.T @ (tg - hip) for tg, hip in zip(targets, hips)]
        if max(o[2] for o in offsets) >= 0.0:
            raise OutOfReachError("wheel target at or above its hip")
        (q_hl, q_kl), (q_hr, q_kr) = (leg_ik(desc, o) for o in offsets)
    y = MinimalState(pos=pos, rot=R, qj=np.array([q_hl, q_kl, 0.0, q_hr, q_kr, 0.0]),
                     vel=np.zeros(12))
    u0 = np.concatenate([speed * R[:, 0], np.zeros(9)])
    cl = contact_dynamics(model, model.kinematics(y), terrain)
    # seed the wheel spin consistent with rolling at the requested speed
    # (otherwise the min-norm correction below prefers stopping the base
    # over spinning the wheels); pick the spin sign that best satisfies
    # the rolling constraint before the final projection
    if speed != 0.0:
        spin = np.zeros(12)
        spin[[8, 11]] = speed / r_w
        u0 = min((u0 + spin, u0 - spin), key=lambda u: np.linalg.norm(cl.J_xz @ u))
    # project onto the rolling-constraint manifold: the min-norm correction
    # J^T (J J^T)^-1 (-c), J of full row rank in contact; a singular J J^T
    # raises LinAlgError, a ValueError
    J = cl.J_xz
    du = J.T @ np.linalg.solve(J @ J.T, -(J @ u0))
    return dataclasses.replace(y, vel=u0 + du)


# -- synthetic LiDAR --------------------------------------------------------

def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """n uniform draws in [0, 1) from rng, 53 bits each, read in a fixed
    byte order so that every platform draws the same values."""
    return (np.frombuffer(rng.randbytes(8 * n), "<u8") >> 11) * 2.0**-53


def gaussians(rng: random.Random, n: int) -> np.ndarray:
    """n standard normal draws from rng: Box-Muller (Box & Muller, 1958)
    over uniforms(rng, n), one more when n is odd."""
    u, v = uniforms(rng, n + n % 2).reshape(2, -1)
    r, th = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * v     # 1 - u in (0, 1]
    return np.concatenate([r * np.cos(th), r * np.sin(th)])[:n]


def synth_pointcloud(terrain: Terrain, center_xy, cfg: SensorConfig,
                     rng: random.Random) -> PointCloud:
    """Uniform disc sample of the terrain surface with isotropic noise."""
    if cfg.radius <= 0.0:
        raise ValueError("sensor radius must be positive")
    u, v = uniforms(rng, 2 * cfg.points).reshape(2, -1)
    r, th = cfg.radius * np.sqrt(u), 2.0 * np.pi * v
    xs = center_xy[0] + r * np.cos(th)
    ys = center_xy[1] + r * np.sin(th)
    zs = np.array([terrain.height(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
    pts = np.column_stack([xs, ys, zs])
    if cfg.noise > 0.0:
        pts = pts + cfg.noise * gaussians(rng, pts.size).reshape(pts.shape)
    return PointCloud(points=pts)


# -- scenario loop ----------------------------------------------------------

@dataclass
class CycleResult:
    """What one control cycle computed."""
    Lambda: np.ndarray           # (phi, h, alpha, beta, gamma)
    Lambda_com: np.ndarray       # (r, rdot, s, sdot)
    psi_hat: float               # mean incline of the controller's normals, deg
    psi_true: float              # mean incline of the true normals, deg
    sol: HqpSolution             # sol.tau_a is the torque command
    s_ref: float                 # the CoM reference tracked, re-anchored while turning


class Controller:
    """A scenario's normal estimation and whole-body control, with the state
    they carry between cycles: CoM and yaw references, normal map and wheel
    filters, LQR gain schedule, HQP solver, lidar cycle count and lidar rng."""

    def __init__(self, model: RobotModel, scenario: Scenario, seed: int = 0):
        self.model, self.scenario = model, scenario
        dt_sim, n_sub, _, self.lidar_every = scenario.timing()
        self.dt = n_sub * dt_sim
        self.kp = DEFAULT_KP if scenario.kp is None else scenario.kp
        self.kd = np.sqrt(self.kp)
        self.sched = GainScheduler(DEFAULT_Q if scenario.lqr_q is None
                                   else np.diag(scenario.lqr_q), scenario.lqr_r)
        self.solver = HierarchySolver(model.B, model.desc.torque_limit)
        self.nmap = NormalMap()
        self.filters = (NormalFilter(), NormalFilter())
        self.rng = random.Random(seed)
        self.s_ref = None            # taken from the CoM on the first cycle
        self.yaw_ref = scenario.start_yaw
        self.cycles = 0

    def cycle(self, kc: KinematicsCache, cl: ClosedLoopDynamics, t: float) -> CycleResult:
        """Estimate the ground normals at kc's state, run the tasks for time t,
        solve the HQP; cl is the state's contact_dynamics, at the true normals."""
        model, sc = self.model, self.scenario
        if sc.estimation_mode == "true_normal":
            cl_hat = cl
        elif sc.estimation_mode == "horizontal_normal":
            cl_hat = closed_loop_dynamics(model, kc, EZ, EZ, mu=sc.terrain.mu)
        else:
            if self.cycles % self.lidar_every == 0:
                self.nmap.update(synth_pointcloud(sc.terrain, kc.y.pos[:2], sc.sensor, self.rng))
            n_hat = [query_normal(self.nmap, w[:2], kc.y.rot[:, 0], sc.lookahead, f)
                     for w, f in zip(kc.wheel_centers(), self.filters)]
            cl_hat = closed_loop_dynamics(model, kc, *n_hat, mu=sc.terrain.mu)
        psi_hat = 0.5 * (incline_angle(cl_hat.n[0]) + incline_angle(cl_hat.n[1]))
        psi_true = 0.5 * (incline_angle(cl.n[0]) + incline_angle(cl.n[1]))
        seg = sc.segment_at(t)
        self.yaw_ref = wrap_angle(self.yaw_ref + seg.yaw_rate * self.dt)
        tj = model.task_jacobians(kc, cl_hat.p_cl, cl_hat.p_cr)

        # pd_accel wraps the yaw error across the +/-pi seam
        ref_L = np.array([0.0, seg.height, 0.0, 0.0, self.yaw_ref])
        pose_a = pd_accel(ref_L, tj.Lambda, tj.Lambda_dot, self.kp, self.kd)

        if self.s_ref is None or seg.yaw_rate != 0.0:
            self.s_ref = float(tj.Lambda_com[2])
        ref_com = np.array([0.0, 0.0, self.s_ref, seg.speed])
        design = self.sched.gain(max(tj.r_z, 0.05))
        bal_a = balance_accel(design.K, ref_com, tj.Lambda_com)

        b = assemble_task_stack(pose_a, bal_a, tj)
        sol = self.solver.solve(tj.J, b, cl_hat)
        s_ref = self.s_ref
        self.s_ref += seg.speed * self.dt
        self.cycles += 1
        return CycleResult(tj.Lambda, tj.Lambda_com, psi_hat, psi_true, sol, s_ref)


def _push_wrench(dist: Disturbance, t: float) -> np.ndarray | None:
    """Ramped rod push: force grows linearly to f_max over the window."""
    if not (dist.t_start <= t < dist.t_start + dist.duration):
        return None
    frac = (t - dist.t_start) / dist.duration
    d = dist.direction / np.linalg.norm(dist.direction)
    return np.concatenate([dist.f_max * frac * d, np.zeros(3)])


def run_scenario(model: RobotModel, scenario: Scenario, seed: int = 0):
    """Closed-loop run; returns (log, MetricsSummary), log an (n, len(LOG_COLUMNS))
    array with a row per control cycle run."""
    terrain = scenario.terrain
    seg0 = scenario.segment_at(0.0)
    for i, seg in enumerate(scenario.reference):     # each height must fit the start pose
        try:
            placed = initial_state(model, terrain, scenario.start_xy, scenario.start_yaw,
                                   seg.height, seg.speed)
        except OutOfReachError as exc:
            raise ScenarioError(f"'reference[{i}].height' of {seg.height:g} m: {exc}") from None
        except ValueError as exc:
            raise ScenarioError(f"start pose 'start_xy' {scenario.start_xy.tolist()}, "
                                f"'start_yaw' {scenario.start_yaw:g}: {exc}") from None
        if seg is seg0:
            y = placed
    state = SimState(y=y, F_C=np.zeros(4))
    controller = Controller(model, scenario, seed)
    dt_sim, n_sub, n_ctrl, _ = scenario.timing()

    pending_impacts = sorted(
        [d for d in scenario.disturbances if d.kind == "block_impact"],
        key=lambda d: d.t_start)
    pushes = [d for d in scenario.disturbances if d.kind == "push"]

    log = array("d")             # the rows, grown a cycle at a time
    s_ref = array("d")           # each cycle's CoM reference, not in the log
    failed, failure, fell = False, "", False
    pull = np.zeros(2)           # downward impulse on each wheel so far, N*s
    pull_limit = model.desc.total_mass * GRAVITY * PULL_LIMIT_S

    for k in range(n_ctrl):
        t = k * controller.dt
        kc = model.kinematics(state.y)
        if k == 0:
            e_start = mechanical_energy(kc)
        try:
            # each stepped state's contact record, built once; the cycle's serves
            # the first substep too unless an impact changes the velocity
            cl = contact_dynamics(model, kc, terrain)
            res = controller.cycle(kc, cl, t)
            while pending_impacts and pending_impacts[0].t_start <= t:
                d = pending_impacts.pop(0)
                apply_block_impact(model, state, terrain, d.mass, d.drop_height, d.direction)
                cl = None
            for _ in range(n_sub):
                wrench = None
                for d in pushes:
                    w = _push_wrench(d, state.t)
                    if w is not None:
                        wrench = w if wrench is None else wrench + w
                if cl is None:
                    cl = contact_dynamics(model, model.kinematics(state.y), terrain)
                state = step(model, state, cl, res.sol.tau_a, dt_sim, terrain, wrench)
                cl = None
        except (ArithmeticError, CareError, HqpError, SimulationError, ValueError) as exc:
            failed, failure = True, f"t={state.t:.3f}: {exc}"
            break

        log.extend([t, *res.Lambda.tolist(), *res.Lambda_com.tolist(), *res.sol.tau_a.tolist(),
                    *state.F_C.tolist(), res.psi_hat, res.psi_true, *state.y.pos.tolist()])
        s_ref.append(res.s_ref)
        pull += controller.dt * np.maximum(0.0, -state.F_C[[1, 3]])
        if (abs(res.Lambda[2]) > 1.0 or abs(res.Lambda[3]) > 1.0
                or pull.max() > pull_limit):
            fell = True
            break

    log = np.frombuffer(log).reshape(-1, len(LOG_COLUMNS))
    return log, _summarize(scenario, log, np.frombuffer(s_ref), state, e_start, model,
                           fell, failed, failure, pushes)


def _summarize(scenario, log, s_ref, state, e_start, model,
               fell, failed, failure, pushes) -> MetricsSummary:
    if not len(log):
        return MetricsSummary(scenario.name, fell, True, failure or "no records")
    c = dict(zip(LOG_COLUMNS, log.T))      # the log's columns by name
    t_arr, s_x = c["t"], c["s_x"]
    settle = float("nan")
    if pushes:
        t_push = min(d.t_start for d in pushes)
        t_rel = max(d.t_start + d.duration for d in pushes)
        after = t_arr >= t_rel
        influenced = t_arr >= t_push
        before = t_arr < t_push
        # displacement is measured from the pre-push stationkeeping value
        s_origin = s_x[before][-1] if before.any() else s_x[0]
        if after.any():
            disp = np.abs(s_x - s_origin)
            band = max(0.02 * disp[influenced].max(), 0.005)
            ok = disp <= band
            # the first sample after the push from which disp stays in band
            bad = np.flatnonzero(~ok)
            i = max(int(np.argmax(after)), bad[-1] + 1 if bad.size else 0)
            settle = t_arr[i] - t_rel if i < len(ok) else float("inf")
    e_end = mechanical_energy(model.kinematics(state.y))
    denom = max(abs(state.work_in) + state.dissipated + abs(e_start), 1.0)
    e_resid = abs((e_end - e_start) - (state.work_in - state.dissipated)) / denom
    return MetricsSummary(
        name=scenario.name, fell=fell, failed=failed, failure=failure,
        max_abs_beta=float(np.abs(c["beta"] - c["beta"][0]).max()),
        max_abs_r_x=float(np.abs(c["r_x"]).max()),
        settle_time=settle,
        height_mean=float(c["h"].mean()), height_sd=float(c["h"].std()),
        roll_mean=float(c["alpha"].mean()), roll_sd=float(c["alpha"].std()),
        psi_hat_mean=float(c["psi_hat"].mean()),
        psi_err_mean=float(np.abs(c["psi_hat"] - c["psi_true"]).mean()),
        com_dev_max=float(np.abs(s_x - s_ref).max()),
        energy_residual_frac=float(e_resid))
