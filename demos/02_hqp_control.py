"""One whole-body control cycle: task stack, hierarchy solve, torques.

The dynamics and rolling constraints are hard equalities that fix the 12
accelerations and 4 contact forces once the 6 torques are known, so the six
priority levels are solved lexicographically over the torques, within their
limits; each level's achieved value is kept while the next is optimized.
"""

import numpy as np

from wbcsim.dynamics import closed_loop_dynamics
from wbcsim.hqp import HierarchySolver, dynamics_constraints
from wbcsim.model import RobotModel
from wbcsim.simulator import initial_state
from wbcsim.task_control import (
    GainScheduler,
    assemble_task_stack,
    balance_accel,
    default_gains,
    pd_accel,
)
from wbcsim.terrain import FlatTerrain


def main():
    model = RobotModel()
    terrain = FlatTerrain()
    y = initial_state(model, terrain, height=0.23)   # 2 cm below reference
    n = terrain.normal(0.0, 0.0)

    kc = model.kinematics(y)
    tj = model.task_jacobians(kc, n, n)
    ts = model.task_state(kc, tj)
    cs = model.com_state(kc, tj)
    cl = closed_loop_dynamics(model, kc, n, n)

    # pose task wants height 0.25 and level attitude; balance task wants the
    # CoM over the contact line at zero forward speed
    gains = default_gains()
    ref_L = np.array([0.0, 0.25, 0.0, 0.0, ts.Lambda[4]])
    pose_a = pd_accel(ref_L, np.zeros(5), ts.Lambda, ts.Lambda_dot, gains)

    design = GainScheduler().gain(cs.r[1])
    lam_com = np.array([cs.r[0], cs.r_dot[0], cs.s[0], cs.s_dot[0]])
    bal_a = balance_accel(design.K, np.array([0.0, 0.0, cs.s[0], 0.0]), lam_com)

    stack = assemble_task_stack(pose_a, bal_a, tj)
    constraints = dynamics_constraints(cl, model.B, model.desc.torque_limit)
    sol = HierarchySolver().solve(stack, constraints)

    print("priority levels (residual after solve, active torque bounds):")
    for name, r, act in zip(stack.names, sol.residuals, sol.active_sets):
        print(f"  {name:24s} residual {r:10.3e}  active {len(act)}")
    print(f"torques (hip, knee, wheel x2): {np.round(sol.tau_a, 3)}")
    print(f"contact forces (x_l, z_l, x_r, z_r): {np.round(sol.F_C, 2)} N")
    print(f"torque limit: +/-{model.desc.torque_limit} N*m, "
          f"max commanded {np.abs(sol.tau_a).max():.2f}")


if __name__ == "__main__":
    main()
