"""One whole-body control cycle: task stack, hierarchy solve, torques.

The dynamics and rolling constraints are hard equalities that fix the 12
accelerations and 4 contact forces once the 6 torques are known, so the six
priority levels are solved lexicographically over the torques, within their
limits; each level's achieved value is kept while the next is optimized.
The cycle is the one a scenario run executes (`Controller.cycle`): it
takes the state's contact record at the true ground normals
(`contact_dynamics`), the one the physics step integrates, and here controls
with those normals too.
"""

import numpy as np

from wbcsim.model import TASK_NAMES, RobotModel
from wbcsim.scenario import Scenario
from wbcsim.simulator import Controller, contact_dynamics, initial_state
from wbcsim.terrain import FlatTerrain


def main():
    model = RobotModel()
    scenario = Scenario(terrain=FlatTerrain())
    y = initial_state(model, scenario.terrain, height=0.23)   # 2 cm below reference

    # the scenario's default reference: the pose task wants height 0.25 and
    # level attitude; the balance task wants the CoM over the contact line at
    # zero forward speed
    kc = model.kinematics(y)
    cl = contact_dynamics(model, kc, scenario.terrain)
    sol = Controller(model, scenario).cycle(kc, cl, 0.0).sol

    print("priority levels (residual after solve, active torque bounds):")
    for name, r, act in zip(TASK_NAMES, sol.residuals, sol.active_sets):
        print(f"  {name:24s} residual {r:10.3e}  active {len(act)}")
    print(f"torques (hip, knee, wheel x2): {np.round(sol.tau_a, 3)}")
    print(f"contact forces (x_l, z_l, x_r, z_r): {np.round(sol.F_C, 2)} N")
    print(f"torque limit: +/-{model.desc.torque_limit} N*m, "
          f"max commanded {np.abs(sol.tau_a).max():.2f}")


if __name__ == "__main__":
    main()
