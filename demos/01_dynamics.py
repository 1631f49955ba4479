"""Closed-loop dynamics of the wheeled biped: reduction, energy, contacts.

The 16-DoF spanning tree (floating base + two 3-joint legs + wheel spins) is
reduced through the loop-closure map G to 12 minimal velocities, and the
ground contact adds four bilateral rolling constraints.  This demo shows the
quantities every controller in the package is built on.
"""

import numpy as np

from wbcsim.dynamics import (
    closed_loop_dynamics,
    mechanical_energy,
    spanning_tree_dynamics,
)
from wbcsim.model import RobotModel
from wbcsim.simulator import initial_state
from wbcsim.terrain import SlopeTerrain


def main():
    model = RobotModel()
    terrain = SlopeTerrain(angle_deg=15.0, start=-2.0)
    y = initial_state(model, terrain, height=0.25, speed=1.0)
    n = terrain.normal(y.pos[0], y.pos[1])

    kc = model.kinematics(y)
    tree = spanning_tree_dynamics(kc)
    cl = closed_loop_dynamics(model, kc, n, n)

    print("spanning tree: H is 16x16, minimal coordinates: 12")
    print(f"  H symmetric to {np.abs(tree.H - tree.H.T).max():.1e}, "
          f"min eigenvalue {np.linalg.eigvalsh(tree.H).min():.4f}")

    # the reduction preserves kinetic energy exactly: u = G u_y
    u_y = y.vel
    u = cl.G @ u_y
    ke_tree = 0.5 * u @ tree.H @ u
    ke_min = 0.5 * u_y @ cl.H_y @ u_y
    print(f"  kinetic energy, tree vs reduced: {ke_tree:.6f} vs {ke_min:.6f} "
          f"(diff {abs(ke_tree - ke_min):.1e})")

    # the initial state satisfies the rolling constraints
    print(f"  rolling-constraint velocity |J_xz u_y| = "
          f"{np.abs(cl.J_xz @ u_y).max():.1e} at 1.0 m/s forward")

    print(f"  mechanical energy: {mechanical_energy(kc):.3f} J")
    print(f"  contact points: left {np.round(cl.p_cl, 3)}, "
          f"right {np.round(cl.p_cr, 3)}")


if __name__ == "__main__":
    main()
