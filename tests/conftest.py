import numpy as np
import pytest

from wbcsim.model import MinimalState, RobotDescription, RobotModel
from wbcsim.rotations import exp_so3


@pytest.fixture(scope="session")
def model():
    return RobotModel(RobotDescription.default())


def random_minimal_state(rng: np.random.Generator, with_velocity: bool = True) -> MinimalState:
    """Random non-singular configuration with modest base tilt."""
    pos = rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, 0.5])
    rot = exp_so3(rng.uniform(-0.4, 0.4, 3))
    hips = rng.uniform(-0.8, 1.2, 2)
    knees = rng.uniform(-2.2, -0.3, 2)
    wheels = rng.uniform(-3.0, 3.0, 2)
    qj = np.array([hips[0], knees[0], wheels[0], hips[1], knees[1], wheels[1]])
    vel = rng.uniform(-1.0, 1.0, 12) if with_velocity else np.zeros(12)
    return MinimalState(pos=pos, rot=rot, qj=qj, vel=vel)


def random_normal(rng: np.random.Generator) -> np.ndarray:
    """Random upward unit normal, tilted up to about 35 degrees."""
    v = np.array([*rng.uniform(-0.5, 0.5, 2), 1.0])
    return v / np.linalg.norm(v)


def tilted_robot(rng):
    """The default robot with every joint axis tilted off +y to a random unit vector."""
    desc = RobotDescription.default()
    for joint in desc.joints:
        a = joint.axis + rng.uniform(-0.5, 0.5, 3)
        joint.axis = a / np.linalg.norm(a)
    return RobotDescription(bodies=desc.bodies, joints=desc.joints,
                            wheel_radius=desc.wheel_radius,
                            torque_limit=desc.torque_limit)
