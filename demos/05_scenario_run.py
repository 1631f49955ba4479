"""End-to-end scenario run: disturbance rejection with metrics summary.

Loads the bundled push-recovery scenario, simulates the full control loop
(normal estimation, task-space PD + height-scheduled LQR balance, hierarchical
QP torque resolution, closed-loop physics), and prints the resulting metrics.

The command-line equivalent, which also writes log.csv / metrics.json:

    wbcsim --scenario $(python3 -c "from importlib.resources import files; \
        print(files('wbcsim') / 'data/scenarios/disturbance.scn')") \
        --out /tmp/demo_run --seed 3
"""

from importlib.resources import files

import numpy as np

from wbcsim.model import RobotModel
from wbcsim.scenario import load_scenario
from wbcsim.simulator import LOG_COLUMNS, run_scenario


def main():
    path = files("wbcsim").joinpath("data/scenarios/disturbance.scn")
    scenario = load_scenario(str(path), {})
    print(f"scenario '{scenario.name}': duration {scenario.duration} s, "
          f"{len(scenario.disturbances)} disturbance(s)")

    log, metrics = run_scenario(RobotModel(), scenario, seed=3)
    print(metrics.to_text(), end="")

    t = log[:, LOG_COLUMNS.index("t")]
    rx = log[:, LOG_COLUMNS.index("r_x")]
    i_peak = int(np.argmax(np.abs(rx)))
    print(f"peak CoM offset {rx[i_peak]:+.4f} m at t = {t[i_peak]:.2f} s, "
          f"recovered to settle band in {metrics.settle_time:.2f} s after "
          f"the push")


if __name__ == "__main__":
    main()
