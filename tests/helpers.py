"""Helpers that only the tests use: finite-difference state moves, rotations
about +y, the SVD rotation projection and the matrix-form exponential map,
coordinate and pose views of a state, the task pass at given normals, a
state's contact record, ballistic accelerations, point-cloud files, the
normal estimator's oracles (eigenvalue entropy, a brute-force entropy scan
over k and a fixed-k PCA normal), an equilibrium residual and an LQR solve
counter."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from wbcsim.dynamics import GRAVITY, closed_loop_dynamics
from wbcsim.model import (BODY_NAMES, INDEP_JOINTS, MinimalState, RobotModel, SpanningTreeState,
                          selection_matrix)
from wbcsim.rotations import exp_so3, hat
from wbcsim.simulator import contact_dynamics
from wbcsim.task_control import GainScheduler, LqrDesign
from wbcsim.terrain_estimation import PointCloud

EZ = np.array([0.0, 0.0, 1.0])


def perturbed(y: MinimalState, direction: np.ndarray, eps: float) -> MinimalState:
    """State moved along tangent direction (a u_y-like 12-vector) by eps."""
    d = np.asarray(direction, dtype=float)
    return MinimalState(
        pos=y.pos + eps * d[0:3],
        rot=exp_so3(eps * d[3:6]) @ y.rot,
        qj=y.qj + eps * d[6:12],
        vel=y.vel.copy(),
    )


def log_so3(R: np.ndarray) -> np.ndarray:
    """Rotation vector of R (inverse of exp_so3), valid away from angle pi."""
    c = 0.5 * (np.trace(R) - 1.0)
    c = float(np.clip(c, -1.0, 1.0))
    th = np.arccos(c)
    if th < 1e-10:
        A = 0.5 * (R - R.T)
        return np.array([A[2, 1], A[0, 2], A[1, 0]])
    A = (th / (2.0 * np.sin(th))) * (R - R.T)
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def rot_y(a: float) -> np.ndarray:
    """Rotation by a about +y."""
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def svd_project_to_so3(R: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix of any R, the polar factor by SVD."""
    U, _, Vt = np.linalg.svd(R)
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(U @ Vt)))])
    return U @ D @ Vt


def exp_so3_matrix(w: np.ndarray) -> np.ndarray:
    """exp([w]x) by Rodrigues' formula on the hat matrix W: I + a W + b W @ W."""
    th = float(np.linalg.norm(w))
    W = hat(w)
    if th < 1e-12:
        return np.eye(3) + W + 0.5 * (W @ W)
    return np.eye(3) + (np.sin(th) / th) * W + ((1.0 - np.cos(th)) / th**2) * (W @ W)


def extract_independent(q: SpanningTreeState) -> MinimalState:
    """The independent coordinates of a tree state (inverse of expand_coordinates)."""
    return MinimalState(
        pos=q.pos.copy(),
        rot=q.rot.copy(),
        qj=q.qj[INDEP_JOINTS].copy(),
        vel=q.vel[[0, 1, 2, 3, 4, 5, 6, 10, 9, 11, 15, 14]].copy(),
    )


def task_rows(model: RobotModel, kc, n_l: np.ndarray, n_r: np.ndarray):
    """The task pass of the state in kc at the contact points of the given
    normals, taken from their closed-loop dynamics as a control cycle does."""
    cl = closed_loop_dynamics(model, kc, n_l, n_r)
    return model.task_jacobians(kc, cl.p_cl, cl.p_cr)


def contact(model: RobotModel, y: MinimalState, terrain):
    """The plant's contact record at y, the one step and forward_dynamics take."""
    return contact_dynamics(model, model.kinematics(y), terrain)


def loop_jacobian(model: RobotModel) -> np.ndarray:
    """G = d(gamma)/dy; constant for the parallelogram closure."""
    return model.G.copy()


def forward_kinematics(model: RobotModel, y: MinimalState) -> dict:
    """World poses of all 11 bodies plus both wheel centers."""
    kc = model.kinematics(y)
    poses = {name: (kc.R[i].copy(), kc.o[i].copy()) for i, name in enumerate(BODY_NAMES)}
    wl, wr = kc.wheel_centers()
    return {"poses": poses, "wheel_center_l": wl, "wheel_center_r": wr}


def forward_dynamics_free(model: RobotModel, y: MinimalState,
                          tau_a: np.ndarray) -> np.ndarray:
    """Contact-free accelerations (for ballistic checks)."""
    cl = closed_loop_dynamics(model, model.kinematics(y), EZ, EZ)
    rhs = cl.G.T @ (selection_matrix().T @ np.asarray(tau_a, float)) - cl.C_y
    return np.linalg.solve(cl.H_y, rhs)


def balance_constraints_residual(F_NC: np.ndarray, r_com: np.ndarray,
                                 mass: float) -> np.ndarray:
    """Sagittal equilibrium residuals (vertical force, CoM moment); zero at balance."""
    F_x, F_z = float(F_NC[0]), float(F_NC[1])
    r_x, r_z = float(r_com[0]), float(r_com[1])
    return np.array([mass * GRAVITY + F_z, -r_z * F_x + r_x * F_z])


class CountingGainScheduler(GainScheduler):
    """GainScheduler that counts its LQR solves in solve_count."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.solve_count = 0

    def gain(self, r_z: float) -> LqrDesign:
        before = self.design
        design = super().gain(r_z)
        self.solve_count += design is not before
        return design


def cloud_from_xyz_file(path: str) -> PointCloud:
    """ASCII ingestion: one 'x y z' triple per line, meters."""
    return PointCloud(points=np.loadtxt(path, dtype=float).reshape(-1, 3))


def cloud_to_xyz_file(cloud: PointCloud, path: str) -> None:
    np.savetxt(path, cloud.points, fmt="%.9g")


def nearest_points(cloud: PointCloud, query: np.ndarray, k: int) -> np.ndarray:
    """The k points nearest the query, nearest first, by SciPy's k-d tree."""
    return cloud.points[np.atleast_1d(cKDTree(cloud.points).query(query, k=k)[1])]


def eigenvalue_entropy(pts: np.ndarray) -> float:
    """Shannon entropy of the normalized eigenvalues of the points'
    covariance; 0*ln(0) taken as 0."""
    lam = np.maximum(np.linalg.eigvalsh(np.cov(pts.T, bias=True)), 0.0)
    if lam.sum() <= 0.0:
        return 0.0
    eta = lam[lam > 0.0] / lam.sum()
    return float(-(eta * np.log(eta)).sum())


def brute_force_k(cloud: PointCloud, query: np.ndarray, k_min: int, k_max: int) -> int:
    """The k in [k_min, min(k_max, len(cloud))] of least eigenvalue entropy,
    one covariance per k, ties toward smaller k."""
    nb = nearest_points(cloud, query, min(k_max, len(cloud)))
    return k_min + int(np.argmin([eigenvalue_entropy(nb[:k]) for k in range(k_min, len(nb) + 1)]))


def pca_normal(cloud: PointCloud, query: np.ndarray, k: int) -> np.ndarray:
    """Eigenvector of the least eigenvalue of the k nearest neighbors'
    covariance, oriented upward (+z, then +x when horizontal)."""
    n = np.linalg.eigh(np.cov(nearest_points(cloud, query, k).T, bias=True))[1][:, 0]
    return -n if n[2] < 0.0 or (n[2] == 0.0 and n[0] < 0.0) else n
