"""SO(3) helpers: hat maps, exponential map, ZYX Euler angles."""

from __future__ import annotations

import numpy as np


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors (much cheaper than np.cross here)."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of broadcastable (..., 3) arrays (cheaper than np.cross)."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def hat(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that hat(w) @ v == cross(w, v)."""
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def exp_so3(w: np.ndarray) -> np.ndarray:
    """Rotation matrix exp([w]x) via Rodrigues' formula."""
    th = float(np.linalg.norm(w))
    W = hat(w)
    if th < 1e-12:
        return np.eye(3) + W + 0.5 * (W @ W)
    return np.eye(3) + (np.sin(th) / th) * W + ((1.0 - np.cos(th)) / th**2) * (W @ W)


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_zyx(R: np.ndarray) -> np.ndarray:
    """(roll, pitch, yaw) with R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    pitch = -np.arcsin(float(np.clip(R[2, 0], -1.0, 1.0)))
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return np.array([roll, pitch, yaw])


def wrap_angle(a: float | np.ndarray):
    """Wrap angle(s) to (-pi, pi]."""
    w = -((-np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi)
    return w


def project_to_so3(R: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (polar decomposition via SVD)."""
    U, _, Vt = np.linalg.svd(R)
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(U @ Vt)))])
    return U @ D @ Vt
