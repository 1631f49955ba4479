"""SO(3) helpers: hat maps, exponential map, ZYX Euler angles, re-orthonormalization."""

from __future__ import annotations

import math

import numpy as np

THREE_I = 3.0 * np.eye(3)


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors (much cheaper than np.cross here)."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of broadcastable (..., 3) arrays (cheaper than np.cross)."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


# hat(w) is linear in w: the rows of HAT_BASIS are hat(e_x), hat(e_y), hat(e_z)
HAT_BASIS = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                      [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])


def hat(w) -> np.ndarray:
    """Skew-symmetric matrix such that hat(w) @ v == cross(w, v); of a (..., 3)
    stack of vectors, the (..., 3, 3) stack of their matrices, in one product."""
    w = np.asarray(w, dtype=float)
    return (w @ HAT_BASIS).reshape(*w.shape[:-1], 3, 3)


def exp_so3(w) -> np.ndarray:
    """Rotation matrix exp([w]x) by Rodrigues' formula, I + a W + b W^2 with
    W^2 = w w^T - |w|^2 I, on Python floats."""
    x, y, z = (float(c) for c in w)
    th2 = x * x + y * y + z * z
    th = math.sqrt(th2)
    a, b = (math.sin(th) / th, (1.0 - math.cos(th)) / th2) if th >= 1e-12 else (1.0, 0.5)
    return np.array([[1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y],
                     [b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x],
                     [b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y)]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_zyx(R: np.ndarray) -> tuple[float, float, float]:
    """(roll, pitch, yaw) with R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    (r00, _, _), (r10, _, _), (r20, r21, r22) = R.tolist()
    pitch = -math.asin(min(max(r20, -1.0), 1.0))
    return math.atan2(r21, r22), pitch, math.atan2(r10, r00)


def wrap_angle(a: float | np.ndarray):
    """Wrap angle(s) to (-pi, pi]."""
    w = -((-np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi)
    return w


def project_to_so3(R: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step to the polar factor, R (3I - R^T R) / 2 (Higham
    1986): exact to roundoff only for R within roundoff of a rotation, as a
    product of rotations is; not the nearest rotation of any other matrix."""
    return 0.5 * (R @ (THREE_I - R.T @ R))
