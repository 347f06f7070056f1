"""Quaternion arithmetic and the matrices of left/right quaternion multiplication.

Quaternions are plain numpy arrays of shape (4,) holding (w, x, y, z), the
same component order used for points of R^4, so a quaternion and the column
vector it acts on are interchangeable. Multiplication follows the Hamilton
convention ij = k; that convention is what makes ``left_matrix`` and
``right_matrix`` act as matrix-vector products.
"""

import numpy as np

from .errors import MalformedInputError, ZeroQuaternionError

# |w^2 + x^2 + y^2 + z^2 - 1| allowed for a unit quaternion
UNIT_TOL = 1e-12
# norms at or below this cannot be normalized meaningfully
DEGENERACY_TOL = 1e-150

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def as_quaternion(q) -> np.ndarray:
    """Coerce to a float array of shape (4,) with finite components."""
    try:
        q = np.asarray(q, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"quaternion is not an array of reals: {exc}") from exc
    if q.shape != (4,):
        raise MalformedInputError(f"quaternion must have shape (4,), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise MalformedInputError("quaternion components must be finite")
    return q


def check_unit(q, tol: float = UNIT_TOL) -> np.ndarray:
    """Validate that q lies on the unit 3-sphere within tol."""
    q = as_quaternion(q)
    deviation = abs(float(q @ q) - 1.0)
    if deviation > tol:
        raise ValueError(
            f"not a unit quaternion: |q|^2 deviates from 1 by {deviation:.3e}"
        )
    return q


def quat_mul(lhs, rhs) -> np.ndarray:
    """Hamilton product lhs * rhs."""
    w1, x1, y1, z1 = as_quaternion(lhs)
    w2, x2, y2, z2 = as_quaternion(rhs)
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_conjugate(q) -> np.ndarray:
    """Negate the vector part; q * conj(q) = (|q|^2, 0, 0, 0)."""
    q = as_quaternion(q)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_norm(q) -> float:
    return float(np.linalg.norm(as_quaternion(q)))


def normalize(q) -> np.ndarray:
    """Scale q to unit norm.

    Raises ZeroQuaternionError when the norm is too small to divide by.
    """
    q = as_quaternion(q)
    norm = float(np.linalg.norm(q))
    if norm <= DEGENERACY_TOL:
        raise ZeroQuaternionError(norm)
    return q / norm


def left_matrix(L) -> np.ndarray:
    """Matrix of the map P -> L*P for a unit quaternion L = (a, b, c, d).

    The result is orthogonal with determinant +1; all four diagonal
    entries equal the scalar part a. Left multiplication rotates every
    half-line from the origin through the same angle arccos(a): both the
    (w, x) and the (y, z) coordinate planes turn by +arccos(a).
    """
    a, b, c, d = check_unit(L)
    return np.array([
        [a, -b, -c, -d],
        [b,  a, -d,  c],
        [c,  d,  a, -b],
        [d, -c,  b,  a],
    ])


def right_matrix(R) -> np.ndarray:
    """Matrix of the map P -> P*R for a unit quaternion R = (p, q, r, s).

    Like ``left_matrix`` this is an isoclinic rotation through arccos(p),
    but of the opposite chirality: the (w, x) plane turns by +arccos(p)
    while the (y, z) plane turns by -arccos(p).
    """
    p, q, r, s = check_unit(R)
    return np.array([
        [p, -q, -r, -s],
        [q,  p,  s, -r],
        [r, -s,  p,  q],
        [s,  r, -q,  p],
    ])


def isoclinic_angle(q) -> float:
    """Common rotation angle of the isoclinic rotation with factor q.

    arccos of the scalar part, in [0, pi]. The argument is clamped to
    [-1, 1] so roundoff just past the ends cannot produce NaN.
    """
    w = float(check_unit(q)[0])
    return float(np.arccos(min(1.0, max(-1.0, w))))


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on the unit 3-sphere: four normal deviates, normalized."""
    return normalize(rng.standard_normal(4))
