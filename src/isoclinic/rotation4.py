"""4x4 rotation matrices: validation and two-sided quaternion composition.

A rotation here is an orthogonal 4x4 matrix with determinant +1, acting on
column vectors (w, x, y, z) of R^4. Every such matrix is the matrix of a
two-sided quaternion map P -> L*P*R, which is linear in the outer product
of L and R; ``COMPOSITION_TABLE`` is that linear map.
"""

import numpy as np

from .errors import MalformedInputError, NotOrthogonalError, NotProperRotationError
from .quat import _check_unit, as_quaternion, normalize, quat_mul

# input validation bounds, deliberately looser than internal arithmetic
# accuracy so mildly noisy external matrices are accepted
ORTHO_TOL = 1e-9
DET_TOL = 1e-9

# e_a * e_b = sum over c of _HAMILTON[a, b, c] * e_c, for the basis (1, i, j, k)
_HAMILTON = np.array([[quat_mul(a, b) for b in np.eye(4)] for a in np.eye(4)])
# B, 16x16: column 4*i + j is the row-major matrix of P -> e_i*P*e_j, whose
# column m is e_i * e_m * e_j, so the matrix of P -> L*P*R is
# B @ vec(outer(L, R)). Its entries are 0 and +/-1 and B^T B = 4I, so
# B^T / 4 inverts it.
COMPOSITION_TABLE = np.einsum("imc,cjr->rmij", _HAMILTON, _HAMILTON).reshape(16, 16)
_EYE = np.eye(4)


def as_mat4(A) -> np.ndarray:
    """Coerce to a float array of shape (4, 4) with finite entries."""
    try:
        A = np.asarray(A, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"matrix is not an array of reals: {exc}") from exc
    if A.shape != (4, 4):
        raise MalformedInputError(f"matrix must have shape (4, 4), got {A.shape}")
    if not np.isfinite(A).all():
        raise MalformedInputError("matrix entries must be finite")
    return A


def validate_rotation(A, ortho_tol: float = ORTHO_TOL,
                      det_tol: float = DET_TOL) -> np.ndarray:
    """Check that A is orthogonal with determinant +1, within tolerances.

    Returns A as an ndarray on success. Raises NotOrthogonalError carrying
    the max-abs deviation of A^T A from I, or NotProperRotationError
    carrying the determinant. A matrix that fails is rejected, never
    repaired; callers wanting a nearby rotation must build one themselves.
    """
    A = as_mat4(A)
    deviation = float(np.abs(A.T @ A - _EYE).max())
    if deviation > ortho_tol:
        raise NotOrthogonalError(deviation, ortho_tol)
    det = float(np.linalg.det(A))
    if abs(det - 1.0) > det_tol:
        raise NotProperRotationError(det, det_tol)
    return A


def van_elfrinkhof(L, R) -> np.ndarray:
    """Matrix of P -> L*P*R for unit quaternions L and R.

    One product with the composition table. Every entry is bilinear in
    (L, R), hence van_elfrinkhof(-L, -R) is exactly the same matrix.
    """
    return _two_sided(as_quaternion(L).tolist(), as_quaternion(R).tolist()).reshape(4, 4)


def _two_sided(L, R) -> np.ndarray:
    """van_elfrinkhof for lists of four floats, flattened row-major."""
    _check_unit(L)
    _check_unit(R)
    return COMPOSITION_TABLE @ [left * right for left in L for right in R]


def random_rotation(seed) -> np.ndarray:
    """Haar-uniform random rotation, deterministic for a fixed seed.

    Draws two independent uniform unit quaternions and composes them;
    uniform factors make the composition uniform on the whole group.
    Accepts an int seed or an existing numpy Generator.
    """
    rng = np.random.default_rng(seed)
    L = normalize(rng.standard_normal(4))
    R = normalize(rng.standard_normal(4))
    return van_elfrinkhof(L, R)
