"""4x4 rotation matrices: validation and two-sided quaternion composition.

A rotation here is an orthogonal 4x4 matrix with determinant +1, acting on
column vectors (w, x, y, z) of R^4. Every such matrix is the matrix of a
two-sided quaternion map P -> L*P*R, which is linear in the outer product
of L and R; the composition table ``_kernel.TABLE`` is that linear map. The
checks and the composition run in ``_kernel`` on Python floats; numpy is
imported by the functions that take or return arrays, not by importing this
module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import _kernel
from ._kernel import DEFAULT_TOLERANCES, Tolerances
from .quat import _coerce, _floats, random_unit_quaternion

if TYPE_CHECKING:
    import numpy as np


def as_mat4(A) -> np.ndarray:
    """Coerce to a float array of shape (4, 4) with finite entries."""
    return _mat4(A)[0]


def _mat4(A):
    """as_mat4, and its 16 entries as a row-major list of floats."""
    return _coerce(A, (4, 4), "matrix", "entries")


def validate_rotation(A, tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Check that A is orthogonal within ortho_tol and has det A > 0.

    The one bound tolerances.ortho_tol applies to ||A^T A - I||_F, which
    A -> QA, AQ and S^T A S for rotations Q and S keep. An orthogonal
    matrix has determinant +/-1, so properness is its sign, tested under
    every budget, and a deviation that overflows to inf fails every budget,
    ortho_tol = inf included. Returns A as an ndarray on success. Raises
    NotOrthogonalError carrying that deviation, or NotProperRotationError
    carrying the determinant and tol 0.0. A matrix that fails is rejected,
    never repaired; callers wanting a nearby rotation must build one
    themselves.
    """
    A, entries = _mat4(A)
    _kernel.validate(entries, tolerances)
    return A


def van_elfrinkhof(L, R) -> np.ndarray:
    """Matrix of P -> L*P*R for unit quaternions L and R.

    The composition table applied to vec(outer(L, R)). Every entry is
    bilinear in (L, R), hence van_elfrinkhof(-L, -R) is exactly the same
    matrix. Raises NotUnitQuaternionError for a factor off the unit sphere.
    """
    import numpy as np
    L, R = _kernel.check_unit(_floats(L)), _kernel.check_unit(_floats(R))
    return np.array(_kernel.two_sided(L, R)).reshape(4, 4)


def random_rotation(seed) -> np.ndarray:
    """Haar-uniform random rotation, deterministic for a fixed seed.

    Draws two independent uniform unit quaternions and composes them;
    uniform factors make the composition uniform on the whole group.
    Accepts an int seed or an existing numpy Generator.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    L = random_unit_quaternion(rng)
    R = random_unit_quaternion(rng)
    return van_elfrinkhof(L, R)
