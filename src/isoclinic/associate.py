"""Splitting a 4D rotation into its left- and right-isoclinic factors.

The key object is the associate matrix of a 4x4 matrix A: the coordinates
of A in the composition table of ``rotation4``, arranged on a 4x4 grid.
When A is the matrix of the two-sided quaternion map P -> L*P*R, it equals
the outer product column(L) * row(R): a rank-1 matrix of unit Frobenius
norm whose rows and columns are scalar multiples of the two factors.
``decompose`` reads off the factors and, in the same pass, one number:
the Frobenius distance from A to the rotation they generate. It accepts
exactly what ``validate_rotation`` accepts, with that distance as shortcut,
and validation rejects every matrix with no pair to read off: one whose M
has a norm at most DEGENERACY_TOL, an overflowed norm or a non-finite entry.

The factor pair is unique only up to a joint sign flip: (L, R) and
(-L, -R) produce the same rotation. ``decompose`` returns the
representative whose first left component above SIGN_TOL in magnitude is
positive; the other decomposition is always the negated pair.

Each function here coerces its input once, runs the float kernel of
``_kernel`` and boxes the result in numpy arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import _kernel, quat
from ._kernel import DEFAULT_TOLERANCES, RotationClass, RotationKind, Tolerances
from .quat import _floats
from .rotation4 import _mat4

if TYPE_CHECKING:
    import numpy as np


def associate_matrix(A) -> np.ndarray:
    """Coordinates of A in the composition table, as a 4x4 grid.

    The adjoint of ``van_elfrinkhof``'s table, divided by 4: linear in A,
    each entry a signed quarter-sum of four entries of A. For the matrix
    of P -> L*P*R the result is column(L) * row(R), to rounding.
    """
    M = _kernel.associate(_mat4(A)[1])
    return quat._array(M).reshape(4, 4)


def associate_norm(M) -> float:
    """Frobenius norm; 1, to rounding, when M comes from a rotation matrix."""
    return math.hypot(*_mat4(M)[1])


def max_abs_minor(M) -> float:
    """Largest absolute 2x2 minor over all 36; zero (to roundoff) iff rank <= 1.

    A minor whose products overflow reads inf.
    """
    return _kernel.max_minor(_mat4(M)[1])


class IsoclinicDecomposition(NamedTuple):
    """Canonical factor pair of a rotation plus its measured certificate.

    The alternate decomposition is always (-left, -right); no third pair
    exists. distance is ||A - Q||_F for the rotation Q the factors
    generate, the distance of A from SO(4) near the group and the
    certificate of decompose's shortcut; norm_deviation is |norm(M) - 1|
    for the associate matrix M, at most distance / 2 to rounding. Both are
    reported, not checked against a bound of their own. Equality and
    hashing are by identity: comparing the array fields elementwise has no
    single truth value.
    """

    left: np.ndarray
    right: np.ndarray
    distance: float
    norm_deviation: float

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def decompose(A, tolerances: Tolerances = DEFAULT_TOLERANCES) -> IsoclinicDecomposition:
    """Factor a rotation matrix into its two isoclinic unit quaternions.

    Pipeline: form the associate matrix M, then read off the factors and,
    in the same pass, the Frobenius distance d = 2 ||M - outer(L, R)||_F
    from the input to the rotation they generate. It accepts exactly what
    validate_rotation accepts under the same tolerances and otherwise raises
    what that raises: d <= 1/2 with 2d + d^2 within ortho_tol, to a rounding
    slack, proves that validation passes, and only a matrix d does not
    certify runs it. A matrix with no pair to read off, whose M has a norm
    at most DEGENERACY_TOL or an overflowed one, fails validation under
    every budget: its determinant underflows to 0 or its Gram deviation
    overflows to inf.
    """
    L, R, distance, norm_deviation = _kernel.decompose(_mat4(A)[1], tolerances)
    return IsoclinicDecomposition(quat._array(L), quat._array(R), distance, norm_deviation)


def classify_pair(L, R, tolerances: Tolerances = DEFAULT_TOLERANCES) -> RotationClass:
    """Classify the rotation generated by a canonical factor pair.

    A factor whose vector part has length at most tolerances.ortho_tol,
    the one noise budget, is trivial, so under ortho_tol = inf every factor
    is. Both factors trivial: the identity when the scalar parts agree in
    sign, the antipodal map otherwise. One trivial factor leaves a purely
    left- or right-isoclinic rotation; two nontrivial factors make the
    general case. Angles are those of the factors as given.
    """
    return _kernel.classify(_floats(L), _floats(R), tolerances)


def classify(A, tolerances: Tolerances = DEFAULT_TOLERANCES) -> RotationClass:
    """Decompose A and classify the resulting factor pair, both under tolerances."""
    L, R, *_ = _kernel.decompose(_mat4(A)[1], tolerances)
    return _kernel.classify(L, R, tolerances)
