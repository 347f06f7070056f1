"""Splitting a 4D rotation into its left- and right-isoclinic factors.

The key object is the associate matrix of a 4x4 matrix A: the coordinates
of A in the composition table of ``rotation4``, arranged on a 4x4 grid.
When A is the matrix of the two-sided quaternion map P -> L*P*R, it equals
the outer product column(L) * row(R): a rank-1 matrix of unit Frobenius
norm whose rows and columns are scalar multiples of the two factors.
``decompose`` reads the factors off and measures one number, the
Frobenius distance from A to the rotation they rebuild, so any matrix
that is not close to a 4D rotation is rejected instead of producing garbage.

The factor pair is unique only up to a joint sign flip: (L, R) and
(-L, -R) produce the same rotation. ``canonical_pair`` picks the
representative whose first significantly nonzero left component is
positive; the other decomposition is always the negated pair.

Each function here coerces its input once, runs the float kernel of
``_kernel`` and boxes the result in numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import TYPE_CHECKING

from . import _kernel
from ._kernel import RotationClass, RotationKind
from .errors import DegenerateNormError, NotRankOneError
from .quat import _floats
from .rotation4 import ORTHO_TOL, _mat4

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Acceptance thresholds for the decomposition pipeline.

    sign_tol      magnitude a component must exceed to anchor the sign
    iso_tol       component deviation under which a factor counts as +/-1
    dist_tol      bound on the Frobenius distance ||A - Q||_F from the
                  input to the rotation rebuilt from its factors

    The default dist_tol is twice validation's ORTHO_TOL: to first order
    the distance of a matrix from SO(4) is at most twice its largest
    |A^T A - I| entry, so what validation accepts, decompose accepts.
    """

    sign_tol: float = 1e-8
    iso_tol: float = 1e-9
    dist_tol: float = 2 * ORTHO_TOL


DEFAULT_TOLERANCES = Tolerances()


def associate_matrix(A) -> np.ndarray:
    """Coordinates of A in the composition table, as a 4x4 grid.

    The adjoint of ``van_elfrinkhof``'s table, divided by 4: linear in A,
    each entry a signed quarter-sum of four entries of A. For the matrix
    of P -> L*P*R the result is exactly column(L) * row(R).
    """
    import numpy as np
    return np.array(_kernel.associate(_mat4(A)[1])).reshape(4, 4)


def associate_norm(M) -> float:
    """Frobenius norm; exactly 1 when M comes from a rotation matrix."""
    return math.hypot(*_mat4(M)[1])


def minor_2x2(M, i: int, j: int, k: int, l: int) -> float:
    """2x2 minor on rows i < j and columns k < l: m_ik*m_jl - m_jk*m_il."""
    import numpy as np
    for name, idx in (("i", i), ("j", j), ("k", k), ("l", l)):
        if not isinstance(idx, (int, np.integer)) or not 0 <= idx <= 3:
            raise IndexError(f"index {name}={idx!r} not in 0..3")
    if not (i < j and k < l):
        raise IndexError(f"need i<j and k<l, got rows ({i},{j}) cols ({k},{l})")
    m = _mat4(M)[1]
    return m[4 * i + k] * m[4 * j + l] - m[4 * j + k] * m[4 * i + l]


def max_abs_minor(M) -> float:
    """Largest absolute 2x2 minor over all 36; zero (to roundoff) iff rank <= 1.

    A minor whose products overflow reads inf.
    """
    return _kernel.max_minor(_mat4(M)[1])


def canonical_pair(L, R, sign_tol: float = DEFAULT_TOLERANCES.sign_tol):
    """Resolve the joint sign: first left component above sign_tol is positive.

    Scans L as (w, x, y, z); if the anchoring component is negative, both
    quaternions are negated. A unit quaternion always has a component of
    magnitude at least 1/2, so an anchor exists for any sane sign_tol.
    """
    import numpy as np
    L, R = _kernel.canonical(np.asarray(L, dtype=float).tolist(),
                             np.asarray(R, dtype=float).tolist(), sign_tol)
    return np.array(L), np.array(R)


def rank1_factor(M, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Split a unit-norm rank-1 matrix into its canonical unit factor pair.

    Returns (L, R) with outer(L, R) matching M entrywise within
    dist_tol / 2. Raises DegenerateNormError when the norm is too small to
    carry a factorization and NotRankOneError when the minors, or the
    final refit residual, exceed dist_tol / 2 and so show M is not
    (unit-scale) rank 1.
    """
    import numpy as np
    m = _mat4(M)[1]
    norm = math.hypot(*m)
    if norm < 0.5:
        raise DegenerateNormError(norm)
    bound = tolerances.dist_tol / 2
    worst_minor = _kernel.max_minor(m)
    if worst_minor > bound:
        raise NotRankOneError(worst_minor, bound)
    L, R = _kernel.canonical(*_kernel.read_off(m), tolerances.sign_tol)
    residual = max(map(abs, map(sub, m, [left * right for left in L for right in R])))
    if residual > bound:
        raise NotRankOneError(residual, bound)
    return np.array(L), np.array(R)


@dataclass(frozen=True, eq=False)
class IsoclinicDecomposition:
    """Canonical factor pair of a rotation plus its measured certificate.

    The alternate decomposition is always (-left, -right); no third pair
    exists. distance is ||A - Q||_F for the rotation Q rebuilt from the
    factors, the distance of A from SO(4) near the group; norm_deviation
    is |norm(M) - 1| of the associate matrix, at most distance / 2.
    """

    left: np.ndarray
    right: np.ndarray
    distance: float
    norm_deviation: float


def decompose(A, tolerances: Tolerances = DEFAULT_TOLERANCES) -> IsoclinicDecomposition:
    """Factor a rotation matrix into its two isoclinic unit quaternions.

    Pipeline: form the associate matrix, read off the factors, rebuild
    and measure the Frobenius distance to the input. A distance above
    dist_tol raises ReconstructionError carrying it; a norm deviation
    above dist_tol / 2, which bounds the distance from below, raises
    NormDeviationError before the read-off. Orthogonal matrices of
    determinant -1 keep unit norm but lie at distance 2.
    """
    import numpy as np
    L, R, distance, norm_deviation = _kernel.decompose(_mat4(A)[1], tolerances)
    return IsoclinicDecomposition(
        left=np.array(L),
        right=np.array(R),
        distance=distance,
        norm_deviation=norm_deviation,
    )


def classify_pair(L, R, iso_tol: float = DEFAULT_TOLERANCES.iso_tol) -> RotationClass:
    """Classify the rotation generated by a canonical factor pair.

    Both factors trivial: the identity when the scalar parts agree in
    sign, the antipodal map otherwise. One trivial factor leaves a purely
    left- or right-isoclinic rotation; two nontrivial factors make the
    general case. Angles are those of the factors as given.
    """
    return _kernel.classify(_floats(L), _floats(R), iso_tol)


def classify(A, iso_tol: float | None = None,
             tolerances: Tolerances = DEFAULT_TOLERANCES) -> RotationClass:
    """Decompose A and classify the resulting factor pair."""
    if iso_tol is None:
        iso_tol = tolerances.iso_tol
    L, R, *_ = _kernel.decompose(_mat4(A)[1], tolerances)
    return _kernel.classify(L, R, iso_tol)
