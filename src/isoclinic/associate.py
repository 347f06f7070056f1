"""Splitting a 4D rotation into its left- and right-isoclinic factors.

The key object is the associate matrix of a 4x4 matrix A: the coordinates
of A in the composition table of ``rotation4``, arranged on a 4x4 grid.
When A is the matrix of the two-sided quaternion map P -> L*P*R, it equals
the outer product column(L) * row(R): a rank-1 matrix of unit Frobenius
norm whose rows and columns are scalar multiples of the two factors.
``decompose`` checks those two properties, reads the factors off, and
verifies the reconstruction, so any matrix that is not close to a 4D
rotation is rejected by one of the checks instead of producing garbage.

The factor pair is unique only up to a joint sign flip: (L, R) and
(-L, -R) produce the same rotation. ``canonical_pair`` picks the
representative whose first significantly nonzero left component is
positive; the other decomposition is always the negated pair.
"""

import enum
import math
from dataclasses import dataclass
from itertools import combinations
from operator import mul, sub

import numpy as np

from .errors import (
    DegenerateNormError,
    NormDeviationError,
    NotRankOneError,
    ReconstructionError,
)
from .quat import _angle, _unit, as_quaternion
from .rotation4 import COMPOSITION_TABLE, _two_sided, as_mat4


@dataclass(frozen=True)
class Tolerances:
    """Acceptance thresholds for the decomposition pipeline.

    norm_tol      bound on |Frobenius norm - 1| of the associate matrix
    minor_tol     bound on the largest absolute 2x2 minor
    factor_tol    bound on the max-abs residual of the rank-1 refit
    recon_tol     bound on the max-abs residual of the rebuilt rotation
    sign_tol      magnitude a component must exceed to anchor the sign
    iso_tol       component deviation under which a factor counts as +/-1
    """

    norm_tol: float = 1e-10
    minor_tol: float = 1e-10
    factor_tol: float = 1e-10
    recon_tol: float = 1e-9
    sign_tol: float = 1e-8
    iso_tol: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()

# row pairs (i, j) and column pairs (k, l) of all C(4,2)^2 = 36 2x2 minors,
# as the row-major positions of m_ik, m_jl, m_jk and m_il
_PAIRS = list(combinations(range(4), 2))
_MINORS = tuple((4 * i + k, 4 * j + l, 4 * j + k, 4 * i + l)
                for i, j in _PAIRS for k, l in _PAIRS)
# the adjoint of the composition table over 4, which inverts it
_ASSOC = COMPOSITION_TABLE.T / 4.0


def associate_matrix(A) -> np.ndarray:
    """Coordinates of A in the composition table, as a 4x4 grid.

    The adjoint of ``van_elfrinkhof``'s table, divided by 4: linear in A,
    each entry a signed quarter-sum of four entries of A. For the matrix
    of P -> L*P*R the result is exactly column(L) * row(R).
    """
    return (_ASSOC @ as_mat4(A).ravel()).reshape(4, 4)


def associate_norm(M) -> float:
    """Frobenius norm; exactly 1 when M comes from a rotation matrix."""
    return math.hypot(*as_mat4(M).ravel().tolist())


def minor_2x2(M, i: int, j: int, k: int, l: int) -> float:
    """2x2 minor on rows i < j and columns k < l: m_ik*m_jl - m_jk*m_il."""
    for name, idx in (("i", i), ("j", j), ("k", k), ("l", l)):
        if not isinstance(idx, (int, np.integer)) or not 0 <= idx <= 3:
            raise IndexError(f"index {name}={idx!r} not in 0..3")
    if not (i < j and k < l):
        raise IndexError(f"need i<j and k<l, got rows ({i},{j}) cols ({k},{l})")
    M = as_mat4(M)
    return float(M[i, k] * M[j, l] - M[j, k] * M[i, l])


def max_abs_minor(M) -> float:
    """Largest absolute 2x2 minor over all 36; zero (to roundoff) iff rank <= 1."""
    return _max_minor(as_mat4(M).ravel().tolist())


def _max_minor(m) -> float:
    """max_abs_minor for the 16 entries of M as a row-major list of floats."""
    return max([abs(m[ik] * m[jl] - m[jk] * m[il]) for ik, jl, jk, il in _MINORS])


def canonical_pair(L, R, sign_tol: float = DEFAULT_TOLERANCES.sign_tol):
    """Resolve the joint sign: first left component above sign_tol is positive.

    Scans L as (w, x, y, z); if the anchoring component is negative, both
    quaternions are negated. A unit quaternion always has a component of
    magnitude at least 1/2, so an anchor exists for any sane sign_tol.
    """
    L, R = _canonical(np.asarray(L, dtype=float).tolist(),
                      np.asarray(R, dtype=float).tolist(), sign_tol)
    return np.array(L), np.array(R)


def _canonical(L, R, sign_tol):
    """canonical_pair for lists of four floats."""
    anchor = next((component for component in L if abs(component) > sign_tol), 0.0)
    return ([-c for c in L], [-c for c in R]) if anchor < 0 else (L, R)


def _read_off(m, norm, tolerances):
    """Check that M (row-major list m, Frobenius norm norm) is rank 1 and split it.

    L starts as the column of the largest entry; one alternating step,
    R = M^T L and L = M R, each normalized, moves the pair towards the
    best rank-1 fit of a nearly rank-1 M and gives outer(L, R) the sign
    of M, so no sign has to be matched afterwards.
    Returns the canonical (L, R) as lists and the largest absolute minor.
    """
    if norm < 0.5:
        raise DegenerateNormError(norm)
    worst_minor = _max_minor(m)
    if worst_minor > tolerances.minor_tol:
        raise NotRankOneError(worst_minor, tolerances.minor_tol)
    magnitudes = list(map(abs, m))
    pivot_column = magnitudes.index(max(magnitudes)) % 4
    L = _unit(m[pivot_column::4])
    R = _unit([sum(map(mul, m[column::4], L)) for column in range(4)])
    L = _unit([sum(map(mul, m[row:row + 4], R)) for row in range(0, 16, 4)])
    residual = max(map(abs, map(sub, m, [left * right for left in L for right in R])))
    if residual > tolerances.factor_tol:
        raise NotRankOneError(residual, tolerances.factor_tol)
    L, R = _canonical(L, R, tolerances.sign_tol)
    return L, R, worst_minor


def rank1_factor(M, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Split a unit-norm rank-1 matrix into its canonical unit factor pair.

    Returns (L, R) with outer(L, R) matching M entrywise within
    factor_tol. Raises DegenerateNormError when the norm is too small to
    carry a factorization and NotRankOneError when the minors, or the
    final refit residual, show M is not (unit-scale) rank 1.
    """
    m = as_mat4(M).ravel().tolist()
    L, R, _ = _read_off(m, math.hypot(*m), tolerances)
    return np.array(L), np.array(R)


@dataclass(frozen=True, eq=False)
class IsoclinicDecomposition:
    """Canonical factor pair of a rotation plus the measured residuals.

    The alternate decomposition is always (-left, -right); no third pair
    exists. reconstruction_residual is the max-abs difference between the
    input and the rotation rebuilt from the factors.
    """

    left: np.ndarray
    right: np.ndarray
    reconstruction_residual: float
    norm_deviation: float
    max_minor: float


def decompose(A, tolerances: Tolerances = DEFAULT_TOLERANCES) -> IsoclinicDecomposition:
    """Factor a rotation matrix into its two isoclinic unit quaternions.

    Pipeline: form the associate matrix, check unit norm, check all 36
    minors, read off the factors, rebuild and compare. Each check raises
    its own error carrying the measured value, so inputs far from a 4D
    rotation fail loudly; in particular orthogonal matrices of
    determinant -1 pass the norm check but are caught by the minors.
    """
    a = as_mat4(A).ravel()
    m = (_ASSOC @ a).tolist()
    norm = math.hypot(*m)
    norm_deviation = abs(norm - 1.0)
    if norm_deviation > tolerances.norm_tol:
        raise NormDeviationError(norm_deviation, tolerances.norm_tol)
    L, R, worst_minor = _read_off(m, norm, tolerances)
    reconstruction_residual = float(np.abs(a - _two_sided(L, R)).max())
    if reconstruction_residual > tolerances.recon_tol:
        raise ReconstructionError(reconstruction_residual, tolerances.recon_tol)
    return IsoclinicDecomposition(
        left=np.array(L),
        right=np.array(R),
        reconstruction_residual=reconstruction_residual,
        norm_deviation=norm_deviation,
        max_minor=worst_minor,
    )


class RotationKind(enum.Enum):
    IDENTITY = "identity"
    CENTRAL_REVERSION = "central-reversion"
    LEFT_ISOCLINIC = "left-isoclinic"
    RIGHT_ISOCLINIC = "right-isoclinic"
    GENERAL = "general"


@dataclass(frozen=True)
class RotationClass:
    """Kind of rotation plus the two factor angles, each in [0, pi]."""

    kind: RotationKind
    left_angle: float
    right_angle: float


def _trivial_deviation(q) -> float:
    """Distance (max-abs, best sign) of q from the identity quaternion."""
    w, x, y, z = q
    return max(min(abs(w - 1.0), abs(w + 1.0)), abs(x), abs(y), abs(z))


def classify_pair(L, R, iso_tol: float = DEFAULT_TOLERANCES.iso_tol) -> RotationClass:
    """Classify the rotation generated by a canonical factor pair.

    Both factors trivial: the identity when the scalar parts agree in
    sign, the antipodal map otherwise. One trivial factor leaves a purely
    left- or right-isoclinic rotation; two nontrivial factors make the
    general case. Angles are those of the factors as given.
    """
    L = as_quaternion(L).tolist()
    R = as_quaternion(R).tolist()
    left_trivial = _trivial_deviation(L) <= iso_tol
    right_trivial = _trivial_deviation(R) <= iso_tol
    if left_trivial and right_trivial:
        kind = RotationKind.IDENTITY if L[0] * R[0] > 0 else RotationKind.CENTRAL_REVERSION
    elif right_trivial:
        kind = RotationKind.LEFT_ISOCLINIC
    elif left_trivial:
        kind = RotationKind.RIGHT_ISOCLINIC
    else:
        kind = RotationKind.GENERAL
    return RotationClass(
        kind=kind,
        left_angle=_angle(L),
        right_angle=_angle(R),
    )


def classify(A, iso_tol: float | None = None,
             tolerances: Tolerances = DEFAULT_TOLERANCES) -> RotationClass:
    """Decompose A and classify the resulting factor pair."""
    if iso_tol is None:
        iso_tol = tolerances.iso_tol
    decomposition = decompose(A, tolerances)
    return classify_pair(decomposition.left, decomposition.right, iso_tol)
