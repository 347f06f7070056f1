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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateNormError,
    NormDeviationError,
    NotRankOneError,
    ReconstructionError,
)
from .quat import isoclinic_angle, normalize
from .rotation4 import COMPOSITION_TABLE, as_mat4, van_elfrinkhof


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
# flattened so the whole scan is four fancy-indexed reads
_PAIRS = list(combinations(range(4), 2))
_RI = np.array([i for i, _ in _PAIRS for _ in _PAIRS])
_RJ = np.array([j for _, j in _PAIRS for _ in _PAIRS])
_CK = np.array([k for _ in _PAIRS for k, _ in _PAIRS])
_CL = np.array([l for _ in _PAIRS for _, l in _PAIRS])


def associate_matrix(A) -> np.ndarray:
    """Coordinates of A in the composition table, as a 4x4 grid.

    The adjoint of ``van_elfrinkhof``'s table, divided by 4: linear in A,
    each entry a signed quarter-sum of four entries of A. For the matrix
    of P -> L*P*R the result is exactly column(L) * row(R).
    """
    return (COMPOSITION_TABLE.T @ as_mat4(A).ravel() / 4.0).reshape(4, 4)


def associate_norm(M) -> float:
    """Frobenius norm; exactly 1 when M comes from a rotation matrix."""
    return float(np.linalg.norm(as_mat4(M)))


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
    M = as_mat4(M)
    minors = M[_RI, _CK] * M[_RJ, _CL] - M[_RJ, _CK] * M[_RI, _CL]
    return float(np.max(np.abs(minors)))


def canonical_pair(L, R, sign_tol: float = DEFAULT_TOLERANCES.sign_tol):
    """Resolve the joint sign: first left component above sign_tol is positive.

    Scans L as (w, x, y, z); if the anchoring component is negative, both
    quaternions are negated. A unit quaternion always has a component of
    magnitude at least 1/2, so an anchor exists for any sane sign_tol.
    """
    L = np.asarray(L, dtype=float)
    R = np.asarray(R, dtype=float)
    for component in L:
        if abs(component) > sign_tol:
            if component < 0:
                return -L, -R
            break
    return L, R


def _read_off(M, norm, tolerances):
    """Check that M (of Frobenius norm norm) is rank 1 and split it.

    L starts as the column of the largest entry; one alternating step,
    R = M^T L and L = M R, each normalized, moves the pair towards the
    best rank-1 fit of a nearly rank-1 M and gives outer(L, R) the sign
    of M, so no sign has to be matched afterwards.
    Returns the canonical (L, R) and the largest absolute minor.
    """
    if norm < 0.5:
        raise DegenerateNormError(norm)
    worst_minor = max_abs_minor(M)
    if worst_minor > tolerances.minor_tol:
        raise NotRankOneError(worst_minor, tolerances.minor_tol)
    pivot_column = int(np.argmax(np.abs(M))) % 4
    R = normalize(M.T @ normalize(M[:, pivot_column]))
    L = normalize(M @ R)
    residual = float(np.max(np.abs(M - np.outer(L, R))))
    if residual > tolerances.factor_tol:
        raise NotRankOneError(residual, tolerances.factor_tol)
    L, R = canonical_pair(L, R, tolerances.sign_tol)
    return L, R, worst_minor


def rank1_factor(M, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Split a unit-norm rank-1 matrix into its canonical unit factor pair.

    Returns (L, R) with outer(L, R) matching M entrywise within
    factor_tol. Raises DegenerateNormError when the norm is too small to
    carry a factorization and NotRankOneError when the minors, or the
    final refit residual, show M is not (unit-scale) rank 1.
    """
    M = as_mat4(M)
    L, R, _ = _read_off(M, float(np.linalg.norm(M)), tolerances)
    return L, R


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
    A = as_mat4(A)
    M = associate_matrix(A)
    norm = float(np.linalg.norm(M))
    norm_deviation = abs(norm - 1.0)
    if norm_deviation > tolerances.norm_tol:
        raise NormDeviationError(norm_deviation, tolerances.norm_tol)
    L, R, worst_minor = _read_off(M, norm, tolerances)
    reconstruction_residual = float(np.max(np.abs(A - van_elfrinkhof(L, R))))
    if reconstruction_residual > tolerances.recon_tol:
        raise ReconstructionError(reconstruction_residual, tolerances.recon_tol)
    return IsoclinicDecomposition(
        left=L,
        right=R,
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
    e = np.array([1.0, 0.0, 0.0, 0.0])
    return min(float(np.max(np.abs(q - e))), float(np.max(np.abs(q + e))))


def classify_pair(L, R, iso_tol: float = DEFAULT_TOLERANCES.iso_tol) -> RotationClass:
    """Classify the rotation generated by a canonical factor pair.

    Both factors trivial: the identity when the scalar parts agree in
    sign, the antipodal map otherwise. One trivial factor leaves a purely
    left- or right-isoclinic rotation; two nontrivial factors make the
    general case. Angles are those of the factors as given.
    """
    L = np.asarray(L, dtype=float)
    R = np.asarray(R, dtype=float)
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
        left_angle=isoclinic_angle(L),
        right_angle=isoclinic_angle(R),
    )


def classify(A, iso_tol: float | None = None,
             tolerances: Tolerances = DEFAULT_TOLERANCES) -> RotationClass:
    """Decompose A and classify the resulting factor pair."""
    if iso_tol is None:
        iso_tol = tolerances.iso_tol
    decomposition = decompose(A, tolerances)
    return classify_pair(decomposition.left, decomposition.right, iso_tol)
