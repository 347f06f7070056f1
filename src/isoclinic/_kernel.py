"""The float kernel of the matrix path: plain Python, no numpy.

A 4x4 matrix is the row-major list of its 16 entries and a quaternion the
list of its four components (w, x, y, z). Every check made on a rotation
runs here: orthogonality and determinant, the associate matrix, its norm
and 36 minors, the factor read-off with its distance, the sign, and the
classification, each against a bound of the one ``Tolerances`` object the
caller passes. The array API in ``quat``, ``rotation4``, ``associate``
and ``invariance`` coerces its input once, calls into this module and
boxes the result; the CLI calls it on the floats it parses, so a command
that never builds an array never imports numpy.
"""

from __future__ import annotations

import enum
import math
from itertools import combinations
from typing import NamedTuple

from .errors import (
    DegenerateNormError,
    NormDeviationError,
    NotOrthogonalError,
    NotProperRotationError,
    NotUnitQuaternionError,
    ReconstructionError,
    ZeroQuaternionError,
)

# |w^2 + x^2 + y^2 + z^2 - 1| allowed for a unit quaternion
UNIT_TOL = 1e-12
# norms at or below this cannot be normalized meaningfully
DEGENERACY_TOL = 1e-150
# magnitude a component of L must exceed to anchor the joint sign; a unit
# quaternion always has a component of magnitude at least 1/2
SIGN_TOL = 1e-8


class _Bounds(NamedTuple):
    ortho_tol: float
    dist_tol: float
    iso_tol: float


class Tolerances(_Bounds):
    """Acceptance bounds of every check on a rotation.

    ortho_tol     bound on max |A^T A - I| and on |det A - 1|
    dist_tol      bound on the Frobenius distance ||A - Q||_F from the
                  input to the rotation its factors generate
    iso_tol       component deviation under which a factor counts as +/-1

    dist_tol defaults to twice ortho_tol: to first order the distance of a
    matrix from SO(4) is at most twice its largest |A^T A - I| entry, so
    what validation accepts, decompose accepts under the same object.
    A bound that is NaN or negative raises ValueError naming its field:
    NaN would pass every check and a negative bound would fail an exact one.
    """

    __slots__ = ()

    def __new__(cls, ortho_tol: float = 1e-9, dist_tol: float | None = None,
                iso_tol: float = 1e-9):
        if dist_tol is None:
            dist_tol = 2 * ortho_tol
        self = super().__new__(cls, ortho_tol, dist_tol, iso_tol)
        for name, bound in zip(self._fields, self):
            if not bound >= 0:
                raise ValueError(f"{name} must be a non-negative number, got {bound!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks above
        return cls(*iterable)


DEFAULT_TOLERANCES = Tolerances()


def hamilton(p, q):
    """Hamilton product p*q, with ij = k."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return [
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ]


def conjugate(q):
    """Negate the vector part; q * conj(q) = (|q|^2, 0, 0, 0)."""
    w, x, y, z = q
    return [w, -x, -y, -z]


def _basis_product(a, b):
    """(c, sign) with e_a * e_b = sign * e_c, for the basis (1, i, j, k)."""
    e = [[float(k == n) for k in range(4)] for n in (a, b)]
    return next((c, sign) for c, sign in enumerate(hamilton(*e)) if sign)


_PRODUCT = [[_basis_product(a, b) for b in range(4)] for a in range(4)]
# The composition table B, 16x16: column 4i + j is the row-major matrix of
# P -> e_i*P*e_j, whose column m is e_i*e_m*e_j = sign * e_r, so B holds
# sign at (4r + m, 4i + j) and zeros elsewhere. The matrix of P -> L*P*R is
# B vec(outer(L, R)); every row and column of B has four nonzero entries
# and B^T B = 4I, so B^T / 4 inverts it. TABLE lists (row, column, sign).
TABLE = tuple(
    (4 * r + m, 4 * i + j, s1 * s2)
    for i in range(4) for m in range(4) for j in range(4)
    for c, s1 in [_PRODUCT[i][m]] for r, s2 in [_PRODUCT[c][j]]
)


def _terms(by, weight):
    """For each row (by=0) or column (by=1) of B, its four nonzero entries
    as index along the other side and weight * sign, flattened, by index."""
    lines = [[] for _ in range(16)]
    for entry in TABLE:
        lines[entry[by]].append((entry[1 - by], weight * entry[2]))
    return tuple(tuple(x for term in sorted(line) for x in term) for line in lines)


_ASSOCIATE = _terms(1, 0.25)
_COMPOSE = _terms(0, 1.0)

# row pairs (i, j) and column pairs (k, l) of all C(4,2)^2 = 36 2x2 minors,
# as the row-major positions of m_ik, m_jl, m_jk and m_il
_PAIRS = list(combinations(range(4), 2))
_MINORS = tuple((4 * i + k, 4 * j + l, 4 * j + k, 4 * i + l)
                for i, j in _PAIRS for k, l in _PAIRS)


# ---- quaternions -------------------------------------------------------------

def check_unit(q):
    """Raise NotUnitQuaternionError unless q lies on the unit 3-sphere within
    UNIT_TOL; returns q."""
    w, x, y, z = q
    deviation = abs(w * w + x * x + y * y + z * z - 1.0)
    if deviation > UNIT_TOL:
        raise NotUnitQuaternionError(deviation, UNIT_TOL)
    return q


def unit(q):
    """q scaled to unit norm; ZeroQuaternionError when the norm is too small."""
    norm = math.hypot(*q)
    if norm <= DEGENERACY_TOL:
        raise ZeroQuaternionError(norm, DEGENERACY_TOL)
    w, x, y, z = q
    return [w / norm, x / norm, y / norm, z / norm]


def angle(q):
    """arccos of the scalar part of the unit quaternion q, clamped to [-1, 1]
    so roundoff just past the ends cannot produce NaN."""
    return math.acos(min(1.0, max(-1.0, check_unit(q)[0])))


# ---- validation ----------------------------------------------------------------

def gram_deviation(a):
    """max |A^T A - I|.

    The four diagonal terms come first. Only a product that overflows can
    make an off-diagonal term NaN, and then a diagonal term is already
    +inf, which max() keeps against any NaN after it.
    """
    (a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a22, a23, a30, a31, a32, a33) = a
    return max(
        abs(a00 * a00 + a10 * a10 + a20 * a20 + a30 * a30 - 1.0),
        abs(a01 * a01 + a11 * a11 + a21 * a21 + a31 * a31 - 1.0),
        abs(a02 * a02 + a12 * a12 + a22 * a22 + a32 * a32 - 1.0),
        abs(a03 * a03 + a13 * a13 + a23 * a23 + a33 * a33 - 1.0),
        abs(a00 * a01 + a10 * a11 + a20 * a21 + a30 * a31),
        abs(a00 * a02 + a10 * a12 + a20 * a22 + a30 * a32),
        abs(a00 * a03 + a10 * a13 + a20 * a23 + a30 * a33),
        abs(a01 * a02 + a11 * a12 + a21 * a22 + a31 * a32),
        abs(a01 * a03 + a11 * a13 + a21 * a23 + a31 * a33),
        abs(a02 * a03 + a12 * a13 + a22 * a23 + a32 * a33),
    )


def determinant(a):
    """det A, by Laplace expansion along rows 0 and 1: each 2x2 minor of
    those rows times the complementary minor of rows 2 and 3."""
    (a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a22, a23, a30, a31, a32, a33) = a
    return ((a00 * a11 - a01 * a10) * (a22 * a33 - a23 * a32)
            - (a00 * a12 - a02 * a10) * (a21 * a33 - a23 * a31)
            + (a00 * a13 - a03 * a10) * (a21 * a32 - a22 * a31)
            + (a01 * a12 - a02 * a11) * (a20 * a33 - a23 * a30)
            - (a01 * a13 - a03 * a11) * (a20 * a32 - a22 * a30)
            + (a02 * a13 - a03 * a12) * (a20 * a31 - a21 * a30))


def validate(a, tolerances):
    """Raise NotOrthogonalError or NotProperRotationError unless A is
    orthogonal with determinant +1, both within tolerances.ortho_tol."""
    bound = tolerances.ortho_tol
    deviation = gram_deviation(a)
    if deviation > bound:
        raise NotOrthogonalError(deviation, bound)
    det = determinant(a)
    if abs(det - 1.0) > bound:
        raise NotProperRotationError(det, bound)


# ---- the associate matrix and its certificates --------------------------------

def associate(a):
    """The associate matrix B^T vec(A) / 4, row-major: each entry a signed
    quarter-sum of four entries of A, added in the order of their index
    after a leading +0.0, as numpy's product with B^T / 4 adds them."""
    return [0.0 + w0 * a[i0] + w1 * a[i1] + w2 * a[i2] + w3 * a[i3]
            for i0, w0, i1, w1, i2, w2, i3, w3 in _ASSOCIATE]


def max_minor(m):
    """Largest absolute 2x2 minor of M over all 36; an overflowed one reads inf.

    A minor whose two products both overflow is inf - inf = NaN, which no
    bound rejects and max() can skip, so any NaN makes the result inf.
    """
    minors = [abs(m[ik] * m[jl] - m[jk] * m[il]) for ik, jl, jk, il in _MINORS]
    worst = max(minors)
    return math.inf if math.isnan(sum(minors)) else worst


def canonical(L, R):
    """Negate both factors unless the first component of L above SIGN_TOL in
    magnitude is positive."""
    for component in L:
        if abs(component) > SIGN_TOL:
            if component < 0:
                return [-c for c in L], [-c for c in R]
            break
    return L, R


def nearest(m):
    """The unit pair (L, R) whose outer product is nearest to M (row-major
    m), and the distance 2 ||M - outer(L, R)||_F.

    L starts as the column of the largest entry; one alternating step,
    R = M^T L and L = M R, each normalized, moves the pair to the top
    singular pair of a nearly rank-1 M and gives outer(L, R) the sign of
    M. Each sum adds in index order after a leading 0.0, so a sum of
    negative zeros is +0.0 and the factors keep their signs of zero.
    Since B^T B = 4I the distance equals ||A - Q||_F for M = associate(a)
    and the rotation Q the pair generates: near SO(4), the distance of A
    from the group.
    """
    (m00, m01, m02, m03, m10, m11, m12, m13,
     m20, m21, m22, m23, m30, m31, m32, m33) = m
    magnitudes = list(map(abs, m))
    l0, l1, l2, l3 = unit(m[magnitudes.index(max(magnitudes)) % 4::4])
    R = r0, r1, r2, r3 = unit([0.0 + m00 * l0 + m10 * l1 + m20 * l2 + m30 * l3,
                               0.0 + m01 * l0 + m11 * l1 + m21 * l2 + m31 * l3,
                               0.0 + m02 * l0 + m12 * l1 + m22 * l2 + m32 * l3,
                               0.0 + m03 * l0 + m13 * l1 + m23 * l2 + m33 * l3])
    L = l0, l1, l2, l3 = unit([0.0 + m00 * r0 + m01 * r1 + m02 * r2 + m03 * r3,
                               0.0 + m10 * r0 + m11 * r1 + m12 * r2 + m13 * r3,
                               0.0 + m20 * r0 + m21 * r1 + m22 * r2 + m23 * r3,
                               0.0 + m30 * r0 + m31 * r1 + m32 * r2 + m33 * r3])
    return L, R, 2.0 * math.hypot(
        m00 - l0 * r0, m01 - l0 * r1, m02 - l0 * r2, m03 - l0 * r3,
        m10 - l1 * r0, m11 - l1 * r1, m12 - l1 * r2, m13 - l1 * r3,
        m20 - l2 * r0, m21 - l2 * r1, m22 - l2 * r2, m23 - l2 * r3,
        m30 - l3 * r0, m31 - l3 * r1, m32 - l3 * r2, m33 - l3 * r3)


# ---- composition and decomposition ------------------------------------------

def two_sided(L, R):
    """Row-major matrix of P -> L*P*R for unit quaternions L and R: B times
    vec(outer(L, R)). Each entry's four terms are added as a two-lane dot
    product adds them, even and odd columns apart, which is how numpy's
    product with B rounds, and a final +0.0 gives its sign of zero. Callers
    that take L and R from outside check them with check_unit first."""
    o = [left * right for left in L for right in R]
    return [s0 * o[k0] + s2 * o[k2] + (s1 * o[k1] + s3 * o[k3]) + 0.0
            for k0, s0, k1, s1, k2, s2, k3, s3 in _COMPOSE]


def decompose(a, tolerances):
    """Split the rotation with row-major entries a into its factor pair.

    Returns (L, R, distance, norm deviation) or raises the error of the
    first check that fails. |norm(M) - 1| <= ||M - outer(L, R)||_F for
    every unit pair, so a norm deviation above dist_tol / 2 already puts
    the distance above dist_tol, and it is rejected before any read-off.
    """
    m = associate(a)
    norm = math.hypot(*m)
    norm_deviation = abs(norm - 1.0)
    if norm_deviation > tolerances.dist_tol / 2:
        raise NormDeviationError(norm_deviation, tolerances.dist_tol / 2)
    if norm < 0.5:
        raise DegenerateNormError(norm, 0.5)
    L, R, distance = nearest(m)
    if distance > tolerances.dist_tol:
        raise ReconstructionError(distance, tolerances.dist_tol)
    return (*canonical(L, R), distance, norm_deviation)


# ---- classification ------------------------------------------------------------

class RotationKind(enum.Enum):
    IDENTITY = "identity"
    CENTRAL_REVERSION = "central-reversion"
    LEFT_ISOCLINIC = "left-isoclinic"
    RIGHT_ISOCLINIC = "right-isoclinic"
    GENERAL = "general"


class RotationClass(NamedTuple):
    """Kind of rotation plus the two factor angles, each in [0, pi]."""

    kind: RotationKind
    left_angle: float
    right_angle: float


def _trivial_deviation(q):
    """Distance (max-abs, best sign) of q from the identity quaternion."""
    w, x, y, z = q
    return max(min(abs(w - 1.0), abs(w + 1.0)), abs(x), abs(y), abs(z))


def classify(L, R, tolerances):
    """Classify the rotation generated by the canonical factor pair (L, R).

    A factor is trivial within tolerances.iso_tol of +/-1. Both factors
    trivial: the identity when the scalar parts agree in sign, the
    antipodal map otherwise. One trivial factor leaves a purely left- or
    right-isoclinic rotation; two nontrivial factors make the general case.
    """
    left_trivial = _trivial_deviation(L) <= tolerances.iso_tol
    right_trivial = _trivial_deviation(R) <= tolerances.iso_tol
    if left_trivial and right_trivial:
        kind = RotationKind.IDENTITY if L[0] * R[0] > 0 else RotationKind.CENTRAL_REVERSION
    elif right_trivial:
        kind = RotationKind.LEFT_ISOCLINIC
    elif left_trivial:
        kind = RotationKind.RIGHT_ISOCLINIC
    else:
        kind = RotationKind.GENERAL
    return RotationClass(kind=kind, left_angle=angle(L), right_angle=angle(R))
