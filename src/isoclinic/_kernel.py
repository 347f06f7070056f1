"""The float kernel of the matrix path: plain Python, no numpy.

A 4x4 matrix is the row-major list of its 16 entries and a quaternion the
list of its four components (w, x, y, z). Every check made on a rotation
runs here: orthogonality and the determinant's sign, the associate matrix
and its norm, the factor read-off with its distance, the sign, and the
classification, each against a bound of the one ``Tolerances`` object the
caller passes. The array API in ``quat``, ``rotation4``, ``associate``
and ``invariance`` coerces its input once, calls into this module and
boxes the result; the CLI calls it on the floats it parses, so a command
that never builds an array never imports numpy.

``associate``, ``decompose`` and ``two_sided`` are not written here: they
are the composition table ``TABLE`` as straight-line arithmetic, whose
source (``_SOURCES``) is generated when the module is imported, the sign
rule spliced into ``decompose``, and each is compiled into this namespace
the first time it is read.
"""

from __future__ import annotations

import enum
import math
from itertools import combinations
from math import acos, hypot, inf
from typing import NamedTuple

from .errors import (
    NotOrthogonalError,
    NotProperRotationError,
    NotUnitQuaternionError,
    ZeroQuaternionError,
)

# |w^2 + x^2 + y^2 + z^2 - 1| allowed for a unit quaternion
UNIT_TOL = 1e-12
# norms at or below this cannot be normalized meaningfully
DEGENERACY_TOL = 1e-150
# magnitude a component of L must exceed to anchor the joint sign; a unit
# quaternion always has a component of magnitude at least 1/2
SIGN_TOL = 1e-8
# Rounding slack of decompose's shortcut. A = Q + E, Q the rotation of the
# unit factors and ||E||_F = d, gives ||A^T A - I||_F = ||Q^T E + E^T Q +
# E^T E||_F <= 2d + d^2, and d <= 1/2 keeps det A >= 1/16, far above its
# rounding. In floats (u = 2^-53; n rounded terms sum to within n u times
# their magnitudes: Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., ch. 3) a computed d <= 1/2 is within 31 u of ||E||_F: 15 u from
# M's sums of quarters (3 u ||A||_F, doubled), 12 u from the factors' norms
# (3 u each, doubled), 4 u from the products, differences and hypot. So the
# exact Gram deviation is within 2d + d^2 + 93 u, the computed one 29 u more
# (16 sums of four products, in norm within 4 u ||A||_F^2 <= 4 u (2 + 1/2)^2
# = 25 u; the -1s and the hypot, below 2, 2 u each), and the test's roundings
# cost 4 u: 126 u, within a power of two.
SHORTCUT_SLACK = 2.0 ** -46


class _Bounds(NamedTuple):
    ortho_tol: float


class Tolerances(_Bounds):
    """The one noise budget, ortho_tol.

    ortho_tol   bound on ||A^T A - I||_F, the one bound of validation, whose
                properness test is det A > 0 under any budget; a deviation
                that overflows to inf fails every budget, inf included;
                decompose accepts what validation accepts; a factor whose
                vector part is at most ortho_tol long is trivial (every
                factor is under inf), and the factor angles may drift by it
                under a frame change, which moves neither norm
    Tolerances(a, b) raises TypeError. A NaN or negative bound raises
    ValueError: NaN would reject every matrix, the identity included, and
    call every factor nontrivial; a negative one would fail an exact one.
    """

    __slots__ = ()

    def __new__(cls, ortho_tol: float = 1e-9):
        if not ortho_tol >= 0:
            raise ValueError(f"ortho_tol must be a non-negative number, got {ortho_tol!r}")
        return super().__new__(cls, ortho_tol)

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


# row pairs (i, j) and column pairs (k, l) of all C(4,2)^2 = 36 2x2 minors,
# as the row-major positions of m_ik, m_jl, m_jk and m_il
_PAIRS = list(combinations(range(4), 2))
_MINORS = tuple((4 * i + k, 4 * j + l, 4 * j + k, 4 * i + l)
                for i, j in _PAIRS for k, l in _PAIRS)


# ---- quaternions -------------------------------------------------------------

def unit(q):
    """q scaled to unit norm; ZeroQuaternionError when the norm is too small.

    Finite components whose norm overflows are first divided by the largest
    of them, which brings the norm into [1, 2]; dividing by an infinite norm
    would give the zero quaternion.
    """
    norm = math.hypot(*q)
    if norm <= DEGENERACY_TOL:
        raise ZeroQuaternionError(norm, DEGENERACY_TOL)
    if norm == math.inf:
        top = max(map(abs, q))
        q = [c / top for c in q]
        norm = math.hypot(*q)
    w, x, y, z = q
    return [w / norm, x / norm, y / norm, z / norm]


def check_unit(q):
    """Raise NotUnitQuaternionError unless q lies on the unit 3-sphere within
    UNIT_TOL; returns q."""
    q0, q1, q2, q3 = q
    e = abs(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 - 1.0)
    if not e <= UNIT_TOL:
        raise NotUnitQuaternionError(e, UNIT_TOL)
    return q


def _arccos(c):
    """arccos of c clamped to [-1, 1], so roundoff just past the ends cannot
    produce NaN; the clamp is written as comparisons, a NaN going to -1."""
    return acos(c if -1.0 <= c <= 1.0 else 1.0 if c > 1.0 else -1.0)


def angle(q):
    """arccos of the scalar part of the unit quaternion q, in [0, pi];
    NotUnitQuaternionError for q off the unit 3-sphere."""
    return _arccos(check_unit(q)[0])


# ---- validation ----------------------------------------------------------------

def gram_deviation(a):
    """||A^T A - I||_F, NaN when an entry is NaN: one hypot of the four
    diagonal terms and the six off-diagonal ones, each of those twice. A
    product that overflows makes the diagonal term of a column +inf, and
    hypot returns inf for an inf term even beside a NaN one."""
    (a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a22, a23, a30, a31, a32, a33) = a
    g01 = a00 * a01 + a10 * a11 + a20 * a21 + a30 * a31
    g02 = a00 * a02 + a10 * a12 + a20 * a22 + a30 * a32
    g03 = a00 * a03 + a10 * a13 + a20 * a23 + a30 * a33
    g12 = a01 * a02 + a11 * a12 + a21 * a22 + a31 * a32
    g13 = a01 * a03 + a11 * a13 + a21 * a23 + a31 * a33
    g23 = a02 * a03 + a12 * a13 + a22 * a23 + a32 * a33
    return hypot(a00 * a00 + a10 * a10 + a20 * a20 + a30 * a30 - 1.0,
                 a01 * a01 + a11 * a11 + a21 * a21 + a31 * a31 - 1.0,
                 a02 * a02 + a12 * a12 + a22 * a22 + a32 * a32 - 1.0,
                 a03 * a03 + a13 * a13 + a23 * a23 + a33 * a33 - 1.0,
                 g01, g01, g02, g02, g03, g03, g12, g12, g13, g13, g23, g23)


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
    """(||A^T A - I||_F, det A) when A is orthogonal within
    tolerances.ortho_tol and det A > 0; NotOrthogonalError or
    NotProperRotationError otherwise. The budget bounds the Gram deviation
    alone: an orthogonal matrix has determinant +/-1, so properness is the
    determinant's sign, under every budget. A deviation that overflows to
    inf fails every budget, ortho_tol = inf included."""
    bound = tolerances.ortho_tol
    deviation = gram_deviation(a)
    if not deviation <= bound or deviation == inf:
        raise NotOrthogonalError(deviation, bound)
    det = determinant(a)
    if not det > 0.0:
        raise NotProperRotationError(det, 0.0)
    return deviation, det


# ---- the associate matrix and its certificates --------------------------------

def max_minor(m):
    """Largest absolute 2x2 minor of M over all 36; an overflowed one reads inf.

    A minor whose two products both overflow is inf - inf = NaN, which no
    bound rejects and max() can skip, so any NaN makes the result inf.
    """
    minors = [abs(m[ik] * m[jl] - m[jk] * m[il]) for ik, jl, jk, il in _MINORS]
    worst = max(minors)
    return math.inf if math.isnan(sum(minors)) else worst


# ---- classification ------------------------------------------------------------

class RotationKind(enum.Enum):
    IDENTITY = "identity"
    CENTRAL_REVERSION = "central-reversion"
    LEFT_ISOCLINIC = "left-isoclinic"
    RIGHT_ISOCLINIC = "right-isoclinic"
    GENERAL = "general"


# the kinds as plain globals for classify: on Python 3.11 reading a member
# off the enum class costs a descriptor call
_IDENTITY, _CENTRAL_REVERSION, _LEFT_ISOCLINIC, _RIGHT_ISOCLINIC, _GENERAL = RotationKind


class RotationClass(NamedTuple):
    """Kind of rotation plus the two factor angles, each in [0, pi]."""

    kind: RotationKind
    left_angle: float
    right_angle: float


def classify(L, R, tolerances):
    """Classify the rotation generated by the canonical factor pair (L, R).

    A factor whose vector part has length at most tolerances.ortho_tol
    is trivial, so under ortho_tol = inf every factor is. Conjugation by a
    unit quaternion keeps that length, so a change of frame keeps the
    verdict. Both factors trivial: the identity when the scalar parts agree
    in sign, the antipodal map otherwise. One trivial factor leaves a purely
    left- or right-isoclinic rotation; two nontrivial factors make the
    general case.
    """
    l0, l1, l2, l3 = check_unit(L)
    r0, r1, r2, r3 = check_unit(R)
    iso = tolerances.ortho_tol
    left_trivial = hypot(l1, l2, l3) <= iso
    right_trivial = hypot(r1, r2, r3) <= iso
    if left_trivial and right_trivial:
        kind = _IDENTITY if l0 * r0 > 0 else _CENTRAL_REVERSION
    elif right_trivial:
        kind = _LEFT_ISOCLINIC
    elif left_trivial:
        kind = _RIGHT_ISOCLINIC
    else:
        kind = _GENERAL
    return RotationClass(kind, _arccos(l0), _arccos(r0))


# ---- the straight-line kernel, generated at import ---------------------------
#
# associate, decompose and two_sided are fixed sequences of float
# operations. Their source is written out below from TABLE at import, and
# each runs on unpacked locals: no index tuple is read at run time and no
# list is built between the associate matrix and the read-off. Each entry of
# A is quartered once, and each entry of M sums four of those quarters, since
# a sum of quarters of four finite floats cannot overflow where a quarter of
# their sum can. The sign rule is written out once, on named locals, and
# spliced into decompose, whose shortcut reads `not measured <= bound`, so a
# NaN measure fails it.

def _by(side):
    """Each row (side=0) or column (side=1) of B as the (index along the
    other side, sign) pairs of its four nonzero entries, by index."""
    lines = [[] for _ in range(16)]
    for entry in TABLE:
        lines[entry[side]].append((entry[1 - side], entry[2]))
    return [sorted(line) for line in lines]


def _lane(first, second):
    """'o_i +/- o_j' for two (index, sign) terms, o_i negated if its sign is
    -1: one lane of a two_sided entry."""
    (k0, s0), (k1, s1) = first, second
    return f"{'-' * (s0 < 0)}o{k0} {'-+'[s1 > 0]} o{k1}"


def _unit(q):
    """Source that scales the locals q0..q3 to unit norm, as unit() does
    short of its checks, which no norm of the read-off can fail."""
    names = f"{q}0, {q}1, {q}2, {q}3"
    return f"""
    n = hypot({names})
    {names} = {q}0 / n, {q}1 / n, {q}2 / n, {q}3 / n"""


def _negative(k=0):
    """Source of the test that the first of the locals lk..l3 above SIGN_TOL in
    magnitude is negative: lk < -SIGN_TOL says yes and lk > SIGN_TOL no;
    anything else, a component within SIGN_TOL of zero, passes to the next."""
    if k == 3:
        return "l3 < -SIGN_TOL"
    return f"l{k} < -SIGN_TOL or not l{k} > SIGN_TOL and ({_negative(k + 1)})"


# the sign rule on the locals l0..l3, r0..r3: negate both factors unless the
# first component of L above SIGN_TOL in magnitude is positive
_SIGN = f"""
    if {_negative()}:
        l0, l1, l2, l3 = -l0, -l1, -l2, -l3
        r0, r1, r2, r3 = -r0, -r1, -r2, -r3"""
_L = "l0, l1, l2, l3"
_R = "r0, r1, r2, r3"
_M = ", ".join(f"m{k}" for k in range(16))
# the entries m0..m15 of M = B^T vec(A) / 4, row-major, from a0..a15: the
# quarters q0..q15 of the entries, then for each entry of M a signed sum of
# four of them added in index order after a leading 0.0, as numpy's product
# with B^T / 4 adds it; q_k is the product 0.25 * a_k that product forms, and
# subtracting a term rounds as adding its negation does
_ASSOCIATE = "\n    " + ", ".join(f"a{k}" for k in range(16)) + " = a" + "".join(
    f"\n    q{k} = 0.25 * a{k}" for k in range(16)) + "".join(
    f"\n    m{c} = 0.0" + "".join(f" {'-+'[s > 0]} q{k}" for k, s in terms)
    for c, terms in enumerate(_by(1)))
# the read-off from m0..m15 to the unit pair l0..l3, r0..r3 and the distance
# d = 2 ||M - outer(L, R)||_F. L starts as column j of the first entry of
# largest magnitude in row-major order, found by a scan that keeps the
# largest |m_k| so far in b and moves only on a strictly larger one, so a
# later entry that ties it is passed over, as max() passes it over; the norm
# check has already rejected an M with an inf or NaN entry. One alternating
# step, R = M^T L and L = M R, each normalized, moves the pair to the top
# singular pair of a nearly rank-1 M and gives outer(L, R) the sign of M.
# Each norm divided by is at least norm(M)/4, to rounding: column j holds an
# entry that large, (M^T L)_j is its norm and L^T M R the norm of M^T L.
# Each sum adds in index order after a leading 0.0, so a sum of negative
# zeros is +0.0 and the factors keep their signs of zero.
_READ_OFF = (
    "\n    b = abs(m0)\n    j = 0" + "".join(
        f"\n    x = abs(m{k})\n    if x > b:\n        b, j = x, {k % 4}" for k in range(1, 16))
    + "\n    l0, l1, l2, l3 = " + " else ".join(
        f"(m{j}, m{j + 4}, m{j + 8}, m{j + 12}) if j == {j}" for j in range(3))
    + " else (m3, m7, m11, m15)" + _unit("l")
    + "".join(f"\n    r{j} = 0.0" + "".join(f" + m{4 * i + j} * l{i}" for i in range(4))
              for j in range(4)) + _unit("r")
    + "".join(f"\n    l{i} = 0.0" + "".join(f" + m{4 * i + j} * r{j}" for j in range(4))
              for i in range(4)) + _unit("l")
    + "\n    d = 2.0 * hypot("
    + ", ".join(f"m{4 * i + j} - l{i} * r{j}" for i in range(4) for j in range(4)) + ")")

_SOURCES = {
    "associate": f'''
def associate(a):
    """The associate matrix B^T vec(A) / 4 of the row-major entries a, as
    a row-major list."""{_ASSOCIATE}
    return [{_M}]
''',
    "decompose": f'''
def decompose(a, tolerances):
    """Split the rotation with row-major entries a into its factor pair.

    Returns (L, R, distance d, |norm(M) - 1|) for what validate accepts and
    raises what it raises otherwise: d <= 1/2 with 2d + d^2 + SHORTCUT_SLACK
    within ortho_tol proves that validate accepts, and only a matrix that
    misses it runs validate. Outside the read-off's domain, norm(M) above
    DEGENERACY_TOL and below 2^513, validate rejects A under every budget,
    so the read-off never divides by a zero or overflowed norm.
    """{_ASSOCIATE}
    norm = hypot({_M})
    # norm(M) = ||A||_F / 2. At most DEGENERACY_TOL, every entry is below
    # about 4e-150, so each product of four entries in the determinant
    # underflows to 0 and det A > 0 fails. From 2^513 up, inf included,
    # ||A||_F^2 is at least 2^1028, so some column's squared norm, at least
    # 2^1026, overflows, and the Gram deviation reads inf. An inf or NaN
    # entry makes that deviation inf or NaN. Each fails validation, so
    # validate raises here.
    if not DEGENERACY_TOL < norm < 2.0 ** 513:
        validate(a, tolerances){_READ_OFF}
    if not (d <= 0.5 and 2.0 * d + d * d + SHORTCUT_SLACK <= tolerances.ortho_tol):
        validate(a, tolerances){_SIGN}
    return [{_L}], [{_R}], d, abs(norm - 1.0)
''',
    "two_sided": '''
def two_sided(L, R):
    """Row-major matrix of P -> L*P*R for unit quaternions L and R: B times
    vec(outer(L, R)). Each entry's four terms are added as a two-lane dot
    product adds them, even and odd columns apart, which is how numpy's
    product with B rounds, and a final +0.0 gives its sign of zero. Callers
    that take L and R from outside check them with check_unit first."""
    l0, l1, l2, l3 = L
    r0, r1, r2, r3 = R'''
    + "".join(f"\n    o{4 * p + q} = l{p} * r{q}" for p in range(4) for q in range(4))
    + "\n    return [" + ",\n            ".join(
        f"{_lane(t0, t2)} + ({_lane(t1, t3)}) + 0.0" for t0, t1, t2, t3 in _by(0)) + "]\n",
}


def __getattr__(name):
    # a generated function is compiled when it is first read, so a process
    # compiles only the ones it calls; its name is an ordinary global after
    # that, which is also why no function of this module calls one by name
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    exec(compile(_SOURCES[name], "<isoclinic._kernel: generated>", "exec"),
         globals())
    return globals()[name]
