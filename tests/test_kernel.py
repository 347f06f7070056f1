"""The float kernel against numpy, the independent oracles and the loop
reference its generated straight-line code replaces."""

import hashlib
import inspect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoclinic import (
    IsoclinicError,
    NotOrthogonalError,
    NotProperRotationError,
    NotUnitQuaternionError,
    RotationClass,
    RotationKind,
    Tolerances,
    _kernel,
    left_matrix,
    random_rotation,
    right_matrix,
)
from isoclinic._kernel import SHORTCUT_SLACK, SIGN_TOL, TABLE, UNIT_TOL
from oracles import associate_reference, bilinear_composition, exact_det, random_improper

EPS = np.finfo(float).eps
seeds = st.integers(0, 2**32 - 1)
IDENTITY16 = [float(k % 5 == 0) for k in range(16)]


def matrix(seed, family, exponent):
    """A rotation, an orthogonal matrix of determinant -1, or a rotation
    plus Gaussian noise of scale 10**exponent."""
    rng = np.random.default_rng(seed)
    if family == "det -1":
        return random_improper(rng)
    A = random_rotation(rng)
    if family == "noisy":
        A = A + 10.0 ** exponent * rng.standard_normal((4, 4))
    return A


families = st.builds(matrix, seeds, st.sampled_from(["rotation", "det -1", "noisy"]),
                     st.integers(-16, -3))


@settings(deadline=None, max_examples=300)
@given(families)
def test_kernel_checks_match_numpy(A):
    """The Gram deviation, ||A^T A - I||_F, agrees with numpy's to 2 eps.
    The determinant is within 2 eps of the exact one; numpy's det, sign *
    exp(sum log|u_ii|) of an LU factorization, is itself up to 2.3 eps off
    it, so the two floats can differ by 3 eps and are held to 4 eps. The
    associate matrix agrees with the written-out formula to one ulp of 1."""
    a = A.ravel().tolist()
    gram = float(np.linalg.norm(A.T @ A - np.eye(4)))
    assert abs(_kernel.gram_deviation(a) - gram) <= 2 * EPS
    det = _kernel.determinant(a)
    assert abs(Fraction(det) - exact_det(A)) <= 2 * EPS
    assert abs(det - float(np.linalg.det(A))) <= 4 * EPS
    reference = associate_reference(A).ravel()
    assert np.abs(np.array(_kernel.associate(a)) - reference).max() <= EPS


scaled = st.builds(lambda seed, scale: scale * random_rotation(seed), seeds,
                   st.floats(0.1, 10.0))


@settings(deadline=None, max_examples=300)
@given(families | scaled)
def test_associate_distance_is_the_frobenius_distance(A):
    """The distance read off M, 2 ||M - outer(L, R)||_F, is ||A - Q||_F for
    the rotation Q the read-off's factors generate, built by the oracle's
    bilinear formula: from the loop reference and from the read-off that
    decompose runs, for a matrix of determinant -1 or a scaled one too,
    since every such matrix has a readable norm."""
    a = A.ravel().tolist()
    bound = 8 * EPS * max(1.0, float(np.linalg.norm(A)))
    L, R, distance, _ = nearest_loop(associate_loop(a))
    assert abs(distance - np.linalg.norm(A - bilinear_composition(L, R))) <= bound
    assert _kernel.DEGENERACY_TOL < math.hypot(*_kernel.associate(a)) < math.inf
    L, R, distance = read_off(a)
    assert abs(distance - np.linalg.norm(A - bilinear_composition(L, R))) <= bound


# ---- the loop reference ------------------------------------------------------
# associate, two_sided and decompose as loops that read TABLE's index and sign
# tuples at run time, with M built as a list and unpacked by the read-off;
# the sign rule as a loop over L, and classify through one function per
# measure. The kernel must agree with them bit for bit.

def _terms(by, weight):
    """For each row (by=0) or column (by=1) of B, its four nonzero entries
    as index along the other side and weight * sign, flattened, by index."""
    lines = [[] for _ in range(16)]
    for entry in TABLE:
        lines[entry[by]].append((entry[1 - by], weight * entry[2]))
    return tuple(tuple(x for term in sorted(line) for x in term) for line in lines)


_ASSOCIATE = _terms(1, 0.25)
_COMPOSE = _terms(0, 1.0)


def associate_loop(a):
    return [0.0 + w0 * a[i0] + w1 * a[i1] + w2 * a[i2] + w3 * a[i3]
            for i0, w0, i1, w1, i2, w2, i3, w3 in _ASSOCIATE]


def with_associate(m):
    """The matrix whose associate matrix is the row-major m, B vec(M)."""
    return [s0 * m[k0] + s2 * m[k2] + (s1 * m[k1] + s3 * m[k3]) + 0.0
            for k0, s0, k1, s1, k2, s2, k3, s3 in _COMPOSE]


def two_sided_loop(L, R):
    return with_associate([left * right for left in L for right in R])


def unit_loop(q, norms):
    """q over its norm, as the generated read-off scales a factor, with no
    check: unlike _kernel.unit it neither rejects a small norm nor rescales
    a finite q whose norm overflows. The norm is appended to norms."""
    norms.append(math.hypot(*q))
    return [component / norms[-1] for component in q]


def nearest_loop(m):
    """(L, R, distance, the three norms the read-off divides by)."""
    (m00, m01, m02, m03, m10, m11, m12, m13,
     m20, m21, m22, m23, m30, m31, m32, m33) = m
    magnitudes = list(map(abs, m))
    norms = []
    l0, l1, l2, l3 = unit_loop(m[magnitudes.index(max(magnitudes)) % 4::4], norms)
    R = r0, r1, r2, r3 = unit_loop([0.0 + m00 * l0 + m10 * l1 + m20 * l2 + m30 * l3,
                                    0.0 + m01 * l0 + m11 * l1 + m21 * l2 + m31 * l3,
                                    0.0 + m02 * l0 + m12 * l1 + m22 * l2 + m32 * l3,
                                    0.0 + m03 * l0 + m13 * l1 + m23 * l2 + m33 * l3], norms)
    L = l0, l1, l2, l3 = unit_loop([0.0 + m00 * r0 + m01 * r1 + m02 * r2 + m03 * r3,
                                    0.0 + m10 * r0 + m11 * r1 + m12 * r2 + m13 * r3,
                                    0.0 + m20 * r0 + m21 * r1 + m22 * r2 + m23 * r3,
                                    0.0 + m30 * r0 + m31 * r1 + m32 * r2 + m33 * r3], norms)
    return L, R, 2.0 * math.hypot(
        m00 - l0 * r0, m01 - l0 * r1, m02 - l0 * r2, m03 - l0 * r3,
        m10 - l1 * r0, m11 - l1 * r1, m12 - l1 * r2, m13 - l1 * r3,
        m20 - l2 * r0, m21 - l2 * r1, m22 - l2 * r2, m23 - l2 * r3,
        m30 - l3 * r0, m31 - l3 * r1, m32 - l3 * r2, m33 - l3 * r3), norms


def compiled(text, name):
    """The function name defined by the source text, compiled into a fresh
    copy of the kernel's namespace."""
    namespace = dict(vars(_kernel))
    exec(compile(text, "<test>", "exec"), namespace)
    return namespace[name]


# the sign rule, compiled on its own from the fragment spliced into decompose
CANONICAL = f"""
def canonical(L, R):
    l0, l1, l2, l3 = L
    r0, r1, r2, r3 = R{_kernel._SIGN}
    return [l0, l1, l2, l3], [r0, r1, r2, r3]
"""
canonical = compiled(CANONICAL, "canonical")
# the associate matrix and the read-off, compiled on their own from the
# fragments spliced into decompose: the factors, before the sign rule, and
# the distance of any matrix whose associate norm is readable, unchecked
read_off = compiled(f"""
def read_off(a):{_kernel._ASSOCIATE}{_kernel._READ_OFF}
    return [l0, l1, l2, l3], [r0, r1, r2, r3], d
""", "read_off")


def canonical_loop(L, R):
    for component in L:
        if abs(component) > SIGN_TOL:
            if component < 0:
                return [-c for c in L], [-c for c in R]
            break
    return L, R


def decompose_loop(a, tolerances):
    """The one rule stated without the shortcut: validation decides every
    matrix, and rejects every one outside the read-off's domain."""
    _kernel.validate(a, tolerances)
    m = associate_loop(a)
    norm = math.hypot(*m)
    L, R, distance, _ = nearest_loop(m)
    return (*canonical_loop(L, R), distance, abs(norm - 1.0))


def check_unit_loop(q):
    w, x, y, z = q
    deviation = abs(w * w + x * x + y * y + z * z - 1.0)
    if not deviation <= UNIT_TOL:
        raise NotUnitQuaternionError(deviation, UNIT_TOL)
    return q


def angle_loop(q):
    return math.acos(min(1.0, max(-1.0, check_unit_loop(q)[0])))


def vector_length_loop(q):
    return math.hypot(*q[1:])


def classify_loop(L, R, tolerances):
    left_trivial = vector_length_loop(L) <= tolerances.ortho_tol
    right_trivial = vector_length_loop(R) <= tolerances.ortho_tol
    if left_trivial and right_trivial:
        kind = RotationKind.IDENTITY if L[0] * R[0] > 0 else RotationKind.CENTRAL_REVERSION
    elif right_trivial:
        kind = RotationKind.LEFT_ISOCLINIC
    elif left_trivial:
        kind = RotationKind.RIGHT_ISOCLINIC
    else:
        kind = RotationKind.GENERAL
    return RotationClass(kind, angle_loop(L), angle_loop(R))


def _hex(value):
    """value with every float spelled by float.hex and a kind by its value,
    each container as its type and its items."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, RotationKind):
        return value.value
    return type(value), [_hex(item) for item in value]


def outcome(function, *args):
    """What function returns, bit for bit, or the type, measured value and
    bound of the rejection it raises."""
    try:
        return _hex(function(*args))
    except IsoclinicError as exc:
        return type(exc).__name__, float.hex(exc.measured), float.hex(exc.tol)


def signed_permutation(order, signs, zeros):
    """A signed permutation matrix whose zero entries carry the signs in zeros."""
    a = [-0.0 if negative else 0.0 for negative in zeros]
    for row, column in enumerate(order):
        a[4 * row + column] = -1.0 if signs[row] else 1.0
    return a


rotations = st.builds(random_rotation, seeds)
bit_inputs = st.one_of(
    families.map(lambda A: A.ravel().tolist()),
    st.builds(lambda A, scale: (scale * A).ravel().tolist(), rotations | st.just(np.eye(4)),
              st.sampled_from([0.9, 1.5]) | st.floats(1e306, 1.7976931348623157e308)
              | st.floats(2.0 ** 512, 2.0 ** 515)
              | st.floats(5e-324, 1e-300) | st.builds(lambda k: 10.0 ** k, st.integers(-323, 308))),
    st.lists(st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
                              5e-324, -5e-324, 1.0, -1.0, 0.0, -0.0]), min_size=16, max_size=16),
    st.builds(lambda a, k, bad: a[:k] + [bad] + a[k + 1:], families.map(lambda A: A.ravel().tolist()),
              st.integers(0, 15), st.sampled_from([math.nan, math.inf, -math.inf])),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=16, max_size=16),
    st.builds(signed_permutation, st.permutations(range(4)),
              st.lists(st.booleans(), min_size=4, max_size=4),
              st.lists(st.booleans(), min_size=16, max_size=16)),
)
tolerance_sets = st.sampled_from([Tolerances(), Tolerances(ortho_tol=math.inf),
                                  Tolerances(ortho_tol=1e-6), Tolerances(ortho_tol=0.0)])
quaternions = st.lists(st.floats(allow_nan=False, width=64) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       min_size=4, max_size=4)


# inputs whose M ties in its largest magnitude, so that the read-off's
# start column rests on the first-maximum rule: the rotation of L = R =
# (1/2, -1/2, 1/2, -1/2), all 16 |m| = 1/4 with mixed signs; a Hadamard
# reflection, all 16 |m| = 1/4 and m0 = -1/4, where the start column moves
# the factors; and diag(-1, -1, -1, 1), |m| = 1/2 first as -1/2 at m0 and
# later as +1/2 at m5
TIED_ROTATION = bilinear_composition([0.5, -0.5, 0.5, -0.5], [0.5, -0.5, 0.5, -0.5]).ravel().tolist()
TIED_REFLECTION = [0.5, 0.5, 0.5, 0.5, 0.5, -0.5, 0.5, -0.5,
                   0.5, 0.5, -0.5, -0.5, -0.5, 0.5, 0.5, -0.5]
NEGATIVE_FIRST = [-1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0,
                  0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
# a Haar rotation scaled to the largest float: norm(M) is the largest float
# too, so the read-off's step would round a norm up to inf and divide by it
NEAR_OVERFLOW = (1.7976931348623157e308 * random_rotation(0)).ravel().tolist()
# decompose's guard: from this associate norm up, validate rejects A under
# every budget, so the read-off runs only below it
NORM_CEILING = 2.0 ** 513


@settings(deadline=None, max_examples=600)
@given(bit_inputs, tolerance_sets)
@example(TIED_ROTATION, Tolerances())
@example(TIED_REFLECTION, Tolerances(ortho_tol=math.inf))
@example(NEGATIVE_FIRST, Tolerances(ortho_tol=math.inf))
@example(NEAR_OVERFLOW, Tolerances())
def test_generated_kernel_matches_the_loop_reference(a, tolerances):
    """associate and decompose give the loop reference's floats
    bit for bit, signs of zero included, or raise its error type with its
    measured value and bound; two_sided does the same on the factors read
    off any matrix whose norm is in decompose's domain."""
    assert outcome(_kernel.associate, a) == outcome(associate_loop, a)
    result = outcome(_kernel.decompose, a, tolerances)
    assert result == outcome(decompose_loop, a, tolerances)
    if not _kernel.DEGENERACY_TOL < math.hypot(*_kernel.associate(a)) < NORM_CEILING:
        return
    L, R, _ = read_off(a)
    assert outcome(_kernel.two_sided, L, R) == outcome(two_sided_loop, L, R)


@settings(deadline=None, max_examples=600)
@given(quaternions, quaternions)
def test_generated_two_sided_matches_the_loop_reference(L, R):
    """two_sided gives the loop reference's floats bit for bit on any pair,
    unit or not, signed zeros and overflow to inf or NaN included."""
    assert outcome(_kernel.two_sided, L, R) == outcome(two_sided_loop, L, R)


def low_rank(seed, rank):
    """A sum of rank outer products of Gaussian vectors: rank 0 to 4."""
    rng = np.random.default_rng(seed)
    return sum((np.outer(*rng.standard_normal((2, 4))) for _ in range(rank)),
               np.zeros((4, 4))).ravel().tolist()


# matrices of every rank and of scattered magnitudes, far from the group,
# each scaled by 10**k from just above DEGENERACY_TOL to near the float range
readable_bases = st.one_of(
    st.lists(st.just(0.0) | st.just(-0.0) | st.floats(-1e3, 1e3), min_size=16, max_size=16),
    st.builds(low_rank, seeds, st.integers(0, 4)),
    st.lists(st.sampled_from([1.0, -1.0]), min_size=16, max_size=16),
    st.builds(lambda seed: np.random.default_rng(seed).standard_cauchy(16).tolist(), seeds),
    st.sampled_from([TIED_ROTATION, TIED_REFLECTION]),
)


@settings(deadline=None, max_examples=600)
@given(readable_bases, st.integers(-149, 300))
def test_every_readable_norm_reads_off_unit_factors(base, k):
    """The read-off decompose runs returns factors of unit norm to 4 eps
    for any M whose norm is in decompose's domain, above DEGENERACY_TOL and
    below 2^513, the matrix orthogonal or not, of any determinant: it needs
    no norm floor. Each of the three norms it divides by is at least
    norm(M)/8. Under ortho_tol = inf decompose rejects any other matrix,
    with validation's error."""
    a = [x * 10.0 ** k for x in base]
    norm = math.hypot(*_kernel.associate(a))
    if not _kernel.DEGENERACY_TOL < norm < NORM_CEILING:
        with pytest.raises((NotOrthogonalError, NotProperRotationError)):
            _kernel.decompose(a, Tolerances(ortho_tol=math.inf))
        return
    L, R, _ = read_off(a)
    assert abs(math.hypot(*L) - 1.0) <= 4 * EPS and abs(math.hypot(*R) - 1.0) <= 4 * EPS
    assert min(nearest_loop(associate_loop(a))[3]) >= norm / 8


# a Haar rotation with one entry +inf: its Gram deviation is inf and its
# determinant +inf, so a bound on the deviation alone passes it under
# ortho_tol = inf, and its associate norm overflows
HAAR_WITH_INF = random_rotation(0).ravel().tolist()
HAAR_WITH_INF[2] = math.inf


@settings(deadline=None, max_examples=600)
@given(bit_inputs, st.sampled_from([0.0, 1e-9, 5.0, 1e300, math.inf]))
@example([0.0] * 16, math.inf)
@example([1e-200 * x for x in IDENTITY16], math.inf)
@example([1.4e308 * x for x in (1, -1, 0, 0, 1, 1, 0, 0, 0, 0, 1, -1, 0, 0, 1, 1)], math.inf)
@example([1e308 * x for x in IDENTITY16], math.inf)
@example([1e308] * 16, math.inf)
@example(HAAR_WITH_INF, math.inf)
@example(NEAR_OVERFLOW, math.inf)
@example([2.0 ** 514 * x for x in random_rotation(0).ravel().tolist()], math.inf)
def test_validation_rejects_outside_the_read_off_domain(a, ortho_tol):
    """Whenever the associate norm lies outside (DEGENERACY_TOL, 2^513),
    validate rejects A under every budget, an infinite one included, and
    decompose raises the same error with the same measured value and
    bound: it never returns, and never divides by a zero or overflowed
    norm. At most DEGENERACY_TOL, the determinant underflows to 0; from
    2^513 up, some column's squared norm overflows and the Gram deviation
    reads inf; an inf or NaN entry makes it inf or NaN."""
    if _kernel.DEGENERACY_TOL < math.hypot(*_kernel.associate(a)) < NORM_CEILING:
        return
    tolerances = Tolerances(ortho_tol=ortho_tol)
    expected = outcome(_kernel.validate, a, tolerances)
    assert decision(expected) != "accepted"
    assert outcome(_kernel.decompose, a, tolerances) == expected


# each mutant of decompose's guard of the read-off's domain, the guard
# deleted included, a ceiling of inf, which passes a norm near the float
# range to the read-off, and a floor of 0.0, which passes a subnormal M
GUARD = "    if not DEGENERACY_TOL < norm < 2.0 ** 513:\n        validate(a, tolerances)\n"
GUARD_MUTANTS = [
    ("norm < 2.0 ** 513", "norm < inf"),
    ("norm < 2.0 ** 513", "norm <= inf"),
    ("if not DEGENERACY_TOL", "if DEGENERACY_TOL"),
    (GUARD, ""),
    ("DEGENERACY_TOL <", "0.0 <"),
]
# outcome-equivalent: an M of norm exactly DEGENERACY_TOL reads off at a
# distance of about 2, past the shortcut, and one of norm exactly 2^513 at a
# distance past it too, so validation decides each whichever side of the
# guard it falls on
EQUIVALENT_GUARD_MUTANTS = [
    ("DEGENERACY_TOL <", "DEGENERACY_TOL <="),
    ("norm < 2.0 ** 513", "norm <= 2.0 ** 513"),
]
# each mutant of validate's clause that an overflowed Gram deviation fails
# every budget
OVERFLOW_MUTANTS = [
    ("deviation == inf", "deviation != inf"),
    (" or deviation", " and deviation"),
    (" or deviation == inf", ""),
]
# each single-operator mutant of the shortcut that loosens it, and the zero
# slack and a slack of one eps, each accepting some matrix validation rejects
SHORTCUT = "if not (d <= 0.5 and 2.0 * d + d * d + SHORTCUT_SLACK <= tolerances.ortho_tol):"
SHORTCUT_MUTANTS = [
    (" and 2.0", " or 2.0"),
    ("if not (d", "if (d"),
    ("+ SHORTCUT_SLACK", "- SHORTCUT_SLACK"),
    ("2.0 * d", "1.0 * d"),
    ("SHORTCUT_SLACK <=", "0.0 <="),
    ("SHORTCUT_SLACK <=", "2.0 ** -52 <="),
]
# the mutants that tighten it, outcome-equivalent: whatever the shortcut
# lets through runs validation, which decides as the shortcut would
TIGHTENING_MUTANTS = [
    ("d <= 0.5", "d < 0.5"),
    ("SHORTCUT_SLACK <= tolerances", "SHORTCUT_SLACK < tolerances"),
]


# each single-operator mutant of validate's two checks
VALIDATE_MUTANTS = [
    ("deviation <= bound", "deviation < bound"),
    ("if not deviation", "if deviation"),
    ("det > 0.0", "det >= 0.0"),
    ("if not det", "if det"),
]


def decision(result):
    """An outcome's rejection, or "accepted" for a returned value."""
    return result if isinstance(result[0], str) else "accepted"


def outcome_of_any(function, *args):
    """outcome(), with any other exception reported by its type."""
    try:
        return outcome(function, *args)
    except Exception as exc:  # a mutant may divide by zero
        return type(exc).__name__


def mutants_outcomes(source, name, mutants, pool):
    """The outcomes on pool of source, checked against the module's own
    function, and of each mutant of it, one replacement of (old, new) each."""
    def outcomes(text):
        function = compiled(text, name)
        return [outcome_of_any(function, *args) for args in pool]

    expected = outcomes(source)
    assert expected == [outcome(getattr(_kernel, name), *args) for args in pool]
    for old, new in mutants:
        assert source.count(old) == 1, old
    return expected, [outcomes(source.replace(old, new)) for old, new in mutants]


def assert_mutants_killed(source, name, mutants, pool):
    """Each mutant of source gives an outcome other than source's on some
    input of pool."""
    expected, mutated = mutants_outcomes(source, name, mutants, pool)
    for (_, new), outcomes in zip(mutants, mutated):
        assert outcomes != expected, new


def test_every_mutant_of_the_checks_is_killed():
    """The generated decompose raises nothing itself: outside the read-off's
    domain it runs validate, which rejects there under every budget, since
    an overflowed Gram deviation fails even ortho_tol = inf. Every mutant
    of that guard, and of validate's overflow clause as decompose runs it,
    fails on a pool: the identity, the zero matrix, an M whose norm
    overflows, 1e308 I, whose M has norm 1e308 and whose Gram deviation and
    determinant overflow to inf, a Haar rotation scaled to the largest
    float, whose read-off divides by zero, and a subnormal matrix whose
    read-off divides by zero, under the default budget and under ortho_tol
    = inf.
    The equivalent mutant decides every case as decompose does."""
    source = _kernel._SOURCES["decompose"]
    assert "ZeroQuaternionError" not in source and source.count("raise ") == 0
    huge = [1.4e308 * x for x in (1, -1, 0, 0, 1, 1, 0, 0, 0, 0, 1, -1, 0, 0, 1, 1)]
    big = [1e308 * x for x in IDENTITY16]
    subnormal = [1.5e-323] * 3 + [0.0] * 13
    assert math.hypot(*_kernel.associate(huge)) == math.inf
    assert math.hypot(*_kernel.associate(big)) == 1e308
    assert 0.0 < math.hypot(*_kernel.associate(subnormal)) < 1e-322
    for a in (huge, big):
        assert (_kernel.gram_deviation(a), _kernel.determinant(a)) == (math.inf, math.inf)
    pool = [(a, tolerances) for a in (IDENTITY16, [0.0] * 16, huge, big, NEAR_OVERFLOW, subnormal)
            for tolerances in (Tolerances(), Tolerances(ortho_tol=math.inf))]
    assert_mutants_killed(source, "decompose", GUARD_MUTANTS, pool)
    expected, mutated = mutants_outcomes(source, "decompose", EQUIVALENT_GUARD_MUTANTS, pool)
    assert mutated == [expected] * len(EQUIVALENT_GUARD_MUTANTS)
    # validate's source compiled ahead of decompose's, whose calls read it
    assert_mutants_killed(inspect.getsource(_kernel.validate) + source, "decompose",
                          OVERFLOW_MUTANTS, pool)


def stretched(rng, epsilon):
    """Q diag(1 + epsilon, 1, 1, 1) for a Haar rotation Q, row-major: its
    Gram deviation is 2 epsilon + epsilon^2 and its distance from SO(4)
    epsilon, so the shortcut's bound 2d + d^2 is tight."""
    A = random_rotation(rng)
    A[:, 0] *= 1.0 + epsilon
    return A.ravel().tolist()


def test_every_mutant_of_the_shortcut_is_killed():
    """Every mutant that loosens the shortcut, and a slack of zero or of
    one eps, accepts some stretched rotation that validation rejects under
    a budget one or two ulps below its Gram deviation; the tightening
    mutants decide every case as decompose does. decompose itself decides
    each case, at the deviation and below it, as validate does."""
    source = _kernel._SOURCES["decompose"]
    assert source.count(SHORTCUT) == 1 and SHORTCUT_SLACK == 2.0 ** -46
    rng = np.random.default_rng(25)
    pool = []
    for epsilon in 10.0 ** rng.uniform(-16, math.log10(0.45), 400):
        a = stretched(rng, epsilon)
        deviation = _kernel.gram_deviation(a)
        below = math.nextafter(deviation, 0.0)
        for bound in (deviation, below, math.nextafter(below, 0.0)):
            pool.append((a, Tolerances(ortho_tol=bound)))
    for old, _ in SHORTCUT_MUTANTS + TIGHTENING_MUTANTS:
        assert SHORTCUT.count(old) == 1, old
    lines = [(SHORTCUT, SHORTCUT.replace(old, new))
             for old, new in SHORTCUT_MUTANTS + TIGHTENING_MUTANTS]
    expected, mutated = mutants_outcomes(source, "decompose", lines, pool)
    assert list(map(decision, expected)) == [decision(outcome(_kernel.validate, *args))
                                             for args in pool]
    for (_, new), outcomes in zip(lines, mutated[:len(SHORTCUT_MUTANTS)]):
        assert outcomes != expected, new
    assert mutated[len(SHORTCUT_MUTANTS):] == [expected] * len(TIGHTENING_MUTANTS)


def test_decompose_runs_no_validation_on_rotations(monkeypatch):
    """The shortcut decides every rotation under the default budget: on
    2000 Haar rotations and one of each special kind, decompose calls
    validate not once; a reflection calls it once."""
    calls = []
    decompose = _kernel.decompose
    monkeypatch.setattr(_kernel, "validate", lambda *args: calls.append(args))
    rng = np.random.default_rng(26)
    q = [0.5, -0.5, 0.5, 0.5]
    rotations = [random_rotation(rng) for _ in range(2000)]
    rotations += [np.eye(4), -np.eye(4), left_matrix(q), right_matrix(q)]
    for A in rotations:
        decompose(A.ravel().tolist(), Tolerances())
    assert calls == []
    decompose(IDENTITY16[:15] + [-1.0], Tolerances())
    assert len(calls) == 1


def test_every_mutant_of_validate_is_killed():
    """validate makes two checks, the Gram deviation against ortho_tol and
    the determinant's sign, and every mutant of either fails on a pool at
    their bounds: a noisy rotation whose deviation is exactly the bound,
    diag(1, 1, 1, 0) under ortho_tol = 1, whose deviation is exactly 1 and
    whose determinant is exactly 0, the reflection diag(1, 1, 1, -1) and
    the identity."""
    source = inspect.getsource(_kernel.validate)
    assert source.count("raise ") == 2 and "det - 1" not in source
    rng = np.random.default_rng(5)
    noisy = (random_rotation(rng) + 1e-10 * rng.standard_normal((4, 4))).ravel().tolist()
    singular = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert (_kernel.gram_deviation(singular), _kernel.determinant(singular)) == (1.0, 0.0)
    pool = [(noisy, Tolerances(ortho_tol=_kernel.gram_deviation(noisy))),
            (singular, Tolerances(ortho_tol=1.0)),
            (IDENTITY16[:15] + [-1.0], Tolerances()), (IDENTITY16, Tolerances())]
    assert_mutants_killed(source, "validate", VALIDATE_MUTANTS, pool)


# each single-operator mutant of the unit check: the test inverted, the
# sphere moved, the abs dropped, and each square taken as its component
UNIT_MUTANTS = [
    ("if not e", "if e"),
    ("- 1.0)", "+ 1.0)"),
    ("abs(", "("),
    *[(f"q{i} * q{i}", f"q{i}") for i in range(4)],
]
# outcome-equivalent: no sum of squares near 1 lies at exactly 1 +/- UNIT_TOL,
# since s - 1 is exact there, a multiple of 2^-53, and UNIT_TOL is not one
EQUIVALENT_UNIT_MUTANTS = [
    ("e <= UNIT_TOL", "e < UNIT_TOL"),
]


def on_sum(target):
    """(w, 0.5, 0.5, 0.5) whose squares, summed as the unit check sums them,
    make target."""
    w = math.sqrt(target - 0.75)
    for _ in range(64):
        total = w * w + 0.25 + 0.25 + 0.25
        if total == target:
            return [w, 0.5, 0.5, 0.5]
        w = math.nextafter(w, math.inf if total < target else 0.0)
    raise AssertionError(target)


def test_every_mutant_of_the_unit_check_is_killed():
    """check_unit accepts q when |q.q - 1| <= UNIT_TOL, and every mutant of
    that check fails on a pool at its bound: on each side of 1, the two
    sums of squares whose deviations bracket UNIT_TOL, which no float sum
    meets exactly, and the sums one ulp further out to either side, each
    with no zero component. The equivalent mutant decides every case as
    check_unit does."""
    source = inspect.getsource(_kernel.check_unit)
    assert source.count("raise ") == 1 and not (UNIT_TOL / 2.0 ** -53).is_integer()
    pool, accepted = [], []
    for sign, ulp in ((1.0, 2.0 ** -52), (-1.0, 2.0 ** -53)):
        inside = math.floor(UNIT_TOL / ulp) * ulp
        for step in (-1, 0, 1, 2):
            q = on_sum(1.0 + sign * (inside + step * ulp))
            pool.append((q,))
            accepted.append(step <= 0)
    assert [decision(outcome(_kernel.check_unit, *args)) == "accepted"
            for args in pool] == accepted
    assert_mutants_killed(source, "check_unit", UNIT_MUTANTS, pool)
    expected, mutated = mutants_outcomes(source, "check_unit", EQUIVALENT_UNIT_MUTANTS, pool)
    assert mutated == [expected] * len(EQUIVALENT_UNIT_MUTANTS)


# classify's kind ladder, as written, and with its both-trivial test moved
# last; and the clamp of the arccos that classify and angle take
LADDER = """    if left_trivial and right_trivial:
        kind = _IDENTITY if l0 * r0 > 0 else _CENTRAL_REVERSION
    elif right_trivial:
        kind = _LEFT_ISOCLINIC
    elif left_trivial:
        kind = _RIGHT_ISOCLINIC
"""
LADDER_MOVED = """    if right_trivial:
        kind = _LEFT_ISOCLINIC
    elif left_trivial:
        kind = _RIGHT_ISOCLINIC
    elif left_trivial and right_trivial:
        kind = _IDENTITY if l0 * r0 > 0 else _CENTRAL_REVERSION
"""
CLAMP = "acos(c if -1.0 <= c <= 1.0 else 1.0 if c > 1.0 else -1.0)"
RELATIONS = ["<", "<=", ">", ">=", "==", "!="]


def relation_mutants(text, op):
    """text with its one comparison op replaced by each other comparison."""
    return [(text, text.replace(f" {op} ", f" {other} ")) for other in RELATIONS if other != op]


# outcome-equivalent: at c = -1 a strict lower bound sends c to the end it
# equals; the test c > 1.0 runs only on c outside [-1, 1], or NaN, where
# c >= 1.0 and c > -1.0 give what it gives; and once the factors are known
# not both trivial, at most one of the two elifs holds, so their order
# decides nothing
EQUIVALENT_CLASSIFY_MUTANTS = [
    ("-1.0 <= c", "-1.0 < c"),
    ("c > 1.0", "c >= 1.0"),
    ("c > 1.0", "c > -1.0"),
    ("    elif right_trivial:\n        kind = _LEFT_ISOCLINIC\n"
     "    elif left_trivial:\n        kind = _RIGHT_ISOCLINIC\n",
     "    elif left_trivial:\n        kind = _RIGHT_ISOCLINIC\n"
     "    elif right_trivial:\n        kind = _LEFT_ISOCLINIC\n"),
]
# every other single-operator mutant of classify's two trivial tests, its
# kind ladder and the clamp: each comparison made another, the ladder's
# 'and' made 'or', its product made a sum, difference or quotient, each elif
# testing the other factor, the both-trivial test moved last, a clamp
# bound's sign flipped, a clamped end made the other and the clamp dropped
CLASSIFY_MUTANTS = [mutant for mutant in [
    *relation_mutants("hypot(l1, l2, l3) <= iso", "<="),
    *relation_mutants("hypot(r1, r2, r3) <= iso", "<="),
    ("left_trivial and right_trivial", "left_trivial or right_trivial"),
    *relation_mutants("l0 * r0 > 0", ">"),
    *[("l0 * r0", f"l0 {op} r0") for op in "+-/"],
    ("elif right_trivial:", "elif left_trivial:"),
    ("elif left_trivial:", "elif right_trivial:"),
    (LADDER, LADDER_MOVED),
    *relation_mutants("-1.0 <= c", "<="),
    *relation_mutants("c <= 1.0", "<="),
    *relation_mutants("c > 1.0", ">"),
    ("-1.0 <= c", "1.0 <= c"),
    ("c <= 1.0", "c <= -1.0"),
    ("else 1.0 if", "else -1.0 if"),
    ("else -1.0)", "else 1.0)"),
    (CLAMP, "acos(c)"),
] if mutant not in EQUIVALENT_CLASSIFY_MUTANTS]


def test_every_mutant_of_classify_is_killed():
    """classify decides as classify_loop does, and every mutant of its
    trivial tests, of its kind ladder and of the clamp it takes each arccos
    through fails on a pool of factor pairs: +/-1, the scalar parts one ulp
    past +/-1, i, a factor with a negative scalar part and one whose vector
    part is exactly 0.8 long, under the budgets 0, the default, 0.8 and
    inf. So each trivial test is met with equality, each factor is trivial
    under some budget and each clamp bound is met and passed on both sides.
    The equivalent mutants decide every case as classify does."""
    # the clamp's source compiled ahead of classify's, whose calls read it
    source = inspect.getsource(_kernel._arccos) + inspect.getsource(_kernel.classify)
    assert source.count(LADDER) == 1 and source.count(CLAMP) == 1
    past = 1.0 + 2.0 ** -52
    factors = [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [past, 0.0, 0.0, 0.0],
               [-past, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-0.5, 0.5, 0.5, 0.5],
               [0.6, 0.0, -0.8, 0.0]]
    budgets = [Tolerances(ortho_tol=tol) for tol in (0.0, 1e-9, 0.8, math.inf)]
    pool = [(L, R, tolerances) for L in factors for R in factors for tolerances in budgets]
    assert [outcome(_kernel.classify, *args) for args in pool] == [
        outcome(classify_loop, *args) for args in pool]
    assert_mutants_killed(source, "classify", CLASSIFY_MUTANTS, pool)
    expected, mutated = mutants_outcomes(source, "classify", EQUIVALENT_CLASSIFY_MUTANTS, pool)
    assert mutated == [expected] * len(EQUIVALENT_CLASSIFY_MUTANTS)


# each single-operator mutant of the sign rule: a strict comparison made
# loose, the sign of SIGN_TOL flipped, an 'or' and an 'and' swapped, a 'not'
# dropped, and one component's negation dropped
SIGN_MUTANTS = [
    *[(f"l{k} < -SIGN_TOL", f"l{k} <= -SIGN_TOL") for k in range(4)],
    *[(f"l{k} > SIGN_TOL", f"l{k} >= SIGN_TOL") for k in range(3)],
    *[(f"l{k} < -SIGN_TOL", f"l{k} < SIGN_TOL") for k in range(4)],
    *[(f"l{k} > SIGN_TOL", f"l{k} > -SIGN_TOL") for k in range(3)],
    *[(f"SIGN_TOL or not l{k}", f"SIGN_TOL and not l{k}") for k in range(3)],
    *[(f"SIGN_TOL and (l{k}", f"SIGN_TOL or (l{k}") for k in range(1, 4)],
    *[(f"not l{k}", f"l{k}") for k in range(3)],
    *[(f"-{side}{k}", f"{side}{k}") for side in "lr" for k in range(4)],
]


def test_every_mutant_of_the_sign_rule_is_killed():
    """The sign rule negates both factors when the first component of L
    above SIGN_TOL in magnitude is negative, as canonical_loop does, and
    every mutant of it fails on a pool of every L whose components are 0.0,
    -0.0, +/-SIGN_TOL or a float next to one of these, with R holding
    signed zeros, so that a dropped negation shows. No mutant is
    equivalent: each comparison is met with equality by some component of
    the pool, and each clause decides some L alone."""
    edges = [0.0, -0.0, SIGN_TOL, -SIGN_TOL]
    components = edges + sorted({math.nextafter(x, to) for x in edges
                                 for to in (-math.inf, math.inf)})
    assert len(components) == 10
    R = [0.0, -0.0, SIGN_TOL, -0.0]
    pool = [(list(L), R) for L in itertools.product(components, repeat=4)]

    def outcomes(function):
        # repr spells each float exactly, the sign of zero included
        return [repr(function(L, R)) for L, R in pool]

    expected = outcomes(canonical)
    assert expected == outcomes(canonical_loop)
    for old, new in SIGN_MUTANTS:
        assert CANONICAL.count(old) == 1, old
        assert outcomes(compiled(CANONICAL.replace(old, new), "canonical")) != expected, new


def scan_step(k):
    """The pivot scan's step at m{k}, which keeps the first largest |m|."""
    return f"\n    x = abs(m{k})\n    if x > b:\n        b, j = x, {k % 4}"


def test_a_norm_near_the_float_range_is_rejected():
    """Haar rotations scaled so that norm(M) lies in [2^513, 2^515) or near
    the largest float: decompose runs validate, not the read-off, and
    raises NotOrthogonalError with an overflowed Gram deviation, as the
    loop reference does, under the default budget, 1e300 and ortho_tol =
    inf. With the guard's ceiling raised to inf, the read-off divides by
    zero on the largest float's scale."""
    scales = [2.0 ** 513 * (1.0 + k / 8) for k in range(1, 24)]
    scaled = [[scale * x for x in random_rotation(seed).ravel().tolist()]
              for seed in range(8)
              for scale in (*scales, 1.7976931348623157e308, 1.5e308, 2.0 ** 1021)]
    assert NEAR_OVERFLOW in scaled
    pool = [(a, tolerances) for a in scaled
            for tolerances in (Tolerances(), Tolerances(ortho_tol=1e300),
                               Tolerances(ortho_tol=math.inf))]
    for a, tolerances in pool:
        assert NORM_CEILING <= math.hypot(*_kernel.associate(a))
        result = outcome(_kernel.decompose, a, tolerances)
        assert result == ("NotOrthogonalError", "inf", float.hex(tolerances.ortho_tol))
        assert result == outcome(decompose_loop, a, tolerances)
    source = _kernel._SOURCES["decompose"]
    assert_mutants_killed(source, "decompose", [("norm < 2.0 ** 513", "norm < inf")], pool)


# each single-operator mutant of the pivot scan, each anchored on its own
# step: a strict comparison made loose, an abs dropped, and the running
# maximum left behind when the column moves
PIVOT_MUTANTS = [
    ("\n    b = abs(m0)", "\n    b = m0"),
    *[(scan_step(k), scan_step(k).replace("x > b", "x >= b")) for k in range(1, 16)],
    *[(scan_step(k), scan_step(k).replace(f"abs(m{k})", f"m{k}")) for k in range(1, 16)],
    *[(scan_step(k), scan_step(k).replace("b, j = x,", "j =")) for k in range(1, 15)],
]
# outcome-equivalent: nothing reads the running maximum after the last step
EQUIVALENT_PIVOT_MUTANTS = [
    (scan_step(15), scan_step(15).replace("b, j = x,", "j =")),
]


def tied_at(k, rng):
    """A matrix of positive determinant whose M holds -1 at m{k} and +1 at
    m{k+1}, a column apart, and eighths below 1 in magnitude elsewhere;
    for k = 15, -1 at m15 and 7/8 at m14 alone."""
    while True:
        m = (rng.integers(-6, 7, 16) / 8).tolist()
        m[k] = -1.0
        if k < 15:
            m[k + 1] = 1.0
        else:
            m[14] = 7 / 8
        a = with_associate(m)
        if _kernel.determinant(a) > 0.0:
            assert _kernel.associate(a) == m
            return a


def test_every_mutant_of_the_pivot_scan_is_killed():
    """The read-off starts from the column of the first largest |m|, as
    nearest_loop does, and every mutant of the scan fails on a pool that
    ties that largest |m| between two columns at each position, the first
    of the pair negative, with the tied rotation, the Hadamard reflection
    and diag(-1, -1, -1, 1) beside it. Under ortho_tol = inf each matrix of
    positive determinant is split, and M is far from rank 1, so the start
    column moves the factors; the equivalent mutant decides every case as
    decompose does."""
    rng = np.random.default_rng(30)
    matrices = [tied_at(k, rng) for k in range(16)]
    matrices += [TIED_ROTATION, TIED_REFLECTION, NEGATIVE_FIRST]
    pool = [(a, tolerances) for a in matrices
            for tolerances in (Tolerances(), Tolerances(ortho_tol=math.inf))]
    assert [outcome(decompose_loop, *args) for args in pool] == [
        outcome(_kernel.decompose, *args) for args in pool]
    source = _kernel._SOURCES["decompose"]
    assert_mutants_killed(source, "decompose", PIVOT_MUTANTS, pool)
    expected, mutated = mutants_outcomes(source, "decompose", EQUIVALENT_PIVOT_MUTANTS, pool)
    assert mutated == [expected] * len(EQUIVALENT_PIVOT_MUTANTS)


def test_generated_functions_are_compiled_from_the_table():
    """The generated functions, the table's three, come from the source
    generated at import under one filename; the checks on four numbers are
    written in the module itself. Any other name the module lacks stays an
    AttributeError, the loop functions they replace, the removed distance
    and the fragments once spliced into those checks among them."""
    assert set(_kernel._SOURCES) == {"associate", "decompose", "two_sided"}
    for name in _kernel._SOURCES:
        code = getattr(_kernel, name).__code__
        assert code.co_filename == "<isoclinic._kernel: generated>"
    for name in ("check_unit", "angle", "classify"):
        assert getattr(_kernel, name).__code__.co_filename.endswith("_kernel.py")
    for name in ("canonical", "nearest", "distance", "_COMPOSE", "_terms",
                 "_trivial_deviation", "_unit_check", "_angle", "_trivial"):
        assert not hasattr(_kernel, name)


# components that decide the sign rule and the classification: signed zeros,
# the sign anchor's bound and its neighbours, +/-1 and components off them by
# about the default budget, besides any float
sign_components = st.sampled_from([
    0.0, -0.0, SIGN_TOL, -SIGN_TOL, math.nextafter(SIGN_TOL, 1.0), -math.nextafter(SIGN_TOL, 1.0),
    math.nextafter(SIGN_TOL, 0.0), 1.0, -1.0, 0.5, -0.5, 1e-9, -1e-9, 1.0 - 1e-9, -1.0 + 1e-9,
    math.nan, math.inf, -math.inf])
sign_factors = st.lists(sign_components | st.floats(width=64), min_size=4, max_size=4)


def unit_factor(seed, trivial, scale):
    """A random unit quaternion, or +/-1 off by about 1e-9 in each component,
    times scale: 1 or a factor that moves the unit deviation to about UNIT_TOL."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(4)
    if trivial:
        q = [rng.choice([-1.0, 1.0]), 0.0, 0.0, 0.0] + rng.choice([0.0, 1e-9, 2e-9]) * q
    return (scale * q / np.linalg.norm(q)).tolist()


unit_factors = st.builds(unit_factor, seeds, st.booleans(),
                         st.sampled_from([1.0, 1.0, 1.0 + 4e-13, 1.0 - 6e-13, 1.0 + 1e-12, 1.1]))
# +/-1, i, j or k with signed zeros: exactly trivial, or a zero scalar part
basis_factors = st.builds(lambda k, sign, zeros: [sign * (n == k) or zero for n, zero in enumerate(zeros)],
                          st.integers(0, 3), st.sampled_from([1.0, -1.0]),
                          st.lists(st.sampled_from([0.0, -0.0]), min_size=4, max_size=4))
# the trivial-factor bound is ortho_tol: four budgets, four bounds
trivial_tolerances = st.sampled_from([Tolerances(), Tolerances(ortho_tol=0.0),
                                  Tolerances(ortho_tol=1e-6), Tolerances(ortho_tol=math.inf)])


@settings(deadline=None, max_examples=600)
@given(unit_factors | basis_factors | sign_factors, unit_factors | basis_factors | sign_factors,
       trivial_tolerances)
def test_generated_sign_rule_and_classification_match_the_loop_reference(L, R, tolerances):
    """The sign rule, check_unit, angle and classify give the loop reference's
    floats bit for bit, signs of zero and the kind included, or raise its
    error type with its measured value and bound, on unit and non-unit
    factors alike."""
    assert outcome(canonical, L, R) == outcome(canonical_loop, L, R)
    assert outcome(_kernel.check_unit, L) == outcome(check_unit_loop, L)
    assert outcome(_kernel.angle, R) == outcome(angle_loop, R)
    assert outcome(_kernel.classify, L, R, tolerances) == outcome(classify_loop, L, R, tolerances)


def digest_pool(seed, count):
    """count matrices drawn from random.Random(seed).random(), whose stream
    Python keeps across versions: each is two_sided of two unit factors
    with components uniform in [-1, 1) before unit(), and every second one
    has each entry moved by uniform noise in [-1e-10, 1e-10)."""
    rng = random.Random(seed)

    def factor():
        return _kernel.unit([2.0 * rng.random() - 1.0 for _ in range(4)])

    pool = []
    for k in range(count):
        a = _kernel.two_sided(factor(), factor())
        if k % 2:
            a = [x + 1e-10 * (2.0 * rng.random() - 1.0) for x in a]
        pool.append(a)
    return pool


# sha256 of every output of decompose and classify on digest_pool(2024, 4000)
# under Tolerances(1e-9); a change that moves one of these bits changes this
# line and says why. The same on CPython 3.10 to 3.13.
KERNEL_DIGEST = "0f3e0563b0a9aeb7ddda7912f59cb18b894f446c11afcd397b4e8e7029d88a51"


def test_the_kernel_bits_are_pinned():
    """decompose and classify give the recorded bits on 4000 matrices, half
    rotations and half noisy ones, all accepted: each factor, distance, norm
    deviation and angle by float.hex, and each kind by its value."""
    tolerances = Tolerances(1e-9)
    digest = hashlib.sha256()
    for a in digest_pool(2024, 4000):
        L, R, distance, norm_deviation = _kernel.decompose(a, tolerances)
        kind, left_angle, right_angle = _kernel.classify(L, R, tolerances)
        floats = [*L, *R, distance, norm_deviation, left_angle, right_angle]
        digest.update((" ".join(map(float.hex, floats)) + f" {kind.value}\n").encode())
    assert digest.hexdigest() == KERNEL_DIGEST


@pytest.mark.parametrize("position", range(16))
def test_nan_entry_fails_every_matrix_check(position):
    """A NaN entry fails the orthogonality check of validate and of
    decompose, whose associate norm it makes NaN, under any budget, an
    infinite one too, with the NaN it measured; on the identity and on a
    Haar rotation."""
    for base in (IDENTITY16, random_rotation(position).ravel().tolist()):
        a = base[:position] + [math.nan] + base[position + 1:]
        assert math.isnan(math.hypot(*_kernel.associate(a)))
        for tolerances in (Tolerances(), Tolerances(ortho_tol=math.inf)):
            for check in (_kernel.validate, _kernel.decompose):
                with pytest.raises(NotOrthogonalError) as info:
                    check(a, tolerances)
                assert math.isnan(info.value.measured)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("position", range(4))
def test_nan_component_fails_the_unit_check(side, position):
    """A NaN component of either factor fails the unit check of check_unit,
    angle and classify with the NaN it measured."""
    pair = {"left": [0.6, 0.0, -0.8, 0.0], "right": [1.0, 0.0, 0.0, 0.0]}
    q = pair[side]
    q[position] = math.nan
    calls = [(_kernel.check_unit, q), (_kernel.angle, q),
             (_kernel.classify, pair["left"], pair["right"], Tolerances())]
    for function, *args in calls:
        with pytest.raises(NotUnitQuaternionError) as info:
            function(*args)
        assert math.isnan(info.value.measured)


@pytest.mark.parametrize("L", [
    [0.0, -0.6, 0.8, 0.0],
    [-0.0, 0.6, -0.8, -0.0],
    [SIGN_TOL, -0.6, 0.8, 0.0],
    [-SIGN_TOL, 0.6, -0.8, 0.0],
    [-0.6, 0.8, 0.0, -0.0],
    [0.6, -0.8, -0.0, 0.0],
    [SIGN_TOL, -SIGN_TOL, 0.0, -0.0],
    [1e-12, -0.8, 0.6, 0.0],
], ids=["leading +0", "leading -0", "+SIGN_TOL skipped", "-SIGN_TOL skipped",
        "negative anchor", "positive anchor", "no anchor", "1e-12 skipped"])
def test_canonical_edge_cases(L):
    """The first component of L above SIGN_TOL in magnitude decides the
    joint sign, as the generator rule written out here does; signs of zero
    included."""
    R = [0.0, -0.0, 0.5, -1.0]
    anchor = next((c for c in L if abs(c) > SIGN_TOL), 0.0)
    expected = ([-c for c in L], [-c for c in R]) if anchor < 0 else (L, R)
    assert repr(canonical(L, R)) == repr(expected)
