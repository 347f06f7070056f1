"""The float kernel against numpy, the independent oracles and the loop
reference its generated straight-line code replaces."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import IsoclinicError, Tolerances, _kernel, random_rotation
from isoclinic._kernel import SIGN_TOL, TABLE
from oracles import associate_reference, bilinear_composition, exact_det, random_improper

EPS = np.finfo(float).eps
seeds = st.integers(0, 2**32 - 1)


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
    """The Gram deviation agrees with numpy's to 2 eps. The determinant is
    within 2 eps of the exact one; numpy's det, sign * exp(sum log|u_ii|)
    of an LU factorization, is itself up to 2.3 eps off it, so the two
    floats can differ by 3 eps and are held to 4 eps. The associate matrix
    agrees with the written-out formula to one ulp of 1."""
    a = A.ravel().tolist()
    gram = float(np.abs(A.T @ A - np.eye(4)).max())
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
    bilinear formula; so for a rejected matrix too, and from decompose when
    the distance bound is lifted."""
    a = A.ravel().tolist()
    bound = 8 * EPS * max(1.0, float(np.linalg.norm(A)))
    L, R, _ = nearest_loop(associate_loop(a))
    assert abs(_kernel.distance(a) - np.linalg.norm(A - bilinear_composition(L, R))) <= bound
    if math.hypot(*_kernel.associate(a)) >= 0.5:
        L, R, distance, _ = _kernel.decompose(a, Tolerances(dist_tol=math.inf))
        assert abs(distance - np.linalg.norm(A - bilinear_composition(L, R))) <= bound


# ---- the loop reference ------------------------------------------------------
# associate, two_sided and decompose as loops that read TABLE's index and sign
# tuples at run time, with M built as a list and unpacked by the read-off.
# The generated straight-line kernel must agree with them bit for bit.

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


def two_sided_loop(L, R):
    o = [left * right for left in L for right in R]
    return [s0 * o[k0] + s2 * o[k2] + (s1 * o[k1] + s3 * o[k3]) + 0.0
            for k0, s0, k1, s1, k2, s2, k3, s3 in _COMPOSE]


def nearest_loop(m):
    (m00, m01, m02, m03, m10, m11, m12, m13,
     m20, m21, m22, m23, m30, m31, m32, m33) = m
    magnitudes = list(map(abs, m))
    l0, l1, l2, l3 = _kernel.unit(m[magnitudes.index(max(magnitudes)) % 4::4])
    R = r0, r1, r2, r3 = _kernel.unit([0.0 + m00 * l0 + m10 * l1 + m20 * l2 + m30 * l3,
                                       0.0 + m01 * l0 + m11 * l1 + m21 * l2 + m31 * l3,
                                       0.0 + m02 * l0 + m12 * l1 + m22 * l2 + m32 * l3,
                                       0.0 + m03 * l0 + m13 * l1 + m23 * l2 + m33 * l3])
    L = l0, l1, l2, l3 = _kernel.unit([0.0 + m00 * r0 + m01 * r1 + m02 * r2 + m03 * r3,
                                       0.0 + m10 * r0 + m11 * r1 + m12 * r2 + m13 * r3,
                                       0.0 + m20 * r0 + m21 * r1 + m22 * r2 + m23 * r3,
                                       0.0 + m30 * r0 + m31 * r1 + m32 * r2 + m33 * r3])
    return L, R, 2.0 * math.hypot(
        m00 - l0 * r0, m01 - l0 * r1, m02 - l0 * r2, m03 - l0 * r3,
        m10 - l1 * r0, m11 - l1 * r1, m12 - l1 * r2, m13 - l1 * r3,
        m20 - l2 * r0, m21 - l2 * r1, m22 - l2 * r2, m23 - l2 * r3,
        m30 - l3 * r0, m31 - l3 * r1, m32 - l3 * r2, m33 - l3 * r3)


def decompose_loop(a, tolerances):
    m = associate_loop(a)
    norm = math.hypot(*m)
    norm_deviation = abs(norm - 1.0)
    if norm_deviation > tolerances.dist_tol / 2:
        raise _kernel.NormDeviationError(norm_deviation, tolerances.dist_tol / 2)
    if norm < 0.5:
        raise _kernel.DegenerateNormError(norm, 0.5)
    L, R, distance = nearest_loop(m)
    if distance > tolerances.dist_tol:
        raise _kernel.ReconstructionError(distance, tolerances.dist_tol)
    return (*_kernel.canonical(L, R), distance, norm_deviation)


def _hex(value):
    """value with every float spelled by float.hex, containers kept."""
    return float.hex(value) if isinstance(value, float) else type(value)(map(_hex, value))


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
              | st.floats(5e-324, 1e-300) | st.builds(lambda k: 10.0 ** k, st.integers(-323, 308))),
    st.lists(st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
                              5e-324, -5e-324, 1.0, -1.0, 0.0, -0.0]), min_size=16, max_size=16),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=16, max_size=16),
    st.builds(signed_permutation, st.permutations(range(4)),
              st.lists(st.booleans(), min_size=4, max_size=4),
              st.lists(st.booleans(), min_size=16, max_size=16)),
)
tolerance_sets = st.sampled_from([Tolerances(), Tolerances(dist_tol=math.inf),
                                  Tolerances(ortho_tol=1e-6), Tolerances(dist_tol=0.0)])
quaternions = st.lists(st.floats(allow_nan=False, width=64) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       min_size=4, max_size=4)


@settings(deadline=None, max_examples=600)
@given(bit_inputs, tolerance_sets)
def test_generated_kernel_matches_the_loop_reference(a, tolerances):
    """associate, distance and decompose give the loop reference's floats
    bit for bit, signs of zero included, or raise its error type with its
    measured value and bound; two_sided does the same on the factors."""
    assert outcome(_kernel.associate, a) == outcome(associate_loop, a)
    assert outcome(_kernel.distance, a) == outcome(lambda a: nearest_loop(associate_loop(a))[2], a)
    result = outcome(_kernel.decompose, a, tolerances)
    assert result == outcome(decompose_loop, a, tolerances)
    try:
        L, R, *_ = _kernel.decompose(a, Tolerances(dist_tol=math.inf))
    except IsoclinicError:
        return
    assert outcome(_kernel.two_sided, L, R) == outcome(two_sided_loop, L, R)


@settings(deadline=None, max_examples=600)
@given(quaternions, quaternions)
def test_generated_two_sided_matches_the_loop_reference(L, R):
    """two_sided gives the loop reference's floats bit for bit on any pair,
    unit or not, signed zeros and overflow to inf or NaN included."""
    assert outcome(_kernel.two_sided, L, R) == outcome(two_sided_loop, L, R)


def test_generated_functions_are_compiled_from_the_table():
    """The four generated functions come from the source generated from
    TABLE under one filename; any other name the module lacks stays an
    AttributeError, the loop functions they replace among them."""
    for name in ("associate", "distance", "decompose", "two_sided"):
        code = getattr(_kernel, name).__code__
        assert code.co_filename == "<isoclinic._kernel: generated from TABLE>"
    for name in ("nearest", "_COMPOSE", "_terms"):
        assert not hasattr(_kernel, name)


@pytest.mark.parametrize("L", [
    [0.0, -0.6, 0.8, 0.0],
    [-0.0, 0.6, -0.8, -0.0],
    [SIGN_TOL, -0.6, 0.8, 0.0],
    [-SIGN_TOL, 0.6, -0.8, 0.0],
    [-0.6, 0.8, 0.0, -0.0],
    [0.6, -0.8, -0.0, 0.0],
    [SIGN_TOL, -SIGN_TOL, 0.0, -0.0],
], ids=["leading +0", "leading -0", "+SIGN_TOL skipped", "-SIGN_TOL skipped",
        "negative anchor", "positive anchor", "no anchor"])
def test_canonical_edge_cases(L):
    """The first component of L above SIGN_TOL in magnitude decides the
    joint sign, as the generator rule written out here does; signs of zero
    included."""
    R = [0.0, -0.0, 0.5, -1.0]
    anchor = next((c for c in L if abs(c) > SIGN_TOL), 0.0)
    expected = ([-c for c in L], [-c for c in R]) if anchor < 0 else (L, R)
    assert repr(_kernel.canonical(L, R)) == repr(expected)
