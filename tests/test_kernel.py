"""The float kernel against numpy and the independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import Tolerances, _kernel, random_rotation
from isoclinic._kernel import SIGN_TOL
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
    the rotation Q the factors generate, built by the oracle's bilinear
    formula; so for a rejected matrix too, and from decompose when the
    distance bound is lifted."""
    a = A.ravel().tolist()
    m = _kernel.associate(a)
    bound = 8 * EPS * max(1.0, float(np.linalg.norm(A)))
    L, R, distance = _kernel.nearest(m)
    assert abs(distance - np.linalg.norm(A - bilinear_composition(L, R))) <= bound
    if math.hypot(*m) >= 0.5:
        L, R, distance, _ = _kernel.decompose(a, Tolerances(dist_tol=math.inf))
        assert abs(distance - np.linalg.norm(A - bilinear_composition(L, R))) <= bound


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
