"""The float kernel against numpy and the independent oracles."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import _kernel, random_rotation
from oracles import associate_reference, exact_det, random_improper

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

