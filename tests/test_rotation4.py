import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import (
    IDENTITY,
    associate_matrix,
    associate_norm,
    canonical_pair,
    classify,
    classify_pair,
    IsoclinicError,
    MalformedInputError,
    NotOrthogonalError,
    NotProperRotationError,
    Tolerances,
    decompose,
    left_matrix,
    make_frame,
    max_abs_minor,
    normalize,
    quat_mul,
    random_rotation,
    right_matrix,
    validate_rotation,
    van_elfrinkhof,
)
from isoclinic.rotation4 import COMPOSITION_TABLE
from oracles import bilinear_composition

seeds = st.integers(0, 2**32 - 1)


def test_pure_imaginary_factors():
    # both factors i: the product negates the (w, x) plane and fixes (y, z),
    # worked out from the bilinear expansion with b = q = 1
    i = [0.0, 1.0, 0.0, 0.0]
    expected = np.diag([-1.0, -1.0, 1.0, 1.0])
    product = left_matrix(i) @ right_matrix(i)
    assert np.array_equal(product, expected)
    assert np.array_equal(van_elfrinkhof(i, i), expected)


def test_validate_rotation():
    assert np.array_equal(validate_rotation(np.eye(4)), np.eye(4))
    with pytest.raises(NotProperRotationError) as info:
        validate_rotation(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert info.value.measured == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(NotOrthogonalError) as info:
        validate_rotation(2.0 * np.eye(4))
    assert info.value.measured == pytest.approx(3.0, abs=1e-12)


def test_validate_rotation_tolerances_are_adjustable():
    A = random_rotation(3)
    noisy = A + 1e-7
    with pytest.raises(NotOrthogonalError):
        validate_rotation(noisy)
    validate_rotation(noisy, Tolerances(ortho_tol=1e-5))


def test_van_elfrinkhof_fixed_cases():
    assert np.array_equal(van_elfrinkhof(IDENTITY, IDENTITY), np.eye(4))
    assert np.array_equal(van_elfrinkhof(IDENTITY, -IDENTITY), -np.eye(4))
    L = normalize([1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(van_elfrinkhof(L, IDENTITY), left_matrix(L))


@settings(deadline=None)
@given(seeds)
def test_van_elfrinkhof_matches_matrix_product(seed):
    rng = np.random.default_rng(seed)
    L = normalize(rng.standard_normal(4))
    R = normalize(rng.standard_normal(4))
    product = left_matrix(L) @ right_matrix(R)
    assert np.max(np.abs(van_elfrinkhof(L, R) - product)) <= 1e-14


def test_composition_table():
    """Column 4*i + j is the matrix of P -> e_i*P*e_j, and B^T B = 4I."""
    basis = np.eye(4)
    for i in range(4):
        for j in range(4):
            expected = left_matrix(basis[i]) @ right_matrix(basis[j])
            assert np.array_equal(COMPOSITION_TABLE[:, 4 * i + j].reshape(4, 4), expected)
    assert np.array_equal(COMPOSITION_TABLE.T @ COMPOSITION_TABLE, 4.0 * np.eye(16))


def test_van_elfrinkhof_matches_bilinear_oracle():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        L = normalize(rng.standard_normal(4))
        R = normalize(rng.standard_normal(4))
        assert np.max(np.abs(van_elfrinkhof(L, R) - bilinear_composition(L, R))) <= 1e-15


@settings(deadline=None)
@given(seeds)
def test_left_right_factors_commute(seed):
    rng = np.random.default_rng(seed)
    ML = left_matrix(normalize(rng.standard_normal(4)))
    MR = right_matrix(normalize(rng.standard_normal(4)))
    assert np.max(np.abs(ML @ MR - MR @ ML)) <= 1e-13


def test_joint_sign_flip_is_exact():
    rng = np.random.default_rng(4)
    for _ in range(50):
        L = normalize(rng.standard_normal(4))
        R = normalize(rng.standard_normal(4))
        assert np.array_equal(van_elfrinkhof(L, R), van_elfrinkhof(-L, -R))


@settings(deadline=None)
@given(seeds)
def test_apply_matches_two_sided_product(seed):
    rng = np.random.default_rng(seed)
    L = normalize(rng.standard_normal(4))
    R = normalize(rng.standard_normal(4))
    P = rng.standard_normal(4)
    image = van_elfrinkhof(L, R) @ P
    assert np.max(np.abs(image - quat_mul(quat_mul(L, P), R))) <= 1e-12


@settings(deadline=None)
@given(seeds)
def test_apply_preserves_length(seed):
    rng = np.random.default_rng(seed)
    A = random_rotation(rng)
    p = rng.standard_normal(4)
    assert np.linalg.norm(A @ p) == pytest.approx(np.linalg.norm(p), rel=1e-12)


def test_random_rotation_is_valid_and_deterministic():
    for seed in range(30):
        validate_rotation(random_rotation(seed), Tolerances(ortho_tol=1e-12))
    assert np.array_equal(random_rotation(7), random_rotation(7))
    assert np.max(np.abs(random_rotation(7) - random_rotation(8))) > 1e-6


def test_trace():
    # all four diagonal entries of a left or right matrix are the scalar part
    L = normalize([3.0, 1.0, -2.0, 0.5])
    assert np.trace(left_matrix(L)) == 4.0 * L[0]
    assert np.trace(right_matrix(L)) == 4.0 * L[0]


def test_complementary_minors():
    """For a proper orthogonal matrix, each 2x2 minor equals its complementary
    minor times the parity of the index sum."""
    for seed in range(20):
        A = random_rotation(seed)
        pairs = list(combinations(range(4), 2))
        for rows in pairs:
            for cols in pairs:
                comp_rows = tuple(sorted(set(range(4)) - set(rows)))
                comp_cols = tuple(sorted(set(range(4)) - set(cols)))
                minor = np.linalg.det(A[np.ix_(rows, cols)])
                complement = np.linalg.det(A[np.ix_(comp_rows, comp_cols)])
                sign = (-1.0) ** (sum(rows) + sum(cols))
                assert abs(minor - sign * complement) <= 1e-13


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        validate_rotation(np.eye(3))
    with pytest.raises(ValueError):
        van_elfrinkhof(IDENTITY, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        validate_rotation(np.full((4, 4), np.inf))


def test_malformed_input_is_typed():
    """NaN, inf, ragged or non-numeric entries and every wrong shape raise
    an IsoclinicError, which is still a ValueError, at every public entry
    point that takes a matrix or a quaternion."""
    A = random_rotation(42)
    malformed = [A[:3], A[:, :3], A.ravel(), np.hstack([A, np.zeros((4, 1))]), A[None], 1.0,
                 [[1.0, 0.0], [0.0]], [["a"] * 4] * 4]
    for i, bad in ((3, np.nan), (7, np.inf), (12, -np.inf)):
        nonfinite = A.copy()
        nonfinite.flat[i] = bad
        malformed.append(nonfinite)
    calls = [(entry, (bad,)) for bad in malformed
             for entry in (validate_rotation, decompose, associate_matrix, associate_norm,
                           max_abs_minor, classify, make_frame)]
    bad_quaternions = [[1.0, np.nan, 0.0, 0.0], [1.0, -np.inf, 0.0, 0.0], [1.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0, 0.0], [IDENTITY], [1.0, [0.0], 0.0, 0.0],
                       "abcd", 1.0]
    for q in bad_quaternions:
        calls += [(normalize, (q,)), (left_matrix, (q,))]
        calls += [(entry, args) for entry in (canonical_pair, classify_pair, quat_mul)
                  for args in ((q, IDENTITY), (IDENTITY, q))]
    for entry, args in calls:
        with pytest.raises(IsoclinicError) as info:
            entry(*args)
        assert isinstance(info.value, MalformedInputError), (entry.__name__, args)
        assert isinstance(info.value, ValueError)


def test_overflowing_gram_is_not_orthogonal():
    """Products past the float range make an off-diagonal entry of A^T A
    inf - inf = NaN, which no bound rejects; the deviation still reads inf."""
    A = np.diag([0.0, 0.0, 1.0, 1.0])
    A[:2, :2] = [[1e200, 1e200], [1e200, -1e200]]
    with pytest.raises(NotOrthogonalError) as info:
        validate_rotation(A)
    assert info.value.measured == math.inf


def test_zero_entries_are_positive_zero():
    """Entries that sum to zero are +0.0, as numpy's product with the table
    gives them, so printed matrices never show -0.0, even for factors with
    -0.0 components."""
    basis = np.eye(4)
    pairs = [(L, R) for L in (*basis, *-basis) for R in basis]
    pairs.append(([0.0, -0.0, 0.0, -1.0], [0.0, 0.6, -0.0, 0.8]))
    for L, R in pairs:
        A = van_elfrinkhof(L, R)
        for M in (A, associate_matrix(A)):
            assert not np.signbit(M[M == 0]).any()
