import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import (
    IsoclinicError,
    NotUnitQuaternionError,
    ZeroQuaternionError,
    isoclinic_angle,
    left_matrix,
    normalize,
    quat_mul,
    random_unit_quaternion,
    right_matrix,
    van_elfrinkhof,
    _kernel,
)
from oracles import conjugate_reference

seeds = st.integers(0, 2**32 - 1)
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def test_identity_element():
    q = np.array([3.0, -1.0, 2.0, 0.5])
    assert np.array_equal(quat_mul(IDENTITY, q), q)
    assert np.array_equal(quat_mul(q, IDENTITY), q)


def test_defining_relation():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    k = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(quat_mul(i, j), k)
    assert np.array_equal(quat_mul(j, i), -k)
    assert np.array_equal(quat_mul(i, i), -IDENTITY)


def test_mul_against_matrix_action():
    # worked by hand from the multiplication table, then cross-checked
    # against the matrix-vector path
    L = np.array([0.5, 0.5, 0.5, 0.5])
    P = np.array([1.0, 2.0, 3.0, 4.0])
    expected = np.array([-4.0, 2.0, 1.0, 3.0])
    assert np.max(np.abs(quat_mul(L, P) - expected)) <= 1e-15
    assert np.max(np.abs(left_matrix(L) @ P - expected)) <= 1e-15


@settings(deadline=None)
@given(seeds)
def test_norm_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    assert math.hypot(*quat_mul(a, b)) == pytest.approx(math.hypot(*a) * math.hypot(*b), rel=1e-12)


def test_conjugate_examples():
    """The kernel's conjugation, which conjugate_factorwise applies to the
    frame's factors."""
    assert _kernel.conjugate([1.0, 0.0, 0.0, 0.0]) == [1.0, 0.0, 0.0, 0.0]
    assert _kernel.conjugate([2.0, 3.0, -4.0, 5.0]) == [2.0, -3.0, 4.0, -5.0]


def test_conjugate_product_gives_squared_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = rng.standard_normal(4)
        product = quat_mul(q, conjugate_reference(q))
        assert abs(product[0] - math.hypot(*q) ** 2) <= 1e-13
        assert np.max(np.abs(product[1:])) <= 1e-13


def test_normalize():
    assert np.array_equal(normalize([2.0, 0.0, 0.0, 0.0]), IDENTITY)
    assert np.allclose(normalize([1.0, 1.0, 1.0, 1.0]), 0.5, atol=0)
    # finite components whose norm overflows: a unit quaternion, not zero
    assert normalize([1e308] * 4).tolist() == [0.5] * 4
    assert normalize([-1e308, 0.0, 1e308, 0.0]).tolist() == normalize([-1.0, 0.0, 1.0, 0.0]).tolist()
    with pytest.raises(ZeroQuaternionError):
        normalize([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ZeroQuaternionError):
        normalize([1e-200, 0.0, 0.0, 0.0])


def test_left_matrix_fixed_values():
    assert np.array_equal(left_matrix(IDENTITY), np.eye(4))
    expected = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    assert np.array_equal(left_matrix([0.0, 1.0, 0.0, 0.0]), expected)


def test_right_matrix_fixed_values():
    assert np.array_equal(right_matrix(IDENTITY), np.eye(4))
    expected = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    assert np.array_equal(right_matrix([0.0, 1.0, 0.0, 0.0]), expected)


def test_plane_rotation_semantics():
    """Left multiplication turns both coordinate planes the same way;
    right multiplication turns them oppositely."""
    alpha = np.pi / 5
    q = np.array([np.cos(alpha), np.sin(alpha), 0.0, 0.0])
    c, s = np.cos(alpha), np.sin(alpha)
    ML, MR = left_matrix(q), right_matrix(q)
    e0, e1, e2, e3 = np.eye(4)
    assert np.allclose(ML @ e0, c * e0 + s * e1, atol=1e-15)
    assert np.allclose(ML @ e1, -s * e0 + c * e1, atol=1e-15)
    assert np.allclose(ML @ e2, c * e2 + s * e3, atol=1e-15)
    assert np.allclose(ML @ e3, -s * e2 + c * e3, atol=1e-15)
    assert np.allclose(MR @ e0, c * e0 + s * e1, atol=1e-15)
    assert np.allclose(MR @ e1, -s * e0 + c * e1, atol=1e-15)
    assert np.allclose(MR @ e2, c * e2 - s * e3, atol=1e-15)
    assert np.allclose(MR @ e3, s * e2 + c * e3, atol=1e-15)


@settings(deadline=None)
@given(seeds)
def test_matrix_homomorphism(seed):
    rng = np.random.default_rng(seed)
    L1 = normalize(rng.standard_normal(4))
    L2 = normalize(rng.standard_normal(4))
    assert np.max(np.abs(left_matrix(L1) @ left_matrix(L2)
                         - left_matrix(quat_mul(L1, L2)))) <= 1e-13
    # composing right actions reverses the product order
    assert np.max(np.abs(right_matrix(L1) @ right_matrix(L2)
                         - right_matrix(quat_mul(L2, L1)))) <= 1e-13


@settings(deadline=None)
@given(seeds)
def test_matrices_are_rotations(seed):
    rng = np.random.default_rng(seed)
    L = normalize(rng.standard_normal(4))
    for M in (left_matrix(L), right_matrix(L)):
        assert np.max(np.abs(M.T @ M - np.eye(4))) <= 1e-13
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)


def test_equal_diagonal_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        L = normalize(rng.standard_normal(4))
        assert np.all(np.diag(left_matrix(L)) == L[0])
        assert np.all(np.diag(right_matrix(L)) == L[0])


@settings(deadline=None)
@given(seeds)
def test_action_consistency(seed):
    rng = np.random.default_rng(seed)
    L = normalize(rng.standard_normal(4))
    P = rng.standard_normal(4)
    assert np.max(np.abs(left_matrix(L) @ P - quat_mul(L, P))) <= 1e-13
    assert np.max(np.abs(right_matrix(L) @ P - quat_mul(P, L))) <= 1e-13


def test_isoclinic_angle():
    assert isoclinic_angle(IDENTITY) == 0.0
    assert isoclinic_angle([0.0, 1.0, 0.0, 0.0]) == pytest.approx(np.pi / 2, abs=0)
    alpha = np.pi / 5
    assert isoclinic_angle([np.cos(alpha), np.sin(alpha), 0.0, 0.0]) == pytest.approx(alpha, abs=1e-15)


def test_isoclinic_angle_clamps_roundoff():
    # scalar part a hair above 1 must clamp to angle 0, not NaN
    q = np.array([1.0 + 4e-13, 0.0, 0.0, 0.0])
    assert isoclinic_angle(q) == 0.0
    assert isoclinic_angle(-q) == np.pi


def test_unit_check_rejects():
    with pytest.raises(ValueError):
        left_matrix([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        isoclinic_angle([0.9, 0.0, 0.0, 0.0])


def test_unit_check_is_typed():
    """A factor off the unit sphere raises an IsoclinicError, still a
    ValueError, that carries |q.q - 1| as its measured value."""
    cases = (
        (van_elfrinkhof, ([1.0, 1.0, 0.0, 0.0], IDENTITY), 1.0),
        (isoclinic_angle, ([2.0, 0.0, 0.0, 0.0],), 3.0),
        (left_matrix, ([0.5, 0.0, 0.0, 0.0],), 0.75),
    )
    for call, args, deviation in cases:
        with pytest.raises(IsoclinicError) as info:
            call(*args)
        assert isinstance(info.value, NotUnitQuaternionError)
        assert isinstance(info.value, ValueError)
        assert info.value.measured == deviation


def test_shape_and_finiteness_rejected():
    with pytest.raises(ValueError):
        quat_mul([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        normalize([np.nan, 0.0, 0.0, 0.0])


def test_random_unit_quaternion():
    q1 = random_unit_quaternion(np.random.default_rng(9))
    q2 = random_unit_quaternion(np.random.default_rng(9))
    q3 = random_unit_quaternion(np.random.default_rng(10))
    assert np.array_equal(q1, q2)
    assert np.max(np.abs(q1 - q3)) > 1e-6
    assert math.hypot(*q1) == pytest.approx(1.0, abs=1e-15)
