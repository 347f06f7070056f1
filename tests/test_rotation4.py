import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import (
    associate_matrix,
    associate_norm,
    classify,
    classify_pair,
    IsoclinicError,
    MalformedInputError,
    NotOrthogonalError,
    NotProperRotationError,
    NotUnitQuaternionError,
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
from isoclinic import _kernel
from isoclinic._kernel import TABLE
from oracles import bilinear_composition, random_improper

seeds = st.integers(0, 2**32 - 1)
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


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
    assert info.value.measured == pytest.approx(6.0, abs=1e-12)


BUDGETS = [0.0, 1e-12, 1e-9, 1e-6, 0.6, 0.96, 1.0, 2.0, 5.0, math.inf]


def _zero_column(rng):
    """A Haar rotation with one column zeroed: its determinant is exactly 0."""
    A = random_rotation(rng)
    A[:, rng.integers(4)] = 0.0
    return A


@settings(deadline=None, max_examples=300)
@given(seeds, st.sampled_from([random_improper, _zero_column]), st.floats(0.0, 2.0),
       st.sampled_from(BUDGETS))
def test_no_budget_accepts_a_matrix_of_non_positive_determinant(seed, family, c, ortho_tol):
    """A scaled reflection or a scaled matrix with a zero column is rejected
    under every budget; where its Gram deviation passes, the determinant's
    sign decides, with tol 0.0."""
    A = c * family(np.random.default_rng(seed))
    entries = A.ravel().tolist()
    with pytest.raises((NotOrthogonalError, NotProperRotationError)) as info:
        validate_rotation(A, Tolerances(ortho_tol=ortho_tol))
    if _kernel.gram_deviation(entries) <= ortho_tol:
        det = _kernel.determinant(entries)
        assert det <= 0.0
        assert type(info.value) is NotProperRotationError
        assert (info.value.measured.hex(), info.value.tol) == (det.hex(), 0.0)


@settings(deadline=None, max_examples=200)
@given(seeds, st.floats(0.0, 0.9), st.sampled_from([1e-12, 1e-9, 1e-6, 0.6, 0.96]))
def test_a_scaled_rotation_within_the_budget_is_accepted(seed, c, ortho_tol):
    """sqrt(1 + c ortho_tol / 2) Q for a Haar rotation Q has Gram deviation
    about c ortho_tol, four diagonal terms of c ortho_tol / 2, and
    determinant (1 + c ortho_tol / 2)^2: validate_rotation and decompose
    both accept it, whatever its determinant's distance from 1."""
    A = math.sqrt(1.0 + c * ortho_tol / 2) * random_rotation(seed)
    tolerances = Tolerances(ortho_tol=ortho_tol)
    validate_rotation(A, tolerances)
    decompose(A, tolerances)


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
    """B, the 16x16 table of TABLE's (row, column, sign) entries:
    column 4*i + j is the matrix of P -> e_i*P*e_j, and B^T B = 4I; the
    expected columns come from the oracle, since left_matrix and right_matrix
    are read off the table itself."""
    B = np.zeros((16, 16))
    for row, column, sign in TABLE:
        B[row, column] = sign
    basis = np.eye(4)
    for i in range(4):
        for j in range(4):
            expected = bilinear_composition(basis[i], basis[j])
            assert np.array_equal(B[:, 4 * i + j].reshape(4, 4), expected)
    assert np.array_equal(B.T @ B, 4.0 * np.eye(16))


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
    """NaN, inf, ragged, non-numeric or complex entries and every wrong
    shape raise an IsoclinicError, which is still a ValueError, at every
    public entry point that takes a matrix or a quaternion. Complex input is
    malformed even with every imaginary part zero: a cast to float would
    drop that part with only a ComplexWarning. That holds for a numpy
    complex scalar among other numbers too, which numpy keeps in an array of
    dtype object. Text is malformed even where it spells a number, str or
    bytes, as an array of its own kind or an entry of an object array."""
    A = random_rotation(42)
    complex_eye = [[np.complex128(i == j) for j in range(4)] for i in range(4)]
    # the identity with a complex 1 + 1j in its corner, beside a Fraction
    mixed = [np.complex128(1 + 1j), Fraction(0), 0, 0]
    mixed_eye = [mixed, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    # the identity spelled in text: str and bytes, and a str "1" beside a Fraction
    text_eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    bytes_eye = [[b"1" if i == j else b"0" for j in range(4)] for i in range(4)]
    text_mixed = ["1", Fraction(0), 0, 0]
    text_mixed_eye = [text_mixed, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    malformed = [A[:3], A[:, :3], A.ravel(), np.hstack([A, np.zeros((4, 1))]), A[None], 1.0,
                 [[1.0, 0.0], [0.0]], [["a"] * 4] * 4,
                 np.eye(4) * (1 + 1j), np.eye(4).astype(complex), complex_eye,
                 mixed_eye, np.array(mixed_eye, dtype=object),
                 np.array([[np.complex64(1)] + [0.0] * 3] + np.eye(4)[1:].tolist(), dtype=object),
                 text_eye, bytes_eye, np.array(text_eye, dtype=object), text_mixed_eye]
    for i, bad in ((3, np.nan), (7, np.inf), (12, -np.inf)):
        nonfinite = A.copy()
        nonfinite.flat[i] = bad
        malformed.append(nonfinite)
    calls = [(entry, (bad,)) for bad in malformed
             for entry in (validate_rotation, decompose, associate_matrix, associate_norm,
                           max_abs_minor, classify, make_frame)]
    bad_quaternions = [[1.0, np.nan, 0.0, 0.0], [1.0, -np.inf, 0.0, 0.0], [1.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0, 0.0], [IDENTITY], [1.0, [0.0], 0.0, 0.0],
                       "abcd", 1.0, IDENTITY * (1 + 1j), IDENTITY.astype(complex),
                       complex_eye[0], [1 + 2j, 0.0, 0.0, 0.0], mixed,
                       np.array(mixed, dtype=object), text_eye[0], bytes_eye[0],
                       np.array(text_eye[0], dtype=object), text_mixed]
    for q in bad_quaternions:
        calls += [(normalize, (q,)), (left_matrix, (q,))]
        calls += [(entry, args) for entry in (classify_pair, quat_mul)
                  for args in ((q, IDENTITY), (IDENTITY, q))]
    for entry, args in calls:
        with pytest.raises(IsoclinicError) as info:
            entry(*args)
        assert isinstance(info.value, MalformedInputError), (entry.__name__, args)
        assert isinstance(info.value, ValueError)


def forms(x):
    """x as a float64 array, a non-contiguous view (the transpose of a
    transposed copy, or a strided column), nested lists and nested tuples."""
    x = np.asarray(x, dtype=float)
    nested = x.tolist()
    if x.ndim == 2:
        return [x, np.ascontiguousarray(x.T).T, nested, tuple(map(tuple, nested))]
    return [x, np.tile(x, (2, 1)).T[:, 0], nested, tuple(nested)]


def test_finite_check_reads_the_entry_sum():
    """Coercion scans the entries one by one only when their sum is not
    finite. Finite entries whose sum overflows still reach the checks and
    are rejected there, decompose's as validation's, by the Gram deviation
    that overflows with them; +inf beside -inf, whose sum is NaN, is malformed;
    for every form the coercion takes. An int past the float range is
    malformed, not an untyped OverflowError."""
    big = np.full((4, 4), 1e308)
    big[0] = 1.7976931348623157e308
    big_q = [1e308, 1.7976931348623157e308, 1e308, 1e308]
    assert math.isinf(sum(big.ravel().tolist())) and math.isinf(sum(big_q))
    # float32 cannot hold 1e308; ints can
    for A in forms(big) + [[[10 ** 308] * 4] * 4]:
        for entry in (validate_rotation, decompose, classify):
            with pytest.raises(NotOrthogonalError) as info:
                entry(A)
            assert info.value.measured == math.inf
    for q in forms(big_q) + [[10 ** 308] * 4]:
        for args in ((q, IDENTITY), (IDENTITY, q)):
            with pytest.raises(NotUnitQuaternionError):
                classify_pair(*args)

    opposite = np.eye(4)
    opposite[0, 1], opposite[2, 3] = np.inf, -np.inf
    opposite_q = [np.inf, -np.inf, 0.0, 0.0]
    assert math.isnan(sum(opposite.ravel().tolist())) and math.isnan(sum(opposite_q))
    for A in forms(opposite) + [opposite.astype(np.float32), [[10 ** 400] * 4] * 4]:
        for entry in (validate_rotation, decompose, associate_matrix, classify):
            with pytest.raises(MalformedInputError):
                entry(A)
    for q in forms(opposite_q) + [np.float32(opposite_q), [10 ** 400, 0, 0, 0]]:
        for entry, args in ((classify_pair, (q, IDENTITY)), (classify_pair, (IDENTITY, q)),
                            (normalize, (q,)), (left_matrix, (q,))):
            with pytest.raises(MalformedInputError):
                entry(*args)


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
