import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import (
    DegenerateNormError,
    IDENTITY,
    NormDeviationError,
    NotRankOneError,
    RotationKind,
    Tolerances,
    associate_matrix,
    associate_norm,
    canonical_pair,
    classify,
    classify_pair,
    decompose,
    left_matrix,
    max_abs_minor,
    minor_2x2,
    normalize,
    random_rotation,
    rank1_factor,
    right_matrix,
    van_elfrinkhof,
)
from oracles import associate_reference, brute_max_minor, pair_deviation, random_improper

seeds = st.integers(0, 2**32 - 1)

E00 = np.outer(IDENTITY, IDENTITY)


def test_identity_recombines_to_corner():
    assert np.array_equal(associate_matrix(np.eye(4)), E00)
    assert np.array_equal(associate_matrix(-np.eye(4)), -E00)


@settings(deadline=None)
@given(seeds)
def test_recombination_is_outer_product_of_factors(seed):
    rng = np.random.default_rng(seed)
    L = normalize(rng.standard_normal(4))
    R = normalize(rng.standard_normal(4))
    M = associate_matrix(van_elfrinkhof(L, R))
    assert np.max(np.abs(M - np.outer(L, R))) <= 1e-13


def test_associate_matrix_matches_reference_formula():
    rng = np.random.default_rng(40)
    for _ in range(2000):
        A = rng.standard_normal((4, 4))
        assert np.max(np.abs(associate_matrix(A) - associate_reference(A))) <= 1e-15


def test_recombination_is_linear():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    lhs = associate_matrix(2.5 * A - 0.75 * B)
    rhs = 2.5 * associate_matrix(A) - 0.75 * associate_matrix(B)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_norm_values():
    assert associate_norm(associate_matrix(np.eye(4))) == 1.0
    assert associate_norm(np.zeros((4, 4))) == 0.0
    for seed in range(200):
        M = associate_matrix(random_rotation(seed))
        assert abs(associate_norm(M) - 1.0) <= 1e-12


def test_minor_examples():
    rank1 = np.outer([1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0, 1.5])
    for idx in ((0, 1, 0, 1), (0, 3, 1, 2), (2, 3, 0, 3)):
        assert abs(minor_2x2(rank1, *idx)) <= 1e-13
    M = associate_matrix(random_rotation(11))
    assert abs(minor_2x2(M, 0, 1, 0, 1)) <= 1e-12
    assert minor_2x2(np.eye(4), 0, 1, 0, 1) == 1.0


def test_minor_index_validation():
    M = np.eye(4)
    with pytest.raises(IndexError):
        minor_2x2(M, 1, 0, 0, 1)  # rows not increasing
    with pytest.raises(IndexError):
        minor_2x2(M, 0, 1, 2, 2)  # columns not increasing
    with pytest.raises(IndexError):
        minor_2x2(M, 0, 4, 0, 1)  # out of range
    with pytest.raises(IndexError):
        minor_2x2(M, 0, 1.5, 0, 1)  # not an index


def test_max_abs_minor_matches_brute_scan():
    rng = np.random.default_rng(6)
    for _ in range(50):
        M = rng.standard_normal((4, 4))
        assert max_abs_minor(M) == pytest.approx(brute_max_minor(M), abs=1e-13)
    assert max_abs_minor(np.eye(4)) == 1.0


def test_rank1_factor_corner_cases():
    L, R = rank1_factor(E00)
    assert np.array_equal(L, IDENTITY)
    assert np.array_equal(R, IDENTITY)
    # canonical sign puts the flip on the right factor
    L, R = rank1_factor(-E00)
    assert np.array_equal(L, IDENTITY)
    assert np.array_equal(R, -IDENTITY)


@settings(deadline=None)
@given(seeds)
def test_rank1_factor_round_trip(seed):
    rng = np.random.default_rng(seed)
    L0 = normalize(rng.standard_normal(4))
    R0 = normalize(rng.standard_normal(4))
    L, R = rank1_factor(np.outer(L0, R0))
    assert pair_deviation((L, R), (L0, R0)) <= 1e-12
    # the returned representative is the canonical one
    cL, cR = canonical_pair(L0, R0)
    assert max(np.max(np.abs(L - cL)), np.max(np.abs(R - cR))) <= 1e-12


def test_rank1_factor_rejects():
    with pytest.raises(DegenerateNormError):
        rank1_factor(0.2 * E00)
    with pytest.raises(NotRankOneError):
        rank1_factor(np.eye(4))
    # rank 1 but wrongly scaled: minors vanish, the refit residual catches it
    scaled = 0.8 * np.outer(normalize([1.0, 2.0, 0.0, 1.0]), normalize([2.0, 1.0, 1.0, 0.0]))
    with pytest.raises(NotRankOneError):
        rank1_factor(scaled)


def test_canonical_pair():
    L = np.array([-0.5, 0.5, 0.5, 0.5])
    R = np.array([0.0, 1.0, 0.0, 0.0])
    cL, cR = canonical_pair(L, R)
    assert np.array_equal(cL, -L)
    assert np.array_equal(cR, -R)
    # components below sign_tol do not anchor the sign
    L = np.array([1e-12, -0.8, 0.6, 0.0])
    cL, cR = canonical_pair(L, R)
    assert np.array_equal(cL, -L)
    # already canonical input passes through unchanged
    L = np.array([0.6, -0.8, 0.0, 0.0])
    cL, cR = canonical_pair(L, R)
    assert np.array_equal(cL, L)
    assert np.array_equal(cR, R)


def test_decompose_identity():
    result = decompose(np.eye(4))
    assert np.array_equal(result.left, IDENTITY)
    assert np.array_equal(result.right, IDENTITY)
    assert result.reconstruction_residual == 0.0
    assert result.norm_deviation == 0.0
    assert result.max_minor == 0.0


def test_decompose_pure_left_rotation():
    alpha = np.pi / 5
    q = np.array([np.cos(alpha), np.sin(alpha), 0.0, 0.0])
    result = decompose(van_elfrinkhof(q, IDENTITY))
    assert np.max(np.abs(result.left - q)) <= 1e-15
    assert np.max(np.abs(result.right - IDENTITY)) <= 1e-15


@settings(deadline=None)
@given(seeds)
def test_decompose_round_trip(seed):
    rng = np.random.default_rng(seed)
    L0 = normalize(rng.standard_normal(4))
    R0 = normalize(rng.standard_normal(4))
    A = van_elfrinkhof(L0, R0)
    result = decompose(A)
    assert pair_deviation((result.left, result.right), (L0, R0)) <= 1e-12
    assert result.reconstruction_residual <= 1e-12
    assert np.max(np.abs(van_elfrinkhof(result.left, result.right) - A)) <= 1e-12


def test_decompose_canonical_sign_invariant():
    for seed in range(100):
        result = decompose(random_rotation(seed))
        anchor = next(c for c in result.left if abs(c) > 1e-8)
        assert anchor > 0


def test_decompose_rejects_improper():
    with pytest.raises(NotRankOneError):
        decompose(np.diag([1.0, 1.0, 1.0, -1.0]))
    rng = np.random.default_rng(13)
    for _ in range(20):
        with pytest.raises(NotRankOneError):
            decompose(random_improper(rng))


def test_decompose_rejects_scaled_input():
    with pytest.raises(NormDeviationError):
        decompose(0.9 * np.eye(4))
    with pytest.raises(NormDeviationError):
        decompose(2.0 * random_rotation(1))


def test_decompose_tolerates_tiny_noise():
    """Perturbations around 1e-11 leave small nonzero minors, below
    minor_tol, and still reconstruct well below the acceptance threshold."""
    rng = np.random.default_rng(21)
    A = random_rotation(rng)
    noisy = A + 1e-11 * rng.standard_normal((4, 4))
    result = decompose(noisy)
    assert 0 < result.max_minor <= 1e-10
    assert result.reconstruction_residual <= 1e-9


def test_decompose_strict_tolerances_reject_noise():
    rng = np.random.default_rng(22)
    A = random_rotation(rng)
    noisy = A + 1e-11 * rng.standard_normal((4, 4))
    with pytest.raises(NotRankOneError):
        decompose(noisy, Tolerances(minor_tol=1e-14))


def test_only_two_sign_choices_reconstruct():
    for seed in range(25):
        A = random_rotation(seed)
        result = decompose(A)
        L, R = result.left, result.right
        assert np.max(np.abs(van_elfrinkhof(-L, -R) - A)) <= 1e-12
        assert np.max(np.abs(van_elfrinkhof(L, -R) - A)) >= 0.1
        assert np.max(np.abs(van_elfrinkhof(-L, R) - A)) >= 0.1


def test_classify_fixed_kinds():
    identity = classify(np.eye(4))
    assert identity.kind is RotationKind.IDENTITY
    assert identity.left_angle == 0.0
    assert identity.right_angle == 0.0
    reversion = classify(-np.eye(4))
    assert reversion.kind is RotationKind.CENTRAL_REVERSION
    left = classify(left_matrix([0.0, 1.0, 0.0, 0.0]))
    assert left.kind is RotationKind.LEFT_ISOCLINIC
    assert left.left_angle == pytest.approx(np.pi / 2, abs=1e-12)
    right = classify(right_matrix(normalize([3.0, 1.0, 2.0, 2.0])))
    assert right.kind is RotationKind.RIGHT_ISOCLINIC


def test_classify_general():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        L = normalize(rng.standard_normal(4))
        R = normalize(rng.standard_normal(4))
        kind = classify(van_elfrinkhof(L, R))
        # random factors are essentially never trivial
        assert kind.kind is RotationKind.GENERAL
        assert 0.0 < kind.left_angle < np.pi
        assert 0.0 < kind.right_angle < np.pi


def test_classify_pair_threshold():
    near_identity = normalize([1.0, 1e-6, 0.0, 0.0])
    R = normalize([1.0, 2.0, 3.0, 4.0])
    strict = classify_pair(near_identity, R, iso_tol=1e-9)
    loose = classify_pair(near_identity, R, iso_tol=1e-5)
    assert strict.kind is RotationKind.GENERAL
    assert loose.kind is RotationKind.RIGHT_ISOCLINIC
