import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isoclinic import (
    IsoclinicError,
    NotOrthogonalError,
    NotProperRotationError,
    RotationKind,
    Tolerances,
    associate_matrix,
    associate_norm,
    classify,
    classify_pair,
    decompose,
    left_matrix,
    make_frame,
    max_abs_minor,
    normalize,
    quat_mul,
    random_rotation,
    random_unit_quaternion,
    right_matrix,
    validate_rotation,
    _kernel,
    van_elfrinkhof,
)
from oracles import (
    associate_reference,
    bilinear_composition,
    brute_max_minor,
    canonical_reference,
    conjugate_reference,
    exact_associate,
    exact_composition,
    exact_is_rotation,
    exact_minors,
    pair_deviation,
    procrustes,
    random_improper,
    rational_unit,
)
from test_kernel import read_off

seeds = st.integers(0, 2**32 - 1)
EPS = np.finfo(float).eps
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

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


def rational_rotation(rng):
    """Q(L, R), exactly, for L and R each p*p / |p|^2 with p an integer
    quaternion, components in [-9, 9], not zero."""
    def factor():
        while True:
            p = [rng.randint(-9, 9) for _ in range(4)]
            if any(p):
                return rational_unit(p)
    return exact_composition(factor(), factor())


# the diagonals D that make Q D no rotation, by family; ||M||^2 is the sum
# of the squares of D over 4, which is 1 for every reflected D and for all
# but one of the rank-deficient and stretched ones, so their minors alone
# tell; every minor of a scaled one vanishes, so its norm alone tells
NON_ROTATIONS = {
    "scaled": [[2] * 4, [Fraction(1, 2)] * 4, [Fraction(-3, 5)] * 4],
    "reflected": [[1, 1, 1, -1], [-1, 1, 1, 1]],
    "rank-deficient": [[2, 0, 0, 0], [Fraction(6, 5), Fraction(8, 5), 0, 0], [1, 1, 1, 0]],
    "stretched": [[Fraction(7, 5), Fraction(1, 5), 1, 1], [Fraction(1001, 1000), 1, 1, 1]],
}


def test_rotation_iff_rank_one_unit_associate_exactly():
    """The abstract's theorem with no tolerance: A^T A = I and det A = 1 if
    and only if all 36 minors of M = B^T vec(A) / 4 vanish and ||M||^2 = 1.
    Both sides are drawn in exact rationals: 150 rotations Q(L, R), and 150
    products Q D with D from each non-rotation family in turn."""
    rng = random.Random(6)
    pool = [(rational_rotation(rng), None, None) for _ in range(150)]
    diagonals = [(family, d) for family, ds in NON_ROTATIONS.items() for d in ds]
    for k in range(150):
        family, d = diagonals[k % len(diagonals)]
        Q = rational_rotation(rng)
        pool.append(([[Q[r][c] * d[c] for c in range(4)] for r in range(4)], family, d))
    for A, family, d in pool:
        M = exact_associate(A)
        rank_one = all(minor == 0 for minor in exact_minors(M))
        norm2 = sum(x * x for row in M for x in row)
        assert exact_is_rotation(A) == (family is None) == (rank_one and norm2 == 1)
        if family is not None:
            assert rank_one == (family == "scaled") and norm2 == sum(x * x for x in d) / 4


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
    """Every minor of a rank-1 matrix vanishes, the associate matrix of a
    rotation's among them."""
    rank1 = np.outer([1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0, 1.5])
    assert max_abs_minor(rank1) <= 1e-13
    assert max_abs_minor(associate_matrix(random_rotation(11))) <= 1e-12


def test_max_abs_minor_matches_brute_scan():
    rng = np.random.default_rng(6)
    for _ in range(50):
        M = rng.standard_normal((4, 4))
        assert max_abs_minor(M) == pytest.approx(brute_max_minor(M), abs=1e-13)
    assert max_abs_minor(np.eye(4)) == 1.0


def test_decompose_identity():
    result = decompose(np.eye(4))
    assert np.array_equal(result.left, IDENTITY)
    assert np.array_equal(result.right, IDENTITY)
    assert result.distance == 0.0
    assert result.norm_deviation == 0.0


def test_decomposition_unpacks_and_compares_by_identity():
    """The result unpacks as (left, right, distance, norm_deviation); == and
    hash are by identity, since comparing its arrays elementwise has no
    single truth value."""
    result, again = decompose(np.eye(4)), decompose(np.eye(4))
    left, right, distance, norm_deviation = result
    assert (left, right) == (result.left, result.right)
    assert (distance, norm_deviation) == (result.distance, result.norm_deviation)
    assert result == result and not result != result
    assert result != again and not result == again
    assert len({result, again, result}) == 2


@pytest.mark.parametrize("bound", [math.nan, -1.0, -math.inf])
@pytest.mark.parametrize("field", ["ortho_tol"])
def test_tolerances_reject_nan_and_negative_bounds(field, bound):
    """A NaN or negative bound would reject every matrix, the identity
    included, and call every factor nontrivial; either raises ValueError
    naming the field, from the constructor and from _replace. Zero and
    infinity are bounds."""
    with pytest.raises(ValueError, match=f"^{field} must be a non-negative number"):
        Tolerances(**{field: bound})
    with pytest.raises(ValueError, match=f"^{field} must be a non-negative number"):
        Tolerances()._replace(**{field: bound})
    edges = Tolerances(**{field: 0.0}), Tolerances(**{field: math.inf})
    assert [getattr(t, field) for t in edges] == [0.0, math.inf]
    unchecked = tuple.__new__(Tolerances, (bound,))  # past the constructor's check
    identity = np.eye(4).ravel().tolist()
    for check in (_kernel.validate, _kernel.decompose):
        with pytest.raises(NotOrthogonalError, match=r"= 0 exceeds"):
            check(identity, unchecked)
    one = [1.0, 0.0, 0.0, 0.0]
    assert _kernel.classify(one, one, unchecked).kind is RotationKind.GENERAL


def test_distance_bound_cannot_be_set():
    """ortho_tol is the one field and there is no distance bound: dist_tol
    can be passed neither to the constructor nor to _replace, nor assigned,
    nor read."""
    assert Tolerances._fields == ("ortho_tol",)
    tolerances = Tolerances()
    with pytest.raises(TypeError):
        Tolerances(dist_tol=1.0)
    with pytest.raises(ValueError):
        tolerances._replace(dist_tol=1.0)
    with pytest.raises(AttributeError):
        tolerances.dist_tol = 1.0
    assert not hasattr(tolerances, "dist_tol")


def test_tolerances_round_trip_through_pickle_and_copy():
    """Tolerances(a) is (ortho_tol,), and a second bound is a TypeError;
    pickle, copy and _replace rebuild it with its field."""
    tolerances = Tolerances(1e-6)
    assert tuple(tolerances) == (1e-6,)
    with pytest.raises(TypeError):
        Tolerances(1e-6, 1e-5)
    for clone in (pickle.loads(pickle.dumps(tolerances)), copy.copy(tolerances),
                  copy.deepcopy(tolerances), tolerances._replace()):
        assert type(clone) is Tolerances and clone == tolerances


# exact rotations of the identity-factor kinds, with their factors as
# decompose has always returned them, signs of zero included
SIGNED_ZEROS = {
    "identity": (np.eye(4), [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
    "central reversion": (-np.eye(4), [1.0, -0.0, -0.0, -0.0], [-1.0, -0.0, -0.0, -0.0]),
    "left-isoclinic": (-left_matrix([0.5, 0.5, 0.5, 0.5]), [0.5, 0.5, 0.5, 0.5],
                       [-1.0, -0.0, -0.0, -0.0]),
    "right-isoclinic": (right_matrix([0.0, -0.6, 0.0, 0.8]), [1.0, 0.0, 0.0, 0.0],
                        [0.0, -0.6, 0.0, 0.8]),
}


@pytest.mark.parametrize("case", list(SIGNED_ZEROS))
def test_decompose_keeps_signs_of_zero(case):
    A, left, right = SIGNED_ZEROS[case]
    result = decompose(A)
    for got, want in ((result.left, left), (result.right, right)):
        assert got.tolist() == want
        assert np.signbit(got).tolist() == np.signbit(want).tolist()


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
    assert result.distance <= 1e-12
    assert np.max(np.abs(van_elfrinkhof(result.left, result.right) - A)) <= 1e-12


def test_decompose_canonical_sign_invariant():
    for seed in range(100):
        result = decompose(random_rotation(seed))
        anchor = next(c for c in result.left if abs(c) > 1e-8)
        assert anchor > 0


@settings(deadline=None)
@given(seeds)
def test_decompose_follows_the_group_laws(seed):
    """(L, R) -> (P -> L*P*R) is a homomorphism onto SO(4) with kernel
    +/-(1, 1), so decompose reads products, transposes, negations and
    one-sided factors off the factors of A and B, up to the joint sign; each
    returned pair is canonical. Right multiplication reverses the order of
    the right factors."""
    rng = np.random.default_rng(seed)
    A, B = random_rotation(rng), random_rotation(rng)
    p, q = random_unit_quaternion(rng), random_unit_quaternion(rng)
    (LA, RA, *_), (LB, RB, *_) = decompose(A), decompose(B)
    laws = {
        "A B": (A @ B, quat_mul(LA, LB), quat_mul(RB, RA)),
        "A^T": (A.T, conjugate_reference(LA), conjugate_reference(RA)),
        "-A": (-A, -LA, RA),
        "left(p) A": (left_matrix(p) @ A, quat_mul(p, LA), RA),
        "A left(p)": (A @ left_matrix(p), quat_mul(LA, p), RA),
        "right(q) A": (right_matrix(q) @ A, LA, quat_mul(RA, q)),
        "A right(q)": (A @ right_matrix(q), LA, quat_mul(q, RA)),
    }
    for law, (M, left, right) in laws.items():
        result = decompose(M)
        assert pair_deviation((result.left, result.right), (left, right)) <= 4e-15, law
        canonical = canonical_reference(result.left, result.right)
        assert all(map(np.array_equal, canonical, (result.left, result.right))), law


def gram(A):
    """||A^T A - I||_F by numpy, the oracle of the Gram deviation."""
    return float(np.linalg.norm(A.T @ A - np.eye(4)))


def test_decompose_rejects_improper():
    """An orthogonal matrix of determinant -1 lies at distance 2 from SO(4),
    past the shortcut, and is rejected as validation rejects it: not
    proper, carrying its determinant."""
    with pytest.raises(NotProperRotationError) as info:
        decompose(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert (info.value.measured, info.value.tol) == (-1.0, 0.0)
    rng = np.random.default_rng(13)
    for _ in range(20):
        A = random_improper(rng)
        with pytest.raises(NotProperRotationError) as info:
            decompose(A)
        assert abs(info.value.measured - np.linalg.det(A)) <= 1e-14


def test_decompose_rejects_scaled_input():
    """A scaled rotation keeps rank 1 but misses norm 1; decompose rejects
    it as validation does, not orthogonal, with the Gram deviation."""
    for A in (0.9 * np.eye(4), 2.0 * random_rotation(1)):
        with pytest.raises(NotOrthogonalError) as info:
            decompose(A)
        assert info.value.measured == pytest.approx(gram(A), rel=0, abs=1e-14)


def test_decompose_tolerates_tiny_noise():
    """Perturbations around 1e-11 leave a small nonzero distance, well
    inside the shortcut of the default budget, and a norm deviation below
    half of it."""
    rng = np.random.default_rng(21)
    A = random_rotation(rng)
    noisy = A + 1e-11 * rng.standard_normal((4, 4))
    result = decompose(noisy)
    assert 0 < result.distance <= 1e-10
    assert result.norm_deviation <= result.distance / 2


def test_decompose_strict_tolerances_reject_noise():
    """Noise of 1e-11 passes the defaults but not a stricter policy. Any
    ortho_tol below the Gram deviation rejects it as validate_rotation
    does, with that deviation, the oracle's; a budget of the deviation
    itself accepts it, below 2d + d^2 + SHORTCUT_SLACK, where the shortcut
    gives way to validation. The distance and the norm deviation are reported, never
    checked."""
    rng = np.random.default_rng(22)
    A = random_rotation(rng)
    noisy = A + 1e-11 * rng.standard_normal((4, 4))
    result = decompose(noisy)
    deviation = _kernel.gram_deviation(noisy.ravel().tolist())
    assert 0 < 2 * result.norm_deviation < result.distance
    assert deviation < 2 * result.distance + result.distance ** 2 + _kernel.SHORTCUT_SLACK
    for ortho_tol in (5e-15, math.nextafter(deviation, 0.0)):
        with pytest.raises(NotOrthogonalError) as info:
            decompose(noisy, Tolerances(ortho_tol=ortho_tol))
        assert (info.value.measured, info.value.tol) == (deviation, ortho_tol)
        assert info.value.measured == pytest.approx(gram(noisy), rel=0, abs=1e-15)
    assert decompose(noisy, Tolerances(ortho_tol=deviation)).distance == result.distance


def test_zero_matrix_is_degenerate_under_open_tolerances():
    """A zero or tiny matrix, whose associate norm is at most
    DEGENERACY_TOL, fails as validation fails it, never as a
    ZeroQuaternionError from normalizing: under a budget of 5 or inf its
    Gram deviation, 2, passes and its determinant, 0, is not positive."""
    for A in (np.zeros((4, 4)), 1e-200 * np.eye(4)):
        assert associate_norm(associate_matrix(A)) <= _kernel.DEGENERACY_TOL
        for ortho_tol in (5.0, math.inf):
            with pytest.raises(NotProperRotationError) as info:
                decompose(A, Tolerances(ortho_tol=ortho_tol))
            assert (info.value.measured, info.value.tol) == (0.0, 0.0)


def test_an_overflowed_gram_deviation_fails_every_budget():
    """1.4e308 times a rotation of 2x2 blocks, whose associate norm
    overflows, and 1e308 I, whose associate norm is 1e308, have Gram
    deviation inf and determinant +inf. Every budget rejects both, an
    infinite one too, as validation does: NotOrthogonalError carrying inf."""
    block = np.array([[1.0, -1.0], [1.0, 1.0]])
    huge = 1.4e308 * np.kron(np.eye(2), block)
    assert associate_norm(associate_matrix(huge)) == math.inf
    assert associate_norm(associate_matrix(1e308 * np.eye(4))) == 1e308
    for A in (huge, 1e308 * np.eye(4)):
        assert _kernel.determinant(A.ravel().tolist()) == math.inf
        for ortho_tol in (1e-9, 1e300, math.inf):
            expected = (NotOrthogonalError, float.hex(math.inf), float.hex(ortho_tol))
            for function in (validate_rotation, decompose, classify):
                assert verdict(function, A, Tolerances(ortho_tol)) == expected


def near_rotation(seed, exponent, improper):
    """A rotation, or an orthogonal matrix of determinant -1, plus Gaussian
    noise of scale 10**exponent."""
    rng = np.random.default_rng(seed)
    A = random_improper(rng) if improper else random_rotation(rng)
    return A + 10.0 ** exponent * rng.standard_normal((4, 4))


@settings(deadline=None, max_examples=300)
@given(seeds, st.floats(-12, -6), st.floats(-2, 0.5))
def test_validated_matrices_decompose(seed, log_tol, noise_offset):
    """Under one Tolerances(ortho_tol=t), t from 1e-12 to 1e-6, whatever
    validate_rotation accepts, decompose and classify accept. The noise is
    drawn on the scale of t, where the shortcut gives way to validation."""
    tolerances = Tolerances(ortho_tol=10.0 ** log_tol)
    A = near_rotation(seed, log_tol + noise_offset, False)
    try:
        validate_rotation(A, tolerances)
    except IsoclinicError:
        return
    decompose(A, tolerances)
    classify(A, tolerances)


@settings(deadline=None, max_examples=300)
@given(st.builds(near_rotation, seeds, st.floats(-16, -6), st.just(False)))
def test_distance_is_the_distance_to_so4(A):
    """Near SO(4) the distance decompose measures is that of A from the
    nearest rotation, which the SVD oracle computes independently."""
    result = decompose(A, Tolerances(ortho_tol=0.5))
    assert abs(result.distance - np.linalg.norm(A - procrustes(A))) <= 1e-14


@settings(deadline=None, max_examples=300)
@given(seeds, st.floats(-16, 0))
def test_the_gram_deviation_brackets_the_distance_to_so4(seed, exponent):
    """Higham's two-sided inequality (Functions of Matrices, SIAM 2008,
    ch. 8): for det A > 0, d_opt <= ||A^T A - I||_F <= 2 d_opt + d_opt^2,
    d_opt the distance from A to the nearest rotation, the SVD oracle's.
    With A = U P its polar factors, d_opt = ||P - I||_F and A^T A - I =
    (P - I)(P + I). Each side holds to 16 eps ||A||_F^2, above the rounding
    of the kernel's sums of products and of the SVD. A rotation plus noise
    of 10^k, k from -16 to 0, makes the deviation from rounding to about 10."""
    rng = np.random.default_rng(seed)
    A = random_rotation(rng) + 10.0 ** exponent * rng.standard_normal((4, 4))
    assume(np.linalg.det(A) > 0)
    deviation = _kernel.gram_deviation(A.ravel().tolist())
    distance = float(np.linalg.norm(A - procrustes(A)))
    margin = 16 * EPS * float(np.linalg.norm(A)) ** 2
    assert distance - margin <= deviation <= 2 * distance + distance ** 2 + margin


HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


def hadamard_root(t):
    """(I + tH)^(1/2), H the Sylvester-Hadamard matrix. H^2 = 4I, so
    (I +/- H/2) / 2 project onto its eigenspaces for +2 and -2 and the root
    is built from them with no rounding beyond two square roots."""
    eye = np.eye(4)
    return (np.sqrt(1 + 2 * t) * (eye + HADAMARD / 2) / 2
            + np.sqrt(1 - 2 * t) * (eye - HADAMARD / 2) / 2)


@pytest.mark.parametrize("t", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_validated_hadamard_square_root_decomposes(t):
    """A = (I + tH)^(1/2) has A^T A = I + tH, so it validates under ortho_tol
    = its Gram deviation, ||tH||_F = 4t; it lies at distance about
    2t (1 + 5t^2 / 8) from SO(4), where 2d + d^2 is past 4t, and decompose
    accepts it as validation does, at that distance."""
    A = hadamard_root(t)
    tolerances = Tolerances(ortho_tol=_kernel.gram_deviation(A.ravel().tolist()))
    validate_rotation(A, tolerances)
    result = decompose(A, tolerances)
    assert result.distance == pytest.approx(np.linalg.norm(A - procrustes(A)), rel=1e-12)
    assert 2 * result.distance > tolerances.ortho_tol


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
    strict = classify_pair(near_identity, R, Tolerances(ortho_tol=1e-9))
    loose = classify_pair(near_identity, R, Tolerances(ortho_tol=1e-5))
    assert strict.kind is RotationKind.GENERAL
    assert loose.kind is RotationKind.RIGHT_ISOCLINIC


# input, the call that rejects it, the error type and the expected measured
# value, computed from the input by the oracles: every rejection is
# validation's
REJECTIONS = {
    "rotation scaled by 1.5": (lambda: 1.5 * random_rotation(31), decompose,
                               NotOrthogonalError, gram),
    "orthogonal, det -1": (
        lambda: random_improper(np.random.default_rng(32)), decompose, NotProperRotationError,
        lambda A: np.linalg.det(A)),
    # 0.4 I, whose associate matrix is 0.4 E00: the pair (1, 1) reads off at
    # distance 2 ||0.4 E00 - E00||_F = 1.2, and validation rejects it
    "0.4 E00": (lambda: 0.4 * np.eye(4), decompose, NotOrthogonalError, gram),
    "zero matrix": (lambda: np.zeros((4, 4)), decompose, NotOrthogonalError, gram),
    # the squares exceed the largest float, so the Gram deviation reads inf
    "norm overflows": (lambda: np.full((4, 4), 1e308), decompose, NotOrthogonalError,
                       lambda A: math.inf),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejection_stage_and_measured(case):
    make, call, error, expected = REJECTIONS[case]
    x = make()
    with pytest.raises(error) as info:
        call(x)
    assert type(info.value) is error
    assert info.value.measured == pytest.approx(expected(x), rel=0, abs=1e-15)


def test_small_norm_is_decided_by_the_distance():
    """No norm floor stands before validation: 0.4 I, whose associate norm
    is 0.4, decomposes into the identity pair at distance 1.2 once a budget
    of 5 admits its Gram deviation, 1.68; its determinant, 0.0256, is
    positive."""
    result = decompose(0.4 * np.eye(4), Tolerances(ortho_tol=5.0))
    assert result.left.tolist() == result.right.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert result.distance == pytest.approx(1.2, rel=0, abs=1e-15)
    assert result.norm_deviation == pytest.approx(0.6, rel=0, abs=1e-15)


@settings(deadline=None, max_examples=300)
@given(st.one_of(
    arrays(np.float64, (4, 4), elements=st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(near_rotation, seeds, st.integers(-16, 0), st.booleans()),
))
def test_every_rejection_is_typed_and_measured(A):
    """decompose rejects a finite matrix only with an IsoclinicError whose
    measured value is finite, whenever the squares of its entries sum to a
    finite float (see "norm overflows" above for when they do not): the
    Gram deviation, or, once that passes, the determinant."""
    assume(math.isfinite(sum(x * x for x in A.ravel().tolist())))
    try:
        decompose(A)
    except IsoclinicError as exc:
        assert exc.measured is not None and math.isfinite(exc.measured), exc


# scaled, noisy, reflected, zero and overflowing inputs: every way the
# norm or the distance can miss, each under six budgets from exact to open
gate_inputs = st.one_of(
    st.builds(lambda seed, scale: scale * random_rotation(seed), seeds,
              st.sampled_from([1e-200, 1e-151, 1e-149, 0.3, 0.5, 1.0, 1.0 + 1e-10, 1.5, 1e150,
                               1e308])
              | st.floats(0.45, 1.1)),
    st.builds(near_rotation, seeds, st.floats(-17, 0), st.booleans()),
    st.sampled_from([np.zeros((4, 4)), np.full((4, 4), 1e308)]),
)
gate_tolerances = st.sampled_from([Tolerances(ortho_tol=t)
                                   for t in (0.0, 1e-12, 1e-9, 1e-6, 0.6, math.inf)])


def verdict(function, *args):
    """None when function returns, else the type of what it raises and its
    measured value and bound, spelled by float.hex so that NaN compares equal."""
    try:
        function(*args)
    except IsoclinicError as exc:
        return type(exc), float.hex(exc.measured), float.hex(exc.tol)
    return None


@settings(deadline=None, max_examples=400)
@given(gate_inputs, gate_tolerances)
def test_decompose_decides_by_the_norm_domain_and_the_distance(A, tolerances):
    """decompose reads a distance off every matrix whose associate norm lies
    in (DEGENERACY_TOL, inf), that of A from the rotation of the factors
    read off, by the oracle's composition; at most 1/2, with 2d + d^2 +
    SHORTCUT_SLACK within ortho_tol, it certifies that validation accepts.
    Whatever the distance, decompose accepts what validation accepts,
    reporting it, and raises what validation raises otherwise. Validation
    rejects every matrix whose norm lies outside the domain, under every
    budget, ortho_tol = inf included."""
    norm = associate_norm(associate_matrix(A))
    readable = _kernel.DEGENERACY_TOL < norm < math.inf
    expected = verdict(validate_rotation, A, tolerances)
    if readable:
        L, R, distance = read_off(A.ravel().tolist())
        rotation = bilinear_composition(L, R)
        assert distance == pytest.approx(math.hypot(*(A - rotation).ravel()), rel=1e-12, abs=1e-14)
        if distance <= 0.5 and (2 * distance + distance * distance + _kernel.SHORTCUT_SLACK
                                <= tolerances.ortho_tol):
            assert expected is None
    if not readable:
        assert expected is not None
    try:
        result = decompose(A, tolerances)
    except IsoclinicError:
        assert verdict(decompose, A, tolerances) == expected is not None
    else:
        assert readable and expected is None
        assert (result.distance, result.norm_deviation) == (distance, abs(norm - 1.0))


AGREEMENT_BUDGETS = [0.0, 1e-12, 1e-9, 1e-6, 0.1, 1.0, 2.0]
AGREEMENT_FAMILIES = ["noisy", "hadamard", "scaled", "stretch", "reflection", "zero column"]


@st.composite
def agreement_cases(draw):
    """A matrix and the budget it is tried under. The matrix is a Haar
    rotation Q plus noise of 10^k times a budget, Q (I + tH)^(1/2), (1 + c
    tau) Q, the stretch Q diag(1 + e, 1, 1, 1), whose Gram deviation is
    exactly 2d + d^2 for its distance d, Q diag(1, 1, 1, -1) times c in
    [0, 2], or Q with a zero column; the budget is that one, the matrix's
    own Gram deviation or the float below it."""
    scale = draw(st.sampled_from(AGREEMENT_BUDGETS))
    rng = np.random.default_rng(draw(seeds))
    Q = random_rotation(rng)
    family = draw(st.sampled_from(AGREEMENT_FAMILIES))
    if family == "noisy":
        A = Q + 10.0 ** draw(st.floats(-3, 2)) * scale * rng.standard_normal((4, 4))
    elif family == "hadamard":
        A = Q @ hadamard_root(draw(st.floats(0.0, 0.45)))
    elif family == "scaled":
        A = (1.0 + draw(st.floats(-2.0, 2.0)) * scale) * Q
    elif family == "stretch":
        A = Q * [1.0 + 10.0 ** draw(st.floats(-17, math.log10(0.45))), 1.0, 1.0, 1.0]
    elif family == "reflection":
        A = draw(st.floats(0.0, 2.0)) * Q * [1.0, 1.0, 1.0, -1.0]
    else:
        A = Q * (np.arange(4) != draw(st.integers(0, 3)))
    deviation = _kernel.gram_deviation(A.ravel().tolist())
    budget = draw(st.sampled_from([scale, deviation, math.nextafter(deviation, 0.0)]))
    return A, Tolerances(ortho_tol=budget)


@settings(deadline=None, max_examples=600)
@given(agreement_cases())
def test_decompose_accepts_exactly_what_validation_accepts(case):
    """validate_rotation accepts a matrix exactly when decompose accepts it
    under the same tolerances, and on a rejection both raise the same type
    with the same measured value and bound."""
    A, tolerances = case
    assert verdict(decompose, A, tolerances) == verdict(validate_rotation, A, tolerances)


def test_a_reflection_is_improper_under_a_budget_of_one():
    """diag(1, 1, 1, -1) under ortho_tol = 1: decompose, classify and
    make_frame raise validation's NotProperRotationError. The distance
    gate, 2 within dist_tol = 2, let each read off the identity pair, and
    classify named the reflection the identity."""
    reflection = np.diag([1.0, 1.0, 1.0, -1.0])
    for call in (decompose, classify, make_frame):
        with pytest.raises(NotProperRotationError) as info:
            call(reflection, Tolerances(ortho_tol=1.0))
        assert (info.value.measured, info.value.tol) == (-1.0, 0.0)


def test_a_scaled_rotation_past_the_budget_is_rejected_by_both():
    """(1 + 0.8e-6) Q has Gram deviation 3.2e-6 and distance 1.6e-6 from
    SO(4): past a budget of 1e-6, within the old dist_tol of 2e-6.
    validate_rotation and decompose each raise NotOrthogonalError carrying
    the Gram deviation."""
    A = (1.0 + 0.8e-6) * random_rotation(27)
    tolerances = Tolerances(ortho_tol=1e-6)
    expected = (NotOrthogonalError, float.hex(_kernel.gram_deviation(A.ravel().tolist())),
                float.hex(1e-6))
    assert verdict(validate_rotation, A, tolerances) == expected
    assert verdict(decompose, A, tolerances) == expected


@settings(deadline=None, max_examples=400)
@given(seeds, st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.6, 0.74]),
       st.floats(-3, 0.3), st.booleans())
def test_validation_bounds_the_norm_deviation(seed, ortho_tol, offset, scaled):
    """Once validate_rotation accepts under ortho_tol, ||M||^2 = trace(A^T A) / 4
    lies within ortho_tol of 1, so the norm deviation is at most ortho_tol:
    a bound on it would never reject validated input, which is why
    decompose checks none. The noise, a scale factor or Gaussian, is drawn
    on the scale of ortho_tol, where the bounds meet."""
    rng = np.random.default_rng(seed)
    A = random_rotation(rng)
    noise = ortho_tol * 10.0 ** offset
    A = (1.0 + noise) * A if scaled else A + noise * rng.standard_normal((4, 4))
    try:
        validate_rotation(A, Tolerances(ortho_tol=ortho_tol))
    except IsoclinicError:
        return
    assert abs(associate_norm(associate_matrix(A)) - 1.0) <= ortho_tol


def test_overflowed_minor_reads_inf():
    """A minor whose two products overflow is inf - inf = NaN, which would
    pass any bound; the scan reports it as inf. In the second matrix the
    overflowed minor is the last one scanned, behind 35 minors of 0."""
    corner = np.zeros((4, 4))
    corner[2:, 2:] = 1e200
    for M in (np.full((4, 4), 1e200), corner):
        assert max_abs_minor(M) == math.inf
