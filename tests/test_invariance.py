import copy
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isoclinic import (
    IDENTITY,
    InvarianceError,
    NotUnitQuaternionError,
    RotationKind,
    SimilarityFrame,
    Tolerances,
    ValidationError,
    check_isocliny_preserved,
    classify,
    conjugate,
    conjugate_factorwise,
    decompose,
    isoclinic_angle,
    left_matrix,
    make_frame,
    normalize,
    quat_conjugate,
    quat_mul,
    random_rotation,
    random_unit_quaternion,
    right_matrix,
    validate_rotation,
    van_elfrinkhof,
)

seeds = st.integers(0, 2**32 - 1)


def test_make_frame_fixed_cases():
    frame = make_frame(np.eye(4))
    assert np.array_equal(frame.s_left, IDENTITY)
    assert np.array_equal(frame.s_right, IDENTITY)
    frame = make_frame(-np.eye(4))
    assert np.array_equal(frame.s_left, IDENTITY)
    assert np.array_equal(frame.s_right, -IDENTITY)


def test_make_frame_round_trip():
    for seed in range(20):
        S = random_rotation(seed)
        frame = make_frame(S)
        assert np.max(np.abs(van_elfrinkhof(frame.s_left, frame.s_right) - S)) <= 1e-12


def test_frame_keeps_its_own_copy_of_s():
    """A frame holds S as it was decomposed: writing to the caller's array
    afterwards changes neither frame.s nor the conjugation, which agrees
    with the factorwise one as before."""
    S = random_rotation(44)
    frame = make_frame(S)
    original = S.copy()
    S[:] = np.eye(4)
    assert np.array_equal(frame.s, original)
    A = random_rotation(45)
    assert np.max(np.abs(conjugate(A, frame) - conjugate_factorwise(A, frame))) <= 1e-14


def test_frame_arrays_are_read_only():
    """No write through the frame parts S from its factors: s, s_left and
    s_right each refuse one, and the two conjugations still agree."""
    S = random_rotation(46)
    frame = make_frame(S)
    for array, value in ((frame.s, np.eye(4)), (frame.s_left, IDENTITY),
                         (frame.s_right, IDENTITY)):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = value
    assert np.array_equal(frame.s, S)
    A = random_rotation(47)
    assert np.max(np.abs(conjugate(A, frame) - conjugate_factorwise(A, frame))) <= 1e-14


@pytest.mark.parametrize("duplicate", [lambda frame: pickle.loads(pickle.dumps(frame)),
                                       copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_copied_frame_arrays_stay_read_only(duplicate):
    """A frame copied by pickle or by the copy module holds the same bits,
    and each of its arrays refuses a write as make_frame's do."""
    frame = make_frame(random_rotation(48))
    twin = duplicate(frame)
    assert type(twin) is SimilarityFrame
    for original, array in zip(frame, twin):
        assert array.tobytes() == original.tobytes()
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@settings(deadline=None, max_examples=200)
@given(seeds, seeds)
def test_conjugate_is_the_matrix_product(seed_a, seed_s):
    """conjugate(A, frame) is numpy's S^T A S, formed by np.matmul, to within
    4 eps ||A||_F in every entry, whichever product routine computes it."""
    A, S = random_rotation(seed_a), random_rotation(seed_s)
    expected = np.matmul(np.matmul(S.T, A), S)
    bound = 4 * np.finfo(float).eps * np.linalg.norm(A)
    assert np.max(np.abs(conjugate(A, make_frame(S)) - expected)) <= bound


def test_conjugate_trivial_cases():
    A = random_rotation(31)
    assert np.array_equal(conjugate(A, make_frame(np.eye(4))), A)
    frame = make_frame(random_rotation(32))
    assert np.max(np.abs(conjugate(np.eye(4), frame) - np.eye(4))) <= 1e-14


def test_trace_is_frame_independent():
    rng = np.random.default_rng(33)
    for _ in range(200):
        A = random_rotation(rng)
        frame = make_frame(random_rotation(rng))
        assert abs(np.trace(conjugate(A, frame)) - np.trace(A)) <= 1e-11


def test_factorwise_conjugation_agrees():
    frame = make_frame(random_rotation(34))
    assert np.max(np.abs(conjugate_factorwise(np.eye(4), frame) - np.eye(4))) <= 1e-14
    rng = np.random.default_rng(35)
    for _ in range(200):
        A = random_rotation(rng)
        frame = make_frame(random_rotation(rng))
        direct = conjugate(A, frame)
        factorwise = conjugate_factorwise(A, frame)
        assert np.max(np.abs(factorwise - direct)) <= 1e-11


def test_factorwise_matches_quaternion_conjugation():
    """For a purely left rotation the whole frame change happens inside the
    left factor: conjugating the quaternion by the frame's left factor."""
    LA = normalize([1.0, 2.0, 0.0, 1.0])
    A = left_matrix(LA)
    for seed in range(10):
        frame = make_frame(random_rotation(seed))
        expected = left_matrix(quat_mul(quat_mul(quat_conjugate(frame.s_left), LA),
                                        frame.s_left))
        assert np.max(np.abs(conjugate_factorwise(A, frame) - expected)) <= 1e-12


def test_frame_sign_choice_is_irrelevant():
    S = random_rotation(36)
    frame = make_frame(S)
    flipped = SimilarityFrame(s=frame.s, s_left=-frame.s_left, s_right=-frame.s_right)
    A = random_rotation(37)
    assert np.array_equal(conjugate(A, frame), conjugate(A, flipped))
    assert np.array_equal(conjugate_factorwise(A, frame),
                          conjugate_factorwise(A, flipped))
    # frames compare by identity: their arrays have no elementwise truth value
    assert frame == frame and frame != flipped and frame != make_frame(S)
    assert len({frame, flipped, frame}) == 2


def test_quaternion_level_conjugation():
    """The factors of the conjugated rotation are the conjugated factors,
    up to the joint sign. Right multiplication reverses composition order,
    so its factor conjugates with the frame quaternion on the outside."""
    rng = np.random.default_rng(38)
    for _ in range(50):
        A = random_rotation(rng)
        frame = make_frame(random_rotation(rng))
        inner = decompose(A)
        outer = decompose(conjugate(A, frame))
        expected_left = quat_mul(quat_mul(quat_conjugate(frame.s_left), inner.left),
                                 frame.s_left)
        expected_right = quat_mul(quat_mul(frame.s_right, inner.right),
                                  quat_conjugate(frame.s_right))
        same = max(np.max(np.abs(outer.left - expected_left)),
                   np.max(np.abs(outer.right - expected_right)))
        flipped = max(np.max(np.abs(outer.left + expected_left)),
                      np.max(np.abs(outer.right + expected_right)))
        assert min(same, flipped) <= 1e-11


def test_isocliny_survives_frame_change():
    frame = make_frame(random_rotation(40))
    report = check_isocliny_preserved(left_matrix([0.0, 1.0, 0.0, 0.0]), frame)
    assert report.original.kind is RotationKind.LEFT_ISOCLINIC
    assert report.transformed.kind is RotationKind.LEFT_ISOCLINIC
    assert report.original.left_angle == pytest.approx(np.pi / 2, abs=1e-12)
    assert report.angle_deviation <= 1e-9

    report = check_isocliny_preserved(np.eye(4), frame)
    assert report.original.kind is RotationKind.IDENTITY
    assert report.transformed.kind is RotationKind.IDENTITY


def test_right_isocliny_sweep():
    rng = np.random.default_rng(41)
    A = right_matrix(normalize(rng.standard_normal(4)))
    for _ in range(25):
        frame = make_frame(random_rotation(rng))
        report = check_isocliny_preserved(A, frame)
        assert report.original.kind is RotationKind.RIGHT_ISOCLINIC
        assert report.transformed.kind is RotationKind.RIGHT_ISOCLINIC
        assert report.angle_deviation <= 1e-9


def test_improper_frame_is_detected():
    """A reflection swaps the two chiralities, so smuggling one in as a frame
    must trip the invariance check."""
    reflection = np.diag([1.0, 1.0, 1.0, -1.0])
    fake = SimilarityFrame(s=reflection, s_left=IDENTITY, s_right=IDENTITY)
    with pytest.raises(InvarianceError) as info:
        check_isocliny_preserved(left_matrix([0.0, 1.0, 0.0, 0.0]), fake)
    assert str(info.value).startswith("rotation kind changed under frame change")
    assert (info.value.measured, info.value.tol) == (None, None)


def test_angle_drift_rejection_carries_drift_and_bound():
    """A reflection passed as a frame swaps the factor angles of a general
    rotation, which stays general: the drift rejection carries the drift in
    measured and the noise budget in tol, through pickling too."""
    L, R = normalize([1.0, 2.0, 0.0, 1.0]), normalize([3.0, 1.0, 2.0, 2.0])
    fake = SimilarityFrame(s=np.diag([1.0, 1.0, 1.0, -1.0]), s_left=IDENTITY, s_right=IDENTITY)
    with pytest.raises(InvarianceError) as info:
        check_isocliny_preserved(van_elfrinkhof(L, R), fake, Tolerances(1e-6))
    drift = abs(isoclinic_angle(L) - isoclinic_angle(R))
    assert info.value.measured == pytest.approx(drift, abs=1e-12)
    assert info.value.tol == 1e-6
    assert str(info.value) == (f"factor angles drifted by {info.value.measured:.6g} "
                               f"under frame change (tolerance 1.0e-06)")
    twin = pickle.loads(pickle.dumps(info.value))
    assert (str(twin), twin.measured, twin.tol) == (str(info.value), info.value.measured, 1e-6)


@settings(deadline=None, max_examples=200)
@given(seeds, st.sampled_from([1e-9, 1e-6, 1e-4, 1e-2]), st.floats(-1.5, -0.3),
       st.sampled_from([RotationKind.LEFT_ISOCLINIC, RotationKind.RIGHT_ISOCLINIC]))
def test_noisy_isoclinic_rotation_keeps_its_kind_within_the_budget(seed, budget, k, kind):
    """A left- or right-isoclinic rotation plus noise of 10^k times the budget
    that validates under Tolerances(budget) is classified as its kind and
    passes the invariance check in a Haar-uniform frame: the trivial-factor
    bound and the allowed angle drift are the budget itself."""
    rng = np.random.default_rng(seed)
    q = random_unit_quaternion(rng)
    exact = left_matrix(q) if kind is RotationKind.LEFT_ISOCLINIC else right_matrix(q)
    A = exact + 10.0 ** k * budget * rng.standard_normal((4, 4))
    tolerances = Tolerances(budget)
    try:
        validate_rotation(A, tolerances)
    except ValidationError:
        assume(False)
    assert classify(A, tolerances).kind is kind
    report = check_isocliny_preserved(A, make_frame(random_rotation(rng)), tolerances)
    assert report.transformed.kind is kind
    assert report.angle_deviation <= budget


def test_non_unit_frame_factor_is_rejected():
    """conjugate_factorwise checks the frame's public factors where they
    enter, so a frame whose s_left is off the unit sphere is rejected."""
    frame = make_frame(random_rotation(42))
    scaled = SimilarityFrame(s=frame.s, s_left=2.0 * frame.s_left, s_right=frame.s_right)
    with pytest.raises(NotUnitQuaternionError) as info:
        conjugate_factorwise(random_rotation(43), scaled)
    assert info.value.measured == pytest.approx(3.0, abs=1e-14)
