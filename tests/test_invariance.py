import numpy as np
import pytest

from isoclinic import (
    IDENTITY,
    InvarianceError,
    RotationKind,
    SimilarityFrame,
    check_isocliny_preserved,
    conjugate,
    conjugate_factorwise,
    decompose,
    left_matrix,
    make_frame,
    normalize,
    quat_conjugate,
    quat_mul,
    random_rotation,
    right_matrix,
    van_elfrinkhof,
)


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
    with pytest.raises(InvarianceError):
        check_isocliny_preserved(left_matrix([0.0, 1.0, 0.0, 0.0]), fake)
