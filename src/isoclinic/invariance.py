"""Behavior of the isoclinic decomposition under a change of coordinates.

Rotating the coordinate frame by S turns the matrix of a rotation A into
S^T A S. Because left- and right-isoclinic matrices commute, that
conjugation can be applied to the two isoclinic factors separately and
multiplied afterwards; ``conjugate_factorwise`` computes it that way and
must agree with the direct product. Consequently being left-isoclinic,
being right-isoclinic, and the factor angles are all frame-independent,
which ``check_isocliny_preserved`` verifies for a concrete pair (A, S).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import _kernel
from ._kernel import hamilton
from .associate import DEFAULT_TOLERANCES, RotationClass, Tolerances, classify
from .errors import InvarianceError
from .quat import _floats
from .rotation4 import _mat4, as_mat4

if TYPE_CHECKING:
    import numpy as np


class SimilarityFrame(NamedTuple):
    """A coordinate rotation S together with its own factor pair.

    Either sign choice of the pair gives the same conjugation, since S
    itself is unchanged by the joint flip. Equality and hashing are by
    identity, as for IsoclinicDecomposition. A copy, by pickle or by the
    copy module, is rebuilt with its arrays read-only, as make_frame makes
    them: numpy unpickles an array writable.
    """

    s: np.ndarray
    s_left: np.ndarray
    s_right: np.ndarray

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __reduce__(self):
        return _read_only_frame, tuple(self)


def _read_only_frame(s, s_left, s_right) -> SimilarityFrame:
    """The frame of the three arrays, each marked read-only."""
    frame = SimilarityFrame(s, s_left, s_right)
    for array in frame:
        array.setflags(write=False)
    return frame


def make_frame(S, tolerances: Tolerances = DEFAULT_TOLERANCES) -> SimilarityFrame:
    """Decompose the frame rotation S and keep a copy of it with its
    canonical factors, all three read-only, so that no later write, to the
    caller's array or to the frame's, parts S from its factors."""
    import numpy as np
    S, entries = _mat4(S)
    L, R, *_ = _kernel.decompose(entries, tolerances)
    return _read_only_frame(S.copy(), np.array(L), np.array(R))


def conjugate(A, frame: SimilarityFrame) -> np.ndarray:
    """Matrix of the rotation A expressed in the rotated frame: S^T A S.

    S^T stands in for the inverse of S, which it is only to within the
    tolerance the frame was made under: make_frame accepts any S within
    dist_tol of a rotation, not only an orthogonal one.
    """
    return frame.s.T.dot(as_mat4(A)).dot(frame.s)


def conjugate_factorwise(A, frame: SimilarityFrame,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Conjugate each isoclinic factor of A separately, then multiply.

    Splits A into its factors L and R, conjugates L by the frame's left
    factor and R by the frame's right factor, and returns the matrix of the
    conjugated pair. As matrices, left_matrix(S_L)^T left_matrix(L)
    left_matrix(S_L) is left_matrix(conj(S_L) L S_L) and right_matrix(S_R)^T
    right_matrix(R) right_matrix(S_R) is right_matrix(S_R R conj(S_R)).
    Equals conjugate(A, frame) because the cross terms commute. Raises
    NotUnitQuaternionError when a factor of the frame is off the unit sphere.
    """
    import numpy as np
    L, R, *_ = _kernel.decompose(_mat4(A)[1], tolerances)
    s_left = _kernel.check_unit(_floats(frame.s_left))
    s_right = _kernel.check_unit(_floats(frame.s_right))
    left = hamilton(hamilton(_kernel.conjugate(s_left), L), s_left)
    right = hamilton(hamilton(s_right, R), _kernel.conjugate(s_right))
    return np.array(_kernel.two_sided(left, right)).reshape(4, 4)


class InvarianceReport(NamedTuple):
    """Classification of a rotation before and after a frame change."""

    original: RotationClass
    transformed: RotationClass
    angle_deviation: float


def check_isocliny_preserved(A, frame: SimilarityFrame,
                             tolerances: Tolerances = DEFAULT_TOLERANCES) -> InvarianceReport:
    """Verify the kind and angles of A survive conjugation by the frame.

    Classifies A and S^T A S under tolerances and raises InvarianceError
    when the kind changes, or when either factor angle drifts by more than
    tolerances.iso_tol, the noise budget ortho_tol; that rejection carries
    the drift in `measured` and the bound in `tol`. Returns the report when
    the check passes.
    """
    A, entries = _mat4(A)
    L, R, *_ = _kernel.decompose(entries, tolerances)
    original = _kernel.classify(L, R, tolerances)
    transformed = classify(frame.s.T.dot(A).dot(frame.s), tolerances)
    angle_deviation = max(
        abs(original.left_angle - transformed.left_angle),
        abs(original.right_angle - transformed.right_angle),
    )
    if original.kind is not transformed.kind:
        raise InvarianceError(
            f"rotation kind changed under frame change: "
            f"{original.kind.value} became {transformed.kind.value}"
        )
    bound = tolerances.iso_tol
    if not angle_deviation <= bound:
        raise InvarianceError(
            f"factor angles drifted by {angle_deviation:.6g} under frame change "
            f"(tolerance {bound:.1e})", measured=angle_deviation, tol=bound)
    return InvarianceReport(
        original=original,
        transformed=transformed,
        angle_deviation=angle_deviation,
    )
