"""Isoclinic decomposition of 4D rotation matrices.

Every orthogonal 4x4 matrix with determinant +1 is the product of a
left-isoclinic and a right-isoclinic rotation, i.e. it acts on R^4,
read as the quaternions, by P -> L*P*R for a pair of unit quaternions
(L, R) that is unique up to negating both. This package computes that
pair, validates the matrix identities behind the construction, and
classifies rotations by which factor is trivial.

Importing the package does not import numpy; the functions that take or
return arrays import it when first called.
"""

from .associate import (
    DEFAULT_TOLERANCES,
    IsoclinicDecomposition,
    RotationClass,
    RotationKind,
    Tolerances,
    associate_matrix,
    associate_norm,
    classify,
    classify_pair,
    decompose,
    max_abs_minor,
)
from .errors import (
    InvarianceError,
    IsoclinicError,
    MalformedInputError,
    NotOrthogonalError,
    NotProperRotationError,
    NotUnitQuaternionError,
    ParseError,
    ValidationError,
    ZeroQuaternionError,
)
from .invariance import (
    InvarianceReport,
    SimilarityFrame,
    check_isocliny_preserved,
    conjugate,
    conjugate_factorwise,
    make_frame,
)
from .quat import (
    isoclinic_angle,
    left_matrix,
    normalize,
    quat_mul,
    random_unit_quaternion,
    right_matrix,
)
from .rotation4 import random_rotation, validate_rotation, van_elfrinkhof

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCES",
    "InvarianceError",
    "InvarianceReport",
    "IsoclinicDecomposition",
    "IsoclinicError",
    "MalformedInputError",
    "NotOrthogonalError",
    "NotProperRotationError",
    "NotUnitQuaternionError",
    "ParseError",
    "RotationClass",
    "RotationKind",
    "SimilarityFrame",
    "Tolerances",
    "ValidationError",
    "ZeroQuaternionError",
    "associate_matrix",
    "associate_norm",
    "check_isocliny_preserved",
    "classify",
    "classify_pair",
    "conjugate",
    "conjugate_factorwise",
    "decompose",
    "isoclinic_angle",
    "left_matrix",
    "make_frame",
    "max_abs_minor",
    "normalize",
    "quat_mul",
    "random_rotation",
    "random_unit_quaternion",
    "right_matrix",
    "validate_rotation",
    "van_elfrinkhof",
]
