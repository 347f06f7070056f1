"""The rejection record: every measured rejection carries its value and bound."""

import copy
import pickle

import pytest

from isoclinic import (
    DecompositionError,
    DegenerateNormError,
    IsoclinicError,
    NormDeviationError,
    NotOrthogonalError,
    NotProperRotationError,
    NotUnitQuaternionError,
    ReconstructionError,
    ValidationError,
    ZeroQuaternionError,
)
from isoclinic._kernel import DEGENERACY_TOL, UNIT_TOL

# class, measured value and bound as the kernel passes them, the message
# those produce, and which of (ValidationError, DecompositionError,
# ValueError) the class derives from
RECORDS = [
    (ZeroQuaternionError, 1e-200, DEGENERACY_TOL,
     "cannot normalize quaternion with norm 1.000e-200", (False, False, False)),
    (NotUnitQuaternionError, 0.3125, UNIT_TOL,
     "not a unit quaternion: |q|^2 deviates from 1 by 3.125e-01 (tolerance 1.0e-12)",
     (True, False, True)),
    (NotOrthogonalError, 3.0, 1e-9,
     "matrix is not orthogonal: max |A^T A - I| = 3 exceeds 1.0e-09", (True, False, False)),
    (NotProperRotationError, -0.999999123, 1e-9,
     "matrix is not a proper rotation: det = -0.999999123, expected 1 within 1.0e-09",
     (True, False, False)),
    (NormDeviationError, 0.0123456789, 1e-9,
     "associate matrix norm deviates from 1 by 0.0123457 (tolerance 1.0e-09)",
     (False, True, False)),
    (DegenerateNormError, 0.25, 0.5,
     "matrix norm 0.25 too small to factor (need >= 0.5)", (False, True, False)),
    (ReconstructionError, 2.0, 2e-9,
     "factor pair does not reproduce the input: distance ||A - Q||_F = 2 exceeds 2.0e-09",
     (False, True, False)),
]


@pytest.mark.parametrize("cls, measured, tol, message, ancestry", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_rejection_record(cls, measured, tol, message, ancestry):
    exc = cls(measured, tol)
    assert str(exc) == message
    assert exc.measured == measured
    assert exc.tol == tol
    bases = (ValidationError, DecompositionError, ValueError)
    assert tuple(isinstance(exc, base) for base in bases) == ancestry


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


ERRORS = sorted({cls for cls in _subclasses(IsoclinicError) if not cls.__name__.startswith("_")},
                key=lambda cls: cls.__name__)
MEASURED = {record[0]: record[1:3] for record in RECORDS}


@pytest.mark.parametrize("clone", [lambda exc: pickle.loads(pickle.dumps(exc)), copy.copy],
                         ids=["pickle", "copy"])
@pytest.mark.parametrize("cls", ERRORS, ids=[cls.__name__ for cls in ERRORS])
def test_error_survives_pickle_and_copy(cls, clone):
    """A rejection sent to another process, or copied, keeps its type,
    message, value and bound; Exception alone rebuilds from the message."""
    exc = cls(*MEASURED.get(cls, ("the input was wrong",)))
    twin = clone(exc)
    assert type(twin) is cls
    assert str(twin) == str(exc)
    assert twin.measured == exc.measured
    assert getattr(twin, "tol", None) == getattr(exc, "tol", None)
