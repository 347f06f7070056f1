"""Exception types raised across the package.

Every numerical rejection carries the measured quantity in `measured` and
the bound it was held against in `tol`, so callers (and the CLI) can
report how far the input missed the tolerance.
"""


class IsoclinicError(Exception):
    """Base class for all errors raised by this package."""

    measured = None


class _Measured(IsoclinicError):
    """A measured value that missed its bound; the message is the class
    template filled in with `measured` and `tol`."""

    def __init__(self, measured, tol):
        self.measured = measured
        self.tol = tol
        super().__init__(self.template.format_map(vars(self)))

    def __reduce__(self):
        # Exception rebuilds from args, which hold only the message
        return type(self), (self.measured, self.tol)


class ZeroQuaternionError(_Measured):
    """Normalization was requested for a quaternion with (near-)zero norm."""

    template = "cannot normalize quaternion with norm {measured:.3e}"


class ValidationError(IsoclinicError):
    """A matrix failed rotation validation."""


class MalformedInputError(ValidationError, ValueError):
    """An input is not an array of reals, has the wrong shape or a non-finite entry.

    Also a ValueError, the type such input raises across numpy.
    """


class NotUnitQuaternionError(_Measured, ValidationError, ValueError):
    """A quaternion is off the unit 3-sphere; also a ValueError."""

    template = ("not a unit quaternion: |q|^2 deviates from 1 by {measured:.3e} "
                "(tolerance {tol:.1e})")


class NotOrthogonalError(_Measured, ValidationError):
    template = "matrix is not orthogonal: max |A^T A - I| = {measured:.6g} exceeds {tol:.1e}"


class NotProperRotationError(_Measured, ValidationError):
    template = ("matrix is not a proper rotation: det = {measured:.15g}, "
                "expected 1 within {tol:.1e}")


class DecompositionError(IsoclinicError):
    """The isoclinic factorization failed; input too far from SO(4)."""


class NormDeviationError(_Measured, DecompositionError):
    template = "associate matrix norm deviates from 1 by {measured:.6g} (tolerance {tol:.1e})"


class DegenerateNormError(_Measured, DecompositionError):
    template = "matrix norm {measured:.6g} too small to factor (need >= {tol:g})"


class ReconstructionError(_Measured, DecompositionError):
    template = ("factor pair does not reproduce the input: distance ||A - Q||_F = "
                "{measured:.6g} exceeds {tol:.1e}")


class InvarianceError(IsoclinicError):
    """A property that should survive a change of frame did not."""


class ParseError(IsoclinicError):
    """Matrix input text could not be parsed."""
