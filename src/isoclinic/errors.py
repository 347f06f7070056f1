"""Exception types raised across the package.

Every numerical rejection carries the measured quantity in `measured` and
the bound it was held against in `tol`, so callers (and the CLI) can
report how far the input missed the tolerance.
"""


class IsoclinicError(Exception):
    """Base class for all errors raised by this package."""

    measured = None
    tol = None


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
    template = "matrix is not orthogonal: ||A^T A - I||_F = {measured:.6g} exceeds {tol:.1e}"

    def __init__(self, measured, tol):
        if measured == float("inf"):
            # the deviation of finite entries is inf only by overflow, and
            # validation rejects that under every budget, inf itself too
            self.template = ("matrix is not orthogonal: ||A^T A - I||_F = inf, "
                             "an overflow that no budget admits")
        super().__init__(measured, tol)


class NotProperRotationError(_Measured, ValidationError):
    template = "matrix is not a proper rotation: det = {measured:.15g} is not positive"


class InvarianceError(IsoclinicError):
    """A property that should survive a change of frame did not. A drift of
    the factor angles carries `measured` and `tol`; a change of kind does not."""

    def __init__(self, message, measured=None, tol=None):
        super().__init__(message)
        self.measured, self.tol = measured, tol


class ParseError(IsoclinicError):
    """Matrix input text could not be parsed."""
