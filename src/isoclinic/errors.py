"""Exception types raised across the package.

Every numerical rejection carries the measured quantity in `measured` so
callers (and the CLI) can report how far the input missed the tolerance.
"""


class IsoclinicError(Exception):
    """Base class for all errors raised by this package."""

    measured = None


class ZeroQuaternionError(IsoclinicError):
    """Normalization was requested for a quaternion with (near-)zero norm."""

    def __init__(self, norm):
        super().__init__(f"cannot normalize quaternion with norm {norm:.3e}")
        self.norm = norm
        self.measured = norm


class ValidationError(IsoclinicError):
    """A matrix failed rotation validation."""


class MalformedInputError(ValidationError, ValueError):
    """An input is not an array of reals, has the wrong shape or a non-finite entry.

    Also a ValueError, the type such input raises across numpy.
    """


class NotUnitQuaternionError(ValidationError, ValueError):
    """A quaternion is off the unit 3-sphere; also a ValueError, as before it had a type."""

    def __init__(self, deviation, tol):
        super().__init__(
            f"not a unit quaternion: |q|^2 deviates from 1 by {deviation:.3e} "
            f"(tolerance {tol:.1e})"
        )
        self.deviation = deviation
        self.tol = tol
        self.measured = deviation


class NotOrthogonalError(ValidationError):
    def __init__(self, deviation, tol):
        super().__init__(
            f"matrix is not orthogonal: max |A^T A - I| = {deviation:.6g} "
            f"exceeds {tol:.1e}"
        )
        self.deviation = deviation
        self.tol = tol
        self.measured = deviation


class NotProperRotationError(ValidationError):
    def __init__(self, det, tol):
        super().__init__(
            f"matrix is not a proper rotation: det = {det:.15g}, expected 1 within {tol:.1e}"
        )
        self.det = det
        self.tol = tol
        self.measured = det


class DecompositionError(IsoclinicError):
    """The isoclinic factorization failed; input too far from SO(4)."""


class NormDeviationError(DecompositionError):
    def __init__(self, deviation, tol):
        super().__init__(
            f"associate matrix norm deviates from 1 by {deviation:.6g} (tolerance {tol:.1e})"
        )
        self.deviation = deviation
        self.tol = tol
        self.measured = deviation


class DegenerateNormError(DecompositionError):
    def __init__(self, norm):
        super().__init__(f"matrix norm {norm:.6g} too small to factor (need >= 0.5)")
        self.norm = norm
        self.measured = norm


class ReconstructionError(DecompositionError):
    def __init__(self, residual, tol):
        super().__init__(
            f"factor pair does not reproduce the input: distance ||A - Q||_F = "
            f"{residual:.6g} exceeds {tol:.1e}"
        )
        self.residual = residual
        self.tol = tol
        self.measured = residual


class InvarianceError(IsoclinicError):
    """A property that should survive a change of frame did not."""


class ParseError(IsoclinicError):
    """Matrix input text could not be parsed."""
