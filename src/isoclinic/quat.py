"""Quaternion arithmetic and the matrices of left/right quaternion multiplication.

Quaternions are plain numpy arrays of shape (4,) holding (w, x, y, z), the
same component order used for points of R^4, so a quaternion and the column
vector it acts on are interchangeable. Multiplication follows the Hamilton
convention ij = k; that convention is what makes ``left_matrix`` and
``right_matrix`` act as matrix-vector products. The arithmetic runs in
``_kernel`` on Python floats; numpy is bound once, by the first call that
meets an array, not by importing this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _kernel
from .errors import MalformedInputError

if TYPE_CHECKING:
    import numpy as np


# numpy's ndarray type, its float64 dtype and np.array, bound by the first
# coercion, so that importing the package loads no numpy. Every function
# that boxes its result with _array coerces its input in the same call, in a
# statement before the one that reads _array: a call looks up its callee
# before it evaluates its arguments.
_NDARRAY = _FLOAT64 = _array = None


def _numpy():
    """numpy, with the handles above bound."""
    global _NDARRAY, _FLOAT64, _array
    import numpy as np
    _NDARRAY, _FLOAT64, _array = np.ndarray, np.dtype(float), np.array
    return np


def _coerce(x, shape, noun, parts):
    """x coerced through numpy to a float array of the given shape with finite
    entries: the array and its entries as a row-major list.

    A sum of finite floats is finite unless it overflows, and an inf or NaN
    entry makes it inf or NaN, so the entries are scanned one by one only
    when their sum is not finite.

    Complex input is malformed, even with a zero imaginary part, since the
    cast to float would drop that part with no more than a warning: a
    complex dtype, or a numpy complex entry of an object array. So is text,
    which the cast would parse, and bool, which it would read as 0 and 1: a
    str, bytes or bool dtype, or a str, bytes, bool or numpy bool entry of
    an object array. A float64 array is used as it is; any other input is
    read before the cast. The fast path takes an ndarray whose dtype is
    numpy's float64 singleton; the slow path binds numpy's handles and
    takes every other float64 array, such as an unpickled one, unchanged.
    """
    if not (type(x) is _NDARRAY and x.dtype is _FLOAT64):
        np = _numpy()
        if not (type(x) is np.ndarray and x.dtype == float):
            try:
                array = np.asarray(x)
                if array.dtype.kind in ("b", "c", "U", "S") or array.dtype.kind == "O" and any(
                        isinstance(entry, (bool, np.bool_, np.complexfloating, str, bytes))
                        for entry in array.flat):
                    raise TypeError("an entry is bool, complex or text")
                x = np.asarray(x, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedInputError(f"{noun} is not an array of reals: {exc}") from exc
    if x.shape != shape:
        raise MalformedInputError(f"{noun} must have shape {shape}, got {x.shape}")
    values = x.ravel().tolist()
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise MalformedInputError(f"{noun} {parts} must be finite")
    return x, values


def _floats(q):
    """q coerced through numpy to four finite floats, as a list."""
    return _coerce(q, (4,), "quaternion", "components")[1]


def quat_mul(lhs, rhs) -> np.ndarray:
    """Hamilton product lhs * rhs."""
    product = _kernel.hamilton(_floats(lhs), _floats(rhs))
    return _array(product)


def normalize(q) -> np.ndarray:
    """Scale q to unit norm.

    Raises ZeroQuaternionError when the norm is too small to divide by.
    """
    unit = _kernel.unit(_floats(q))
    return _array(unit)


# the identity quaternion: P -> L*P is P -> L*P*E and P -> P*R is P -> E*P*R
_E = [1.0, 0.0, 0.0, 0.0]


def left_matrix(L) -> np.ndarray:
    """Matrix of the map P -> L*P for a unit quaternion L = (a, b, c, d).

    The result is orthogonal with determinant +1; all four diagonal
    entries equal the scalar part a. Left multiplication rotates every
    half-line from the origin through the same angle arccos(a): both the
    (w, x) and the (y, z) coordinate planes turn by +arccos(a). Read off
    the composition table as the two-sided map with right factor 1.
    """
    L = _kernel.check_unit(_floats(L))
    return _array(_kernel.two_sided(L, _E)).reshape(4, 4)


def right_matrix(R) -> np.ndarray:
    """Matrix of the map P -> P*R for a unit quaternion R = (p, q, r, s).

    Like ``left_matrix`` this is an isoclinic rotation through arccos(p),
    but of the opposite chirality: the (w, x) plane turns by +arccos(p)
    while the (y, z) plane turns by -arccos(p). Read off the composition
    table as the two-sided map with left factor 1.
    """
    R = _kernel.check_unit(_floats(R))
    return _array(_kernel.two_sided(_E, R)).reshape(4, 4)


def isoclinic_angle(q) -> float:
    """Common rotation angle of the isoclinic rotation with factor q.

    arccos of the scalar part, in [0, pi]. The argument is clamped to
    [-1, 1] so roundoff just past the ends cannot produce NaN.
    """
    return _kernel.angle(_floats(q))


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on the unit 3-sphere: four normal deviates, normalized."""
    return normalize(rng.standard_normal(4))
