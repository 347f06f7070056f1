# How non-rotations get rejected, and what the tolerance means.
#
# decompose never repairs its input. It measures one number, the Frobenius
# distance from the input to the rotation rebuilt from the factors it reads
# off, and raises a typed error carrying it when the number is too big, so
# a caller can tell a reflection from noise from garbage.

import numpy as np

from isoclinic import (
    NormDeviationError,
    NotProperRotationError,
    ReconstructionError,
    Tolerances,
    associate_matrix,
    associate_norm,
    decompose,
    max_abs_minor,
    random_rotation,
    validate_rotation,
)

np.set_printoptions(precision=6, suppress=True)

# A reflection is orthogonal but reverses orientation. Validation catches
# the determinant...
reflection = np.diag([1.0, 1.0, 1.0, -1.0])
try:
    validate_rotation(reflection)
except NotProperRotationError as exc:
    print("validate_rotation:", exc)

# ...but the decomposition rejects it on its own. The recombined matrix of
# an improper orthogonal matrix has unit norm, but it is not rank 1: its
# four singular values are all 1/2, so 2M is orthogonal. No factor pair
# comes closer than distance 2.
M = associate_matrix(reflection)
print("\nrecombination of the reflection:\n", M)
print("its norm:", associate_norm(M), " largest minor:", max_abs_minor(M))
print("singular values:", np.linalg.svd(M, compute_uv=False))
try:
    decompose(reflection)
except ReconstructionError as exc:
    print("decompose:", exc)

# Even if the tolerance is thrown wide open, the forced factor pair
# cannot reconstruct the reflection; rotations are simply the wrong model.
forced = decompose(reflection, Tolerances(dist_tol=10))
print("forced reconstruction misses by:", forced.distance)

# A scaled matrix fails before any read-off, at the norm: the norm's
# deviation from 1 is at most half the distance, so it is checked against
# dist_tol / 2.
try:
    decompose(0.9 * np.eye(4))
except NormDeviationError as exc:
    print("\nscaled input:", exc)

# Mild noise is a different story: the default dist_tol, twice the
# orthogonality bound of validate_rotation, accepts whatever validation
# accepts, and the result reports how far from SO(4) the input was.
rng = np.random.default_rng(7)
A = random_rotation(rng)
noisy = A + 1e-11 * rng.standard_normal((4, 4))
result = decompose(noisy)
print("\nnoisy rotation accepted:")
print("  distance:      ", result.distance)
print("  norm deviation:", result.norm_deviation)

# The same input fails under a stricter policy; tolerances are a value you
# pass, not a global setting.
try:
    decompose(noisy, Tolerances(dist_tol=1e-14))
except NormDeviationError as exc:
    print("\nstrict policy on the same input:", exc)

# One Tolerances carries every bound. Loosening ortho_tol moves dist_tol
# with it, to twice its value, so a rotation with noise of 1e-7 that the
# looser validation accepts is split under the same object.
noisy = A + 1e-7 * rng.standard_normal((4, 4))
loose = Tolerances(ortho_tol=1e-6)
print("\nloose policy:", loose)
validate_rotation(noisy, loose)
print("  noise 1e-7 validated and split, distance", decompose(noisy, loose).distance)
try:
    decompose(noisy)
except NormDeviationError as exc:
    print("  the default policy rejects it:", exc)
