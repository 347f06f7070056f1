# How non-rotations get rejected, and what the tolerance means.
#
# decompose never repairs its input. It measures one number, the Frobenius
# distance from the input to the rotation generated by the factors it reads
# off, and raises a typed error carrying it when the number is too big, so
# a caller can tell a reflection from noise from garbage.

import numpy as np

from isoclinic import (
    NotProperRotationError,
    ReconstructionError,
    Tolerances,
    associate_matrix,
    associate_norm,
    classify,
    decompose,
    max_abs_minor,
    random_rotation,
    random_unit_quaternion,
    right_matrix,
    validate_rotation,
)

np.set_printoptions(precision=6, suppress=True)

# A reflection is orthogonal but reverses orientation. Validation catches
# the determinant's sign. The budget bounds the orthogonality deviation
# only, so no budget lets a reflection through, not even an ortho_tol of 5...
reflection = np.diag([1.0, 1.0, 1.0, -1.0])
for budget in (Tolerances(), Tolerances(ortho_tol=5)):
    try:
        validate_rotation(reflection, budget)
    except NotProperRotationError as exc:
        print(f"validate_rotation, ortho_tol {budget.ortho_tol:g}:", exc)

# ...and the decomposition rejects it on its own. The recombined matrix of
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

# Even if the tolerance is thrown wide open (an ortho_tol of 5 puts the
# distance bound at 10), the forced factor pair cannot reconstruct the
# reflection; rotations are simply the wrong model.
forced = decompose(reflection, Tolerances(ortho_tol=5))
print("forced reconstruction misses by:", forced.distance)

# A scaled matrix keeps rank 1 but misses norm 1, and the same distance
# rejects it: 0.9 I lies at distance 0.2 from the identity. The norm's
# deviation from 1 is at most half the distance, so the distance is the
# one check a noisy or scaled input has to pass.
try:
    decompose(0.9 * np.eye(4))
except ReconstructionError as exc:
    print("\nscaled input:", exc)

# Mild noise is a different story: the distance bound dist_tol, derived as
# twice the orthogonality bound of validate_rotation, accepts whatever
# validation accepts, and the result reports how far from SO(4) the input
# was.
rng = np.random.default_rng(7)
A = random_rotation(rng)
noisy = A + 1e-11 * rng.standard_normal((4, 4))
result = decompose(noisy)
print("\nnoisy rotation accepted:")
print("  distance:      ", result.distance)
print("  norm deviation:", result.norm_deviation)

# The same input fails under a stricter policy; tolerances are a value you
# pass, not a global setting. An ortho_tol of 5e-15 holds the distance to
# 1e-14.
try:
    decompose(noisy, Tolerances(ortho_tol=5e-15))
except ReconstructionError as exc:
    print("\nstrict policy on the same input:", exc)

# One Tolerances carries every bound, and its one field, ortho_tol, is the
# noise budget. dist_tol is not a setting: loosening ortho_tol moves
# dist_tol to twice its value, so a rotation with noise of 1e-7 that the
# looser validation accepts is split under the same object.
noisy = A + 1e-7 * rng.standard_normal((4, 4))
loose = Tolerances(ortho_tol=1e-6)
print("\nloose policy:", loose, "with dist_tol", loose.dist_tol)
validate_rotation(noisy, loose)
print("  noise 1e-7 validated and split, distance", decompose(noisy, loose).distance)
try:
    decompose(noisy)
except ReconstructionError as exc:
    print("  the default policy rejects it:", exc)

# The trivial-factor bound is ortho_tol itself, so noise the loose
# policy accepts does not hide a rotation's kind: a right-isoclinic rotation
# with noise of 1e-8 keeps its kind, and its left factor reads as +/-1.
right_isoclinic = right_matrix(random_unit_quaternion(rng)) + 1e-8 * rng.standard_normal((4, 4))
kind = classify(right_isoclinic, loose)
print("  noisy right-isoclinic rotation:", kind.kind.value, "left angle", kind.left_angle)
