# How non-rotations get rejected, and what the tolerance means.
#
# decompose never repairs its input. It accepts exactly what
# validate_rotation accepts and raises what that raises otherwise: a typed
# error carrying the measured value, so a caller can tell a reflection from
# noise from garbage. Along the way it measures one number, the Frobenius
# distance d from the input to the rotation generated by the factors it
# reads off; a small d proves that validation would pass, so a rotation is
# split without running it.

import numpy as np

from isoclinic import (
    NotOrthogonalError,
    NotProperRotationError,
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

# ...and so does the decomposition. The recombined matrix of an improper
# orthogonal matrix has unit norm, but it is not rank 1: its four singular
# values are all 1/2, so 2M is orthogonal. No factor pair comes closer than
# distance 2, which proves nothing, so decompose runs validation and raises
# its error, under any budget.
M = associate_matrix(reflection)
print("\nrecombination of the reflection:\n", M)
print("its norm:", associate_norm(M), " largest minor:", max_abs_minor(M))
print("singular values:", np.linalg.svd(M, compute_uv=False))
for budget in (Tolerances(), Tolerances(ortho_tol=5)):
    try:
        decompose(reflection, budget)
    except NotProperRotationError as exc:
        print(f"decompose, ortho_tol {budget.ortho_tol:g}:", exc)

# A scaled matrix keeps rank 1 but misses norm 1: 0.9 I lies at distance
# 0.2 from the identity, and its Gram deviation, ||0.19 I||_F = 0.38, is
# past the budget.
try:
    decompose(0.9 * np.eye(4))
except NotOrthogonalError as exc:
    print("\nscaled input:", exc)

# Mild noise is a different story: the noise budget ortho_tol accepts it,
# and the result reports how far from SO(4) the input was. A distance d
# with 2d + d^2 within the budget (up to a rounding slack of 2^-46) bounds
# the Gram deviation by the budget, so this split runs no validation.
rng = np.random.default_rng(7)
A = random_rotation(rng)
noisy = A + 1e-11 * rng.standard_normal((4, 4))
result = decompose(noisy)
print("\nnoisy rotation accepted:")
print("  distance:      ", result.distance)
print("  norm deviation:", result.norm_deviation)

# The same input fails under a stricter policy; tolerances are a value you
# pass, not a global setting. An ortho_tol of 5e-15 is below its Gram
# deviation, and decompose rejects it as validation does.
try:
    decompose(noisy, Tolerances(ortho_tol=5e-15))
except NotOrthogonalError as exc:
    print("\nstrict policy on the same input:", exc)

# One Tolerances carries the one bound, ortho_tol, the noise budget of
# validation and decomposition alike: a rotation with noise of 1e-7 that
# the looser validation accepts is split under the same object.
noisy = A + 1e-7 * rng.standard_normal((4, 4))
loose = Tolerances(ortho_tol=1e-6)
print("\nloose policy:", loose)
validate_rotation(noisy, loose)
print("  noise 1e-7 validated and split, distance", decompose(noisy, loose).distance)
try:
    decompose(noisy)
except NotOrthogonalError as exc:
    print("  the default policy rejects it:", exc)

# The trivial-factor bound is ortho_tol itself, so noise the loose
# policy accepts does not hide a rotation's kind: a right-isoclinic rotation
# with noise of 1e-8 keeps its kind, its left factor's vector part shorter
# than the budget.
right_isoclinic = right_matrix(random_unit_quaternion(rng)) + 1e-8 * rng.standard_normal((4, 4))
kind = classify(right_isoclinic, loose)
print("  noisy right-isoclinic rotation:", kind.kind.value, "left angle", kind.left_angle)
