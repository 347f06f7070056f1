# What survives a rotation of the coordinate system?
#
# Expressing a rotation A in a frame rotated by S replaces A with S^T A S.
# The decomposition plays along: conjugate the left factor by S's left
# factor and the right factor by S's right factor, multiply, and you get
# the same thing. So "left-isoclinic", "right-isoclinic" and the factor
# angles are properties of the rotation itself, not of the coordinates.

import numpy as np

from isoclinic import (
    check_isocliny_preserved,
    classify,
    conjugate,
    conjugate_factorwise,
    left_matrix,
    make_frame,
    normalize,
    random_rotation,
)

np.set_printoptions(precision=6, suppress=True)

A = random_rotation(101)
frame = make_frame(random_rotation(202))

direct = conjugate(A, frame)
factorwise = conjugate_factorwise(A, frame)
print("max |factorwise - direct conjugation|:", np.max(np.abs(factorwise - direct)))
print("trace before:", np.trace(A), " after:", np.trace(direct))

# A purely left-isoclinic rotation stays purely left-isoclinic in every
# frame, with the same angle.
pure_left = left_matrix(normalize([1.0, 1.0, 2.0, 0.0]))
report = check_isocliny_preserved(pure_left, frame)
print("\nkind before:", report.original.kind.value,
      " after:", report.transformed.kind.value)
print("left angle before:", report.original.left_angle,
      " after:", report.transformed.left_angle)
print("angle deviation:", report.angle_deviation)

# The class of a general rotation is preserved too, angles included.
before = classify(A)
after = classify(direct)
print("\ngeneral rotation:", before.kind.value, "->", after.kind.value)
print("angles before:", (before.left_angle, before.right_angle))
print("angles after: ", (after.left_angle, after.right_angle))

# Sweep a few random frames to see the angles hold still.
worst = 0.0
for seed in range(50):
    f = make_frame(random_rotation(seed))
    c = classify(conjugate(A, f))
    worst = max(worst,
                abs(c.left_angle - before.left_angle),
                abs(c.right_angle - before.right_angle))
print("\nworst angle drift over 50 frames:", worst)
