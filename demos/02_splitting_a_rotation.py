# Splitting an arbitrary 4D rotation into its two isoclinic factors.
#
# The trick: a fixed quarter-sum recombination of the 16 entries of a
# rotation matrix A yields the outer product column(L) * row(R) of the two
# unit quaternions that generate A. Outer products are rank 1, so the
# factors can be read off a single row and column, and the whole pipeline
# is one linear pass plus normalizations.

import numpy as np

from isoclinic import (
    associate_matrix,
    associate_norm,
    decompose,
    max_abs_minor,
    normalize,
    random_rotation,
    van_elfrinkhof,
)

np.set_printoptions(precision=6, suppress=True)

# Build a rotation whose factors we know, then pretend we don't.
L0 = normalize([2.0, 1.0, 0.0, -1.0])
R0 = normalize([1.0, -3.0, 0.5, 1.0])
A = van_elfrinkhof(L0, R0)
print("rotation A:\n", A)

M = associate_matrix(A)
print("\nrecombined matrix M:\n", M)
print("\nouter product of the true factors:\n", np.outer(L0, R0))

# Two facts make the extraction work, and both are checkable numbers:
# the recombination has unit Frobenius norm, and every 2x2 minor vanishes.
print("\n|Frobenius norm - 1|:", abs(associate_norm(M) - 1.0))
print("largest |2x2 minor| :", max_abs_minor(M))

result = decompose(A)
print("\nrecovered left: ", result.left)
print("true left:      ", L0)
print("recovered right:", result.right)
print("true right:     ", R0)
# decompose certifies its answer with one number: the Frobenius distance
# from A to the rotation the factors generate, read off as twice the
# distance of M from their outer product.
print("distance ||A - Q||_F:", result.distance)

# The pair is only determined up to negating both members. The library
# always hands back the pair whose first significant left component is
# positive; flipping both gives the same rotation again.
flipped = van_elfrinkhof(-result.left, -result.right)
print("\nmax |A - rebuild from flipped pair|:", np.max(np.abs(A - flipped)))

# Mixed signs do NOT reconstruct A; the ambiguity is genuinely only joint.
mixed = van_elfrinkhof(result.left, -result.right)
print("max |A - rebuild from mixed signs| :", np.max(np.abs(A - mixed)), " (far away)")

# Works for any rotation, of course, including random ones.
B = random_rotation(2024)
rb = decompose(B)
print("\nrandom rotation distance:", rb.distance,
      " norm deviation:", rb.norm_deviation)
