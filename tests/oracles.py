"""Independent reference computations used to pin expected test values.

Nothing here reuses the package's composition table or its factor
read-off: the associate matrix and the two-sided product are spelled out
entry by entry, or built from the Hamilton product in exact rationals,
factors are recovered by a generic 16x16 linear solve plus an SVD, the
nearest rotation is the SVD's special Procrustes projection, minors are
scanned with plain Python loops, and the sign rule is a loop over L with
its own anchor, so agreement with the library is evidence rather than
tautology.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np


def associate_reference(A):
    """Associate matrix of A, each entry a signed quarter-sum written out."""
    a = np.asarray(A, dtype=float)
    return 0.25 * np.array([
        [a[0, 0] + a[1, 1] + a[2, 2] + a[3, 3],
         a[1, 0] - a[0, 1] - a[3, 2] + a[2, 3],
         a[2, 0] + a[3, 1] - a[0, 2] - a[1, 3],
         a[3, 0] - a[2, 1] + a[1, 2] - a[0, 3]],
        [a[1, 0] - a[0, 1] + a[3, 2] - a[2, 3],
         -a[0, 0] - a[1, 1] + a[2, 2] + a[3, 3],
         a[3, 0] - a[2, 1] - a[1, 2] + a[0, 3],
         -a[2, 0] - a[3, 1] - a[0, 2] - a[1, 3]],
        [a[2, 0] - a[3, 1] - a[0, 2] + a[1, 3],
         -a[3, 0] - a[2, 1] - a[1, 2] - a[0, 3],
         -a[0, 0] + a[1, 1] - a[2, 2] + a[3, 3],
         a[1, 0] + a[0, 1] - a[3, 2] - a[2, 3]],
        [a[3, 0] + a[2, 1] - a[1, 2] - a[0, 3],
         a[2, 0] - a[3, 1] + a[0, 2] - a[1, 3],
         -a[1, 0] - a[0, 1] - a[3, 2] - a[2, 3],
         -a[0, 0] + a[1, 1] + a[2, 2] - a[3, 3]],
    ])


def bilinear_composition(L, R):
    """Matrix of P -> L*P*R for L = (a,b,c,d), R = (p,q,r,s), entry by entry
    from the bilinear expansion of the two Hamilton products."""
    a, b, c, d = np.asarray(L, dtype=float)
    p, q, r, s = np.asarray(R, dtype=float)
    return np.array([
        [a*p - b*q - c*r - d*s, -a*q - b*p + c*s - d*r,
         -a*r - b*s - c*p + d*q, -a*s + b*r - c*q - d*p],
        [b*p + a*q - d*r + c*s, -b*q + a*p + d*s + c*r,
         -b*r + a*s - d*p - c*q, -b*s - a*r - d*q + c*p],
        [c*p + d*q + a*r - b*s, -c*q + d*p - a*s - b*r,
         -c*r + d*s + a*p + b*q, -c*s - d*r + a*q - b*p],
        [d*p - c*q + b*r + a*s, -d*q - c*p - b*s + a*r,
         -d*r - c*s + b*p - a*q, -d*s + c*r + b*q + a*p],
    ])


def solve_factor_pair(A):
    """Recover (L, R) from a rotation matrix by generic linear algebra.

    Expands A over the 16 basis matrices of P -> e_i*P*e_j.
    The coefficients, arranged on a 4x4 grid, are the pairwise products
    L_i * R_j, so the grid is rank 1 and an SVD reads off unit factors with
    the correct relative sign (the singular value is positive).
    """
    basis = np.eye(4)
    T = np.column_stack([
        bilinear_composition(basis[i], basis[j]).ravel()
        for i in range(4)
        for j in range(4)
    ])
    coefficients = np.linalg.solve(T, np.asarray(A, dtype=float).ravel())
    grid = coefficients.reshape(4, 4)
    u, s, vt = np.linalg.svd(grid)
    return u[:, 0], vt[0]


def procrustes(A):
    """Nearest rotation to A in the Frobenius norm, from numpy's SVD.

    With A = U S V^T, the nearest orthogonal matrix is U V^T; when its
    determinant is -1, the nearest rotation flips the singular direction
    of the smallest singular value instead.
    """
    u, _, vt = np.linalg.svd(np.asarray(A, dtype=float))
    flip = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, 1.0, flip]) @ vt


def brute_max_minor(M):
    """All 36 2x2 minors by explicit loops; no vectorized indexing."""
    M = np.asarray(M, dtype=float)
    worst = 0.0
    for i, j in combinations(range(4), 2):
        for k, l in combinations(range(4), 2):
            worst = max(worst, abs(M[i, k] * M[j, l] - M[j, k] * M[i, l]))
    return worst


def exact_det(A):
    """Determinant of A in exact rational arithmetic, by elimination; the
    entries are floats, ints or Fractions, each read exactly."""
    rows = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(4):
        pivot = next((r for r in range(c, 4) if rows[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, 4):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return det


# ---- the abstract's theorem in exact rational arithmetic --------------------
# Only ints and Fractions below, and no rounding: a 4x4 matrix is a list of
# four rows, a quaternion a list of four components.

def exact_hamilton(p, q):
    """Hamilton product p*q, with ij = k, in the arithmetic of its components."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return [a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2]


def rational_unit(p):
    """p*p / |p|^2 for an integer quaternion p != 0: a unit quaternion with
    rational components, since |p*p| = |p|^2."""
    norm2 = sum(c * c for c in p)
    return [Fraction(c, norm2) for c in exact_hamilton(p, p)]


BASIS = [[int(k == n) for k in range(4)] for n in range(4)]


def exact_composition(L, R):
    """The matrix of P -> L*P*R: its column m is L*e_m*R."""
    columns = [exact_hamilton(exact_hamilton(L, e), R) for e in BASIS]
    return [[column[r] for column in columns] for r in range(4)]


def exact_associate(A):
    """M = B^T vec(A) / 4, B's column 4i + j the matrix of P -> e_i*P*e_j:
    m_ij is a quarter of the Frobenius product of A with that matrix, whose
    column m is the basis product e_i*e_m*e_j, a signed basis vector."""
    def entry(i, j):
        return sum(A[r][m] * sign for m in range(4)
                   for r, sign in enumerate(exact_hamilton(exact_hamilton(BASIS[i], BASIS[m]),
                                                           BASIS[j])) if sign) / 4
    return [[entry(i, j) for j in range(4)] for i in range(4)]


def exact_minors(M):
    """All 36 2x2 minors of M."""
    return [M[i][k] * M[j][l] - M[j][k] * M[i][l]
            for i, j in combinations(range(4), 2) for k, l in combinations(range(4), 2)]


def exact_is_rotation(A):
    """A^T A = I and det A = 1, exactly."""
    return all(sum(A[r][m] * A[r][n] for r in range(4)) == int(m == n)
               for m in range(4) for n in range(4)) and exact_det(A) == 1


# components of L at most this far from zero do not decide the joint sign
SIGN_ANCHOR = 1e-8


def canonical_reference(L, R):
    """The pair, or the negated pair, whose first component of L above
    SIGN_ANCHOR in magnitude is positive; the pair as given when there is no
    such component."""
    L, R = np.asarray(L, dtype=float), np.asarray(R, dtype=float)
    for component in L:
        if abs(component) > SIGN_ANCHOR:
            return (L, R) if component > 0 else (-L, -R)
    return L, R


def conjugate_reference(q):
    """The quaternion with its vector part negated."""
    return np.asarray(q, dtype=float) * [1.0, -1.0, -1.0, -1.0]


def pair_deviation(pair_a, pair_b):
    """Max-abs distance between two quaternion pairs, minimized over the joint sign."""
    La, Ra = pair_a
    Lb, Rb = pair_b
    same = max(float(np.max(np.abs(La - Lb))), float(np.max(np.abs(Ra - Rb))))
    flipped = max(float(np.max(np.abs(La + Lb))), float(np.max(np.abs(Ra + Rb))))
    return min(same, flipped)


def random_improper(rng):
    """Orthogonal matrix with determinant -1: rotation times a reflection."""
    from isoclinic import random_rotation

    return random_rotation(rng) @ np.diag([1.0, 1.0, 1.0, -1.0])
