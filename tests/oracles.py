"""Independent reference computations used to pin expected test values.

Nothing here reuses the package's composition table or its factor
read-off: the associate matrix and the two-sided product are spelled out
entry by entry, factors are recovered by a generic 16x16 linear solve plus
an SVD, and minors are scanned with plain Python loops, so agreement with
the library is evidence rather than tautology.
"""

from itertools import combinations

import numpy as np

from isoclinic import left_matrix, right_matrix


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

    Expands A over the 16 basis matrices left_matrix(e_i) @ right_matrix(e_j).
    The coefficients, arranged on a 4x4 grid, are the pairwise products
    L_i * R_j, so the grid is rank 1 and an SVD reads off unit factors with
    the correct relative sign (the singular value is positive).
    """
    basis = np.eye(4)
    T = np.column_stack([
        (left_matrix(basis[i]) @ right_matrix(basis[j])).ravel()
        for i in range(4)
        for j in range(4)
    ])
    coefficients = np.linalg.solve(T, np.asarray(A, dtype=float).ravel())
    grid = coefficients.reshape(4, 4)
    u, s, vt = np.linalg.svd(grid)
    return u[:, 0], vt[0]


def brute_max_minor(M):
    """All 36 2x2 minors by explicit loops; no vectorized indexing."""
    M = np.asarray(M, dtype=float)
    worst = 0.0
    for i, j in combinations(range(4), 2):
        for k, l in combinations(range(4), 2):
            worst = max(worst, abs(M[i, k] * M[j, l] - M[j, k] * M[i, l]))
    return worst


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
