"""Acceptance suite: seeded, deterministic checks of every promised bound.

Each test records a pass/fail line that the terminal summary prints, so a
full run ends with one line per criterion. Bounds and sample counts are
stated in the test bodies; none are weakened from the promised values.
"""

import functools
import json
import subprocess
import sys
import time

import numpy as np

from isoclinic import (
    DecompositionError,
    RotationKind,
    Tolerances,
    associate_matrix,
    associate_norm,
    canonical_pair,
    check_isocliny_preserved,
    conjugate,
    conjugate_factorwise,
    decompose,
    left_matrix,
    make_frame,
    max_abs_minor,
    normalize,
    random_rotation,
    right_matrix,
    van_elfrinkhof,
)
from oracles import (
    bilinear_composition,
    brute_max_minor,
    pair_deviation,
    random_improper,
    solve_factor_pair,
)

RESULTS = []


def criterion(number, description):
    """Record the outcome of an acceptance test for the terminal summary."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as exc:
                RESULTS.append((number, description, False, str(exc).splitlines()[0][:160]))
                raise
            RESULTS.append((number, description, True, detail or ""))

        return wrapper

    return decorate


@criterion(1, "decomposition round trip, 10000 random factor pairs, < 5 s")
def test_c01_decomposition_round_trip():
    rng = np.random.default_rng(20260819)
    worst_component = worst_residual = 0.0
    start = time.perf_counter()
    for _ in range(10000):
        L0 = normalize(rng.standard_normal(4))
        R0 = normalize(rng.standard_normal(4))
        result = decompose(van_elfrinkhof(L0, R0))
        cL, cR = canonical_pair(L0, R0)
        worst_component = max(worst_component,
                              float(np.max(np.abs(result.left - cL))),
                              float(np.max(np.abs(result.right - cR))))
        worst_residual = max(worst_residual, result.reconstruction_residual)
    elapsed = time.perf_counter() - start
    assert worst_component <= 1e-12, f"component error {worst_component:.3e}"
    assert worst_residual <= 1e-12, f"reconstruction residual {worst_residual:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    return (f"worst component {worst_component:.2e}, "
            f"worst residual {worst_residual:.2e}, {elapsed:.2f}s")


@criterion(2, "unit Frobenius norm of the recombination, 10000 rotations")
def test_c02_norm_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10000):
        worst = max(worst, abs(associate_norm(associate_matrix(random_rotation(rng))) - 1.0))
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    return f"worst deviation {worst:.2e}"


@criterion(3, "all 36 minors vanish, 1000 rotations")
def test_c03_minor_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        M = associate_matrix(random_rotation(rng))
        brute = brute_max_minor(M)
        worst = max(worst, brute)
        assert (max_abs_minor(M) <= 1e-12) == (brute <= 1e-12)
    assert worst <= 1e-12, f"worst minor {worst:.3e}"
    bad = associate_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert max_abs_minor(bad) > 1e-12
    return f"worst minor {worst:.2e}"


@criterion(4, "table and bilinear formula equal the matrix product, 1000 pairs")
def test_c04_formula_vs_product():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        L = normalize(rng.standard_normal(4))
        R = normalize(rng.standard_normal(4))
        product = left_matrix(L) @ right_matrix(R)
        deviation = max(np.max(np.abs(van_elfrinkhof(L, R) - product)),
                        np.max(np.abs(bilinear_composition(L, R) - product)))
        worst = max(worst, float(deviation))
    assert worst <= 1e-14, f"worst deviation {worst:.3e}"
    return f"worst deviation {worst:.2e}"


@criterion(5, "left and right factor matrices commute, 1000 pairs")
def test_c05_commutativity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        ML = left_matrix(normalize(rng.standard_normal(4)))
        MR = right_matrix(normalize(rng.standard_normal(4)))
        worst = max(worst, float(np.max(np.abs(ML @ MR - MR @ ML))))
    assert worst <= 1e-13, f"worst deviation {worst:.3e}"
    return f"worst deviation {worst:.2e}"


@criterion(6, "pi/5 factor turns both planes equally (left) or oppositely (right)")
def test_c06_plane_semantics():
    alpha = np.pi / 5
    c, s = np.cos(alpha), np.sin(alpha)
    q = np.array([c, s, 0.0, 0.0])
    e0, e1, e2, e3 = np.eye(4)
    ML, MR = left_matrix(q), right_matrix(q)
    checks = [
        (ML @ e0, c * e0 + s * e1), (ML @ e1, -s * e0 + c * e1),
        (ML @ e2, c * e2 + s * e3), (ML @ e3, -s * e2 + c * e3),
        (MR @ e0, c * e0 + s * e1), (MR @ e1, -s * e0 + c * e1),
        (MR @ e2, c * e2 - s * e3), (MR @ e3, s * e2 + c * e3),
    ]
    worst = max(float(np.max(np.abs(got - want))) for got, want in checks)
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    return f"worst deviation {worst:.2e}"


@criterion(7, "frame changes preserve trace, factorwise conjugation, and isocliny, 1000 pairs")
def test_c07_invariance_suite():
    rng = np.random.default_rng(7)
    worst_trace = worst_factorwise = worst_angle = 0.0
    for _ in range(1000):
        A = random_rotation(rng)
        frame = make_frame(random_rotation(rng))
        worst_trace = max(worst_trace, abs(np.trace(conjugate(A, frame)) - np.trace(A)))
        worst_factorwise = max(worst_factorwise, float(np.max(np.abs(
            conjugate_factorwise(A, frame) - conjugate(A, frame)))))
        pure_left = left_matrix(normalize(rng.standard_normal(4)))
        report = check_isocliny_preserved(pure_left, frame)
        assert report.original.kind is RotationKind.LEFT_ISOCLINIC
        assert report.transformed.kind is RotationKind.LEFT_ISOCLINIC
        worst_angle = max(worst_angle, report.angle_deviation)
    assert worst_trace <= 1e-11, f"trace deviation {worst_trace:.3e}"
    assert worst_factorwise <= 1e-11, f"factorwise deviation {worst_factorwise:.3e}"
    assert worst_angle <= 1e-9, f"angle deviation {worst_angle:.3e}"
    return (f"trace {worst_trace:.2e}, factorwise {worst_factorwise:.2e}, "
            f"angle {worst_angle:.2e}")


@criterion(8, "orthogonal matrices with determinant -1 are rejected, 101 cases")
def test_c08_improper_rejection():
    loose = Tolerances(norm_tol=10.0, minor_tol=10.0, factor_tol=10.0, recon_tol=10.0)
    rng = np.random.default_rng(8)
    cases = [np.diag([1.0, 1.0, 1.0, -1.0])]
    cases += [random_improper(rng) for _ in range(100)]
    closest = np.inf
    for A in cases:
        try:
            decompose(A)
        except DecompositionError:
            pass
        else:
            raise AssertionError("improper matrix was not rejected")
        # even with every tolerance wide open, the best factor pair misses
        # the input by a wide margin
        forced = decompose(A, loose)
        closest = min(closest, forced.reconstruction_residual)
    assert closest >= 1e-6, f"closest reconstruction {closest:.3e}"
    return f"closest reconstruction {closest:.2e}"


@criterion(9, "factor read-off matches a generic solve-plus-SVD oracle, 100 rotations")
def test_c09_oracle_equivalence():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        A = random_rotation(rng)
        result = decompose(A)
        worst = max(worst, pair_deviation((result.left, result.right),
                                          solve_factor_pair(A)))
    assert worst <= 1e-10, f"worst pair deviation {worst:.3e}"
    return f"worst pair deviation {worst:.2e}"


@criterion(10, "CLI generate/decompose/compose round trip, 100 seeds")
def test_c10_cli_round_trip():
    def run(args, stdin_text=""):
        proc = subprocess.run([sys.executable, "-m", "isoclinic", *args],
                              input=stdin_text, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    worst = 0.0
    for seed in range(100):
        generated = run(["generate", "--seed", str(seed)])
        report = json.loads(run(["decompose", "--json"], generated))
        rebuilt = run(["compose",
                       "--left", " ".join(repr(v) for v in report["left"]),
                       "--right", " ".join(repr(v) for v in report["right"])])
        original = np.array(generated.split(), dtype=float)
        recovered = np.array(rebuilt.split(), dtype=float)
        worst = max(worst, float(np.max(np.abs(original - recovered))))
    assert worst <= 1e-11, f"worst deviation {worst:.3e}"
    return f"worst deviation {worst:.2e}"
