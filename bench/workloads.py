"""Benchmark workloads: seeded inputs, ground truth, request adapters and
the fixed outcome table.

Ground truth never comes from the library. Every (L, R) pair is drawn
here and composed into A, the matrix of P -> L*P*R, with this module's
own Hamilton product table, so a factor error measured against it checks
the library rather than the library against itself.

Each workload hands its pool of generated inputs, one array with one row
per request, to one adapter function (``ADAPTERS``). Today the adapters
loop over the scalar API; a batch API would replace one loop body.

The input mixes are coverage mixes, not traffic: no record of real use
exists to weigh them by. Inputs come in blocks of 16 that each hold the
same mix, and every path a workload is there to measure gets at least one
row in 16, so each path holds at least 1/16 of the requests of any run
and its per-request counts rest on thousands of samples.
"""

import io
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

import isoclinic as iso
import isoclinic.cli as iso_cli

KINDS = ("general", "identity", "central-reversion", "left-isoclinic", "right-isoclinic")
# per block of 16 rotations: 12 Haar-uniform, one of each special kind
KIND_MIX = (12, 1, 1, 1, 1)
BLOCK = 16
GOLDEN = (5 ** 0.5 - 1) / 2

# e_a * e_b = sign * e_c over the basis (1, i, j, k), with ij = k
_PRODUCTS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)
HAMILTON = np.zeros((4, 4, 4))
for _a, _row in enumerate(_PRODUCTS):
    for _b, (_c, _sign) in enumerate(_row):
        HAMILTON[_a, _b, _c] = _sign

# canonical sign anchor, as documented by isoclinic.canonical_pair
SIGN_TOL = 1e-8
# an accepted exact rotation whose factors miss the generating pair by
# more than this is a wrong output
EXACT_TOL = 1e-12
# an accepted noisy rotation passed reconstruction at 1e-9, so its
# factors lie within a few times that of the generating pair
NOISY_TOL = 1e-8
ANGLE_TOL = 1e-6

# verdicts of the outcome table
OK, FAILED, WRONG = "ok", "failed", "wrong"
# what the table demands of an input
MUST_ACCEPT, MAY_REJECT, MUST_REJECT = 0, 1, 2

# rejection tags for the errors.* counters, by exception class name
REJECT_TAGS = {
    "NotOrthogonalError": "validate",
    "NotProperRotationError": "validate",
    "NormDeviationError": "norm",
    "NotRankOneError": "minor",
    "DegenerateNormError": "minor",
    "ReconstructionError": "recon",
    "InvarianceError": "invariance",
    "ParseError": "parse",
}


def qmul(p, q):
    """Hamilton product of stacked quaternions, from the table above."""
    return np.einsum("...a,...b,abc->...c", p, q, HAMILTON)


def qconj(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def compose(L, R):
    """Stacked matrices of P -> L*P*R: column m is L * e_m * R."""
    L, R = np.atleast_2d(L), np.atleast_2d(R)
    # left[n, m, c] = (L * e_m)_c and right[n, c, k] = (e_c * R)_k
    left = (L @ HAMILTON.reshape(4, 16)).reshape(-1, 4, 4)
    right = (R @ HAMILTON.transpose(1, 0, 2).reshape(4, 16)).reshape(-1, 4, 4)
    return (left @ right).transpose(0, 2, 1)


def unit_quaternions(rng, n):
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def canonical(L, R):
    """Joint sign making the first component above SIGN_TOL of L positive."""
    anchor = np.argmax(np.abs(L) > SIGN_TOL, axis=1)
    sign = np.sign(L[np.arange(len(L)), anchor])[:, None]
    return L * sign, R * sign


def blocks(rng, n, counts):
    """Category per row, in blocks of 16 that each shuffle the same mix.

    counts gives how many of each category a block holds (they sum to
    16), so every run of whole blocks, such as one warm round, has
    exactly the same mix.
    """
    pattern = np.repeat(np.arange(len(counts)), counts)
    return rng.permuted(np.tile(pattern, (n // BLOCK, 1)), axis=1).ravel()


def kind_pairs(rng, kind):
    """Generating pairs for each kind index: Haar-uniform for "general",
    an identity factor where the kind asks for one, and a random joint sign."""
    E = np.array([1.0, 0.0, 0.0, 0.0])
    n = len(kind)
    L = unit_quaternions(rng, n)
    R = unit_quaternions(rng, n)
    L[kind == 1], R[kind == 1] = E, E
    L[kind == 2], R[kind == 2] = E, -E
    R[kind == 3] = E
    L[kind == 4] = E
    sign = rng.choice([-1.0, 1.0], size=(n, 1))
    return L * sign, R * sign


@dataclass
class Pool:
    """Generated inputs plus what each request must return.

    rows          what the adapter receives, one row per request
    demand        MUST_ACCEPT, MAY_REJECT or MUST_REJECT per row
    left, right   canonical generating pair of each row
    kind          index into KINDS of the generating pair
    angles        expected (left, right) factor angles
    tol           largest factor error an accepted row may show
    extra         workload-specific ground truth
    """

    rows: np.ndarray
    demand: np.ndarray
    left: np.ndarray
    right: np.ndarray
    kind: np.ndarray
    angles: np.ndarray
    tol: np.ndarray
    extra: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.rows)


def _truth(L, R):
    L, R = canonical(L, R)
    angles = np.arccos(np.clip(np.stack([L[:, 0], R[:, 0]], axis=1), -1.0, 1.0))
    return L, R, angles


def exact_pool(seed, n=32768):
    """Exact rotations in KIND_MIX: the accepted path of every kind.

    The 12 Haar-uniform rotations per block carry the kernel's typical
    cost; identity, central reversion and the two isoclinic kinds, one
    each, keep every classify_pair outcome above 1/16 of the requests.
    """
    rng = np.random.default_rng([seed, 1])
    kind = blocks(rng, n, KIND_MIX)
    L, R = kind_pairs(rng, kind)
    rows = compose(L, R)
    L, R, angles = _truth(L, R)
    return Pool(rows, np.full(n, MUST_ACCEPT), L, R, kind, angles, np.full(n, EXACT_TOL))


# Each pool holds thousands of exact rotations, which a run visits many
# times, so factor_err_p999 has far more than ten samples beyond it.

def noisy_pool(seed, n=32768):
    """Mixed inputs; each block of 16 holds

    4  exact Haar-uniform rotations, the plain accepted path, which the
       exact workload covers in full; a quarter keeps factor_err_p999
       on thousands of samples
    8  rotations plus Gaussian noise of scale log-uniform on [1e-13, 1e-9],
       the exponents following a golden-ratio sequence so that any run of
       rows covers the range evenly; the largest share, because they split
       over several paths: about half of them, a quarter of all requests,
       go through the refinement branch of rank1_factor, and some of the
       rest are rejected by validate_rotation or, after it accepted them,
       by decompose
    1  orthogonal matrix of determinant -1, the improper-rotation rejection
    1  rotation scaled by a factor in [0.5, 0.9] or [1.1, 2], or plus
       noise of scale in [1e-6, 1e-2] (a coin decides), the orthogonality
       rejection
    1  rotation with one NaN entry, the non-finite input
    1  rotation cut or padded to a wrong shape, the shape check
    """
    rng = np.random.default_rng([seed, 2])
    category = blocks(rng, n, (4, 8, 1, 1, 1, 1))
    L = unit_quaternions(rng, n)
    R = unit_quaternions(rng, n)
    clean = compose(L, R)
    gauss = rng.standard_normal((n, 4, 4))
    matrices = clean.copy()
    demand = np.full(n, MUST_REJECT)
    tol = np.zeros(n)
    demand[category == 0] = MUST_ACCEPT
    tol[category == 0] = EXACT_TOL

    noisy = np.flatnonzero(category == 1)
    exponent = (rng.random() + GOLDEN * np.arange(len(noisy))) % 1.0
    matrices[noisy] += 10.0 ** (-13 + 4 * exponent)[:, None, None] * gauss[noisy]
    demand[noisy] = MAY_REJECT
    tol[noisy] = NOISY_TOL

    matrices[category == 2, :, 3] *= -1.0

    off = np.flatnonzero(category == 3)
    scaled = rng.random(len(off)) < 0.5
    factor = np.where(rng.random(len(off)) < 0.5, rng.uniform(0.5, 0.9, len(off)),
                      rng.uniform(1.1, 2.0, len(off)))
    matrices[off[scaled]] *= factor[scaled, None, None]
    perturbed = off[~scaled]
    scale = 10.0 ** rng.uniform(-6, -2, len(perturbed))
    matrices[perturbed] += scale[:, None, None] * gauss[perturbed]

    nan = np.flatnonzero(category == 4)
    matrices.reshape(n, 16)[nan, rng.integers(16, size=len(nan))] = np.nan

    rows = np.empty(n, dtype=object)
    rows[:] = list(matrices)
    cuts = (lambda A: A[:3], lambda A: A[:, :3], lambda A: A.ravel(),
            lambda A: np.hstack([A, np.zeros((4, 1))]))
    shaped = np.flatnonzero(category == 5)
    for i, cut in zip(shaped, rng.integers(len(cuts), size=len(shaped))):
        rows[i] = cuts[cut](clean[i])
    L, R, angles = _truth(L, R)
    return Pool(rows, demand, L, R, np.zeros(n, dtype=int), angles, tol)


def frame_pool(seed, n=8192):
    """(A, S) pairs: A from KIND_MIX, for the reasons exact_pool gives,
    and S Haar-uniform, since the frame only has to be a proper rotation.

    The conjugated pair (conj(S_L) A_L S_L, S_R A_R conj(S_R)) gives the
    expected S^T A S through the same Hamilton table.
    """
    rng = np.random.default_rng([seed, 3])
    kind = blocks(rng, n, KIND_MIX)
    AL, AR = kind_pairs(rng, kind)
    SL = unit_quaternions(rng, n)
    SR = unit_quaternions(rng, n)
    rows = np.stack([compose(AL, AR), compose(SL, SR)], axis=1)
    conjugated = compose(qmul(qmul(qconj(SL), AL), SL), qmul(qmul(SR, AR), qconj(SR)))
    AL, AR, angles = _truth(AL, AR)
    SL, SR = canonical(SL, SR)
    return Pool(rows, np.full(n, MUST_ACCEPT), SL, SR, kind, angles, np.full(n, EXACT_TOL),
                {"conjugated": conjugated})


def _plain16(rows):
    """Texts of 16 reals each, in repr so they parse back bit for bit."""
    return [" ".join(map(repr, row)) + "\n" for row in rows.reshape(-1, 16).tolist()]


def cli_pool(seed, n=8192):
    """stdin texts for `isoclinic decompose --json`.

    Each block of 16 holds 14 exact rotations (10 Haar-uniform, one of
    each special kind), one orthogonal matrix of determinant -1 (exit 3)
    and one unparsable text, either 15 numbers or a NaN entry (exit 2).
    Accepted rows carry the whole output path, parsing, decomposition and
    the JSON report, so they take most of the mix; each of the two exit
    codes a rejection can give keeps one row in 16.
    """
    rng = np.random.default_rng([seed, 4])
    category = blocks(rng, n, (10, 1, 1, 1, 1, 1, 1))
    kind = np.where(category < len(KINDS), category, 0)
    L, R = kind_pairs(rng, kind)
    matrices = compose(L, R)
    matrices[category == 5, :, 3] *= -1.0
    exit_code = np.select([category == 5, category == 6], [3, 2], 0)
    texts = _plain16(matrices)
    for i in np.flatnonzero(category == 6):
        tokens = texts[i].split()[:15]
        texts[i] = " ".join(tokens + ["nan"] if i % 2 else tokens) + "\n"
    demand = np.where(exit_code == 0, MUST_ACCEPT, MUST_REJECT)
    L, R, angles = _truth(L, R)
    return Pool(np.array(texts, dtype=object), demand, L, R, kind, angles,
                np.full(n, EXACT_TOL), {"exit_code": exit_code})


POOLS = {"exact": exact_pool, "noisy": noisy_pool, "frame": frame_pool, "cli": cli_pool}


# ---- requests and adapters -------------------------------------------------
# Library calls go through module attributes (iso.decompose, ...) so the
# traced run can swap in its span wrappers.

def library_request(A):
    """validate_rotation -> decompose -> classify_pair, the path the CLI runs."""
    stage = "validate"
    try:
        A = iso.validate_rotation(A)
        stage = "decompose"
        result = iso.decompose(A)
        stage = "classify"
        kind = iso.classify_pair(result.left, result.right)
    except iso.IsoclinicError as exc:
        return ("rejected", stage, type(exc).__name__)
    except Exception as exc:  # counted as an untyped failure, never raised
        return ("untyped", stage, type(exc).__name__)
    return ("accepted", result.left, result.right, kind.kind.value,
            kind.left_angle, kind.right_angle)


def frame_request(pair):
    """make_frame(S), check_isocliny_preserved, conjugate_factorwise vs conjugate."""
    A, S = pair
    try:
        frame = iso.make_frame(S)
        report = iso.check_isocliny_preserved(A, frame)
        factorwise = iso.conjugate_factorwise(A, frame)
        direct = iso.conjugate(A, frame)
    except iso.IsoclinicError as exc:
        return ("rejected", "frame", type(exc).__name__)
    except Exception as exc:  # counted as an untyped failure, never raised
        return ("untyped", "frame", type(exc).__name__)
    original, transformed = report.original, report.transformed
    return ("accepted", frame.s_left, frame.s_right,
            original.kind.value, original.left_angle, original.right_angle,
            transformed.kind.value, transformed.left_angle, transformed.right_angle,
            factorwise, direct)


CLI_ARGV = ("decompose", "--json")


def cli_request(text):
    """In-process `isoclinic decompose --json` with stdio redirected."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = iso_cli.main(list(CLI_ARGV))
    except Exception as exc:  # counted as an untyped failure, never raised
        code = f"untyped:{type(exc).__name__}"
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return (code, out)


def _serve(request, rows):
    outcomes = []
    latencies = []
    for row in rows:
        start = perf_counter_ns()
        outcome = request(row)
        latencies.append(perf_counter_ns() - start)
        outcomes.append(outcome)
    return outcomes, latencies


# the request functions are looked up on each call, for the same reason
def serve_library(rows):
    return _serve(library_request, rows)


def serve_frame(rows):
    return _serve(frame_request, rows)


def serve_cli(rows):
    return _serve(cli_request, rows)


ADAPTERS = {"exact": serve_library, "noisy": serve_library, "frame": serve_frame,
            "cli": serve_cli}
# the function each adapter calls once per request; the traced run wraps
# it as the span that opens a request
REQUESTS = {"exact": "library_request", "noisy": "library_request",
            "frame": "frame_request", "cli": "cli_request"}


# ---- the outcome table -----------------------------------------------------

def _pair_error(L, R, L0, R0):
    """Max-abs distance to the generating pair; the joint sign does not count."""
    L, R = np.asarray(L, dtype=float), np.asarray(R, dtype=float)
    same = max(np.max(np.abs(L - L0)), np.max(np.abs(R - R0)))
    flipped = max(np.max(np.abs(L + L0)), np.max(np.abs(R + R0)))
    return float(min(same, flipped))


def _check_accepted(pool, i, L, R, kind, angles):
    """Factor error of an accepted row, or None when the output is wrong."""
    error = _pair_error(L, R, pool.left[i], pool.right[i])
    if not error <= pool.tol[i] or kind != KINDS[pool.kind[i]]:
        return None
    if not np.all(np.abs(np.asarray(angles) - pool.angles[i]) <= ANGLE_TOL):
        return None
    return error


def cli_outcome(code, stdout):
    """Read a CLI exit code and JSON report as a library-style outcome."""
    if isinstance(code, str):
        return ("untyped", "cli", code)
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        report = None
    if code == 0 and report is not None and report.get("status") == "ok":
        return ("accepted", report["left"], report["right"], report["class"],
                report["left_angle"], report["right_angle"])
    if code == 2 and report is None:
        return ("rejected", "parse", "ParseError", code)
    if code in (1, 3) and report is not None and report.get("status") == "rejected":
        return ("rejected", "cli", report["error"]["type"], code)
    return ("untyped", "cli", f"exit {code}")


def check(workload, pool, i, outcome):
    """Apply the fixed outcome table to request i.

    Returns (verdict, factor error of an accepted exact rotation or None,
    rejection tag or None).
    - An exact rotation must be accepted, with the right factors, kind
      and angles; a typed rejection of it is a failure.
    - A det -1, scaled, non-orthogonal, NaN or wrong-shape input must be
      rejected with an IsoclinicError; accepting it is a wrong output.
    - A noisy rotation may be rejected by validate_rotation, but once
      validate_rotation accepts it decompose must accept it too.
    - Any exception that is not an IsoclinicError is a failure.
    """
    if workload == "cli":
        outcome = cli_outcome(*outcome)
    status = outcome[0]
    demand = pool.demand[i]
    if status == "untyped":
        return FAILED, None, "untyped"
    if status == "rejected":
        tag = REJECT_TAGS.get(outcome[2], "other")
        if workload == "cli":
            ok = demand == MUST_REJECT and outcome[3] == pool.extra["exit_code"][i]
        elif demand == MAY_REJECT:
            ok = outcome[1] == "validate"
        else:
            ok = demand == MUST_REJECT
        return (OK if ok else FAILED), None, tag
    if demand == MUST_REJECT:
        return WRONG, None, None
    if workload == "frame":
        error = _check_frame(pool, i, outcome)
    else:
        error = _check_accepted(pool, i, outcome[1], outcome[2], outcome[3], outcome[4:6])
    if error is None:
        return WRONG, None, None
    # factor_err_p999 is taken over exact rotations only
    return OK, (error if demand == MUST_ACCEPT else None), None


def _check_frame(pool, i, outcome):
    """Factor error of the frame's pair, or None when any output is wrong."""
    (_, s_left, s_right, kind0, la0, ra0, kind1, la1, ra1, factorwise, direct) = outcome
    expected = pool.extra["conjugated"][i]
    error = _pair_error(s_left, s_right, pool.left[i], pool.right[i])
    good = (
        error <= EXACT_TOL
        and kind0 == kind1 == KINDS[pool.kind[i]]
        and np.all(np.abs(np.array([la0, ra0, la1, ra1]) - np.tile(pool.angles[i], 2)) <= ANGLE_TOL)
        and np.max(np.abs(np.asarray(factorwise) - expected)) <= EXACT_TOL
        and np.max(np.abs(np.asarray(direct) - expected)) <= EXACT_TOL
    )
    return error if good else None


# ---- host speed -------------------------------------------------------------

_CALIBRATION = unit_quaternions(np.random.default_rng(0), 32).reshape(16, 2, 4)
_EYE = np.eye(4)


def calibration_work():
    """Fixed work of the kind a request does, small numpy operations called
    from Python, that never touches the library: the benchmark times it
    next to the requests to read how fast the host runs at that moment."""
    total = 0.0
    for L, R in _CALIBRATION:
        A = compose(L, R)[0]
        total += np.linalg.det(A) + np.max(np.abs(A @ A.T - _EYE))
        total += float(np.linalg.norm(qmul(L, R)))
    return total


# ---- one request in a fresh process ----------------------------------------

def jsonable(value):
    """An input row or an outcome with its arrays turned into lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [jsonable(v) for v in value]
    return value
