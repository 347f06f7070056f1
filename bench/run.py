"""Benchmark of the isoclinic splitter.

    python3 bench/run.py --workload {exact,noisy,frame,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Inputs are generated from --seed; the
library is imported from src/ and driven only through its public API.
The load is a closed loop: one client in one process sends the next
request when the previous one has returned. BLAS is pinned to one thread.

Times are given at a reference host speed. On the shared 2-vCPU Xeon
host the bounds were set on, the same work runs at one of two speeds,
about 1.75x apart; the host switches between them every few tens to
hundreds of ms, in a mix that changes from minute to minute. So all work
is timed next to calibration work that never touches the library, and
its times are scaled to what they would be if the calibration took its
reference time. A warm round of requests is scaled by a fixed piece of
small numpy work run just before and just after it (host_scale); work in
a fresh process, mostly interpreter start and imports, by a fresh
`python -S -c pass` (process_scale). A change to the library moves the
timed work and not the calibration, so it shows in full. The unscaled
figures are printed as comments.

On frame, over six 28 s stretches of one run on that host, the scaled
op_us_p50 spread by 0.02 (quartile distance over median) against 0.28
unscaled, and a CLI process took 139 to 214 ms over 30 s while its ratio
to the bare interpreter stayed within 3 %. The scale cannot place single
requests: when the host switches speed inside a round, some of its
requests are scaled wrongly, and they make up the far tail. op_us_p99
spread by 0.20 over those stretches and by 0.21 to 0.24 over three sets
of ten 28 s frame runs; with the calibration run around every 1 ms of
requests instead, by 0.10, while op_us_p50 spread by 0.08. So the tail
is reported as op_us_p90, which spread by 0.02 to 0.11 over ten 28 s runs
of each workload.

--trace 0 measures the end-to-end metrics. A run alternates warm rounds
of requests served in this process with cold requests, each in a fresh
process, paced so that COLD_TARGET of them spread over the run. The warm
figures are taken over every timed warm request, the cold ones over every
cold request. It also sets up SETUP_PROBES times in fresh processes,
spread over the run, and reports their median as setup_s. Peak memory is
that of a fresh process that serves requests and holds nothing else, or
on cli the largest of the CLI processes.

--trace 1 measures the per-layer metrics. Untraced rounds alternate with
rounds that have a span around every public function of each layer,
until TRACED_ROUNDS of the latter are done; the spans give self times,
and the two kinds of round give the tracing overhead. Two call-count
passes under sys.setprofile follow, which must agree exactly. The spans
are written to .bench_out/ at the end.

Every accepted output is checked against ground truth built without the
library. The last line of standard output is one JSON object; its
attempted and failed count the first verdicts of a fixed number of rows
at the start of the pool, so they are the same on every run with one
seed. The exit code is non-zero when an accepted output is wrong.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

# set-up, which setup_s measures, starts here: importing numpy is part of it
SETUP_START = perf_counter()
import numpy as np  # noqa: E402  (after the BLAS pin, which numpy reads on import)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact", "noisy", "frame", "cli")

# requests per warm round: whole blocks of the pool, 15 to 60 ms of work
ROUND_REQUESTS = {"exact": 128, "noisy": 128, "frame": 32, "cli": 32}
CHUNK = 32
# the first requests of a round go untimed: the calibration just before
# it and the benchmark's own child processes evict the caches, and the
# first one to three requests after a child ran up to 1.5x slow; on noisy,
# 38 % of first requests after a child landed in the slowest 1 %, which
# put the harness, not the program, in the tail
WARMUP = 4
# cold requests per run, paced to be done when COLD_SPAN of the run is
# over: with 100 or more, proc_ms_p90 has at least ten samples beyond it
COLD_TARGET = 104
COLD_SPAN = 0.9
# reference times of the calibration work in this process and of
# `python -S -c pass`: about what they take on the 2-vCPU Xeon host the
# bounds were set on, in its faster state
CAL_REF_NS = 330_000
PASS_REF_NS = 8_000_000
CAL_REPEATS = 3
SETUP_PROBES = 5
# the memory probe serves this many rows once, in a fresh process
RSS_ROWS = 1024
CLI_PROBES = 5
COUNT_REQUESTS = 256
# cap on traced rounds, which keeps the spans held in memory under 1M
TRACED_ROUNDS = 64
# the cold requests walk the pool with a stride coprime to its size
COLD_STRIDE = 97
# rows at the start of the pool whose first verdicts the result line
# counts: fewer than a 28 s run serves on that host, so completing them
# after the timed part seldom costs anything; on noisy, enough that
# ok_rate differs by well under 1 % from seed to seed
VERIFY_ROWS = {"exact": 8192, "noisy": 8192, "frame": 2048, "cli": 2048}

END_TO_END = (
    ("setup_s", "s"), ("throughput_ops", "1/s"), ("op_us_p50", "us"), ("op_us_p90", "us"),
    ("proc_ms_p50", "ms"), ("proc_ms_p90", "ms"), ("ok_rate", "ratio"),
    ("factor_err_p999", "unitless"), ("peak_rss_mb", "MB"),
)
SELF_TIMED = (
    "associate.decompose", "associate.associate_matrix", "associate.max_abs_minor",
    "associate.rank1_factor", "associate.canonical_pair", "associate.classify_pair",
    "associate.classify", "rotation4.validate_rotation", "rotation4.van_elfrinkhof",
    "quat.normalize", "quat.isoclinic_angle", "quat.left_matrix", "quat.right_matrix",
    "invariance.make_frame", "invariance.conjugate", "invariance.conjugate_factorwise",
    "invariance.check_isocliny_preserved", "cli.parse_matrix",
)
CALL_COUNTED = ("associate.max_abs_minor", "rotation4.as_mat4", "quat.check_unit")
REJECT_TAGS = ("validate", "norm", "minor", "recon", "invariance", "parse", "other")
LAYERS = ("rotation4", "quat", "associate", "invariance", "errors", "cli")
CALL_LAYERS = LAYERS + ("numpy",)
PER_LAYER = (
    tuple((f"{name}.self_us", "us/op") for name in SELF_TIMED)
    + tuple((f"{name}.calls", "count/op") for name in CALL_COUNTED)
    + tuple((f"errors.reject.{tag}", "count/op") for tag in REJECT_TAGS)
    + (("errors.untyped", "count/op"), ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"),
       ("cli.main_us", "us/op"))
    + tuple((f"{layer}.{kind}", "count/op") for layer in CALL_LAYERS
            for kind in ("py_calls", "c_calls"))
    + (("trace.overhead", "x"), ("trace.throughput_ops", "1/s"),
       ("trace.untraced_throughput_ops", "1/s"), ("trace.spans_per_op", "count/op"))
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, stdin=b""):
    """Run one child to exit; returns (exit code, stdout, wall ns, peak RSS in KiB)."""
    begin = perf_counter_ns()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=child_env())
    try:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the child exited without reading; its exit code tells why
        out = proc.stdout.read()
        proc.stderr.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter_ns() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out.decode(), wall, usage.ru_maxrss


def setup(workload, seed, rows=None):
    """Import the library and generate the inputs: what setup_s measures."""
    sys.path.insert(0, str(SRC))
    import workloads
    make = workloads.POOLS[workload]
    return workloads, (make(seed) if rows is None else make(seed, rows))


def host_scale(workloads):
    """CAL_REF_NS over the median time of CAL_REPEATS runs of the calibration
    work: the factor that takes a time measured now to the reference speed."""
    times = []
    for _ in range(CAL_REPEATS):
        begin = perf_counter_ns()
        workloads.calibration_work()
        times.append(perf_counter_ns() - begin)
    return CAL_REF_NS / statistics.median(times)


def process_scale():
    """PASS_REF_NS over the wall time of a fresh `python -S -c pass`: the
    factor that takes the time of a fresh process started now to the
    reference speed. Skipping the site module keeps it cheap; it tracks
    the host nearly as well as a full start."""
    return PASS_REF_NS / run_child([sys.executable, "-S", "-c", "pass"])[2]


class Tally:
    """Outcome-table verdicts, rejection tags and factor errors of a run.

    Every output is checked, and any wrong one makes the run incorrect.
    The counts of the result line are taken over the verdicts the first
    VERIFY_ROWS[workload] rows of the pool got when each was first served,
    so a seed gives the same counts on every run, however many requests the
    host lets the run get through. A row that is served again and gets
    another verdict than the first time counts as one more failure.
    """

    def __init__(self, workloads, workload, pool):
        self.workloads, self.workload, self.pool = workloads, workload, pool
        self.verify = min(VERIFY_ROWS[workload], len(pool))
        self.verdicts = (workloads.OK, workloads.FAILED, workloads.WRONG)
        self.served = self.wrong = self.flips = 0
        self.first = np.full(len(pool), -1, dtype=np.int8)
        self.errors = []
        self.tags = dict.fromkeys(REJECT_TAGS + ("untyped",), 0)
        self.wrong_examples = []

    def add(self, index, outcome):
        verdict, error, tag = self.workloads.check(self.workload, self.pool, index, outcome)
        self.served += 1
        if tag is not None:
            self.tags[tag] += 1
        if verdict == self.workloads.WRONG:
            self.wrong += 1
            if len(self.wrong_examples) < 3:
                self.wrong_examples.append((int(index), repr(outcome)[:300]))
        if error is not None:
            self.errors.append(error)
        code = self.verdicts.index(verdict)
        if self.first[index] < 0:
            self.first[index] = code
        elif self.first[index] != code:
            self.flips += 1

    def complete(self):
        """Serve, untimed, those of the first rows that no request reached;
        returns how many there were."""
        missing = np.flatnonzero(self.first[:self.verify] < 0)
        if len(missing):
            outcomes, _ = self.workloads.ADAPTERS[self.workload](self.pool.rows[missing])
            for index, outcome in zip(missing, outcomes):
                self.add(index, outcome)
        return len(missing)

    @property
    def attempted(self):
        return self.verify

    @property
    def failed(self):
        return int(np.count_nonzero(self.first[:self.verify] != 0)) + self.flips


class Loop:
    """Closed loop over the pool: warm rounds in-process, cold requests in
    children.

    A warm round serves ROUND_REQUESTS[workload] requests in this process,
    the first WARMUP of them untimed. A cold request is served by a fresh
    process. Each keeps its raw times in ns and its scale: for a round the
    mean of host_scale just before and just after it, for a cold request
    process_scale just before it.
    """

    def __init__(self, workloads, workload, pool, tally):
        self.workloads, self.workload, self.pool, self.tally = workloads, workload, pool, tally
        self.adapter = workloads.ADAPTERS[workload]
        self.position = 0
        self.cold_position = 0
        self.latencies = array("q")
        self.latency_scale = array("d")
        self.busy = array("q")
        self.busy_scale = array("d")
        self.cold = array("q")
        self.cold_scale = array("d")
        self.child_rss = 0

    def warm_round(self):
        """Serve one round; returns its host scale."""
        before = host_scale(self.workloads)
        self.serve(WARMUP)
        timed = ROUND_REQUESTS[self.workload] - WARMUP
        served = 0
        busy_ns = 0
        while served < timed:
            latencies, chunk_ns = self.serve(min(CHUNK, timed - served))
            busy_ns += chunk_ns
            self.latencies.extend(latencies)
            served += len(latencies)
        scale = (before + host_scale(self.workloads)) / 2
        self.latency_scale.extend([scale] * served)
        self.busy.append(busy_ns)
        self.busy_scale.append(scale)
        return scale

    def serve(self, count):
        """Serve up to count requests from the pool, at most to its end, and
        tally them; returns their latencies and the adapter's wall time."""
        first = self.position
        rows = self.pool.rows[first:first + count]
        begin = perf_counter_ns()
        outcomes, latencies = self.adapter(rows)
        busy_ns = perf_counter_ns() - begin
        for offset, outcome in enumerate(outcomes):
            self.tally.add(first + offset, outcome)
        self.position = (first + len(rows)) % len(self.pool)
        return latencies, busy_ns

    def cold_request(self):
        scale = process_scale()
        index = self.cold_position
        self.cold_position = (index + COLD_STRIDE) % len(self.pool)
        row = self.pool.rows[index]
        if self.workload == "cli":
            argv = [sys.executable, "-m", "isoclinic", *self.workloads.CLI_ARGV]
            stdin = row.encode()
        else:
            argv = [sys.executable, str(BENCH / "oneshot.py")]
            stdin = json.dumps({"workload": self.workload,
                                "row": self.workloads.jsonable(row)}).encode()
        code, out, wall, rss = run_child(argv, stdin)
        self.cold.append(wall)
        self.cold_scale.append(scale)
        self.child_rss = max(self.child_rss, rss)
        if self.workload == "cli":
            outcome = (code, out)
        elif code == 0:
            outcome = tuple(json.loads(out))
        else:
            outcome = ("untyped", "process", f"exit {code}")
        self.tally.add(index, outcome)

    def figures(self, scaled=True):
        """Warm throughput, warm p50 and p90, cold p50 and p90, over every
        timed request; in requests per second and ns, at the reference
        host speed unless scaled is False."""
        latencies = np.frombuffer(self.latencies, dtype=np.int64).astype(float)
        busy = np.frombuffer(self.busy, dtype=np.int64).astype(float)
        cold = np.frombuffer(self.cold, dtype=np.int64).astype(float)
        if scaled:
            latencies *= np.frombuffer(self.latency_scale)
            busy *= np.frombuffer(self.busy_scale)
            cold *= np.frombuffer(self.cold_scale)
        figures = [len(latencies) / float(busy.sum() / 1e9),
                   percentile(latencies, 50), percentile(latencies, 90)]
        if len(cold):
            figures += [percentile(cold, 50), percentile(cold, 90)]
        return figures


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def probe(workload, seed, flag):
    """Run this script with a probe flag in a fresh process; returns the
    numbers it prints."""
    argv = [sys.executable, str(BENCH / "run.py"), flag,
            "--workload", workload, "--seed", str(seed)]
    code, out, _, _ = run_child(argv)
    if code != 0:
        raise RuntimeError(f"{flag} exited with {code}")
    return [float(word) for word in out.split()]


def setup_probe(workload, seed):
    """Seconds one fresh process takes to set up, at the reference speed."""
    scale = process_scale()
    return probe(workload, seed, "--setup-probe")[0] * scale


def end_to_end(workloads, workload, seed, seconds, pool):
    tally = Tally(workloads, workload, pool)
    warmup = Loop(workloads, workload, pool, tally)
    warmup.warm_round()
    warmup.cold_request()
    loop = Loop(workloads, workload, pool, tally)
    rss_kib = None if workload == "cli" else probe(workload, seed, "--rss-probe")[0]
    # set-ups are spread over the run so they meet the same host load
    setups = []
    started = perf_counter()
    while perf_counter() - started < seconds:
        if perf_counter() - started >= len(setups) * seconds / SETUP_PROBES:
            setups.append(setup_probe(workload, seed))
        loop.warm_round()
        elapsed = perf_counter() - started
        due = min(COLD_TARGET, COLD_TARGET * elapsed / (COLD_SPAN * seconds))
        while len(loop.cold) < due and perf_counter() - started < seconds:
            loop.cold_request()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, seed))
    completed = tally.complete()
    throughput, p50, p90, proc_p50, proc_p90 = loop.figures()
    if workload == "cli":
        rss_kib = loop.child_rss
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops": throughput,
        "op_us_p50": p50 / 1e3,
        "op_us_p90": p90 / 1e3,
        "proc_ms_p50": proc_p50 / 1e6,
        "proc_ms_p90": proc_p90 / 1e6,
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        "factor_err_p999": percentile(tally.errors, 99.9),
        "peak_rss_mb": rss_kib / 1024,
    }
    raw = loop.figures(scaled=False)
    notes = {
        "samples": f"op_us over {len(loop.latencies)} timed warm requests in "
                   f"{len(loop.busy)} rounds, proc_ms over {len(loop.cold)} cold processes, "
                   f"setup_s over {len(setups)} set-ups, factor_err_p999 over "
                   f"{len(tally.errors)} factor errors",
        "verified": f"first verdicts of rows 0-{tally.attempted - 1}, {completed} of them "
                    f"served after the timed part",
        "unscaled": f"throughput_ops {raw[0]:.1f}, op_us_p50 {raw[1] / 1e3:.2f}, "
                    f"op_us_p90 {raw[2] / 1e3:.2f}, proc_ms_p50 {raw[3] / 1e6:.2f}, "
                    f"proc_ms_p90 {raw[4] / 1e6:.2f}",
        "host scale": f"median {np.median(loop.busy_scale):.3f}, "
                      f"process scale median {np.median(loop.cold_scale):.3f}",
    }
    return tally, {name: (values[name], unit) for name, unit in END_TO_END}, notes


def interpreter_ms():
    """Median wall time of `python -c pass` in a fresh interpreter, in ms;
    unscaled, since process_scale takes much the same work as reference."""
    return statistics.median(
        run_child([sys.executable, "-c", "pass"])[2] / 1e6 for _ in range(CLI_PROBES))


def import_ms():
    """Median time `import isoclinic` takes in a fresh interpreter, in ms at
    the reference speed."""
    code = ("import time; t = time.perf_counter_ns(); import isoclinic; "
            "print(time.perf_counter_ns() - t)")
    times = []
    for _ in range(CLI_PROBES):
        scale = process_scale()
        _, out, _, _ = run_child([sys.executable, "-c", code])
        times.append(int(out) * scale / 1e6)
    return statistics.median(times)


def per_layer(workloads, workload, seed, seconds, pool):
    import tracing

    tally = Tally(workloads, workload, pool)
    Loop(workloads, workload, pool, tally).warm_round()
    untraced = Loop(workloads, workload, pool, tally)
    traced = Loop(workloads, workload, pool, tally)
    tracer = tracing.Tracer()
    bindings = tracer.instrument("isoclinic", LAYERS, workloads, workloads.REQUESTS[workload])
    # untraced and traced rounds alternate, so both meet the same host load,
    # until TRACED_ROUNDS traced rounds are done; untraced rounds then fill
    # the run. request_scale[r] is the host scale of traced request r.
    request_scale = [0.0]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        untraced.warm_round()
        if len(traced.busy) == TRACED_ROUNDS:
            continue
        opened = tracer.requests
        tracing.bind(bindings, traced=True)
        try:
            scale = traced.warm_round()
        finally:
            tracing.bind(bindings, traced=False)
        request_scale.extend([scale] * (tracer.requests - opened))
    completed = tally.complete()
    base_throughput, main_ns = untraced.figures()[:2]
    traced_throughput = traced.figures()[0]
    spans = tracer.self_times(np.array(request_scale))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")

    adapter = workloads.ADAPTERS[workload]
    rows = pool.rows[:COUNT_REQUESTS]
    passes = [tracing.count_calls(lambda: adapter(rows), "isoclinic", CALL_LAYERS)
              for _ in range(2)]
    if passes[0] != passes[1]:
        raise RuntimeError(f"call counts differ between two passes: {passes}")

    requests = tracer.requests
    values = {}
    for name in SELF_TIMED:
        values[f"{name}.self_us"] = spans.get(name, (0, 0.0))[1] / requests / 1e3
    for name in CALL_COUNTED:
        values[f"{name}.calls"] = spans.get(name, (0, 0.0))[0] / requests
    for tag in REJECT_TAGS:
        values[f"errors.reject.{tag}"] = tally.tags[tag] / tally.served
    values["errors.untyped"] = tally.tags["untyped"] / tally.served
    values["cli.interpreter_ms"] = interpreter_ms()
    values["cli.import_ms"] = import_ms()
    values["cli.main_us"] = main_ns / 1e3 if workload == "cli" else 0.0
    for key, total in passes[0].items():
        values[key] = total / COUNT_REQUESTS
    values["trace.overhead"] = base_throughput / traced_throughput
    values["trace.throughput_ops"] = traced_throughput
    values["trace.untraced_throughput_ops"] = base_throughput
    values["trace.spans_per_op"] = len(tracer.start) / requests
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    notes = {"traced requests": requests, "untraced requests": len(untraced.latencies),
             "spans": len(tracer.start), "counted requests": COUNT_REQUESTS,
             "verified": f"first verdicts of rows 0-{tally.attempted - 1}, {completed} of "
                         f"them served after the timed part"}
    return tally, metrics, notes


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header(workload, seed, seconds, trace):
    blas = " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS)
    print(f"# isoclinic benchmark: workload {workload}, seed {seed}, {seconds:g} s, trace {trace}")
    print(f"# python {platform.python_version()}  numpy {np.__version__}")
    print(f"# cpu {cpu_model()}  nproc {len(os.sched_getaffinity(0))}  blas pin {blas}")
    print("# load: closed loop, 1 client; warm requests in this process, cold ones in one "
          "child process each; no extra threads")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def rss_probe(workload, seed):
    """Peak RSS in KiB of this process after it serves RSS_ROWS requests,
    with nothing else held: the library's own footprint."""
    workloads, pool = setup(workload, seed, RSS_ROWS)
    workloads.ADAPTERS[workload](pool.rows)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "isoclinic" / "__init__.py").is_file():
        print(f"error: no isoclinic package under {SRC}", file=sys.stderr)
        return 2
    if args.rss_probe:
        print(rss_probe(args.workload, args.seed))
        return 0
    workloads, pool = setup(args.workload, args.seed)
    if args.setup_probe:
        print(perf_counter() - SETUP_START)
        return 0
    header(args.workload, args.seed, args.seconds, args.trace)
    # the pool and the modules stay out of the collections that requests
    # set off, as they would in a program that only calls the library
    gc.collect()
    gc.freeze()
    measure = per_layer if args.trace else end_to_end
    tally, metrics, notes = measure(workloads, args.workload, args.seed, args.seconds, pool)
    print("# " + ", ".join(f"{k} {v}" for k, v in notes.items()))
    print(f"# served {tally.served}, wrong {tally.wrong}, verdict changes {tally.flips}; "
          f"of the first {tally.attempted} rows failed {tally.failed}; "
          f"rejections {tally.tags}")
    for example in tally.wrong_examples:
        print(f"# wrong output at row {example[0]}: {example[1]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = tally.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
