"""pgad benchmark: runs one workload, checks its outputs, prints metrics as JSON.

    python3 bench/run.py --workload ablation_grid --seed 101 --seconds 15 --trace 0

Run from the root of a source checkout; pgad is imported from its `src/`.
With --trace 0 the last line holds the end-to-end metrics (setup_s,
ops_per_s, peak_rss_mb); with --trace 1 it holds the per-layer metrics of a
traced pass.  The exit code is non-zero when any output check fails.
See bench/README.md for the workloads and what each metric means.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 2  # extra set-ups in fresh interpreters; setup_s is the median of 1 + these


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ablation_grid", "large_cohort", "embed_export"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only build the workload's inputs and print the time taken")
    return p.parse_args()


def import_pgad():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pgad", "__init__.py")):
        sys.exit(f"error: no pgad sources under {src}; run from a pgad checkout")
    sys.path.insert(0, src)
    import pgad.cli  # noqa: F401  (the set-up cost of the CLI and harness is measured)
    import pgad.harness  # noqa: F401

    if not os.path.abspath(pgad.__file__).startswith(src + os.sep):
        sys.exit(f"error: pgad was imported from {pgad.__file__}, not from {src}")


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config and get_threads:
                get_config.restype = ctypes.c_char_p
                env["openblas"] = get_config().decode()
                env["openblas_threads"] = get_threads()
                break
    return env


def runqueue_wait_s() -> float:
    """Seconds the calling thread has spent ready to run but waiting for a
    CPU: the second field of Linux's /proc/thread-self/schedstat."""
    with open("/proc/thread-self/schedstat") as fh:
        return int(fh.read().split()[1]) / 1e9


_wait_log = None  # file that pool workers append their fits' run-queue wait to


def report_fit_waits() -> None:
    """Wrap harness.run_one so that a call made in a pool worker appends the
    run-queue wait of its fit to _wait_log.  Workers inherit it by fork."""
    from pgad import harness

    run_one = harness.run_one
    if getattr(run_one, "reports_wait", False):
        return

    @functools.wraps(run_one)
    def run_one_reporting_wait(job):
        w0 = runqueue_wait_s()
        record = run_one(job)
        if _wait_log is not None:
            with open(_wait_log, "a") as fh:
                fh.write(f"{os.getpid()} {runqueue_wait_s() - w0!r}\n")
        return record

    run_one_reporting_wait.reports_wait = True
    harness.run_one = run_one_reporting_wait


def run_rounds(wl, seconds=None, rounds=None):
    """Repeat whole rounds: `rounds` of them, or at least one and then more
    while another round of median length still fits within `seconds`.

    Returns each round's wall time and the part of it the round's work spent
    waiting for a CPU: the run-queue wait of this process's main thread, plus
    that of the pool workers' fits shared over the workers."""
    global _wait_log
    import checks

    report_fit_waits()
    _wait_log = os.path.join(OUT, f"fit-waits-{os.getpid()}.txt")
    durations, waits, digests, written = [], [], [], 0
    while True:
        wl.prepare()
        with contextlib.suppress(FileNotFoundError):
            os.remove(_wait_log)
        w0 = runqueue_wait_s()
        t0 = time.perf_counter()
        wl.run_round()
        durations.append(time.perf_counter() - t0)
        waited = runqueue_wait_s() - w0
        if wl.jobs > 1:
            with open(_wait_log) as fh:
                fits = [float(line.split()[1]) for line in fh]
            if len(fits) != wl.ops_per_round:
                raise RuntimeError(f"{len(fits)} of {wl.ops_per_round} pool fits reported "
                                   "their run-queue wait; the workers must be forked")
            waited += sum(fits) / wl.jobs
        waits.append(waited)
        digests.append(checks.digest(wl.outputs))
        written += checks.tree_bytes(wl.outputs)
        if rounds is None:
            done = sum(durations) + statistics.median(durations) > seconds
        else:
            done = len(durations) == rounds
        if done:
            with contextlib.suppress(FileNotFoundError):
                os.remove(_wait_log)
            return durations, waits, digests, written


def setup_probes(args) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def main() -> int:
    args = parse_args()
    import_pgad()
    import workloads

    work = os.path.join(OUT, "probe" if args.setup_probe else args.workload)
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.BUILDERS[args.workload](args.seed, work)
    setup_s = time.perf_counter() - START
    if args.setup_probe:
        shutil.rmtree(work, ignore_errors=True)
        print(repr(setup_s))
        return 0

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    durations, waits, digests, written = run_rounds(wl, seconds=args.seconds)
    attempted = wl.ops_per_round * len(durations)
    metrics = {}
    errors = []
    if args.trace:
        import tracing

        spans = os.path.join(work, "spans")
        tracer = tracing.Tracer(spans)
        tracer.install()
        try:
            traced, _, traced_digests, written = run_rounds(wl, rounds=len(durations))
            tracer.flush()
        finally:
            tracer.uninstall()
        attempted *= 2
        digests += traced_digests
        layer, failures, share = tracing.collect(spans, wl.jobs)
        errors += failures
        layer["harness.artifact_bytes"] = (written, "bytes")
        overhead = statistics.median(traced) - statistics.median(durations)
        layer["trace.overhead_s"] = (overhead * len(traced), "s")
        print(f"round seconds untraced {[round(d, 3) for d in durations]}, traced "
              f"{[round(d, 3) for d in traced]}")
        if share is not None:
            print(f"ams.build_batch is {100 * share:.1f}% of trainer.fit time")
        for name in tracing.per_layer_metric_names():
            value, unit = layer[name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        setups = [setup_s] + setup_probes(args)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / (sum(durations) - sum(waits)),
                          "unit": "ops/s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        print(f"rounds: {len(durations)} x {wl.ops_per_round} ops, seconds "
              f"{[round(d, 3) for d in durations]}, waiting for a CPU "
              f"{[round(w, 3) for w in waits]}; ops / wall {attempted / sum(durations):.4f} "
              f"ops/s; setups {[round(s, 3) for s in setups]}")

    errors += wl.check()
    if len(set(digests)) != 1:
        errors.append(f"rounds wrote different bytes: {sorted(set(digests))}")
    print(f"digest {args.workload} seed={args.seed}: {digests[0]}")
    for e in errors[:50]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
