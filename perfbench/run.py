"""rpkmeans benchmark: one workload, one closed-loop caller, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hd-lloyd --seed 1 --seconds 20 --trace 0

The program is used from the checkout's own src/ tree; the run refuses to
start without it.  One caller sends the next job only after the last one
finished.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(each traced job follows an untraced twin on the same input, to price
the tracing itself).
The line before it is the run's record: environment, job counts and
the tail percentile.  Workloads and metrics are listed in BENCHMARK.json
and described in perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
# BLAS threads, fixed.  One thread: on a shared 2-core box two BLAS threads
# made hd-lloyd only about 10% faster and its run-to-run spread wider.
BLAS_THREADS = 1
# The run and its children stay on one CPU, so the pace probe (see
# metrics.Pace) measures the CPU the jobs ran on.
CPUS_USABLE = len(os.sched_getaffinity(0))
CPU = max(os.sched_getaffinity(0))
# A run measures for --seconds, but never stops before this many timed
# jobs, so the tail percentile (ten jobs beyond it) always exists.
MIN_JOBS = 12
# Past this, a run stops even short of MIN_JOBS, to stay inside 180 s.
HARD_STOP_S = 110.0


def _blas_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


ARGS = _parse_args()
if not (SRC / "rpkmeans" / "__init__.py").is_file():
    sys.exit(f"error: no rpkmeans source tree at {SRC}; run from the root of a checkout")
os.environ.update(_blas_env())  # before numpy loads OpenBLAS
os.sched_setaffinity(0, {CPU})
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rpkmeans  # noqa: E402
import rpkmeans.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - PROCESS_START

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Context:
    seed: int
    work: Path
    env: dict
    bench_dir: Path = BENCH_DIR
    tracer: tracing.Tracer | None = None


def _environment(wl, entries):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": CPUS_USABLE,
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": metrics.openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "l2_bytes": metrics.cache_bytes(2),
        "l3_bytes": metrics.cache_bytes(3),
        "input_bytes_per_entry": [e["input_bytes"] for e in entries],
        "pool_entries": wl.pool,
        "rpkmeans": str(Path(rpkmeans.__file__).resolve().parent),
    }


def _set_up(wl, ctx):
    """Prepare every pool entry and run its warm-up job; returns entries,
    (wall, paced) seconds of each entry's set-up, and the problems found."""
    entries, seconds, problems = [], [], []
    pace = metrics.Pace()
    for j in range(wl.pool):
        start = time.perf_counter()
        span = ctx.tracer.span("setup") if ctx.tracer else nullcontext()
        with span:
            entry = wl.prepare(ctx, j)
            try:
                warm = wl.job(ctx, entry)
            except Exception as exc:  # recorded as a failed set-up, not a crash
                problems.append(f"entry {j} warm-up raised {exc!r}")
                warm = None
        if warm is not None:
            problems += [f"entry {j} warm-up: {p}" for p in workloads.check_outcome({}, warm)]
            entry["reference"] = workloads.reference_of(warm)
            entry["quality"] = workloads.quality(warm)
        problems += [f"entry {j}: {p}" for p in entry.pop("setup_problems", [])]
        elapsed = time.perf_counter() - start
        seconds.append((elapsed, pace.scale(elapsed)))
        entries.append(entry)
    return entries, seconds, problems


def _one_job(wl, ctx, entry):
    """Run and check one job: (seconds, None) or (None, reason it failed)."""
    span = ctx.tracer.span("job") if ctx.tracer else nullcontext()
    try:
        with span:
            t0 = time.perf_counter()
            out = wl.job(ctx, entry)
            dt = time.perf_counter() - t0
    except Exception as exc:  # a failed job is counted, the loop goes on
        return None, f"raised {exc!r}"
    problems = workloads.check_outcome(entry, out)
    return (None, "; ".join(problems)) if problems else (dt, None)


def _loop(wl, ctx, entries, seconds, min_jobs, tracer=None):
    """Closed loop: one caller, next job only after the last one returned.

    With a tracer, each pool entry runs twice in a row, untraced then
    traced, so the two sides see the same inputs at nearly the same time.
    Returns (wall seconds of passing untraced jobs, of passing traced
    jobs, paced seconds of the untraced ones when not tracing, attempted,
    failure reasons).
    """
    times = {False: [], True: []}
    paced = []
    pace = None if tracer else metrics.Pace()
    failures, attempted = [], 0
    modes = (False, True) if tracer else (False,)
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and
                                      attempted >= min_jobs * len(modes)):
            break
        entry = entries[attempted // len(modes) % len(entries)]
        for traced in modes:
            attempted += 1
            if traced:
                tracer.install()
                ctx.tracer = tracer
            try:
                dt, problem = _one_job(wl, ctx, entry)
            finally:
                if traced:
                    tracer.uninstall()
                    ctx.tracer = None
            if problem:
                failures.append(f"job {attempted}: {problem}")
            else:
                times[traced].append(dt)
                if pace:
                    paced.append(pace.scale(dt))
    return times[False], times[True], paced, attempted, failures


def main():
    if ARGS.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {ARGS.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[ARGS.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(seed=ARGS.seed, work=work, env=_blas_env())
    try:
        if ARGS.trace:
            result, record = _traced_run(wl, ctx)
        else:
            result, record = _untraced_run(wl, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({"workload": wl.name, "seed": ARGS.seed, "seconds": ARGS.seconds,
                   "trace": ARGS.trace, "why": wl.__doc__,
                   "exercises": wl.exercises, "bypasses": wl.bypasses})
    results_dir = ROOT / ".perfbench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    full = {"record": record, **result}
    (results_dir / f"{wl.name}-seed{ARGS.seed}-trace{ARGS.trace}.json").write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _untraced_run(wl, ctx):
    import_paced = metrics.Pace().scale(IMPORT_S)
    entries, setup_seconds, setup_problems = _set_up(wl, ctx)
    wall, _, times, attempted, failures = _loop(wl, ctx, entries, ARGS.seconds, MIN_JOBS)
    tail, tail_pct = metrics.tail(times)
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    quality = [e["quality"] for e in entries if "quality" in e]
    f_tilde = statistics.mean(q[0] for q in quality) if quality else float("nan")
    acc = statistics.mean(q[1] for q in quality) if quality else float("nan")
    values = {
        "job_s": (statistics.median(times) if times else float("nan"), "s"),
        "job_s_tail": (tail, "s"),
        "setup_s": (import_paced + statistics.median(p for _, p in setup_seconds), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "f_tilde": (f_tilde, "ratio"),
        "accuracy": (acc, "ratio"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
    }
    record = _environment(wl, entries)
    record.update({"jobs": len(times), "attempted": attempted, "failures": failures[:10],
                   "setup_problems": setup_problems, "tail_percentile": tail_pct,
                   "wall_job_s": statistics.median(wall) if wall else None,
                   "wall_job_s_tail": metrics.tail(wall)[0],
                   "wall_setup_s": IMPORT_S + statistics.median(w for w, _ in setup_seconds),
                   "import_s": IMPORT_S, "setup_entry_s": setup_seconds, "cpu": CPU,
                   "peak_rss_of": "largest child process" if wl.in_children
                   else "benchmark process"})
    return metrics.result(values, attempted, len(failures), setup_problems), record


def _traced_run(wl, ctx):
    tracer = tracing.Tracer()
    ctx.tracer = tracer
    tracer.install()
    entries, _, setup_problems = _set_up(wl, ctx)
    tracer.uninstall()
    ctx.tracer = None
    plain, traced, _, attempted, failures = _loop(wl, ctx, entries, ARGS.seconds, 5, tracer)
    values = metrics.layer_metrics(tracer.spans, wl.setup_spans)
    if wl.in_children:
        values["cli.import_s"] = (metrics.fresh_import_s(ctx.env), "s")
    for entry in entries:
        for name, value in entry.get("ref", {}).items():
            values[name] = (value, "ms" if name.endswith(".ms") else "count")
    overhead = (statistics.median(traced) - statistics.median(plain)) * 1000.0 \
        if traced and plain else float("nan")
    values["trace.overhead_ms"] = (overhead, "ms")
    missing = metrics.missing_spans(tracer.spans, wl.expected_spans)
    problems = setup_problems + [f"expected span {name} never fired" for name in missing]
    record = _environment(wl, entries)
    record.update({"jobs_untraced": len(plain), "jobs_traced": len(traced),
                   "attempted": attempted, "failures": failures[:10],
                   "setup_problems": problems, "spans": len(tracer.spans),
                   "untraced_job_s": statistics.median(plain) if plain else None,
                   "traced_job_s": statistics.median(traced) if traced else None})
    return metrics.result(values, attempted, len(failures), problems), record


if __name__ == "__main__":
    sys.exit(main())
