"""Turn job times and spans into the metrics BENCHMARK.json names."""

import ctypes
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

# Percentile rule: the highest percentile with at least this many jobs beyond it.
TAIL_BEYOND = 10


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return float("nan"), None
    i = len(ordered) - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


# The probe's duration at the reference pace: its typical time on a 2-core
# x86-64 box (numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
PROBE_REF_S = 0.010

_PROBE_M = np.random.default_rng(0).random((160, 160))
_PROBE_A = np.random.default_rng(1).random((1000, 256))
_PROBE_LABELS = np.random.default_rng(2).integers(0, 20, 1000)


def probe():
    """Seconds for a fixed kernel owned by the benchmark, not the program:
    an interpreter loop, small BLAS products and an `np.add.at` scatter.

    Of the mixes tried, this one tracked the machine's speed best: over 170
    seconds of alternating hd-lloyd jobs and probes, it cut the spread of
    20-job medians from 0.30 to 0.04 (a probe without the scatter: 0.12).
    """
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i
    for _ in range(6):
        _PROBE_M @ _PROBE_M
    np.add.at(np.zeros((20, 256)), _PROBE_LABELS, _PROBE_A)
    return time.perf_counter() - start


class Pace:
    """Rescales measured intervals to the reference machine pace.

    On a shared machine the speed this process gets switches between
    levels about 1.5x apart, for stretches of seconds to minutes, which no
    affordable run length averages out.  Each interval is multiplied by
    PROBE_REF_S over the mean of the probe timed just before and just
    after it, on the same pinned CPU.
    """

    def __init__(self):
        self.last = probe()

    def scale(self, seconds):
        following = probe()
        factor = PROBE_REF_S / ((self.last + following) / 2.0)
        self.last = following
        return seconds * factor


def result(values, attempted, failed, problems):
    """The benchmark's last stdout line, as a dict."""
    correct = failed == 0 and not problems and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v, _ in values.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}}


# Spans reported as "<span>.ms": total inclusive time per job.
_TIMED_SPANS = [f"{layer}.{fn}" for layer, fns in tracing.LAYER_FUNCTIONS.items()
                for fn in fns if (layer, fn) != ("cli", "main")]

MIB = float(1 << 20)


def layer_metrics(spans, setup_spans=()):
    """Every per-layer metric, as {name: (value, unit)}.

    Each value is the median over traced jobs of that job's total, except
    for the spans in setup_spans (generate_mixture on hd-lloyd), which run
    in set-up only and are reported per set-up entry.  Layers a workload
    never calls read 0.
    """
    jobs = tracing.per_unit(spans, "job")
    setups = tracing.per_unit(spans, "setup")

    def per(name, value):
        units = setups if name in setup_spans else jobs
        vals = [value(u[name]) if name in u else 0.0 for u in units]
        return statistics.median(vals) if vals else 0.0

    def rate(entry):
        return entry["attrs"].get("bytes", 0) / MIB / (entry["ms"] / 1000.0) if entry["ms"] else 0.0

    out = {f"{name}.ms": (per(name, lambda e: e["ms"]), "ms") for name in _TIMED_SPANS}
    out.update({
        "cli.import_s": (0.0, "s"),
        "cli.generate_s": (per("cli.generate", lambda e: e["ms"] / 1000.0), "s"),
        "cli.cluster_s": (per("cli.cluster", lambda e: e["ms"] / 1000.0), "s"),
        "cli.main.self_ms": (per("cli.main", lambda e: e["self_ms"]), "ms"),
        "dataio.read_csv.mb_per_s": (per("dataio.read_csv", rate), "MB/s"),
        "dataio.write_csv.mb_per_s": (per("dataio.write_csv", rate), "MB/s"),
        "mailman.project_mailman.peak_alloc_mb": (
            per("mailman.project_mailman", lambda e: e["attrs"]["peak_alloc_bytes"] / MIB), "MB"),
        "mailman.project_mailman.bucket_bytes": (
            per("mailman.project_mailman", lambda e: e["attrs"]["bucket_bytes"]), "bytes"),
        "mailman.project_mailman.adds": (
            per("mailman.project_mailman", lambda e: e["attrs"]["adds"]), "count"),
        "kmeans.lloyd.iterations": (
            per("kmeans.lloyd", lambda e: e["attrs"]["iterations"]), "count"),
        "kmeans.lloyd.converged": (
            per("kmeans.lloyd", lambda e: e["attrs"]["converged"]), "count"),
        "ref.dense_matmul.ms": (0.0, "ms"),
        "ref.dense_matmul.madds": (0.0, "count"),
    })
    return out


def missing_spans(spans, expected):
    fired = {s[0] for s in spans}
    return [name for name in expected if name not in fired]


def fresh_import_s(env, repeats=3):
    """Median seconds for `import rpkmeans.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import rpkmeans.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_bytes(level):
    """Size in bytes of cpu0's unified level-2 or level-3 cache, or None."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        return int(size.rstrip("KMG")) * scale
    return None
