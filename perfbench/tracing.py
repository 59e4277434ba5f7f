"""In-memory spans around the public functions of each rpkmeans module.

A span has a name, a start, an end (perf_counter seconds) and the index of
its parent span.  Wrappers are installed at every name that binds the
function inside the package, so a call through `cli.read_csv`,
`kmeans.lloyd` or `projection.matmul` is seen no matter how the caller
imported it.  Nothing under src/ is edited: the wrapping happens at run
time and `uninstall` puts every original back.
"""

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

# Layer -> public functions wrapped in traced runs.  rng and errors do
# negligible work or none and are left out.
LAYER_FUNCTIONS = {
    "cli": ["main"],
    "dataio": ["read_csv", "write_csv", "generate_mixture", "load_image_dir"],
    "mailman": ["build_plan", "project_mailman"],
    "projection": ["project_naive", "sample_sign_matrix"],
    "kmeans": ["lloyd", "objective", "brute_force_optimal"],
    "matrix": ["matmul", "svd_thin", "pseudo_inverse", "spectral_norm"],
    "evaluation": ["accuracy", "jl_distortion_check", "moment_identity_check",
                   "norm_bound_check", "singular_value_check",
                   "matmul_moment_check", "pseudo_inverse_bound_check",
                   "decomposition_residual_check", "theorem_distortion_trial"],
}


def mailman_adds(n, plan):
    """Floating-point additions of the packed multiply, from the plan alone.

    Per row and block: d bucket additions, then the fold over 2**p buckets,
    which block_row_multiply_counted counts as 2**(p+1) - 2 (1 when p = 1).
    """
    per_row = 0
    for block in plan.blocks:
        fold = 1 if block.p == 1 else (1 << (block.p + 1)) - 2
        per_row += plan.d + fold
    return n * per_row


def mailman_bucket_bytes(n, plan):
    """Bytes of the float64 bucket matrix project_mailman builds: n x sum 2**p."""
    return n * sum(1 << block.p for block in plan.blocks) * 8


def _file_bytes(path):
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _after_read_csv(args, kwargs, result):
    return {"bytes": _file_bytes(args[0] if args else kwargs.get("path"))}


def _after_write_csv(args, kwargs, result):
    return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs.get("path"))}


def _after_lloyd(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _after_project_mailman(args, kwargs, result):
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    n = result.shape[0]
    return {"bucket_bytes": mailman_bucket_bytes(n, plan),
            "adds": mailman_adds(n, plan)}


AFTER_HOOKS = {
    "dataio.read_csv": _after_read_csv,
    "dataio.write_csv": _after_write_csv,
    "kmeans.lloyd": _after_lloyd,
    "mailman.project_mailman": _after_project_mailman,
}

# Spans whose peak allocation is measured with tracemalloc.
PEAK_ALLOC = {"mailman.project_mailman"}


class Tracer:
    """Collects spans as [name, start, end, parent, attrs] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def add_child_spans(self, spans):
        """Graft spans recorded in another process under the open span.

        perf_counter is the system-wide monotonic clock, so start and end
        times from a child process on the same machine are comparable.
        """
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end,
                               top if parent is None else base + parent, attrs])

    def wrap(self, fn, name):
        after = AFTER_HOOKS.get(name)
        peak = name in PEAK_ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            started = False
            try:
                if peak and not tracemalloc.is_tracing():
                    tracemalloc.start()
                    started = True
                if peak:
                    tracemalloc.reset_peak()
                result = fn(*args, **kwargs)
                if peak:
                    record[4]["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                if after is not None:
                    record[4].update(after(args, kwargs, result))
                return result
            finally:
                if started:
                    tracemalloc.stop()
                self._close()

        return traced

    def install(self):
        """Replace every package binding of each layer function by a wrapper."""
        import rpkmeans
        import rpkmeans.cli  # noqa: F401  (loads every module of the package)

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "rpkmeans" or key.startswith("rpkmeans."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"rpkmeans.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(original, f"{layer}.{fn_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def per_unit(spans, unit_name):
    """Totals per root span called unit_name: [{name: {ms, self_ms, attrs}}]."""
    own = self_times(spans)
    unit_of = {}
    units = []
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if parent is None:
            unit_of[i] = len(units) if name == unit_name else None
            if name == unit_name:
                units.append({})
            continue
        unit_of[i] = unit_of[parent]
        u = unit_of[i]
        if u is None:
            continue
        entry = units[u].setdefault(name, {"ms": 0.0, "self_ms": 0.0, "attrs": {}})
        entry["ms"] += (end - start) * 1000.0
        entry["self_ms"] += own[i] * 1000.0
        for key, value in attrs.items():
            if key == "peak_alloc_bytes":
                entry["attrs"][key] = max(entry["attrs"].get(key, 0), value)
            else:
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    return units

