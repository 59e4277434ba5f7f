"""Lloyd's heuristic, an exact exhaustive solver, and the project-then-cluster
pipeline built on top of them.

project_and_cluster is the one project -> solve -> plug-back path: the
library, the cluster and experiment subcommands and the benchmark all run
it, and it times its own three phases.

Lloyd's mean update and the plug-back objective both take their per-cluster
sums from one sparse k x n one-hot product, whose sums have the bits of
np.add.at: cluster_sums builds the one-hot for one call, and lloyd builds
it once per call and writes each iteration's labels into it.  cluster_sums
stays the statement of that bit contract."""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import mailman as _mailman, projection as _projection, rng as _rng
from .errors import ParameterError
from .matrix import as_matrix

BRUTE_FORCE_MAX_POINTS = 14
_ENUM_CHUNK = 1 << 15
# objective squares and sums the differences this many elements at a time;
# at least 128, the size up to which numpy sums without splitting.
OBJECTIVE_LEAF = 1 << 16


@dataclass
class Assignment:
    """A hard clustering: one label in [0, k) per point."""

    labels: np.ndarray
    k: int
    cluster_sizes: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.cluster_sizes = np.asarray(self.cluster_sizes, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ParameterError("labels must be a nonempty 1-D array")
        if self.k < 1:
            raise ParameterError("k must be at least 1")
        if self.labels.min() < 0 or self.labels.max() >= self.k:
            raise ParameterError("labels must lie in [0, k)")
        expected = np.bincount(self.labels, minlength=self.k)
        if not np.array_equal(expected, self.cluster_sizes):
            raise ParameterError("cluster_sizes inconsistent with labels")

    @classmethod
    def from_labels(cls, labels, k: int) -> "Assignment":
        labels = np.asarray(labels, dtype=np.int64)
        return cls(labels=labels, k=k,
                   cluster_sizes=np.bincount(labels, minlength=k))

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass
class GivenIndices:
    """Start Lloyd from the rows at these indices."""

    indices: tuple


@dataclass
class FirstOfEachGroup:
    """Start Lloyd from rows 0, stride, 2*stride, ..., (k-1)*stride."""

    stride: int = 1


@dataclass
class SolverSpec:
    """Which solver to run and with what budget.

    Replicates beyond the first restart Lloyd from seeded random rows and
    keep the best objective.
    """

    kind: str = "lloyd"
    max_iter: int = 100
    tol: float = 1e-9
    init: object = field(default_factory=FirstOfEachGroup)
    replicates: int = 1

    def __post_init__(self):
        if self.kind not in ("lloyd", "brute_force"):
            raise ParameterError(f"unknown solver kind {self.kind!r}")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be at least 1")
        # tol >= 1 would stop every run after two iterations as converged
        if not 0.0 <= self.tol < 1.0:
            raise ParameterError(f"tol={self.tol!r} outside [0, 1)")
        if self.replicates < 1:
            raise ParameterError("replicates must be at least 1")


@dataclass
class KMeansResult:
    assignment: Assignment
    objective: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray


def _onehot(labels, k: int):
    """The k x n CSC one-hot of labels: column i holds a single 1.0 in row
    labels[i].  Labels are trusted to lie in [0, k)."""
    # imported here so that importing the package does not load scipy
    from scipy import sparse

    n = labels.size
    index = np.int32 if max(n, k) <= np.iinfo(np.int32).max else np.int64
    return sparse.csc_matrix(
        (np.ones(n), labels.astype(index), np.arange(n + 1, dtype=index)),
        shape=(k, n),
    )


def cluster_sums(a, labels, k: int) -> np.ndarray:
    """Per-cluster row sums: row j of the k x d result sums the rows of a
    labelled j (zero for an empty cluster).

    A k x n one-hot CSC matrix, whose column i holds a single 1.0 in row
    labels[i], multiplies a.  scipy's CSC product adds row i into its
    cluster in ascending i, the same order as np.add.at, so the sums are
    bit-identical to it.  Labels outside [0, k) raise ParameterError.
    """
    labels = np.asarray(labels)
    # scipy trusts the row indices of a matrix built this way, so check them
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ParameterError("labels must lie in [0, k)")
    return np.asarray(_onehot(labels, k) @ a)


def _pairwise_sum(lo, hi, leaf_sum):
    """Sum of leaf_sum over the flat index range lo..hi, split as numpy's
    pairwise sum splits it until a part holds at most OBJECTIVE_LEAF
    elements.  A module-level function, not a closure: a closure that calls
    itself is a reference cycle, which would keep the leaf buffer alive
    until the cyclic garbage collector runs."""
    n = hi - lo
    if n <= OBJECTIVE_LEAF:
        return leaf_sum(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(lo, lo + half, leaf_sum) + _pairwise_sum(lo + half, hi, leaf_sum)


def _squared_leaf(flat, d, centroids, labels, buf, lo, hi):
    """Sum of the squared differences at flat indices lo..hi of
    a - centroids[labels], where flat is a.reshape(-1) and d the row length
    of a; buf holds at least hi - lo elements."""
    r0, c0 = divmod(lo, d)
    r1, c1 = divmod(hi, d)
    out = buf[:hi - lo]
    # the centroid entries at those indices: the rest of row r0, rows
    # r0 + 1 .. r1 - 1 whole, and the start of row r1
    if r0 == r1:
        out[:] = centroids[labels[r0], c0:c1]
    else:
        out[:d - c0] = centroids[labels[r0], c0:]
        # mode="clip" writes straight into out; "raise" would buffer it, and
        # the labels are in range
        np.take(centroids, labels[r0 + 1:r1], axis=0, mode="clip",
                out=out[d - c0:hi - lo - c1].reshape(-1, d))
        if c1:
            out[hi - lo - c1:] = centroids[labels[r1], :c1]
    np.subtract(flat[lo:hi], out, out=out)
    np.multiply(out, out, out=out)
    return out.sum()


def objective(a, asg: Assignment) -> float:
    """Sum of squared distances from each point to its cluster mean.

    Returns the bits of np.sum(diff * diff) with diff = a - centroids[labels],
    without an n x d temporary.  numpy sums a contiguous array pairwise: a
    range of more than 128 elements splits at n2 = n // 2 - (n // 2) % 8
    and the two halves' sums are added.  objective splits the flat range
    0..n*d the same way until a part (a leaf) holds at most OBJECTIVE_LEAF
    elements.  Each leaf fills one reused buffer with its squared
    differences and sums it with numpy's own sum, which splits it as the
    whole array's sum would; the leaves' sums are then added back up the
    tree.  Every addition is the one np.sum makes, so the bits are equal.
    """
    a = as_matrix(a)
    if asg.labels.size != a.shape[0]:
        raise ParameterError("assignment length does not match row count")
    if (asg.cluster_sizes[asg.labels] == 0).any():
        raise ParameterError("assignment references an empty cluster")
    centroids = cluster_sums(a, asg.labels, asg.k)
    centroids /= np.maximum(asg.cluster_sizes, 1)[:, None]
    buf = np.empty(min(OBJECTIVE_LEAF, a.size))
    leaf_sum = functools.partial(_squared_leaf, a.reshape(-1), a.shape[1],
                                 centroids, asg.labels, buf)
    return float(_pairwise_sum(0, a.size, leaf_sum))


def _initial_centroids(a, k, init):
    n = a.shape[0]
    if isinstance(init, GivenIndices):
        idx = np.asarray(init.indices, dtype=np.int64)
        if idx.size != k:
            raise ParameterError(f"init needs exactly k={k} indices")
        if idx.min() < 0 or idx.max() >= n:
            raise ParameterError("init index out of range")
    elif isinstance(init, FirstOfEachGroup):
        if init.stride < 1:
            raise ParameterError("stride must be at least 1")
        idx = np.arange(k, dtype=np.int64) * init.stride
        if idx[-1] >= n:
            raise ParameterError(
                f"stride {init.stride} with k={k} reaches past n={n} rows"
            )
    else:
        raise ParameterError(f"unknown init {init!r}")
    return a[idx].copy()


def _partition_cost(a_sq_total, sums_sq, sizes):
    # F = sum ||a_i||^2 - sum_j ||cluster sum_j||^2 / z_j, never negative.
    nonempty = sizes > 0
    val = a_sq_total - np.sum(sums_sq[nonempty] / sizes[nonempty])
    return max(float(val), 0.0)


def _lloyd_once(a, a_sq, a_sq_total, onehot, centroids, max_iter, tol):
    n, k = a.shape[0], onehot.shape[0]
    labels_prev = None
    trace = []
    converged = False
    iterations = 0
    labels = None
    for iterations in range(1, max_iter + 1):
        # a_sq - 2 a.c + c_sq, in the order and with the bits of that
        # expression, in one n x k buffer
        d2 = a @ centroids.T
        d2 *= -2.0
        d2 += a_sq[:, None]
        d2 += np.einsum("ij,ij->i", centroids, centroids)
        labels = np.argmin(d2, axis=1)  # ties break to the lowest index
        sizes = np.bincount(labels, minlength=k)
        while (sizes == 0).any():
            empty = int(np.flatnonzero(sizes == 0)[0])
            # move the point farthest from its current centroid, but never
            # drain a singleton cluster (that would just shift the hole)
            own = d2[np.arange(n), labels].copy()
            own[sizes[labels] <= 1] = -np.inf
            moved = int(np.argmax(own))
            sizes[labels[moved]] -= 1
            labels[moved] = empty
            sizes[empty] = 1
        # the cluster_sums product, on the call's one one-hot
        onehot.indices[:] = labels
        sums = np.asarray(onehot @ a)
        centroids = sums / np.maximum(sizes, 1)[:, None]
        sums_sq = np.einsum("ij,ij->i", sums, sums)
        trace.append(_partition_cost(a_sq_total, sums_sq, sizes))
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            converged = True
            break
        if len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if prev == 0.0 or (prev - cur) < tol * prev:
                converged = True
                break
        labels_prev = labels
    return KMeansResult(
        assignment=Assignment.from_labels(labels, k),
        objective=trace[-1],
        iterations=iterations,
        converged=converged,
        objective_trace=np.array(trace),
    )


def lloyd(a, k: int, spec: SolverSpec | None = None, seed: int = 0) -> KMeansResult:
    """Lloyd's heuristic: alternate nearest-centroid assignment and mean
    updates until the assignment stabilizes, the relative objective drop
    falls below tol, or max_iter is hit.

    Emptied clusters are repaired by reassigning the point farthest from
    its current centroid.  The recorded objective trace is non-increasing
    up to rounding: each entry is sum ||a_i||^2 - sum_j ||S_j||^2 / z_j, and
    that difference can rise from one iteration to the next by rounding
    alone (by up to 1.3 eps * sum ||a_i||^2 in random draws; the tests
    allow 16 eps * sum ||a_i||^2).
    With replicates > 1, restarts r >= 1 draw k distinct seed rows from the
    (seed, restart r) stream and the best objective wins.

    The rows' squared norms, the check that they do not overflow, and the
    k x n one-hot of cluster_sums are made once per call and shared by the
    replicates.  Each mean update writes its labels into the one-hot and
    multiplies it by the rows, the product cluster_sums makes, so labels,
    trace and objective are bit-identical to updates by np.add.at.
    """
    a = as_matrix(a)
    spec = spec if spec is not None else SolverSpec()
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} outside [1, n={n}]")
    a_sq = np.einsum("ij,ij->i", a, a)
    a_sq_total = float(a_sq.sum())
    # n * sum ||a_i||^2 bounds every squared distance and squared cluster sum
    # Lloyd forms; where it overflows, the objective would become inf or NaN.
    if not math.isfinite(a_sq_total * max(n, 4)):
        raise ParameterError("squared norms of the input overflow float64; rescale it")
    onehot = _onehot(np.zeros(n, dtype=np.int64), k)
    best = None
    for rep in range(spec.replicates):
        if rep == 0:
            centroids = _initial_centroids(a, k, spec.init)
        else:
            idx = _rng.stream(seed, _rng.LLOYD_RESTART, rep).choice(
                n, size=k, replace=False
            )
            centroids = a[np.sort(idx)].copy()
        res = _lloyd_once(a, a_sq, a_sq_total, onehot, centroids, spec.max_iter, spec.tol)
        if best is None or res.objective < best.objective:
            best = res
    return best


def _growth_strings(n, k):
    """Yield every restricted-growth string of length n with at most k values."""
    a = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(a)
            return
        top = min(used + 1, k - 1)
        for v in range(top + 1):
            a[i] = v
            yield from rec(i + 1, max(used, v))

    yield from rec(1, 0)


def brute_force_optimal(a, k: int) -> KMeansResult:
    """Exact k-means by enumerating every partition into at most k clusters.

    Partition counts grow as Bell numbers, so inputs are refused beyond
    n = 14 rows.  Costs come from the Gram matrix, making the scan cheap in
    the point dimension.  iterations reports the number of partitions tried.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n > BRUTE_FORCE_MAX_POINTS:
        raise ParameterError(
            f"exhaustive solver refuses n={n} > {BRUTE_FORCE_MAX_POINTS} points"
        )
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} outside [1, n={n}]")
    gram = a @ a.T
    total = float(np.trace(gram))
    best_cost = np.inf
    best_labels = None
    examined = 0

    def scan(chunk):
        nonlocal best_cost, best_labels, examined
        part = np.array(chunk, dtype=np.int64)
        onehot = np.zeros((part.shape[0], n, k))
        rows = np.arange(n)
        onehot[np.arange(part.shape[0])[:, None], rows[None, :], part] = 1.0
        quad = np.einsum("mik,ip,mpk->mk", onehot, gram, onehot)
        counts = onehot.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            per = np.where(counts > 0, quad / np.maximum(counts, 1), 0.0)
        costs = total - per.sum(axis=1)
        j = int(np.argmin(costs))
        examined += part.shape[0]
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_labels = part[j].copy()

    chunk = []
    for labels in _growth_strings(n, k):
        chunk.append(labels)
        if len(chunk) == _ENUM_CHUNK:
            scan(chunk)
            chunk = []
    if chunk:
        scan(chunk)
    best_cost = max(best_cost, 0.0)
    return KMeansResult(
        assignment=Assignment.from_labels(best_labels, k),
        objective=best_cost,
        iterations=examined,
        converged=True,
        objective_trace=np.array([best_cost]),
    )


PIPELINE_METHODS = ("sign_mailman", "sign_naive", "gaussian", "svd_embed", "none")


def apply_projection(a, cfg: _projection.ProjectionConfig, method: str):
    """Project a for the named method; returns (projected, t_used)."""
    a = as_matrix(a)
    if method not in PIPELINE_METHODS:
        raise ParameterError(f"unknown method {method!r}")
    d = a.shape[1]
    if method == "none":
        return a, d
    t = cfg.resolve_t(d)
    if method == "sign_mailman":
        plan = _mailman.build_plan(d, t, cfg.seed)
        return _mailman.project_mailman(a, plan), t
    if method == "sign_naive":
        r = _projection.sample_sign_matrix(d, t, cfg.seed)
        return _projection.project_naive(a, r), t
    if method == "gaussian":
        g = _projection.sample_gaussian_matrix(d, t, cfg.seed)
        return _projection.project_naive(a, g), t
    # svd_embed: top-t factor embedding, needs t within both dimensions
    if t > min(a.shape):
        raise ParameterError(f"svd_embed needs t <= min(n, d), got t={t}")
    return _projection.svd_embed(a, t), t


@dataclass
class PipelineResult:
    """A pipeline run: the projected-space solver result, the plug-back
    objective of its partition on the original rows, and the wall
    milliseconds of the three phases."""

    projected: KMeansResult
    original_objective: float
    t: int
    projection_ms: float
    clustering_ms: float
    plugback_ms: float


def solve(a, k: int, spec: SolverSpec, seed: int) -> KMeansResult:
    """Run the solver spec.kind names on the rows of a."""
    if spec.kind == "brute_force":
        return brute_force_optimal(a, k)
    return lloyd(a, k, spec, seed)


def project_and_cluster(a, k: int, cfg: _projection.ProjectionConfig,
                        spec: SolverSpec | None = None,
                        method: str = "sign_mailman") -> PipelineResult:
    """Project the rows of a, cluster in the low dimension with seed
    cfg.seed, then price the resulting assignment back in the original
    space.

    projection_ms, clustering_ms and plugback_ms time the three phases.
    scipy.sparse, which the packed multiply and the plug-back load on first
    use, is imported before the first of them, so no phase counts it.
    """
    # imported here so that importing the package does not load scipy
    import scipy.sparse  # noqa: F401

    spec = spec if spec is not None else SolverSpec()
    start = time.perf_counter()
    projected, t_used = apply_projection(a, cfg, method)
    projected_at = time.perf_counter()
    res = solve(projected, k, spec, cfg.seed)
    clustered_at = time.perf_counter()
    plugback = objective(a, res.assignment)
    return PipelineResult(
        projected=res,
        original_objective=plugback,
        t=t_used,
        projection_ms=(projected_at - start) * 1000.0,
        clustering_ms=(clustered_at - projected_at) * 1000.0,
        plugback_ms=(time.perf_counter() - clustered_at) * 1000.0,
    )
