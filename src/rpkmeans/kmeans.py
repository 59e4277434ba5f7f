"""Lloyd's heuristic, an exact exhaustive solver, and the project-then-cluster
pipeline built on top of them.

project_and_cluster is the one project -> solve -> plug-back path: the
library, the cluster and experiment subcommands and the benchmark all run
it, and it times its own three phases.

Lloyd's mean update and the plug-back objective both take their per-cluster
sums from one sparse one-hot product, whose sums have the bits of
np.add.at: cluster_sums builds a k x n one-hot for one call, and lloyd
stacks the labels of every live replicate into one (replicates * k) x n
one-hot, built when the set of live replicates changes, and writes each
iteration's labels into it.  cluster_sums stays the statement of that bit
contract.

Lloyd runs its replicates in lockstep on one distance product per
iteration, a float32 screen on rows centred on their column mean, and
settles every label by a rule that does not depend on that product's bits
(lloyd): a row whose winner the screen cannot prove by a rounding margin is
priced in the float64 fixed form against the centroids inside its margin.
Its labels are the argmin of the fixed-form squared distance, whatever the
BLAS build, the thread count or the number of replicates; only the count of
rows the fixed form decided (settled) depends on the screen.

A partition's cost is computed two ways, on purpose.  objective prices it
directly for the final plug-back: each row's ||a_i - c_l(i)||^2 in the
fixed form (_fixed_d2, the one function that also prices Lloyd's unsettled
pairs and the rows of its empty-cluster repair), the n row costs added by
np.sum.  Lloyd's trace takes sum ||a_i||^2 - sum_j ||S_j||^2 / z_j
(_partition_cost) from the cluster sums S_j it has already formed: pricing
every iteration directly would add about 24% to an iteration at 400 x 100,
k = 40, and 3x at 1000 x 256, k = 20."""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import mailman as _mailman, projection as _projection, rng as _rng
from .errors import ParameterError
from .matrix import _dense, _integer, _integers, _size, as_matrix

BRUTE_FORCE_MAX_POINTS = 14
_ENUM_CHUNK = 1 << 15
# _fixed_d2's pairs (the rows of objective and lloyd's repair, and lloyd's
# unsettled pairs) and lloyd's screen form go through their scratch in
# chunks of whole rows, at most this many elements (one row, if longer)
OBJECTIVE_LEAF = 1 << 16


@dataclass(eq=False)
class Assignment:
    """A hard clustering: one label in [0, k) per point."""

    labels: np.ndarray
    k: int
    # the labels' bincount: a cluster no label names has size 0
    cluster_sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        self.labels = _integers(self.labels, "labels")
        self.k = _size(self.k, "k")
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ParameterError("labels must be a nonempty 1-D array")
        if self.labels.min() < 0 or self.labels.max() >= self.k:
            raise ParameterError("labels must lie in [0, k)")
        self.cluster_sizes = np.bincount(self.labels, minlength=self.k)

    @classmethod
    def from_labels(cls, labels, k: int) -> "Assignment":
        return cls(labels, k)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass
class SolverSpec:
    """Which solver to run and with what budget.

    init holds the row indices Lloyd's first replicate starts from, one per
    cluster, or None for rows 0..k-1.  Replicates beyond the first restart
    Lloyd from seeded random rows and keep the best objective.
    """

    kind: str = "lloyd"
    max_iter: int = 100
    tol: float = 1e-9
    init: tuple | None = None
    replicates: int = 1

    def __post_init__(self):
        if self.kind not in ("lloyd", "brute_force"):
            raise ParameterError(f"unknown solver kind {self.kind!r}")
        self.max_iter = _size(self.max_iter, "max_iter")
        self.replicates = _size(self.replicates, "replicates")
        # tol >= 1 would stop every run after two iterations as converged
        if not 0.0 <= self.tol < 1.0:
            raise ParameterError(f"tol={self.tol!r} outside [0, 1)")
        if self.init is not None:
            init = _integers(self.init, "init row indices")
            if init.ndim != 1:
                raise ParameterError("init must be a 1-D sequence of row indices")
            self.init = tuple(init.tolist())


@dataclass(eq=False)
class KMeansResult:
    assignment: Assignment
    objective: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    # the index of the winning replicate, and the labels the fixed form
    # decided in it (lloyd); 0 and 0 for the exhaustive solver
    replicate: int
    settled: int


def _onehot(rows, height: int):
    """The height x n CSC one-hot whose column i holds a 1.0 in each row
    that rows[i] names.  rows is n labels, or n x m with each row of it
    ascending; its entries are trusted to lie in [0, height)."""
    # imported here so that importing the package does not load scipy
    from scipy import sparse

    rows = rows.reshape(rows.shape[0], -1)
    n, m = rows.shape
    index = np.int32 if max(n * m, height) <= np.iinfo(np.int32).max else np.int64
    return sparse.csc_matrix(
        (np.ones(n * m), rows.astype(index).ravel(), np.arange(0, n * m + 1, m, dtype=index)),
        shape=(height, n),
    )


def cluster_sums(a, labels, k: int) -> np.ndarray:
    """Per-cluster row sums: row j of the k x d result sums the rows of a
    labelled j (zero for an empty cluster).

    A k x n one-hot CSC matrix, whose column i holds a single 1.0 in row
    labels[i], multiplies a.  scipy's CSC product adds row i into its
    cluster in ascending i, the same order as np.add.at, so the sums are
    bit-identical to it.  Labels that are not integers, or lie outside
    [0, k), raise ParameterError.
    """
    labels, k = _integers(labels, "labels"), _size(k, "k")
    # scipy trusts the row indices of a matrix built this way, so check them
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ParameterError("labels must lie in [0, k)")
    return np.asarray(_onehot(labels, k) @ a)


def _fixed_d2(a, rows, centroids, cols):
    """The fixed form of the squared distance of each (row, centroid) pair:
    entry m is numpy's own sum of (a[rows[m]] - centroids[cols[m]]) ** 2
    over the columns.  rows=None pairs row m of a with cols[m], read in
    place, with no n x d gather.  Pairs go in chunks of at most
    OBJECTIVE_LEAF elements (one pair, if longer) through one reused
    buffer."""
    count, d = cols.size, a.shape[1]
    out = np.empty(count)
    step = max(1, OBJECTIVE_LEAF // d)
    buf = np.empty((min(step, count), d))
    for lo in range(0, count, step):
        chunk = slice(lo, lo + step)
        part = buf[:min(step, count - lo)]
        # mode="clip" writes straight into part; "raise" would buffer it,
        # and cols are in range
        np.take(centroids, cols[chunk], axis=0, mode="clip", out=part)
        np.subtract(a[chunk] if rows is None else a[rows[chunk]], part, out=part)
        np.multiply(part, part, out=part)
        # a sum along the last, contiguous axis is numpy's pairwise sum of
        # each row, the bits np.sum gives that row alone
        out[chunk] = part.sum(axis=1)
    return out


def objective(a, asg: Assignment) -> float:
    """Sum of squared distances from each point to its cluster mean.

    The means come from cluster_sums.  Each row is priced once in the fixed
    form Lloyd's labels use (_fixed_d2), and the result is np.sum of those n
    row costs: the bits of np.sum(np.sum(diff * diff, axis=1)) with
    diff = a - means[labels], without an n x d temporary.  A NaN or an
    infinity in a makes the result non-finite: only then is a scanned.
    """
    a = _dense(a)
    if asg.labels.size != a.shape[0]:
        raise ParameterError("assignment length does not match row count")
    with np.errstate(invalid="ignore"):
        means = cluster_sums(a, asg.labels, asg.k)
        means /= np.maximum(asg.cluster_sizes, 1)[:, None]
        cost = float(_fixed_d2(a, None, means, asg.labels).sum())
    if not math.isfinite(cost):
        as_matrix(a)
    return cost


def _partition_cost(a_sq_total, sums_sq, sizes):
    # F = sum ||a_i||^2 - sum_j ||cluster sum_j||^2 / z_j, never negative;
    # every z_j is at least 1 once _repair has run
    return max(float(a_sq_total - np.sum(sums_sq / sizes)), 0.0)


def _squared_norms(a):
    """The rows' squared norms and their sum, refusing input on which the
    solvers' costs would overflow.

    n * sum ||a_i||^2 bounds every squared distance and squared cluster sum
    either solver forms; where it overflows, the objective would become inf
    or NaN.  A non-finite a makes it non-finite: only then is a scanned."""
    a_sq = np.einsum("ij,ij->i", a, a)
    total = float(a_sq.sum())
    if not math.isfinite(total * max(a.shape[0], 4)):
        as_matrix(a)
        raise ParameterError("squared norms of the input overflow float64; rescale it")
    return a_sq, total


def _repair(a, labels, sizes, centroids):
    """Fill one replicate's empty clusters, in ascending order, each with the
    point farthest from its current centroid that does not leave a cluster
    empty.  labels (n) and sizes (k) are that replicate's, and are updated
    in place.

    Farthest is by the fixed form, ties to the lowest index, as lloyd's
    labels are: every row is priced once against its own centroid, and each
    fill takes the argmax over rows whose cluster has more than one member.
    A moved row becomes a singleton, so no later fill picks it, and nothing
    is priced again.  Screening the rows by lloyd's float32 screen first
    would pick the same row: by lloyd's bound, a row whose screened distance
    lies more than both rows' margins below the largest is strictly nearer
    in the fixed form.  The cost is one fixed-form pass over the rows per
    call (_fixed_d2 with rows=None), about 0.4 ms at 1000 x 256 and 0.2 ms at 400 x 360,
    against about 0.5 ms for that iteration's five-replicate screen product
    at 1000 x 256 (1 BLAS thread on a 2-core Xeon VM)."""
    own = _fixed_d2(a, None, centroids, labels)
    for empty in np.flatnonzero(sizes == 0):
        # never drain a singleton cluster: that would just shift the hole
        own[sizes[labels] <= 1] = -np.inf
        moved = int(np.argmax(own))
        sizes[labels[moved]] -= 1
        labels[moved] = empty
        sizes[empty] = 1


def _screen_form(v, mean, scale):
    """The rows of v as lloyd's screen reads them: v - mean in float64,
    times scale, a signed power of two, and cast to float32, with the
    squared norms of the scaled float64 rows.  One pass over v, in chunks of at most
    OBJECTIVE_LEAF elements through one reused float64 buffer."""
    n, d = v.shape
    out = np.empty((n, d), dtype=np.float32)
    sq = np.empty(n)
    step = max(1, OBJECTIVE_LEAF // d)
    buf = np.empty((min(step, n), d))
    for lo in range(0, n, step):
        part = buf[:min(step, n - lo)]
        np.subtract(v[lo:lo + step], mean, out=part)
        np.multiply(part, scale, out=part)
        sq[lo:lo + step] = np.einsum("ij,ij->i", part, part)
        out[lo:lo + step] = part
    return out, sq


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
    (seed, restart r) stream and the best objective wins, the first of
    equal objectives.  The result's replicate names the winner and settled
    counts the labels the fixed form decided in it, over all its
    iterations.

    The replicates run in lockstep.  Each iteration stacks the centroids of
    every live replicate into one (live * k) x d matrix and screens every
    (centroid, row) pair with one float32 product, into one (live * k) x n
    float32 buffer (0.4 MB at n = 1000, five replicates, k = 20); each row's
    smallest entry comes from one min over its (live, k, n) view.  One
    stacked CSC one-hot, rebuilt only when a replicate stops, gives every
    replicate's cluster sums in one product; scipy adds each output row's
    points in ascending order, so the sums, the trace and the objective are
    bit-identical to separate products and to np.add.at.  A replicate stops
    when it converges, with the trace and iteration count it would have
    alone.

    The screen works on centred, rescaled rows.  x_i = 2^-e (a_i - m) and
    y_j = 2^-e (c_j - m), with m the rows' column mean, are formed in
    float64 and cast to float32 (_screen_form); 2^e bounds
    max ||a_i|| + ||m||, so no ||x_i|| or ||y_j|| exceeds 1 and float32
    cannot overflow.  Centring keeps the screen's rounding in proportion to
    the rows' spread, not to their distance from the origin.  The bound
    costs no pass over the rows, but a column far from zero on every row
    loosens it: past about 2^50 times the rows' spread, the screen's
    products near float32's underflow, and the margin's second term (below)
    sends most rows to the fixed form, correct but slower.  The screen's
    entry is q_j = ||y_j||^2 - 2 y_j.x_i, with the product in float32:
    q_j - q_b equals 2^-2e (||a_i - c_j||^2 - ||a_i - c_b||^2) up to
    rounding, since the row's own norm is common to all its entries.

    Labels do not depend on the screen's bits, which change with the BLAS
    build, its thread split and the number of live replicates.  A row is
    settled when every rival's q exceeds its smallest, q_b, by more than a
    margin M; it then takes b, the index of its only q within M.  Every
    other row is priced in the fixed form F_j = sum_l (a_il - c_jl)^2,
    numpy's own sum of the float64 row's squared differences, against the
    centroids within M of q_b only, and takes the argmin of F over them,
    ties to the lowest index; those rows are the ones settled counts.  Each
    centroid outside M is proven farther than b in the fixed form, so the
    labels are the argmin of F over all centroids in every row.

    The margin is twice a bound B on one screen entry's error, plus the
    fixed form's (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.1, with u = 2^-24, float32's unit roundoff, and
    gamma_m = m u / (1 - m u)).  With R = ||x_i|| + max_j ||y_j||, the max
    over the replicate's centroids, and 4 ||x|| ||y|| <= R^2:
      - the float32 product of d terms is off by at most
        gamma_d 2 ||x|| ||y|| <= gamma_d R^2 / 2 in any order of addition;
      - the float32 casts of x and y move 2 x.y by at most 1.25 u R^2, and
        the float32 ||y||^2 and the addition to it by at most 2.25 u R^2, so
        B = (gamma_d / 2 + 3.5 u) R^2;
      - the fixed form's subtraction, square and sum of d float64 terms are
        off by gamma64_{d+2} of F, below u R^2 / 2 for both entries for d
        below 2^27;
      - rounding q_b + M in float32, and M itself, cost at most 2u R^2, and
        the float64 centring subtraction and the float64 norms R comes from
        are off by far less.
    So M = gamma_{d+12} R^2 + (d + 2) 2^-123 + d 2^(-1020 - 2e), cast to
    float32 rounded up, for d + 12 below 2^23: of the twelve units of u
    beyond gamma_d, 7 cover 2 B, 2.5 the fixed form and the limit, and the
    rest second-order terms.  The second term covers the float32 products
    and casts that fall below float32's normal range (subnormal, or flushed
    to zero), at most 2^-125 each, and the third a fixed-form term that
    underflows float64, 2^-1022 each in the scaled units.  For larger d, or
    input whose norms lie below 2^-500 (its squared distances near
    float64's underflow), the bound proves nothing: M is infinite and the
    fixed form prices every pair.  The empty-cluster repair prices each row
    once in the fixed form and moves the farthest (_repair).

    The rows' squared norms (_squared_norms, which refuses a non-finite
    input or one whose costs would overflow), their float32 screen form and
    the one-hot are made once per call and shared by the replicates.
    """
    a = _dense(a)
    spec = spec if spec is not None else SolverSpec()
    n, d = a.shape
    k, seed = _size(k, "k"), _integer(seed, "seed")
    if k > n:
        raise ParameterError(f"k={k} outside [1, n={n}]")
    a_sq, a_sq_total = _squared_norms(a)
    mean = a.mean(axis=0)
    # 2^e exceeds max ||a_i|| + ||mean||, which bounds every ||a_i - mean||
    # and every ||c_j - mean||; e stops at -500, where the margin is
    # infinite (floor), so that the scale is a normal double
    bound = math.sqrt(a_sq.max()) + math.sqrt(np.sum(mean * mean))
    e = max(math.frexp(bound)[1], -500)
    scale = 2.0 ** -e
    x, x_sq = _screen_form(a, mean, scale)
    x_norm = np.sqrt(x_sq)
    m = (d + 12) * 2.0 ** -24
    gamma = m / (1 - m) if m < 0.5 else 1.0
    floor = ((d + 2) * 2.0 ** -123 + math.ldexp(d, -1020 - 2 * e)
             if m < 0.5 and e > -500 else math.inf)
    index = np.arange(k, dtype=np.min_scalar_type(k - 1))
    count_type = np.min_scalar_type(k)
    first = np.arange(k) if spec.init is None else np.array(spec.init, dtype=np.int64)
    if first.shape != (k,):
        raise ParameterError(f"init needs exactly k={k} indices")
    if first.min() < 0 or first.max() >= n:
        raise ParameterError(f"init index out of range [0, n={n})")
    starts = [a[first]]
    for rep in range(1, spec.replicates):
        idx = _rng.stream(seed, _rng.LLOYD_RESTART, rep).choice(n, size=k, replace=False)
        starts.append(a[np.sort(idx)])
    centroids = np.concatenate(starts)
    live = list(range(spec.replicates))
    traces = [[] for _ in live]
    settled = np.zeros(len(live), dtype=np.int64)
    results = [None] * len(live)
    labels_prev = np.full((len(live), n), -1)
    onehot = None
    for iterations in range(1, spec.max_iter + 1):
        width = len(live)
        if onehot is None:
            offsets = np.arange(width)[:, None] * k
            onehot = _onehot(np.tile(offsets.T, (n, 1)), width * k)
        # -2 y_j, and 4 ||y_j||^2: the power of two is exact in either form
        y, y_sq = _screen_form(centroids, mean, -2.0 * scale)
        y_sq *= 0.25
        # ||y_j||^2 - 2 y_j.x_i for the centroids of every live replicate, in
        # one (live * k) x n float32 buffer
        q = y @ x.T
        q += y_sq.astype(np.float32)[:, None]
        q3 = q.reshape(width, k, n)
        # the label rule: a row is settled when its smallest q is the only
        # one within the margin of it
        margin = np.sqrt(y_sq.reshape(width, k).max(axis=1))[:, None] + x_norm
        margin *= margin
        margin *= gamma
        margin += floor
        limit = q3.min(axis=1)
        limit += np.nextafter(margin.astype(np.float32), np.float32(np.inf))
        close = q3 <= limit[:, None, :]
        # in a settled row the index of its one close entry is its argmin
        labels = np.einsum("rjn,j->rn", close.view(np.uint8), index).astype(np.int64)
        if np.count_nonzero(close) > width * n:
            # price each unsettled row against its close centroids only;
            # the others, at +inf, are proven farther
            reps, rows = np.nonzero(
                np.add.reduce(close.view(np.uint8), axis=1, dtype=count_type) > 1)
            near = close[reps, :, rows]
            pair, j = np.nonzero(near)
            fixed = np.full(near.shape, np.inf)
            fixed[pair, j] = _fixed_d2(a, rows[pair], centroids, reps[pair] * k + j)
            labels[reps, rows] = np.argmin(fixed, axis=1)
            settled[live] += np.bincount(reps, minlength=width)
        flat = labels + offsets
        sizes = np.bincount(flat.ravel(), minlength=width * k).reshape(width, k)
        if not sizes.all():
            for r in np.flatnonzero(~sizes.all(axis=1)):
                _repair(a, labels[r], sizes[r], centroids[r * k:(r + 1) * k])
            flat = labels + offsets
        # every live replicate's cluster_sums product, on one one-hot
        onehot.indices.reshape(n, width)[...] = flat.T
        sums = np.asarray(onehot @ a)
        centroids = sums / sizes.reshape(-1, 1)
        sums_sq = np.einsum("ij,ij->i", sums, sums).reshape(width, k)
        stable = (labels == labels_prev).all(axis=1)
        keep = []
        for r, rep in enumerate(live):
            trace = traces[rep]
            trace.append(_partition_cost(a_sq_total, sums_sq[r], sizes[r]))
            converged = bool(stable[r])
            if not converged and len(trace) >= 2:
                prev, cur = trace[-2], trace[-1]
                converged = prev == 0.0 or (prev - cur) < spec.tol * prev
            if converged or iterations == spec.max_iter:
                results[rep] = KMeansResult(
                    assignment=Assignment.from_labels(labels[r], k),
                    objective=trace[-1],
                    iterations=iterations,
                    converged=converged,
                    objective_trace=np.array(trace),
                    replicate=rep,
                    settled=int(settled[rep]),
                )
            else:
                keep.append(r)
        if not keep:
            break
        if len(keep) < width:
            live = [live[r] for r in keep]
            centroids = centroids.reshape(width, k, d)[keep].reshape(-1, d)
            labels = labels[keep]
            onehot = None
        labels_prev = labels
    # min keeps the first of equal objectives
    return min(results, key=lambda res: res.objective)


def _growth_chunks(n, k):
    """Yield every restricted-growth string of length n with at most k values
    (one per partition of n items into at most k clusters), in lexicographic
    order, as int64 arrays of at most _ENUM_CHUNK rows.

    Strings grow one position at a time: each row is repeated once per value
    its next position may take (0 up to one above its largest value so far,
    and below k), and those values are the offsets within each row's group of
    repeats.  A prefix array is cut so that its rows' repeats fit in
    _ENUM_CHUNK rows, and the rest waits on a stack, so every array stays
    within that size and prefixes are finished in order.
    """
    # (strings, each string's largest value), prefixes of length 1 first
    stack = [(np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64))]
    while stack:
        part, top = stack.pop()
        if part.shape[1] == n:
            if part.shape[0] > _ENUM_CHUNK:
                stack.append((part[_ENUM_CHUNK:], top[_ENUM_CHUNK:]))
                part = part[:_ENUM_CHUNK]
            yield part
            continue
        fan = np.minimum(top + 2, k)
        ends = fan.cumsum()
        # at least one row: when k exceeds _ENUM_CHUNK its repeats can too,
        # and the next pass cuts them
        cut = max(1, int(ends.searchsorted(_ENUM_CHUNK, side="right")))
        if cut < part.shape[0]:
            stack.append((part[cut:], top[cut:]))
            part, top, fan, ends = part[:cut], top[:cut], fan[:cut], ends[:cut]
        values = np.arange(ends[-1]) - (ends - fan).repeat(fan)
        part = np.concatenate((part.repeat(fan, axis=0), values[:, None]), axis=1)
        stack.append((part, np.maximum(top.repeat(fan), values)))


def brute_force_optimal(a, k: int) -> KMeansResult:
    """Exact k-means by enumerating every partition into at most k clusters.

    Partition counts grow as Bell numbers, so inputs are refused beyond
    n = 14 rows, as is non-finite input or input whose costs would overflow
    (_squared_norms).  Partitions are scanned as restricted-growth strings
    in lexicographic order, in chunks of at most _ENUM_CHUNK (_growth_chunks).
    Costs come from the Gram matrix, making the scan cheap in the point
    dimension.  Of partitions of equal cost the first in that order wins,
    within a chunk and across chunks.  iterations reports the number of
    partitions tried.
    """
    a = _dense(a)
    n = a.shape[0]
    if n > BRUTE_FORCE_MAX_POINTS:
        raise ParameterError(
            f"exhaustive solver refuses n={n} > {BRUTE_FORCE_MAX_POINTS} points"
        )
    k = _size(k, "k")
    if k > n:
        raise ParameterError(f"k={k} outside [1, n={n}]")
    _squared_norms(a)
    gram = a @ a.T
    total = float(np.trace(gram))
    best_cost = np.inf
    best_labels = None
    examined = 0
    for part in _growth_chunks(n, k):
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
    best_cost = max(best_cost, 0.0)
    return KMeansResult(
        assignment=Assignment.from_labels(best_labels, k),
        objective=best_cost,
        iterations=examined,
        converged=True,
        objective_trace=np.array([best_cost]),
        replicate=0,
        settled=0,
    )


PIPELINE_METHODS = ("sign_mailman", "sign_naive", "svd_embed", "none")


def apply_projection(a, cfg: _projection.ProjectionConfig, method: str):
    """Project a for the named method; returns (projected, t_used).  A
    non-finite a is refused as such, a non-finite projection as overflow."""
    a = _dense(a)
    if method not in PIPELINE_METHODS:
        raise ParameterError(f"unknown method {method!r}")
    d = a.shape[1]
    if method == "none":
        return as_matrix(a), d
    t = cfg.resolve_t(d)
    # svd_embed: top-t factor embedding, needs t within both dimensions
    if method == "svd_embed" and t > min(a.shape):
        raise ParameterError(f"svd_embed needs t <= min(n, d), got t={t}")
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "sign_mailman":
            projected = _mailman.project_mailman(a, _mailman.build_plan(d, t, cfg.seed))
        elif method == "sign_naive":
            projected = _projection.project_naive(a, _projection.sample_sign_matrix(d, t, cfg.seed))
        else:
            projected = _projection.svd_embed(a, t)
    if not np.isfinite(projected).all():
        raise ParameterError("the projection overflows float64; rescale the input")
    return projected, t


@dataclass(eq=False)
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
