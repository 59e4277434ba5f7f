"""Scoring (normalized objective, label accuracy) and the randomized
property checks behind the projection guarantees."""

import math
from dataclasses import dataclass

import numpy as np

from . import projection as _projection, rng as _rng
from .errors import ParameterError
from .kmeans import Assignment, brute_force_optimal, objective
from .matrix import (as_matrix, best_rank_k, frobenius_norm, pseudo_inverse,
                     spectral_norm, svd_thin)


@dataclass
class PropertyReport:
    """Outcome of one randomized check: pass counts plus the worst statistic.

    For aggregate checks (a single statistic over all trials) passes is
    either trials or 0, depending on whether the aggregate met the bound.
    """

    check_name: str
    trials: int
    passes: int
    statistic: float
    bound: float

    def __post_init__(self):
        if not 0 <= self.passes <= self.trials:
            raise ParameterError("passes must lie in [0, trials]")


@dataclass
class ExperimentRecord:
    """One sweep cell: method and t, scores, and per-phase wall times."""

    method: str
    t: int
    f_tilde: float
    accuracy: float | None
    projection_ms: float
    clustering_ms: float
    seed: int
    k: int
    epsilon: float

    def __post_init__(self):
        if self.f_tilde < 0:
            raise ParameterError("f_tilde must be nonnegative")
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ParameterError("accuracy must lie in [0, 1]")


def normalized_objective(value: float, fro: float) -> float | None:
    """f~: a clustering objective divided by the squared Frobenius norm fro
    of the data it clusters; None when the data are all zero."""
    return value / (fro * fro) if fro > 0 else None


def accuracy(pred: Assignment, truth) -> float:
    """Fraction of points correctly labeled under the best one-to-one map
    between predicted clusters and true classes (maximum-weight matching
    on the confusion matrix, padded square when the counts differ)."""
    truth = np.asarray(truth, dtype=np.int64)
    if truth.ndim != 1 or truth.size != pred.n:
        raise ParameterError("truth labels must match the assignment length")
    if truth.min() < 0:
        raise ParameterError("truth labels must be nonnegative")
    k_true = int(truth.max()) + 1
    size = max(pred.k, k_true)
    conf = np.bincount(pred.labels * size + truth,
                       minlength=size * size).reshape(size, size)
    return _max_matching_weight(conf) / pred.n


def _max_matching_weight(weights) -> int:
    """Largest total weight of a one-to-one row-to-column matching of a
    square nonnegative integer matrix.

    The Hungarian method in its shortest-augmenting-path form: rows join
    one at a time, and dual potentials keep every reduced cost nonnegative.
    Integer arithmetic makes the optimum exact.  Index 0 of the column
    arrays is a sentinel that holds the row being added.
    """
    weights = np.asarray(weights, dtype=np.int64)
    n = weights.shape[0]
    cost = np.zeros((n + 1, n + 1), dtype=np.int64)
    cost[1:, 1:] = weights.max() - weights
    big = np.iinfo(np.int64).max // 2
    u = np.zeros(n + 1, dtype=np.int64)      # row potentials
    v = np.zeros(n + 1, dtype=np.int64)      # column potentials
    owner = np.zeros(n + 1, dtype=np.int64)  # row matched to each column, 0 = none
    way = np.zeros(n + 1, dtype=np.int64)    # previous column on the shortest path
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        slack = np.full(n + 1, big, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while owner[col] != 0:
            used[col] = True
            reduced = cost[owner[col]] - u[owner[col]] - v
            better = ~used & (reduced < slack)
            slack[better] = reduced[better]
            way[better] = col
            nxt = int(np.argmin(np.where(used, big, slack)))
            delta = slack[nxt]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            col = nxt
        while col:  # flip the matching along the path back to the sentinel
            prev = way[col]
            owner[col] = owner[prev]
            col = prev
    return int(weights[owner[1:] - 1, np.arange(n)].sum())


def _trial_seed(seed, index):
    return _rng.derive_seed(seed, _rng.TRIAL, index)


def jl_distortion_check(n: int, d: int, t: int, epsilon: float, seeds: int,
                        seed: int, bound_scale: float = 1.0) -> PropertyReport:
    """Seeded Gaussian point sets: pairwise distances must survive the sign
    projection within (1 +- epsilon) for at least 99% of pairs, per seed.

    bound_scale < 1 narrows the distance band (negative-control hook).
    """
    passes = 0
    worst = 1.0
    for i in range(seeds):
        ts = _trial_seed(seed, i)
        pts = _rng.stream(ts, _rng.INSTANCE).standard_normal((n, d))
        r = _projection.sample_sign_matrix(d, t, ts)
        rep = _projection.jl_distortion_report(
            pts, _projection.project_naive(pts, r), epsilon * bound_scale
        )
        worst = min(worst, rep.fraction_ok)
        if rep.fraction_ok >= 0.99:
            passes += 1
    return PropertyReport("jl_pairwise_distortion", seeds, passes, worst, 0.99)


def moment_identity_check(c, t: int, seeds: int, seed: int,
                          bound_scale: float = 1.0) -> PropertyReport:
    """The squared norm of c @ R matches ||c||^2 on average: the sample mean
    of the ratio over the given seeds must sit within 1 +- 15/sqrt(seeds*t)."""
    c = as_matrix(c)
    fro2 = frobenius_norm(c) ** 2
    if fro2 == 0.0:
        raise ParameterError("moment check needs a nonzero matrix")
    total = 0.0
    for i in range(seeds):
        r = _projection.sample_sign_matrix(c.shape[1], t, _trial_seed(seed, i))
        proj = _projection.project_naive(c, r)
        total += float(np.sum(proj * proj)) / fro2
    mean = total / seeds
    band = 15.0 / math.sqrt(seeds * t) * bound_scale
    ok = abs(mean - 1.0) <= band
    return PropertyReport("norm_moment_identity", seeds,
                          seeds if ok else 0, mean, band)


def norm_bound_check(c, k: int, epsilon: float, trials: int, seed: int,
                     bound_scale: float = 1.0) -> PropertyReport:
    """||c @ R||_F stays below sqrt(1 + epsilon) * ||c||_F at the fattened
    projection dimension t = ceil(200 k / epsilon^2), counted per trial."""
    c = as_matrix(c)
    if k < 1:
        raise ParameterError("k must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon={epsilon!r} outside (0, 1)")
    # proof-scale epsilons exceed the clustering range, so size t here
    x = 200.0 * k / (epsilon * epsilon)
    t = max(1, math.ceil(x - 1e-12 * x))
    fro = frobenius_norm(c)
    limit = math.sqrt(1.0 + epsilon * bound_scale) * fro
    passes = 0
    worst = 0.0
    for i in range(trials):
        r = _projection.sample_sign_matrix(c.shape[1], t, _trial_seed(seed, i))
        val = frobenius_norm(_projection.project_naive(c, r))
        worst = max(worst, val / fro)
        if val <= limit:
            passes += 1
    return PropertyReport("projected_norm_upper_bound", trials, passes,
                          worst, limit / fro)


def singular_value_check(a, k: int, epsilon: float, t: int, trials: int,
                         seed: int, bound_scale: float = 1.0) -> PropertyReport:
    """All singular values of V_k^T R stay within epsilon of 1, where V_k is
    the top-k right factor of a and R is a fresh sign matrix per trial."""
    a = as_matrix(a)
    v = svd_thin(a, k).v
    d = a.shape[1]
    half = epsilon * bound_scale
    passes = 0
    worst = 0.0
    for i in range(trials):
        r = _projection.sample_sign_matrix(d, t, _trial_seed(seed, i))
        sig = np.linalg.svd(v.T @ r.dense(), compute_uv=False)
        dev = float(np.max(np.abs(1.0 - sig)))
        worst = max(worst, dev)
        if dev <= half:
            passes += 1
    return PropertyReport("projected_basis_singular_values", trials, passes,
                          worst, half)


def matmul_moment_check(s, tmat, t: int, seeds: int, seed: int,
                        bound_scale: float = 1.0) -> PropertyReport:
    """Approximate-product error: the mean of ||S T - S R R^T T||_F^2 over
    the seeds must stay below 1.5 times (2/t) ||S||_F^2 ||T||_F^2."""
    s = as_matrix(s)
    tmat = as_matrix(tmat)
    if s.shape[1] != tmat.shape[0]:
        raise ParameterError("inner dimensions must agree")
    exact = s @ tmat
    total = 0.0
    for i in range(seeds):
        dense = _projection.sample_sign_matrix(
            s.shape[1], t, _trial_seed(seed, i)
        ).dense()
        err = exact - (s @ dense) @ (dense.T @ tmat)
        total += float(np.sum(err * err))
    mean = total / seeds
    limit = 1.5 * (2.0 / t) * (frobenius_norm(s) ** 2) * (
        frobenius_norm(tmat) ** 2
    ) * bound_scale
    ok = mean <= limit
    return PropertyReport("matrix_product_moment", seeds,
                          seeds if ok else 0, mean, limit)


def pseudo_inverse_bound_check(a, k: int, epsilon: float, t: int, trials: int,
                               seed: int, bound_scale: float = 1.0) -> PropertyReport:
    """The pseudo-inverse of V_k^T R stays spectrally within 3*epsilon of its
    transpose, per trial."""
    a = as_matrix(a)
    v = svd_thin(a, k).v
    limit = 3.0 * epsilon * bound_scale
    passes = 0
    worst = 0.0
    for i in range(trials):
        r = _projection.sample_sign_matrix(a.shape[1], t, _trial_seed(seed, i))
        vr = v.T @ r.dense()
        gap = spectral_norm(pseudo_inverse(vr) - vr.T)
        worst = max(worst, gap)
        if gap <= limit:
            passes += 1
    return PropertyReport("pseudo_inverse_transpose_gap", trials, passes,
                          worst, limit)


def decomposition_residual_check(a, k: int, epsilon: float, t: int,
                                 trials: int, seed: int,
                                 bound_scale: float = 1.0) -> PropertyReport:
    """The best rank-k part of a is recovered from its projection: the
    residual ||a_k - (a R)(V_k^T R)^+ V_k^T||_F stays below
    4*epsilon*||a - a_k||_F, per trial."""
    a = as_matrix(a)
    if not 1 <= k < min(a.shape):
        raise ParameterError("k must be below min(n, d)")
    ak = best_rank_k(a, k)
    base = frobenius_norm(a - ak)
    if base <= 1e-12 * frobenius_norm(a):
        raise ParameterError("input is already rank k; residual check undefined")
    v = svd_thin(a, k).v
    limit = 4.0 * epsilon * bound_scale
    passes = 0
    worst = 0.0
    for i in range(trials):
        r = _projection.sample_sign_matrix(a.shape[1], t, _trial_seed(seed, i))
        dense = r.dense()
        vr = v.T @ dense
        recon = (a @ dense) @ pseudo_inverse(vr) @ v.T
        ratio = frobenius_norm(ak - recon) / base
        worst = max(worst, ratio)
        if ratio <= limit:
            passes += 1
    return PropertyReport("rank_k_decomposition_residual", trials, passes,
                          worst, limit)


def theorem_distortion_trial(n: int, d: int, k: int, epsilon: float, t: int,
                             trials: int, seed: int, method: str = "sign",
                             bound_scale: float = 1.0) -> PropertyReport:
    """End-to-end guarantee on exhaustively solvable instances.

    Per trial: draw an isotropic Gaussian instance, solve it exactly, solve
    its projection exactly, and price the projected solution back in the
    original space.  The trial passes when that plug-back objective is at
    most (2 + epsilon) times the true optimum.

    method chooses the embedding: "sign" (the random sign matrix at the
    given t), "none" (identity), or "rotation" (a seeded orthonormal square
    transform; the ratio is then exactly 1).
    """
    if method not in ("sign", "none", "rotation"):
        raise ParameterError(f"unknown method {method!r}")
    limit = (2.0 + epsilon) * bound_scale
    passes = 0
    worst = 0.0
    for i in range(trials):
        ts = _trial_seed(seed, i)
        a = _rng.stream(ts, _rng.INSTANCE).standard_normal((n, d))
        # price both partitions with the same evaluator so the identity
        # embedding yields a ratio of exactly one
        opt = objective(a, brute_force_optimal(a, k).assignment)
        if method == "none":
            proj = a
        elif method == "rotation":
            q, _ = np.linalg.qr(
                _rng.stream(ts, _rng.ROTATION).standard_normal((d, d))
            )
            proj = a @ q
        else:
            r = _projection.sample_sign_matrix(d, t, ts)
            proj = _projection.project_naive(a, r)
        asg = brute_force_optimal(proj, k).assignment
        plug = objective(a, asg)
        ratio = plug / opt if opt > 0 else 1.0
        worst = max(worst, ratio)
        if plug <= limit * opt:
            passes += 1
    return PropertyReport("cluster_distortion_guarantee", trials, passes,
                          worst, limit)


def property_suite(seed: int, scale: str, bound_scale: float = 1.0) -> list:
    """Run every property check at scale "quick" or "full"; returns one
    json-ready entry per check, in table order.

    A table row names the check, the (INSTANCE stream index, shape) of each
    Gaussian matrix it takes first, and its keyword arguments at the quick
    and the full scale.  "required" is the pass count the suite accepts
    where it is below the trial count, and is not passed to the check.
    Row i runs on trial seed 1000 + i.  The checks are looked up when the
    suite runs, so rebinding a module attribute reaches them.
    """
    table = [
        (jl_distortion_check, [],
         dict(n=30, d=256, t=512, epsilon=0.3, seeds=3),
         dict(n=50, d=1000, t=2000, epsilon=0.3, seeds=10)),
        (moment_identity_check, [(1, (20, 30))],
         dict(t=200, seeds=50),
         dict(t=400, seeds=200)),
        (norm_bound_check, [(2, (30, 50))],
         dict(k=2, epsilon=0.5, trials=30, required=27),
         dict(k=2, epsilon=0.5, trials=100, required=95)),
        (singular_value_check, [(3, (50, 80))],
         dict(k=5, epsilon=0.5, t=800, trials=30, required=27),
         dict(k=5, epsilon=0.5, t=2000, trials=100, required=95)),
        (matmul_moment_check, [(4, (20, 40)), (5, (40, 3))],
         dict(t=256, seeds=50),
         dict(t=512, seeds=200)),
        (pseudo_inverse_bound_check, [(3, (50, 80))],
         dict(k=3, epsilon=0.5, t=800, trials=30, required=26),
         dict(k=3, epsilon=0.5, t=2000, trials=100, required=90)),
        (decomposition_residual_check, [(3, (50, 80))],
         dict(k=3, epsilon=0.5, t=800, trials=30, required=26),
         dict(k=3, epsilon=0.5, t=2000, trials=100, required=90)),
        (theorem_distortion_trial, [],
         dict(n=8, d=20, k=2, epsilon=0.2, t=200, trials=20, required=16),
         dict(n=10, d=40, k=2, epsilon=0.2, t=500, trials=100, required=90)),
    ]
    if scale not in ("quick", "full"):
        raise ParameterError(f"unknown scale {scale!r}")
    entries = []
    for i, (check, inputs, quick, full) in enumerate(table):
        params = quick if scale == "quick" else full
        required = params.pop("required", None)
        fixed = [_rng.stream(seed, _rng.INSTANCE, index).standard_normal(shape)
                 for index, shape in inputs]
        report = check(*fixed, **params, seed=_trial_seed(seed, 1000 + i),
                       bound_scale=bound_scale)
        need = report.trials if required is None else required
        entries.append({
            "name": report.check_name,
            "params": params,
            "trials": report.trials,
            "passes": report.passes,
            "required": need,
            "statistic": report.statistic,
            "bound": report.bound,
            "ok": report.passes >= need,
        })
    return entries
