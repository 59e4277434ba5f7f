"""Scoring (normalized objective, label accuracy), the randomized property
checks behind the projection guarantees, and the paper's two experiments:
the sweep that clusters projections at several t beside clustering in d
dimensions (run_experiment_sweep, which the CLI's cluster and experiment
both run) and the timing of the sign-matrix multiply (run_bench)."""

import functools
import math
import operator
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import projection as _projection, rng as _rng
from .dataio import Dataset
from .errors import CrossCheckError, ParameterError
from .kmeans import (Assignment, PipelineResult, SolverSpec, brute_force_optimal,
                     objective, project_and_cluster)
from .mailman import build_plan, densify, project_mailman
from .matrix import (_integers, _size, as_matrix, best_rank_k, frobenius_norm,
                     pseudo_inverse, spectral_norm, svd_thin)

# Experiment method names -> pipeline method names.
METHOD_MAP = {
    "rp_mailman": "sign_mailman",
    "rp_naive": "sign_naive",
    "svd": "svd_embed",
    "hd": "none",
}


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


@dataclass(eq=False)
class ExperimentRecord:
    """One sweep cell: the method, its pipeline run, and its scores.

    f_tilde is None for all-zero data and accuracy None without labels;
    score_ms is the run's plug-back time plus the wall milliseconds of the
    Frobenius norm and the accuracy.
    """

    method: str
    run: PipelineResult
    f_tilde: float | None
    accuracy: float | None
    score_ms: float


def normalized_objective(value: float, fro: float) -> float | None:
    """f~: a clustering objective divided by the squared Frobenius norm fro
    of the data it clusters; None when the data are all zero."""
    return value / (fro * fro) if fro > 0 else None


def accuracy(pred: Assignment, truth) -> float:
    """Fraction of points correctly labeled under the best one-to-one map
    between predicted clusters and true classes (maximum-weight matching
    on the confusion matrix, padded square when the counts differ).

    Classes are the distinct truth labels, any integers, numbered densely,
    so the cost follows their count, not their values.
    """
    truth = _integers(truth, "truth labels")
    if truth.ndim != 1 or truth.size != pred.n:
        raise ParameterError("truth labels must match the assignment length")
    classes, truth = np.unique(truth, return_inverse=True)
    size = max(pred.k, classes.size)
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


def _trials(count, name: str, seed: int, trial) -> list:
    """trial(trial seed) for each of the count trials, in order; count goes
    through _size, so a check never runs zero trials."""
    return [trial(_trial_seed(seed, i)) for i in range(_size(count, name))]


def _tally(check_name: str, outcomes: list, bound: float, worst=max,
           start: float = 0.0) -> PropertyReport:
    """The report of a per-trial check from its (statistic, passed) outcomes;
    the statistic kept is worst(start, every trial's statistic in order)."""
    return PropertyReport(check_name, len(outcomes), sum(1 for _, ok in outcomes if ok),
                          worst(start, *(stat for stat, _ in outcomes)), bound)


def _mean(values: list) -> float:
    """Mean of a left-to-right float sum: from Python 3.12 the built-in sum
    of floats compensates, which would move the last bits."""
    return functools.reduce(operator.add, values, 0.0) / len(values)


def jl_distortion_check(n: int, d: int, t: int, epsilon: float, seeds: int,
                        seed: int, bound_scale: float = 1.0) -> PropertyReport:
    """Seeded Gaussian point sets: pairwise distances must survive the sign
    projection within (1 +- epsilon) for at least 99% of pairs, per seed.

    bound_scale < 1 narrows the distance band (negative-control hook).
    """
    n, d = _size(n, "n"), _size(d, "d")

    def trial(ts):
        pts = _rng.stream(ts, _rng.INSTANCE).standard_normal((n, d))
        r = _projection.sample_sign_matrix(d, t, ts)
        rep = _projection.jl_distortion_report(
            pts, _projection.project_naive(pts, r), epsilon * bound_scale
        )
        return rep.fraction_ok, rep.fraction_ok >= 0.99

    return _tally("jl_pairwise_distortion", _trials(seeds, "seeds", seed, trial),
                  0.99, worst=min, start=1.0)


def moment_identity_check(c, t: int, seeds: int, seed: int,
                          bound_scale: float = 1.0) -> PropertyReport:
    """The squared norm of c @ R matches ||c||^2 on average: the sample mean
    of the ratio over the given seeds must sit within 1 +- 15/sqrt(seeds*t)."""
    c = as_matrix(c)
    fro2 = frobenius_norm(c) ** 2
    if fro2 == 0.0:
        raise ParameterError("moment check needs a nonzero matrix")

    def trial(ts):
        proj = _projection.project_naive(c, _projection.sample_sign_matrix(c.shape[1], t, ts))
        return float(np.sum(proj * proj)) / fro2

    ratios = _trials(seeds, "seeds", seed, trial)
    mean = _mean(ratios)
    band = 15.0 / math.sqrt(len(ratios) * t) * bound_scale
    ok = abs(mean - 1.0) <= band
    return PropertyReport("norm_moment_identity", len(ratios),
                          len(ratios) if ok else 0, mean, band)


def norm_bound_check(c, k: int, epsilon: float, trials: int, seed: int,
                     bound_scale: float = 1.0) -> PropertyReport:
    """||c @ R||_F stays below sqrt(1 + epsilon) * ||c||_F at the fattened
    projection dimension t = ceil(200 k / epsilon^2), counted per trial."""
    c = as_matrix(c)
    k = _size(k, "k")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon={epsilon!r} outside (0, 1)")
    # proof-scale epsilons exceed the clustering range, so size t here
    t = _projection._snapped_ceil(200.0 * k / (epsilon * epsilon))
    fro = frobenius_norm(c)
    if fro == 0.0:
        raise ParameterError("norm bound check needs a nonzero matrix")
    limit = math.sqrt(1.0 + epsilon * bound_scale) * fro

    def trial(ts):
        r = _projection.sample_sign_matrix(c.shape[1], t, ts)
        val = frobenius_norm(_projection.project_naive(c, r))
        return val / fro, val <= limit

    return _tally("projected_norm_upper_bound", _trials(trials, "trials", seed, trial),
                  limit / fro)


def singular_value_check(a, k: int, epsilon: float, t: int, trials: int,
                         seed: int, bound_scale: float = 1.0) -> PropertyReport:
    """All singular values of V_k^T R stay within epsilon of 1, where V_k is
    the top-k right factor of a and R is a fresh sign matrix per trial."""
    a = as_matrix(a)
    v = svd_thin(a, k).v
    half = epsilon * bound_scale

    def trial(ts):
        r = _projection.sample_sign_matrix(a.shape[1], t, ts)
        sig = np.linalg.svd(v.T @ densify(r, scaled=True), compute_uv=False)
        dev = float(np.max(np.abs(1.0 - sig)))
        return dev, dev <= half

    return _tally("projected_basis_singular_values",
                  _trials(trials, "trials", seed, trial), half)


def matmul_moment_check(s, tmat, t: int, seeds: int, seed: int,
                        bound_scale: float = 1.0) -> PropertyReport:
    """Approximate-product error: the mean of ||S T - S R R^T T||_F^2 over
    the seeds must stay below 1.5 times (2/t) ||S||_F^2 ||T||_F^2."""
    s = as_matrix(s)
    tmat = as_matrix(tmat)
    if s.shape[1] != tmat.shape[0]:
        raise ParameterError("inner dimensions must agree")
    exact = s @ tmat

    def trial(ts):
        dense = densify(_projection.sample_sign_matrix(s.shape[1], t, ts), scaled=True)
        err = exact - (s @ dense) @ (dense.T @ tmat)
        return float(np.sum(err * err))

    errors = _trials(seeds, "seeds", seed, trial)
    mean = _mean(errors)
    limit = 1.5 * (2.0 / t) * (frobenius_norm(s) ** 2) * (
        frobenius_norm(tmat) ** 2
    ) * bound_scale
    ok = mean <= limit
    return PropertyReport("matrix_product_moment", len(errors),
                          len(errors) if ok else 0, mean, limit)


def pseudo_inverse_bound_check(a, k: int, epsilon: float, t: int, trials: int,
                               seed: int, bound_scale: float = 1.0) -> PropertyReport:
    """The pseudo-inverse of V_k^T R stays spectrally within 3*epsilon of its
    transpose, per trial."""
    a = as_matrix(a)
    v = svd_thin(a, k).v
    limit = 3.0 * epsilon * bound_scale

    def trial(ts):
        vr = v.T @ densify(_projection.sample_sign_matrix(a.shape[1], t, ts), scaled=True)
        gap = spectral_norm(pseudo_inverse(vr) - vr.T)
        return gap, gap <= limit

    return _tally("pseudo_inverse_transpose_gap",
                  _trials(trials, "trials", seed, trial), limit)


def decomposition_residual_check(a, k: int, epsilon: float, t: int,
                                 trials: int, seed: int,
                                 bound_scale: float = 1.0) -> PropertyReport:
    """The best rank-k part of a is recovered from its projection: the
    residual ||a_k - (a R)(V_k^T R)^+ V_k^T||_F stays below
    4*epsilon*||a - a_k||_F, per trial."""
    a = as_matrix(a)
    k = _size(k, "k")
    if k >= min(a.shape):
        raise ParameterError("k must be below min(n, d)")
    ak = best_rank_k(a, k)
    base = frobenius_norm(a - ak)
    if base <= 1e-12 * frobenius_norm(a):
        raise ParameterError("input is already rank k; residual check undefined")
    v = svd_thin(a, k).v
    limit = 4.0 * epsilon * bound_scale

    def trial(ts):
        dense = densify(_projection.sample_sign_matrix(a.shape[1], t, ts), scaled=True)
        recon = (a @ dense) @ pseudo_inverse(v.T @ dense) @ v.T
        ratio = frobenius_norm(ak - recon) / base
        return ratio, ratio <= limit

    return _tally("rank_k_decomposition_residual",
                  _trials(trials, "trials", seed, trial), limit)


def theorem_distortion_trial(n: int, d: int, k: int, epsilon: float, t: int,
                             trials: int, seed: int,
                             bound_scale: float = 1.0) -> PropertyReport:
    """End-to-end guarantee on exhaustively solvable instances.

    Per trial: draw an isotropic Gaussian instance, solve it exactly, solve
    its projection by the random sign matrix at the given t exactly, and
    price the projected solution back in the original space.  The trial
    passes when that plug-back objective is at most (2 + epsilon) times the
    true optimum.
    """
    n, d = _size(n, "n"), _size(d, "d")
    limit = (2.0 + epsilon) * bound_scale

    def trial(ts):
        a = _rng.stream(ts, _rng.INSTANCE).standard_normal((n, d))
        # price both partitions with the same evaluator so the identity
        # embedding yields a ratio of exactly one
        opt = objective(a, brute_force_optimal(a, k).assignment)
        proj = _projection.project_naive(a, _projection.sample_sign_matrix(d, t, ts))
        plug = objective(a, brute_force_optimal(proj, k).assignment)
        return (plug / opt if opt > 0 else 1.0), plug <= limit * opt

    return _tally("cluster_distortion_guarantee",
                  _trials(trials, "trials", seed, trial), limit)


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


def run_experiment_sweep(dataset: Dataset, k: int, t_list, methods, spec: SolverSpec,
                         seed: int, epsilon: float = 1.0 / 3.0) -> list:
    """One record per (method, t): run project_and_cluster and score the
    assignment.

    A t of None takes the default t = ceil(k / epsilon**2).  The hd method
    clusters the raw points once, under the first t's configuration, and
    its run records t = d.  Every t and method is checked before the first
    run.
    """
    configs = [_projection.ProjectionConfig(k=k, epsilon=epsilon, t_override=t, seed=seed)
               for t in t_list]
    if not configs:
        raise ParameterError("t_list must not be empty")
    for method in methods:
        if method not in METHOD_MAP:
            raise ParameterError(f"unknown method {method!r}")
    records = []
    for method in methods:
        for cfg in configs[:1] if method == "hd" else configs:
            run = project_and_cluster(dataset.points, k, cfg, spec, METHOD_MAP[method])
            scored = time.perf_counter()
            f_tilde = normalized_objective(run.original_objective,
                                           frobenius_norm(dataset.points))
            acc = (accuracy(run.projected.assignment, dataset.labels)
                   if dataset.labels is not None else None)
            score_ms = run.plugback_ms + (time.perf_counter() - scored) * 1000.0
            records.append(ExperimentRecord(method, run, f_tilde, acc, score_ms))
    return records


def run_bench(d_list, t_list, n: int, seed: int, repeats: int = 5) -> list:
    """Median wall time of each multiply implementation on each (d, t) cell.

    Both implementations apply the same packed sign matrix: naive expands it
    densely and multiplies, and mailman buckets and folds.  The mailman
    output is cross-checked against naive to 1e-10 relative before any
    timing; disagreement raises CrossCheckError.
    """
    n, repeats = _size(n, "n"), _size(repeats, "repeats")
    rows = []
    cell = 0
    for d in d_list:
        for t in t_list:
            cell_seed = _rng.derive_seed(seed, _rng.BENCH, cell)
            cell += 1
            plan = build_plan(d, t, cell_seed)
            a = _rng.stream(cell_seed, _rng.INSTANCE).standard_normal((n, d))
            dense = densify(plan, scaled=True)
            runners = {
                "naive": lambda: a @ dense,
                "mailman": lambda: project_mailman(a, plan),
            }
            reference = runners["naive"]()
            ref_norm = max(np.linalg.norm(reference), 1e-300)
            gap = np.linalg.norm(runners["mailman"]() - reference) / ref_norm
            if gap > 1e-10:
                raise CrossCheckError(f"mailman disagrees with naive at d={d}, "
                                      f"t={t}: relative gap {gap:.3e}")
            for impl, runner in runners.items():
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    runner()
                    times.append((time.perf_counter() - start) * 1000.0)
                rows.append({"impl": impl, "d": d, "t": t, "n": n,
                             "seed": cell_seed,
                             "median_ms": statistics.median(times),
                             "repeats": repeats})
    return rows
