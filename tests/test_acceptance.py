"""End-to-end acceptance checks.

Each test exercises one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -rA or -s to see the lines for
passing tests).  Criteria that state a runtime budget assert it too.
"""

import time

import numpy as np

from _oracles import accuracy_by_permutation
from rpkmeans import dataio, evaluation, kmeans, mailman, projection
from rpkmeans.matrix import best_rank_k, frobenius_norm

SEED = 0


def _criterion(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:2d}: {status} | {desc}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def _median3(values):
    """3-point running median; endpoints pass through unchanged."""
    v = np.asarray(values, dtype=np.float64)
    out = v.copy()
    for i in range(1, len(v) - 1):
        out[i] = np.median(v[i - 1:i + 2])
    return out


# Shared 400 x 1024 forty-cluster mixture for the sweep-shape and timing
# criteria.  Strong separation keeps the recovered partition stable across
# projection dimensions.
def _big_mixture() -> dataio.Dataset:
    return dataio.generate_mixture(
        dataio.MixtureSpec(n=400, d=1024, k=40, center_scale=10.0,
                           noise_sigma=0.1, seed=7)
    )


# ---------------------------------------------------------------- corpus

def _corpus():
    """Datasets plus solver outputs reused by the invariant criteria.

    Returns a list of (a, k, KMeansResult) covering mixtures and plain
    Gaussian matrices, several inits, restarts, and the exhaustive solver.
    """
    runs = []
    datasets = [
        (dataio.generate_mixture(dataio.MixtureSpec(30, 8, 3, center_scale=3.0,
                                                    noise_sigma=0.5, seed=11)).points, 3),
        (dataio.generate_mixture(dataio.MixtureSpec(50, 16, 5, center_scale=1.5,
                                                    noise_sigma=1.0, seed=12)).points, 5),
        (dataio.generate_mixture(dataio.MixtureSpec(24, 40, 4, center_scale=8.0,
                                                    noise_sigma=0.1, seed=13)).points, 4),
        (np.random.default_rng(101).standard_normal((20, 10)), 4),
        (np.random.default_rng(102).standard_normal((40, 6)), 3),
    ]
    for a, k in datasets:
        for spec in (
            kmeans.SolverSpec(kind="lloyd"),
            kmeans.SolverSpec(kind="lloyd", replicates=3),
        ):
            runs.append((a, k, kmeans.lloyd(a, k, spec=spec, seed=SEED)))
    for n, d, k, seed in ((8, 5, 2, 21), (8, 5, 3, 22), (7, 12, 3, 23)):
        a = np.random.default_rng(seed).standard_normal((n, d))
        runs.append((a, k, kmeans.brute_force_optimal(a, k)))
    return runs


# ------------------------------------------------------------- criteria

def test_criterion_01_packed_multiply_matches_naive():
    start = time.perf_counter()
    draw = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        d = (16, 64, 256, 1024)[trial % 4]
        n = int(draw.integers(2, 13))
        t = int(draw.integers(1, 4 * max(1, d.bit_length() - 1)))
        a = draw.standard_normal((n, d))
        plan = mailman.build_plan(d, t, seed=trial)
        r = projection.sample_sign_matrix(d, t, seed=trial)
        fast = mailman.project_mailman(a, plan)
        slow = projection.project_naive(a, r)
        denom = frobenius_norm(slow)
        rel = frobenius_norm(fast - slow) / denom if denom > 0 else 0.0
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _criterion(1, "packed sign multiply equals naive multiply on 50 seeded shapes",
               worst <= 1e-10 and elapsed < 10.0,
               f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_packed_multiply_addition_budget():
    draw = np.random.default_rng(7)
    ok = True
    checked = 0
    for d, t in ((16, 10), (64, 13), (256, 17), (1024, 25)):
        sign = mailman.build_plan(d, t, seed=3)
        x = draw.standard_normal(d)
        for block in sign.blocks:
            _, adds = mailman.block_row_multiply_counted(block, x)
            ok = ok and adds <= d + (1 << (block.p + 1))
            checked += 1
    _criterion(2, "counted additions per row per block stay within d + 2^(p+1)",
               ok, f"{checked} blocks")


def test_criterion_03_projected_clustering_guarantee():
    start = time.perf_counter()
    report = evaluation.theorem_distortion_trial(
        n=10, d=40, k=2, epsilon=0.2, t=500, trials=100, seed=SEED
    )
    elapsed = time.perf_counter() - start
    _criterion(3, "plug-back objective within (2+eps) of optimum in >= 90/100 trials",
               report.passes >= 90 and elapsed < 120.0,
               f"{report.passes}/100, worst ratio {report.statistic:.3f}, {elapsed:.1f}s")


def test_criterion_04_embedded_singular_values():
    a = np.random.default_rng(241).standard_normal((50, 80))
    report = evaluation.singular_value_check(a, k=5, epsilon=0.5, t=2000,
                                             trials=100, seed=SEED)
    _criterion(4, "singular values of the embedded top-k factor stay within eps of 1",
               report.passes >= 95, f"{report.passes}/100")


def test_criterion_05_projected_norm_moments():
    c = np.random.default_rng(233).standard_normal((20, 30))
    mean_report = evaluation.moment_identity_check(c, t=400, seeds=200, seed=SEED)
    norm_report = evaluation.norm_bound_check(c, k=2, epsilon=0.5, trials=100,
                                              seed=SEED)
    ok = mean_report.passes == mean_report.trials and norm_report.passes >= 95
    _criterion(5, "projected squared norm is unbiased and bounded at fat t",
               ok,
               f"mean ratio {mean_report.statistic:.4f}, norm {norm_report.passes}/100")


def test_criterion_06_factor_recovery_bounds():
    a = np.random.default_rng(263).standard_normal((50, 80))
    pinv = evaluation.pseudo_inverse_bound_check(a, k=3, epsilon=0.5, t=2000,
                                                 trials=100, seed=SEED)
    resid = evaluation.decomposition_residual_check(a, k=3, epsilon=0.5, t=2000,
                                                    trials=100, seed=SEED)
    _criterion(6, "pseudo-inverse and rank-k residual bounds hold in >= 90/100 trials",
               pinv.passes >= 90 and resid.passes >= 90,
               f"pinv {pinv.passes}/100, residual {resid.passes}/100")


def test_criterion_07_pairwise_distance_preservation():
    report = evaluation.jl_distortion_check(n=50, d=1000, t=2000, epsilon=0.3,
                                            seeds=10, seed=SEED)
    _criterion(7, "99% of pairwise distances preserved within eps for 10/10 seeds",
               report.passes == 10, f"{report.passes}/10 seeds")


def test_criterion_08_rank_k_residual_lower_bound():
    violations = 0
    total = 0
    for a, k, result in _corpus():
        tail = frobenius_norm(a - best_rank_k(a, k)) ** 2
        f_val = kmeans.objective(a, result.assignment)
        total += 1
        if tail > f_val + 1e-9 * frobenius_norm(a) ** 2:
            violations += 1
    _criterion(8, "rank-k residual energy lower-bounds every produced objective",
               violations == 0, f"{total} runs, {violations} violations")


def test_criterion_09_descent_trace_monotone():
    violations = 0
    total = 0
    for _, _, result in _corpus():
        total += 1
        trace = result.objective_trace
        # a NaN trace passes the diff test vacuously, so require finiteness
        if not np.isfinite(trace).all() or np.any(np.diff(trace) > 0):
            violations += 1
    _criterion(9, "every recorded objective trace is finite and non-increasing",
               violations == 0, f"{total} traces, {violations} violations")


def test_criterion_10_sweep_plateau_shape():
    start = time.perf_counter()
    ds = _big_mixture()
    spec = kmeans.SolverSpec(kind="lloyd")
    t_list = [5, 10, 25, 50, 100, 150, 200, 250, 300]
    records = evaluation.run_experiment_sweep(ds, 40, t_list, ["rp_mailman", "hd"],
                                              spec, seed=SEED)
    rp = {r.run.t: r.f_tilde for r in records if r.method == "rp_mailman"}
    hd_f = next(r.f_tilde for r in records if r.method == "hd")
    curve = [rp[t] for t in t_list]
    smooth = _median3(curve)
    non_increasing = bool(np.all(np.diff(smooth) <= 1e-12 * max(smooth)))
    plateau = smooth[t_list.index(300)] >= 0.95 * smooth[t_list.index(100)]
    near_hd = all(rp[t] <= 1.1 * hd_f for t in t_list if t >= 100)
    elapsed = time.perf_counter() - start
    _criterion(10, "objective-vs-t curve is non-increasing, plateaus, and meets full-dim quality",
               non_increasing and plateau and near_hd and elapsed < 300.0,
               f"F~(100)={rp[100]:.2e}, F~(300)={rp[300]:.2e}, hd={hd_f:.2e}, {elapsed:.1f}s")


def test_criterion_11_projection_speed_advantage():
    ds = _big_mixture()
    spec = kmeans.SolverSpec(kind="lloyd", replicates=5)
    # warm-up pass so allocator and import costs hit neither arm
    evaluation.run_experiment_sweep(ds, 40, [100], ["rp_mailman", "hd"], spec, seed=99)
    # each arm's time per seed is its fastest of three sweeps, taken in three
    # rounds over the seeds, so that a stall of the machine that outlasts
    # one seed's sweeps does not decide that seed
    total_rp = [float("inf")] * 5
    total_hd = [float("inf")] * 5
    for _ in range(3):
        for seed in range(5):
            records = evaluation.run_experiment_sweep(ds, 40, [100], ["rp_mailman", "hd"],
                                                      spec, seed=seed)
            rp = next(r for r in records if r.method == "rp_mailman")
            hd = next(r for r in records if r.method == "hd")
            total_rp[seed] = min(total_rp[seed], rp.run.projection_ms + rp.run.clustering_ms)
            total_hd[seed] = min(total_hd[seed], hd.run.clustering_ms)
    wins = sum(r < h for r, h in zip(total_rp, total_hd))
    detail = [f"{r:.0f}<{h:.0f}" for r, h in zip(total_rp, total_hd)]
    _criterion(11, "projection plus reduced clustering beats full-dim clustering, 5/5 seeds",
               wins == 5, "ms " + " ".join(detail))


def test_criterion_12_accuracy_matches_permutation_oracle():
    draw = np.random.default_rng(31)
    agree = 0
    for _ in range(100):
        n = int(draw.integers(4, 20))
        k_pred = int(draw.integers(1, 5))
        k_true = int(draw.integers(1, 5))
        pred = draw.integers(0, k_pred, size=n)
        truth = draw.integers(0, k_true, size=n)
        asg = kmeans.Assignment.from_labels(pred, int(pred.max()) + 1)
        if evaluation.accuracy(asg, truth) == accuracy_by_permutation(pred, truth):
            agree += 1
    _criterion(12, "matching-based accuracy equals the exhaustive permutation oracle",
               agree == 100, f"{agree}/100 pairs")


def test_criterion_13_exhaustive_solver_lower_bound():
    draw = np.random.default_rng(47)
    ok = True
    instances = 0
    for n, d, k in ((4, 3, 2), (6, 4, 2), (6, 2, 3), (8, 5, 2), (8, 3, 3), (8, 8, 4)):
        a = draw.standard_normal((n, d))
        best = kmeans.objective(a, kmeans.brute_force_optimal(a, k).assignment)
        instances += 1
        for _ in range(500):
            labels = draw.integers(0, k, size=n)
            rand_val = kmeans.objective(a, kmeans.Assignment.from_labels(labels, k))
            ok = ok and best <= rand_val
    _criterion(13, "exhaustive solver objective lower-bounds 500 random assignments per instance",
               ok, f"{instances} instances x 500 assignments")
