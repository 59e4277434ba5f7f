import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpkmeans import kmeans
from rpkmeans.errors import ParameterError
from rpkmeans.projection import ProjectionConfig

from _oracles import lloyd_by_add_at, normalized_indicator, objective_by_gather, scatter_about_mean


def random_assignment(rng, n, k):
    """Labels hitting every cluster in [0, k) at least once."""
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    return kmeans.Assignment.from_labels(labels, k)


def test_assignment_validates_labels_and_sizes():
    asg = kmeans.Assignment.from_labels([0, 1, 0, 2], 3)
    assert np.array_equal(asg.cluster_sizes, [2, 1, 1])
    with pytest.raises(ParameterError):
        kmeans.Assignment.from_labels([0, 3], 3)
    with pytest.raises(ParameterError):
        kmeans.Assignment(labels=np.array([0, 1]), k=2,
                          cluster_sizes=np.array([2, 0]))


def test_objective_identical_points():
    a = np.ones((4, 3)) * 2.5
    asg = kmeans.Assignment.from_labels([0, 0, 0, 0], 1)
    assert kmeans.objective(a, asg) == pytest.approx(0.0, abs=1e-12)


def test_objective_two_points_on_a_line():
    a = np.array([[0.0], [2.0]])
    asg = kmeans.Assignment.from_labels([0, 0], 1)
    assert kmeans.objective(a, asg) == pytest.approx(2.0)


def test_objective_matches_indicator_form():
    rng = np.random.default_rng(131)
    a = rng.standard_normal((6, 3))
    asg = random_assignment(rng, 6, 2)
    x = normalized_indicator(asg.labels, asg.k)
    resid = a - x @ (x.T @ a)
    expect = float(np.sum(resid * resid))
    assert kmeans.objective(a, asg) == pytest.approx(expect, rel=1e-10)


def test_objective_scale_equivariance():
    rng = np.random.default_rng(137)
    a = rng.standard_normal((8, 4))
    asg = random_assignment(rng, 8, 3)
    base = kmeans.objective(a, asg)
    for c in (0.5, 3.0, 10.0):
        assert kmeans.objective(c * a, asg) == pytest.approx(c * c * base,
                                                             rel=1e-10)


def _labelled(n, d, k, seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((n, d)) * 10.0 ** g.integers(-3, 4, size=(1, d))
    labels = np.concatenate((np.arange(k), g.integers(0, k, size=n - k)))
    return a, kmeans.Assignment(labels, k, np.bincount(labels, minlength=k))


LEAF = kmeans.OBJECTIVE_LEAF


@pytest.mark.parametrize("n, d, k", [
    (100, 7, 3),                # n * d below one leaf
    (LEAF // 64, 64, 5),        # exactly one leaf
    (LEAF + 1, 1, 6),           # one leaf + 1, d = 1
    (1, LEAF + 1, 1),           # n = 1, k = 1, a row longer than a leaf
    (3, 2 * LEAF + 5, 2),       # leaves inside one row and across two
    (1061, 64, 9),              # rows straddle the leaves
    (777, 333, 5),              # rows straddle the leaves, odd d
    (10923, 3, 4),              # one leaf of many short rows
    (65541, 1, 6),              # d = 1
    (1, 40, 1),                 # n = 1
    (500, 30, 1),               # k = 1
    (7, 5000, 7),               # one row per cluster
])
def test_objective_bits_equal_the_gathered_form(n, d, k):
    a, asg = _labelled(n, d, k, seed=n + d + k)
    assert kmeans.objective(a, asg) == objective_by_gather(a, asg.labels, k)


@pytest.mark.parametrize("size", [LEAF + 1, 2 * LEAF + 12, 3 * LEAF + 13,
                                  5 * LEAF + 7, 7 * LEAF + 100])
def test_leaf_tree_adds_as_numpys_pairwise_sum(size):
    # signs and twelve decades of magnitude make any other split show
    g = np.random.default_rng(size)
    x = g.standard_normal(size) * 10.0 ** g.uniform(-6, 6, size=size)
    total = kmeans._pairwise_sum(0, size, lambda lo, hi: x[lo:hi].sum())
    assert total == np.sum(x)


def test_objective_allocates_at_most_one_and_a_half_inputs():
    n, d, k = 4000, 64, 10
    a, asg = _labelled(n, d, k, seed=5)
    tracemalloc.start()
    try:
        kmeans.objective(a, asg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the leaf buffer, the k x d sums (divided in place into the
    # centroids), and per row the one-hot's index, pointer and data and the
    # empty-cluster check's gather
    bound = 8 * (LEAF + k * d) + 40 * n + 4096
    assert bound < 0.5 * a.nbytes
    assert peak <= bound


def test_objective_and_lloyd_leave_no_reference_cycles():
    # a cycle would keep the leaf buffer or the one-hot alive until the
    # cyclic collector runs, which raised peak memory in a full pipeline
    a, asg = _labelled(300, 40, 6, seed=11)
    gc.collect()
    gc.disable()
    try:
        kmeans.objective(a, asg)
        kmeans.lloyd(a, 6, kmeans.SolverSpec(replicates=2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_objective_length_mismatch():
    asg = kmeans.Assignment.from_labels([0, 1], 2)
    with pytest.raises(ParameterError):
        kmeans.objective(np.zeros((3, 2)), asg)


def _add_at_sums(a, labels, k):
    sums = np.zeros((k, a.shape[1]))
    np.add.at(sums, labels, a)
    return sums


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 6), k=st.integers(1, 8),
       used=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
@example(n=1, d=3, k=1, used=1, seed=0)    # n = 1
@example(n=1, d=2, k=5, used=1, seed=1)    # k above the largest label + 1
@example(n=30, d=4, k=6, used=2, seed=2)   # empty clusters
@example(n=25, d=5, k=9, used=4, seed=4)   # k above the largest label, n > k
@example(n=400, d=1024, k=40, used=40, seed=5)  # criterion 11's mixture
@example(n=1000, d=256, k=20, used=20, seed=6)  # the hd-lloyd shape
def test_cluster_sums_bit_identical_to_add_at(n, d, k, used, seed):
    rng = np.random.default_rng(seed)
    # row magnitudes over 12 decades make any change of summation order show
    a = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
    labels = rng.integers(0, min(used, k), size=n)
    expect = _add_at_sums(a, labels, k)
    assert np.array_equal(kmeans.cluster_sums(a, labels, k), expect)
    assert np.array_equal(kmeans.cluster_sums(a, labels.astype(np.int32), k), expect)
    strided = np.repeat(labels, 2)[::2]
    assert np.array_equal(kmeans.cluster_sums(a, strided, k), expect)


@pytest.mark.parametrize("labels", [[0, 3, 1], [0, -1, 1], [2**32 + 1, 0, 0]])
def test_cluster_sums_refuses_labels_outside_range(labels):
    # scipy does not check the row indices of the one-hot matrix, so an
    # unchecked label would read or write outside the result
    with pytest.raises(ParameterError, match=r"\[0, k\)"):
        kmeans.cluster_sums(np.ones((3, 2)), np.array(labels), 3)


def _lloyd_input(kind, n, d, k, seed):
    """Rows of one kind, and k (n for "n_equals_k")."""
    rng = np.random.default_rng(seed)
    if kind == "mixture":
        centers = rng.standard_normal((k, d)) * 10.0
        a = centers[rng.integers(0, k, size=n)] + rng.standard_normal((n, d))
    elif kind == "decades":
        a = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))
    elif kind == "integers":
        # few distinct values: exact distance ties, and duplicate rows
        a = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        a[rng.integers(0, n, size=n // 2)] = a[rng.integers(0, n, size=n // 2)]
    elif kind == "all_equal":
        a = np.full((n, d), rng.uniform(-100.0, 100.0))
    elif kind == "n_equals_k":
        a = rng.standard_normal((n, d))
        k = n
    else:  # "repair": k equal start rows put every point in cluster 0
        a = rng.standard_normal((n, d))
        a[:k] = a[0]
    return a, k


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["mixture", "decades", "integers", "all_equal",
                             "n_equals_k", "repair"]),
       n=st.integers(1, 60), d=st.integers(1, 12), k=st.integers(1, 8),
       replicates=st.sampled_from([1, 4]), max_iter=st.sampled_from([1, 100]),
       seed=st.integers(0, 2**31 - 1))
@example(kind="mixture", n=1000, d=256, k=20, replicates=4, max_iter=15,
         seed=7)  # the hd-lloyd shape
@example(kind="repair", n=12, d=3, k=5, replicates=1, max_iter=100, seed=8)
@example(kind="all_equal", n=9, d=2, k=9, replicates=4, max_iter=100, seed=9)
def test_lloyd_bit_identical_to_add_at_oracle(kind, n, d, k, replicates,
                                              max_iter, seed):
    k = min(k, n)
    a, k = _lloyd_input(kind, n, d, k, seed)
    stride = 1 if kind == "repair" else n // k
    spec = kmeans.SolverSpec(max_iter=max_iter, replicates=replicates,
                             init=kmeans.FirstOfEachGroup(stride))
    res = kmeans.lloyd(a, k, spec, seed=seed)
    labels, obj, trace, iterations, converged = lloyd_by_add_at(a, k, spec, seed)
    assert np.array_equal(res.assignment.labels, labels)
    assert res.objective == obj
    assert np.array_equal(res.objective_trace, trace)
    assert res.iterations == iterations
    assert res.converged == converged
    # the Lloyd invariants
    assert np.isfinite(res.objective_trace).all()
    # the trace is sum ||a_i||^2 - sum ||S_j||^2 / z_j, whose rounding is a
    # few ulps of sum ||a_i||^2: within that it may rise (all-equal rows
    # read 2.9e-10 then 4.1e-10 for a true objective of 0)
    slack = 16 * np.finfo(np.float64).eps * float(np.sum(a * a))
    assert np.all(np.diff(res.objective_trace) <= slack)
    assert np.all(res.assignment.cluster_sizes > 0)
    assert res.assignment.labels.min() >= 0 and res.assignment.labels.max() < k


def _huge_cluster_sums():
    a = np.full((1000, 1), 3e151)
    a[::2] *= 1.01
    return a


@pytest.mark.parametrize("a", [
    np.random.default_rng(167).standard_normal((20, 3)) * 1e200,  # row norms overflow
    _huge_cluster_sums(),  # row norms finite, squared cluster sums overflow
])
def test_lloyd_refuses_input_whose_squared_norms_overflow(a):
    # finite input used to come back with a NaN (or zero) objective trace
    with pytest.raises(ParameterError, match="overflow"):
        kmeans.lloyd(a, 2)


def test_lloyd_one_cluster_per_point():
    rng = np.random.default_rng(139)
    a = rng.standard_normal((7, 3))
    res = kmeans.lloyd(a, 7)
    assert res.objective == 0.0
    assert len(np.unique(res.assignment.labels)) == 7


def test_lloyd_two_blobs_reaches_within_blob_scatter():
    rng = np.random.default_rng(149)
    left = rng.standard_normal((10, 2)) + np.array([-20.0, 0.0])
    right = rng.standard_normal((10, 2)) + np.array([20.0, 0.0])
    a = np.vstack([left, right])
    spec = kmeans.SolverSpec(init=kmeans.GivenIndices((0, 10)))
    res = kmeans.lloyd(a, 2, spec)
    assert res.converged
    expect = scatter_about_mean(left) + scatter_about_mean(right)
    assert res.objective == pytest.approx(expect, rel=1e-10)


def test_lloyd_never_beats_exhaustive():
    rng = np.random.default_rng(151)
    for trial in range(5):
        a = rng.standard_normal((8, 3))
        exact = kmeans.brute_force_optimal(a, 2).objective
        res = kmeans.lloyd(a, 2, kmeans.SolverSpec(init=kmeans.FirstOfEachGroup(3)))
        assert res.objective >= exact - 1e-9 * max(exact, 1.0)


def test_lloyd_trace_non_increasing():
    rng = np.random.default_rng(157)
    for trial in range(10):
        a = rng.standard_normal((30, 4))
        res = kmeans.lloyd(a, 4, kmeans.SolverSpec(init=kmeans.FirstOfEachGroup(7)))
        trace = res.objective_trace
        assert res.objective == trace[-1]
        assert np.all(np.diff(trace) <= 1e-12 * max(trace[0], 1.0))


def test_lloyd_repairs_emptied_clusters():
    # all mass near the origin plus one outlier: the middle start centroid
    # captures nothing after the first update and must be repopulated
    a = np.vstack([np.zeros((5, 2)), np.full((1, 2), 100.0),
                   np.full((4, 2), 0.01)])
    # rows 0 and 1 coincide, so the second start centroid captures nothing
    res = kmeans.lloyd(a, 3, kmeans.SolverSpec(init=kmeans.GivenIndices((0, 1, 5))))
    assert np.all(res.assignment.cluster_sizes > 0)
    assert np.all(np.diff(res.objective_trace) <= 1e-12)


def test_lloyd_replicates_only_improve():
    rng = np.random.default_rng(163)
    a = rng.standard_normal((40, 3))
    one = kmeans.lloyd(a, 5, kmeans.SolverSpec(init=kmeans.FirstOfEachGroup(1)))
    many = kmeans.lloyd(a, 5, kmeans.SolverSpec(init=kmeans.FirstOfEachGroup(1),
                                                replicates=4), seed=3)
    assert many.objective <= one.objective + 1e-12


def test_lloyd_rejects_k_above_n():
    with pytest.raises(ParameterError):
        kmeans.lloyd(np.zeros((3, 2)), 4)


def test_solver_spec_validation():
    with pytest.raises(ParameterError):
        kmeans.SolverSpec(kind="annealing")
    with pytest.raises(ParameterError):
        kmeans.SolverSpec(replicates=0)
    for tol in (float("nan"), 1.0, 2.0, float("inf")):
        with pytest.raises(ParameterError):
            kmeans.SolverSpec(tol=tol)


def test_brute_force_collinear_hand_case():
    a = np.array([[0.0], [1.0], [10.0]])
    res = kmeans.brute_force_optimal(a, 2)
    assert res.objective == pytest.approx(0.5)
    # the cheap split groups 0 with 1 and isolates 10
    assert res.assignment.labels[0] == res.assignment.labels[1]
    assert res.assignment.labels[2] != res.assignment.labels[0]


def test_brute_force_single_cluster_is_total_scatter():
    rng = np.random.default_rng(167)
    a = rng.standard_normal((6, 4))
    res = kmeans.brute_force_optimal(a, 1)
    assert res.objective == pytest.approx(scatter_about_mean(a), rel=1e-10)


def test_brute_force_below_twenty_lloyd_restarts():
    rng = np.random.default_rng(173)
    a = rng.standard_normal((9, 3))
    exact = kmeans.brute_force_optimal(a, 3).objective
    for trial in range(20):
        idx = tuple(np.sort(rng.choice(9, size=3, replace=False)).tolist())
        res = kmeans.lloyd(a, 3, kmeans.SolverSpec(init=kmeans.GivenIndices(idx)))
        assert exact <= res.objective + 1e-9 * max(res.objective, 1.0)


def test_brute_force_refuses_large_n():
    with pytest.raises(ParameterError) as err:
        kmeans.brute_force_optimal(np.zeros((15, 2)), 2)
    assert "14" in str(err.value)


def test_brute_force_scale_invariant_argmin():
    rng = np.random.default_rng(179)
    a = rng.standard_normal((7, 3))
    base = kmeans.brute_force_optimal(a, 2)
    scaled = kmeans.brute_force_optimal(2.5 * a, 2)
    assert np.array_equal(base.assignment.labels, scaled.assignment.labels)
    assert scaled.objective == pytest.approx(2.5 ** 2 * base.objective, rel=1e-10)


def test_pipeline_none_equals_plain_lloyd():
    rng = np.random.default_rng(181)
    a = rng.standard_normal((20, 6))
    cfg = ProjectionConfig(k=3, seed=5)
    spec = kmeans.SolverSpec(init=kmeans.FirstOfEachGroup(2))
    pipe = kmeans.project_and_cluster(a, 3, cfg, spec, method="none")
    plain = kmeans.lloyd(a, 3, spec)
    assert np.array_equal(pipe.projected.assignment.labels,
                          plain.assignment.labels)
    assert pipe.original_objective == pytest.approx(plain.objective, rel=1e-9)
    assert pipe.t == 6


def test_pipeline_sign_paths_give_identical_assignments():
    rng = np.random.default_rng(191)
    a = rng.standard_normal((24, 64))
    spec = kmeans.SolverSpec(init=kmeans.FirstOfEachGroup(4))
    for seed in range(3):
        cfg = ProjectionConfig(k=3, t_override=9, seed=seed)
        fast = kmeans.project_and_cluster(a, 3, cfg, spec, method="sign_mailman")
        slow = kmeans.project_and_cluster(a, 3, cfg, spec, method="sign_naive")
        assert np.array_equal(fast.projected.assignment.labels,
                              slow.projected.assignment.labels)
        assert fast.original_objective == pytest.approx(slow.original_objective,
                                                        rel=1e-10)


def test_pipeline_gaussian_and_svd_methods_run():
    rng = np.random.default_rng(193)
    a = rng.standard_normal((15, 12))
    spec = kmeans.SolverSpec(init=kmeans.FirstOfEachGroup(2))
    for method in ("gaussian", "svd_embed"):
        out = kmeans.project_and_cluster(a, 2, ProjectionConfig(k=2, t_override=4),
                                         spec, method=method)
        assert out.projected.assignment.n == 15
        assert out.original_objective >= 0.0
        assert out.t == 4


def test_pipeline_rejects_unknown_method():
    with pytest.raises(ParameterError):
        kmeans.apply_projection(np.zeros((3, 4)), ProjectionConfig(k=2), "fft")


def test_growth_strings_count_small_cases():
    # partitions of n items into at most k nonempty blocks
    assert sum(1 for _ in kmeans._growth_strings(3, 2)) == 4
    assert sum(1 for _ in kmeans._growth_strings(4, 4)) == 15
    assert sum(1 for _ in kmeans._growth_strings(1, 1)) == 1
