import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpkmeans import kmeans
from rpkmeans.errors import ParameterError
from rpkmeans.projection import ProjectionConfig

from _oracles import scatter_about_mean


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


def test_indicator_columns_are_orthonormal():
    rng = np.random.default_rng(127)
    for n, k in ((6, 2), (9, 3), (12, 5)):
        asg = random_assignment(rng, n, k)
        x = asg.indicator()
        assert np.max(np.abs(x.T @ x - np.eye(k))) <= 1e-12


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
    x = asg.indicator()
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
def test_cluster_sums_bit_identical_to_add_at(n, d, k, used, seed):
    rng = np.random.default_rng(seed)
    # row magnitudes over 12 decades make any change of summation order show
    a = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
    labels = rng.integers(0, min(used, k), size=n)
    assert np.array_equal(kmeans.cluster_sums(a, labels, k), _add_at_sums(a, labels, k))


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
