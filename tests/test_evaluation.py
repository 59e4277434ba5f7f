import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpkmeans import evaluation, kmeans, matrix, projection, rng
from rpkmeans.errors import ParameterError

from _oracles import accuracy_by_assignment, accuracy_by_permutation

SEED = 0


def seeded(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def test_property_report_validates_counts():
    with pytest.raises(ParameterError):
        evaluation.PropertyReport("x", trials=5, passes=6, statistic=0.0, bound=0.0)


def test_experiment_record_validates_scores():
    with pytest.raises(ParameterError):
        evaluation.ExperimentRecord(method="hd", t=4, f_tilde=-0.1, accuracy=None,
                                    projection_ms=0.0, clustering_ms=0.0,
                                    seed=0, k=2, epsilon=0.2)
    with pytest.raises(ParameterError):
        evaluation.ExperimentRecord(method="hd", t=4, f_tilde=0.1, accuracy=1.5,
                                    projection_ms=0.0, clustering_ms=0.0,
                                    seed=0, k=2, epsilon=0.2)


def test_normalized_objective_identical_points():
    a = np.full((5, 3), 2.0)
    asg = kmeans.Assignment.from_labels([0] * 5, 1)
    assert evaluation.normalized_objective(kmeans.objective(a, asg),
                                           matrix.frobenius_norm(a)) == pytest.approx(
        0.0, abs=1e-15)


def test_normalized_objective_recomputation():
    a = seeded((9, 4), 211)
    asg = kmeans.Assignment.from_labels(np.arange(9) % 3, 3)
    value = kmeans.objective(a, asg)
    expect = value / matrix.frobenius_norm(a) ** 2
    assert evaluation.normalized_objective(value, matrix.frobenius_norm(a)) == pytest.approx(
        expect, rel=1e-12)


def test_normalized_objective_zero_matrix():
    # f~ is undefined on all-zero data: None, which cluster writes as null
    asg = kmeans.Assignment.from_labels([0, 0], 1)
    a = np.zeros((2, 2))
    assert evaluation.normalized_objective(kmeans.objective(a, asg),
                                           matrix.frobenius_norm(a)) is None


def test_normalized_objective_scale_invariant():
    a = seeded((8, 3), 223)
    asg = kmeans.Assignment.from_labels(np.arange(8) % 2, 2)
    base = evaluation.normalized_objective(kmeans.objective(a, asg),
                                           matrix.frobenius_norm(a))
    for c in (0.5, 7.0):
        scaled = evaluation.normalized_objective(kmeans.objective(c * a, asg),
                                                 matrix.frobenius_norm(c * a))
        assert scaled == pytest.approx(base, rel=1e-10)


def test_accuracy_permutation_of_labels_is_perfect():
    truth = np.array([0, 1, 2, 0, 1, 2, 2])
    pred = kmeans.Assignment.from_labels((truth + 1) % 3, 3)
    assert evaluation.accuracy(pred, truth) == 1.0


def test_accuracy_constant_prediction_balanced_truth():
    truth = np.arange(12) % 4
    pred = kmeans.Assignment.from_labels(np.zeros(12, dtype=int), 1)
    assert evaluation.accuracy(pred, truth) == pytest.approx(0.25)


def test_accuracy_hand_case_and_single_flip():
    truth = np.array([1, 1, 0, 0, 2, 2])
    pred = kmeans.Assignment.from_labels([0, 0, 1, 1, 2, 2], 3)
    assert evaluation.accuracy(pred, truth) == 1.0
    flipped = kmeans.Assignment.from_labels([0, 2, 1, 1, 2, 2], 3)
    assert evaluation.accuracy(flipped, truth) == pytest.approx(5.0 / 6.0)


def test_accuracy_matches_exhaustive_permutation_oracle():
    rng = np.random.default_rng(227)
    for trial in range(100):
        n = int(rng.integers(4, 16))
        k_pred = int(rng.integers(1, 5))
        k_true = int(rng.integers(1, 5))
        pred_labels = np.concatenate([np.arange(k_pred),
                                      rng.integers(0, k_pred, size=n - k_pred)])
        rng.shuffle(pred_labels)
        truth = np.concatenate([np.arange(k_true),
                                rng.integers(0, k_true, size=n - k_true)])
        rng.shuffle(truth)
        pred = kmeans.Assignment.from_labels(pred_labels, k_pred)
        assert evaluation.accuracy(pred, truth) == accuracy_by_permutation(
            pred_labels, truth)


@settings(max_examples=80, deadline=None)
@given(k_pred=st.integers(5, 60), k_true=st.integers(5, 60), n=st.integers(1, 400),
       noise=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_accuracy_matches_assignment_oracle(k_pred, k_true, n, noise, seed):
    # too many clusters for the permutation oracle; predictions follow a
    # shuffled map of the truth, with a noise share drawn at random, and
    # leave some clusters and classes empty
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k_true, size=n)
    mapped = rng.permutation(max(k_pred, k_true))[truth] % k_pred
    pred_labels = np.where(rng.random(n) < noise, rng.integers(0, k_pred, size=n), mapped)
    pred = kmeans.Assignment.from_labels(pred_labels, k_pred)
    assert evaluation.accuracy(pred, truth) == accuracy_by_assignment(pred_labels, truth)


def test_accuracy_invariant_under_relabeling():
    rng = np.random.default_rng(229)
    truth = rng.integers(0, 3, size=10)
    truth[:3] = [0, 1, 2]
    labels = rng.integers(0, 3, size=10)
    labels[:3] = [0, 1, 2]
    base = evaluation.accuracy(kmeans.Assignment.from_labels(labels, 3), truth)
    for perm in ([1, 2, 0], [2, 0, 1], [1, 0, 2]):
        relabeled = np.array(perm)[labels]
        retruthed = np.array(perm)[truth]
        assert evaluation.accuracy(
            kmeans.Assignment.from_labels(relabeled, 3), truth) == base
        assert evaluation.accuracy(
            kmeans.Assignment.from_labels(labels, 3), retruthed) == base


def test_accuracy_length_mismatch():
    pred = kmeans.Assignment.from_labels([0, 1], 2)
    with pytest.raises(ParameterError):
        evaluation.accuracy(pred, np.array([0, 1, 1]))


def test_jl_distortion_check_full_parameters():
    report = evaluation.jl_distortion_check(50, 1000, 2000, 0.3, seeds=10,
                                            seed=SEED)
    assert report.passes == report.trials == 10


def test_moment_identity_check_within_band():
    c = seeded((20, 30), 233)
    report = evaluation.moment_identity_check(c, t=400, seeds=200, seed=SEED)
    assert report.passes == report.trials
    assert abs(report.statistic - 1.0) <= report.bound


def test_norm_bound_check_holds():
    c = seeded((30, 50), 239)
    report = evaluation.norm_bound_check(c, k=2, epsilon=0.5, trials=100,
                                         seed=SEED)
    assert report.passes >= 95


def test_singular_value_check_holds():
    a = seeded((50, 80), 241)
    report = evaluation.singular_value_check(a, k=5, epsilon=0.5, t=2000,
                                             trials=100, seed=SEED)
    assert report.passes >= 95


def test_matmul_moment_check_holds():
    s = seeded((20, 40), 251)
    t_right = seeded((40, 3), 257)
    report = evaluation.matmul_moment_check(s, t_right, t=512, seeds=200,
                                            seed=SEED)
    assert report.passes == report.trials
    assert report.statistic <= report.bound


def test_pseudo_inverse_bound_check_holds():
    a = seeded((50, 80), 263)
    report = evaluation.pseudo_inverse_bound_check(a, k=3, epsilon=0.5, t=2000,
                                                   trials=100, seed=SEED)
    assert report.passes >= 90


def test_pseudo_inverse_check_survives_a_power_iteration_stall():
    # the inputs of check --scale full --seed 21, which once exited 1: in
    # trial 42 the gap's top two singular values are 0.027808 and 0.027780,
    # on which a power iteration for the spectral norm did not converge
    a = rng.stream(21, rng.INSTANCE, 3).standard_normal((50, 80))
    seed = rng.derive_seed(21, rng.TRIAL, 1005)
    v = matrix.svd_thin(a, 3).v
    vr = v.T @ projection.sample_sign_matrix(80, 2000, evaluation._trial_seed(seed, 42)).dense()
    gap = matrix.pseudo_inverse(vr) - vr.T
    assert matrix.spectral_norm(gap) == np.linalg.svd(gap, compute_uv=False)[0]
    report = evaluation.pseudo_inverse_bound_check(a, k=3, epsilon=0.5, t=2000,
                                                   trials=43, seed=seed)
    assert report.trials == 43 and report.passes == 43
    assert report.statistic >= np.linalg.svd(gap, compute_uv=False)[0]


def test_decomposition_residual_check_holds():
    a = seeded((50, 80), 263)
    report = evaluation.decomposition_residual_check(a, k=3, epsilon=0.5,
                                                     t=2000, trials=100,
                                                     seed=SEED)
    assert report.passes >= 90


def test_decomposition_identity_with_orthonormal_square_transform():
    # a square orthonormal R reconstructs the rank-k part exactly
    a = seeded((12, 9), 269)
    k = 3
    ak = matrix.best_rank_k(a, k)
    v = matrix.svd_thin(a, k).v
    q, _ = np.linalg.qr(seeded((9, 9), 271))
    vr = v.T @ q
    recon = (a @ q) @ matrix.pseudo_inverse(vr) @ v.T
    assert matrix.frobenius_norm(ak - recon) <= 1e-8 * max(
        matrix.frobenius_norm(ak), 1.0)


def test_decomposition_residual_rejects_rank_k_input():
    a = seeded((10, 8), 277)
    low = matrix.best_rank_k(a, 2)
    with pytest.raises(ParameterError):
        evaluation.decomposition_residual_check(low, k=2, epsilon=0.5, t=100,
                                                trials=1, seed=SEED)


def test_theorem_trial_identity_embedding_is_exact():
    report = evaluation.theorem_distortion_trial(8, 12, 2, 0.2, t=12, trials=20,
                                                 seed=SEED, method="none")
    assert report.passes == report.trials
    assert report.statistic == 1.0


def test_theorem_trial_rotation_preserves_objective():
    report = evaluation.theorem_distortion_trial(8, 12, 2, 0.2, t=12, trials=20,
                                                 seed=SEED, method="rotation")
    assert report.passes == report.trials
    assert report.statistic <= 1.0 + 1e-9


def test_theorem_trial_small_instances():
    report = evaluation.theorem_distortion_trial(10, 40, 2, 0.2, t=500,
                                                 trials=100, seed=SEED)
    assert report.passes >= 90


def test_theorem_trial_three_clusters():
    report = evaluation.theorem_distortion_trial(9, 30, 3, 0.3, t=300,
                                                 trials=100, seed=SEED)
    assert report.passes >= 90


def test_theorem_trial_rejects_unknown_method():
    with pytest.raises(ParameterError):
        evaluation.theorem_distortion_trial(5, 8, 2, 0.2, t=8, trials=1,
                                            seed=SEED, method="hash")


def test_checks_are_deterministic():
    c = seeded((10, 15), 281)
    one = evaluation.moment_identity_check(c, t=50, seeds=10, seed=4)
    two = evaluation.moment_identity_check(c, t=50, seeds=10, seed=4)
    assert one == two


def test_tightened_bounds_trip_every_check():
    """bound_scale well below 1 must force each check to report failure."""
    a = seeded((30, 40), 283)
    c = seeded((10, 20), 293)
    s = seeded((8, 12), 307)
    t_right = seeded((12, 2), 311)
    squeeze = 0.01
    reports = [
        evaluation.jl_distortion_check(20, 64, 128, 0.3, seeds=3, seed=SEED,
                                       bound_scale=squeeze),
        # seed 50 puts the sample mean well off 1.0, so the squeezed
        # band has to reject it
        evaluation.moment_identity_check(c, t=64, seeds=20, seed=50,
                                         bound_scale=squeeze),
        evaluation.norm_bound_check(c, k=2, epsilon=0.5, trials=20, seed=SEED,
                                    bound_scale=squeeze),
        evaluation.singular_value_check(a, k=4, epsilon=0.5, t=256, trials=20,
                                        seed=SEED, bound_scale=squeeze),
        evaluation.matmul_moment_check(s, t_right, t=64, seeds=20, seed=SEED,
                                       bound_scale=squeeze),
        evaluation.pseudo_inverse_bound_check(a, k=3, epsilon=0.5, t=256,
                                              trials=20, seed=SEED,
                                              bound_scale=squeeze),
        evaluation.decomposition_residual_check(a, k=3, epsilon=0.5, t=256,
                                                trials=20, seed=SEED,
                                                bound_scale=squeeze),
        evaluation.theorem_distortion_trial(8, 16, 2, 0.2, t=64, trials=10,
                                            seed=SEED, bound_scale=squeeze),
    ]
    for report in reports:
        assert report.passes < report.trials, report.check_name
