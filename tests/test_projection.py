import numpy as np
import pytest
from scipy.spatial.distance import pdist

from rpkmeans import mailman, matrix, projection
from rpkmeans.errors import ParameterError

from _oracles import matmul_triple_loop


def test_target_dimension_arithmetic():
    assert projection.target_dimension(40, 1.0 / 3.0) == 360
    assert projection.target_dimension(1, 0.1) == 100
    assert projection.target_dimension(10, 0.25) == 160


def test_target_dimension_rejects_bad_epsilon():
    # 1e-200 squared underflows to 0
    for eps in (0.0, -0.1, 0.34, 0.5, 1.0, float("nan"), 1e-200):
        with pytest.raises(ParameterError):
            projection.target_dimension(4, eps)
    with pytest.raises(ParameterError):
        projection.target_dimension(0, 0.2)
    # 10**308 is a float, but k / epsilon**2 overflows; 10**400 is no float
    for k in (10**308, 10**400):
        with pytest.raises(ParameterError):
            projection.target_dimension(k, 0.2)
        with pytest.raises(ParameterError):
            projection.ProjectionConfig(k=k).resolve_t(10)


def test_config_resolves_t_and_guards_dimension():
    cfg = projection.ProjectionConfig(k=2, epsilon=0.2)
    assert cfg.resolve_t(100) == 50
    cfg = projection.ProjectionConfig(k=2, t_override=7)
    assert cfg.resolve_t(10) == 7
    with pytest.raises(ParameterError):
        cfg.resolve_t(6)  # t may not exceed the input dimension
    with pytest.raises(ParameterError):
        projection.ProjectionConfig(k=2, epsilon=0.4)


def test_sign_matrix_same_seed_same_entries():
    one = projection.sample_sign_matrix(24, 6, seed=5)
    two = projection.sample_sign_matrix(24, 6, seed=5)
    assert np.array_equal(mailman.densify(one), mailman.densify(two))


def test_sign_matrix_entries_are_unit_signs():
    sign = projection.sample_sign_matrix(50, 8, seed=2)
    values = np.unique(mailman.densify(sign))
    assert set(values.tolist()) <= {-1.0, 1.0}
    assert np.allclose(mailman.densify(sign, scaled=True), mailman.densify(sign) / np.sqrt(8),
                       atol=1e-15)


def test_sign_matrix_column_means_concentrate():
    # binomial concentration: the mean of d signs should sit within
    # 4/sqrt(d) of zero for at least 9 of the 10 columns
    d = 10_000
    sign = projection.sample_sign_matrix(d, 10, seed=0)
    means = mailman.densify(sign).mean(axis=0)
    inside = np.sum(np.abs(means) <= 4.0 / np.sqrt(d))
    assert inside >= 9


def test_sign_matrix_nearby_seeds_differ():
    s0 = 123
    one = projection.sample_sign_matrix(3, 2, seed=s0)
    two = projection.sample_sign_matrix(3, 2, seed=s0 + 1)
    # 6 entries agree with probability 2**-6 per seed pair; this seed differs
    assert not np.array_equal(mailman.densify(one), mailman.densify(two))


def test_project_naive_zero_matrix():
    r = projection.sample_sign_matrix(6, 4, seed=1)
    assert np.array_equal(projection.project_naive(np.zeros((3, 6)), r),
                          np.zeros((3, 4)))


def test_project_naive_forced_all_plus():
    d, t = 10, 4
    widths = np.array(mailman.block_widths(d, t))
    codes = np.repeat((1 << widths[:, None]) - 1, d, axis=1)
    r = mailman.SignMatrix(d=d, t=t, codes=codes)
    out = projection.project_naive(np.ones((1, d)), r)
    assert np.allclose(out, d / np.sqrt(t), atol=1e-12)


def test_project_naive_matches_dense_triple_loop():
    rng = np.random.default_rng(89)
    # the second shape's t x n passes 9216 elements, where a threaded BLAS
    # splits each rank-1 update
    for n, d, t in [(5, 8, 4), (40, 12, 300)]:
        a = rng.standard_normal((n, d))
        r = projection.sample_sign_matrix(d, t, seed=6)
        got = projection.project_naive(a, r)
        expect = matmul_triple_loop(a, mailman.densify(r, scaled=True))
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))


def test_project_naive_dimension_mismatch():
    r = projection.sample_sign_matrix(8, 4, seed=6)
    with pytest.raises(ParameterError):
        projection.project_naive(np.zeros((2, 9)), r)


def test_svd_embed_diagonal():
    emb = projection.svd_embed(np.diag([5.0, 2.0, 1.0]), 2)
    assert np.allclose(np.abs(emb), [[5.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
                       atol=1e-12)


def test_svd_embed_preserves_row_norms_at_full_rank():
    rng = np.random.default_rng(97)
    a = rng.standard_normal((7, 4))
    emb = projection.svd_embed(a, 4)
    assert np.allclose(np.linalg.norm(emb, axis=1),
                       np.linalg.norm(a, axis=1), rtol=1e-6)


def test_svd_embed_distances_match_projected_basis():
    rng = np.random.default_rng(101)
    a = rng.standard_normal((8, 5))
    emb = projection.svd_embed(a, 3)
    oracle = a @ matrix.svd_thin(a, 3).v
    assert np.max(np.abs(pdist(emb) - pdist(oracle))) <= 1e-8


def test_distortion_report_identity_embedding():
    rng = np.random.default_rng(103)
    a = rng.standard_normal((12, 4))
    rep = projection.jl_distortion_report(a, a, epsilon=0.1)
    assert rep.fraction_ok == 1.0
    assert rep.worst_low == pytest.approx(1.0)
    assert rep.worst_high == pytest.approx(1.0)


def test_distortion_report_uniform_dilation_fails_every_pair():
    rng = np.random.default_rng(107)
    a = rng.standard_normal((9, 3))
    rep = projection.jl_distortion_report(a, 2.0 * a, epsilon=0.5)
    assert rep.fraction_ok == 0.0
    assert rep.worst_high == pytest.approx(2.0)


def test_distortion_report_zero_distance_pairs():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    same = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    rep = projection.jl_distortion_report(a, same, epsilon=3.0)
    assert rep.fraction_ok == 1.0  # duplicate rows stayed together
    apart = np.array([[2.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
    rep = projection.jl_distortion_report(a, apart, epsilon=3.0)
    assert rep.fraction_ok < 1.0  # duplicate rows were torn apart


def test_distortion_report_row_mismatch():
    with pytest.raises(ParameterError):
        projection.jl_distortion_report(np.zeros((3, 2)), np.zeros((4, 2)), 0.3)
    # NaN once passed the epsilon <= 0 guard and failed every pair
    for epsilon in (0.0, -0.5, float("nan")):
        with pytest.raises(ParameterError, match="epsilon must be positive"):
            projection.jl_distortion_report(np.eye(3), np.eye(3), epsilon)


def test_sign_projection_preserves_seeded_cloud():
    rng = np.random.default_rng(109)
    pts = rng.standard_normal((50, 1000))
    r = projection.sample_sign_matrix(1000, 2000, seed=8)
    emb = pts @ mailman.densify(r, scaled=True)
    rep = projection.jl_distortion_report(pts, emb, epsilon=0.3)
    assert rep.fraction_ok >= 0.99


def test_naive_and_mailman_paths_agree():
    rng = np.random.default_rng(113)
    a = rng.standard_normal((20, 96))
    sign = projection.sample_sign_matrix(96, 13, seed=11)
    naive = projection.project_naive(a, sign)
    fast = mailman.project_mailman(a, sign)
    assert np.linalg.norm(fast - naive) <= 1e-10 * np.linalg.norm(naive)
