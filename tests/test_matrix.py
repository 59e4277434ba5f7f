import math

import numpy as np
import pytest

from rpkmeans import matrix
from rpkmeans.errors import ParameterError

from _oracles import matmul_triple_loop, singular_values_via_gram


def test_as_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(ParameterError):
        matrix.as_matrix([1.0, 2.0])
    with pytest.raises(ParameterError):
        matrix.as_matrix(np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        matrix.as_matrix([[1.0, np.nan]])
    with pytest.raises(ParameterError):
        matrix.as_matrix([[np.inf, 1.0]])


def test_frobenius_norm_known_values():
    assert matrix.frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2.0))
    assert matrix.frobenius_norm(np.zeros((3, 4))) == 0.0
    assert matrix.frobenius_norm([[3.0, 4.0]]) == pytest.approx(5.0)


def test_spectral_norm_identity_and_diagonal():
    assert matrix.spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-10)
    assert matrix.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)


def test_spectral_norm_matches_full_svd():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 4))
    top = matrix.svd_thin(a, 1).sigma[0]
    assert matrix.spectral_norm(a) == pytest.approx(top, rel=1e-6)


def test_spectral_norm_zero_matrix():
    assert matrix.spectral_norm(np.zeros((3, 3))) == 0.0


def test_svd_thin_diagonal():
    res = matrix.svd_thin(np.diag([5.0, 2.0, 1.0]), 2)
    assert np.allclose(res.sigma, [5.0, 2.0], atol=1e-12)
    assert np.allclose(np.abs(res.v), np.eye(3)[:, :2], atol=1e-12)


def test_svd_thin_rank_one_outer_product():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(6)
    u *= 2.0 / np.linalg.norm(u)
    v = rng.standard_normal(4)
    v *= 3.0 / np.linalg.norm(v)
    res = matrix.svd_thin(np.outer(u, v), 1)
    assert res.sigma[0] == pytest.approx(6.0, rel=1e-12)


def test_svd_thin_sigma_matches_jacobi_gram_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 5))
    res = matrix.svd_thin(a, 3)
    oracle = singular_values_via_gram(a)
    assert np.max(np.abs(res.sigma - oracle[:3])) <= 1e-8


def test_svd_result_invariants():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((7, 5))
    k = min(a.shape)
    res = matrix.svd_thin(a, k)
    assert np.max(np.abs(res.u.T @ res.u - np.eye(k))) <= 1e-8
    assert np.max(np.abs(res.v.T @ res.v - np.eye(k))) <= 1e-8
    assert np.all(np.diff(res.sigma) <= 1e-12)
    assert np.all(res.sigma >= 0)
    recon = (res.u * res.sigma) @ res.v.T
    assert matrix.frobenius_norm(a - recon) <= 1e-8 * matrix.frobenius_norm(a)


def test_svd_thin_k_out_of_range():
    a = np.eye(3)
    with pytest.raises(ParameterError):
        matrix.svd_thin(a, 0)
    with pytest.raises(ParameterError):
        matrix.svd_thin(a, 4)


def test_svd_thin_deterministic():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 6))
    r1 = matrix.svd_thin(a, 3)
    r2 = matrix.svd_thin(a, 3)
    assert np.array_equal(r1.sigma, r2.sigma)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.v, r2.v)


def test_best_rank_k_full_rank_reproduces_input():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 4))
    ak = matrix.best_rank_k(a, 4)
    assert matrix.frobenius_norm(a - ak) <= 1e-8 * matrix.frobenius_norm(a)


def test_best_rank_k_diagonal_truncates():
    ak = matrix.best_rank_k(np.diag([5.0, 2.0, 1.0]), 1)
    assert np.allclose(ak, np.diag([5.0, 0.0, 0.0]), atol=1e-12)


def test_best_rank_k_residual_is_tail_energy():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((8, 5))
    sigma = matrix.svd_thin(a, 5).sigma
    resid = matrix.frobenius_norm(a - matrix.best_rank_k(a, 2)) ** 2
    tail = float(np.sum(sigma[2:] ** 2))
    assert resid == pytest.approx(tail, rel=1e-8)


def test_best_rank_k_beats_random_competitors():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((7, 6))
    k = 2
    best = matrix.frobenius_norm(a - matrix.best_rank_k(a, k))
    for _ in range(10):
        b = rng.standard_normal((7, k)) @ rng.standard_normal((k, 6))
        assert best <= matrix.frobenius_norm(a - b) + 1e-12


def test_pythagoras_split_of_energy():
    rng = np.random.default_rng(29)
    for trial in range(5):
        a = rng.standard_normal((6 + trial, 5))
        sigma = matrix.svd_thin(a, min(a.shape)).sigma
        total = matrix.frobenius_norm(a) ** 2
        for k in range(1, 5):
            resid = matrix.frobenius_norm(a - matrix.best_rank_k(a, k)) ** 2
            head = float(np.sum(sigma[:k] ** 2))
            assert resid + head == pytest.approx(total, rel=1e-6)


def test_pseudo_inverse_diagonal():
    pinv = matrix.pseudo_inverse(np.diag([2.0, 4.0]))
    assert np.allclose(pinv, np.diag([0.5, 0.25]), atol=1e-12)


def test_pseudo_inverse_zero_matrix():
    pinv = matrix.pseudo_inverse(np.zeros((3, 2)))
    assert pinv.shape == (2, 3)
    assert np.all(pinv == 0.0)


def test_pseudo_inverse_right_identity_on_full_row_rank():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 5))
    prod = a @ matrix.pseudo_inverse(a)
    assert np.max(np.abs(prod - np.eye(3))) <= 1e-8


def test_pseudo_inverse_moore_penrose_identities():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((5, 3))
    p = matrix.pseudo_inverse(a)
    scale = 1e-8 * max(1.0, matrix.frobenius_norm(a))
    assert np.max(np.abs(a @ p @ a - a)) <= scale
    assert np.max(np.abs(p @ a @ p - p)) <= scale
    assert np.max(np.abs((a @ p).T - a @ p)) <= scale
    assert np.max(np.abs((p @ a).T - p @ a)) <= scale


def test_pseudo_inverse_involution_on_full_rank():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((4, 6))
    back = matrix.pseudo_inverse(matrix.pseudo_inverse(a))
    assert matrix.frobenius_norm(back - a) <= 1e-6 * matrix.frobenius_norm(a)


def test_matmul_identity_exact():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((5, 4))
    assert np.array_equal(matrix.matmul(a, np.eye(4)), a)


def test_matmul_hand_case():
    out = matrix.matmul([[1.0, 2.0], [3.0, 4.0]], [[0.0], [1.0]])
    assert np.array_equal(out, [[2.0], [4.0]])


def test_matmul_matches_triple_loop_exactly():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 2))
    assert np.array_equal(matrix.matmul(a, b), matmul_triple_loop(a, b))


def test_matmul_matches_triple_loop_in_signed_zeros_and_cancellations():
    # -0.0 entries make -0.0 products (all of them in the last row times
    # the last column); exact cancellations make +0.0 sums
    a = np.array([[-0.0, 1.0, -1.0, 0.5], [2.0, -0.0, 0.0, -2.0], [-0.0, -0.0, -0.0, -0.0]])
    b = np.array([[1.0, -0.0, 3.0, 1.0], [0.25, -1.0, -0.0, 2.0], [0.25, -1.0, 0.0, 0.5],
                  [-0.0, 2.0, 1.5, 4.0]])
    got = matrix.matmul(a, b)
    expect = matmul_triple_loop(a, b)
    assert np.array_equal(got, expect) and np.array_equal(np.signbit(got), np.signbit(expect))
    assert (got == 0.0).sum() >= 4


def test_matmul_dimension_mismatch():
    with pytest.raises(ParameterError):
        matrix.matmul(np.eye(3), np.eye(4))


def test_spectral_never_exceeds_frobenius():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.standard_normal((5, 7))
        assert matrix.spectral_norm(a) <= matrix.frobenius_norm(a) + 1e-12
