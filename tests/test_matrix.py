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
    # finiteness is tested a block of rows at a time: a bad entry in the
    # first row, in the last (partial) block, in a column-sliced view and
    # in rows wider than one block is refused with the same message
    n, d = 200, 1000
    step = matrix.FINITE_BLOCK_BYTES // d
    assert 1 < step < n and n % step
    cases = [((n, d), (0, 0), np.s_[:, :]), ((n, d), (n - 1, d - 1), np.s_[:, :]),
             ((n, d + 1), (150, 3), np.s_[:, :-1]), ((n, 2 * d), (n - 1, 1), np.s_[:, ::2]),
             ((3, 2 * matrix.FINITE_BLOCK_BYTES), (2, 5), np.s_[:, :])]
    for shape, at, view in cases:
        for bad in (np.nan, np.inf, -np.inf):
            a = np.zeros(shape)[view]
            a[at] = bad
            with pytest.raises(ParameterError, match=r"^matrix entries must be finite \(no NaN or Inf\)$"):
                matrix.as_matrix(a)
            a[at] = 1.0
            got = matrix.as_matrix(a)
            assert got.flags.c_contiguous and np.array_equal(got, a)


def test_as_matrix_returns_a_c_contiguous_float64_input_itself():
    a = np.random.default_rng(3).standard_normal((300, 500))
    assert matrix.as_matrix(a) is a
    assert np.shares_memory(matrix.as_matrix(a[100:]), a)
    # a strided view comes back as a contiguous copy
    assert not np.shares_memory(matrix.as_matrix(a[:, ::2]), a)


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


def _count_dger_calls(monkeypatch):
    """Count the rank-1 updates matmul's sign route makes."""
    from scipy.linalg import blas

    calls = []
    real = blas.dger

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(blas, "dger", counted)
    return calls


def test_matmul_matches_triple_loop_in_signed_zeros_and_cancellations(monkeypatch):
    # -0.0 entries make -0.0 products (all of them in the last row); exact
    # cancellations make +0.0 sums
    calls = _count_dger_calls(monkeypatch)
    a = np.array([[-0.0, 1.0, -1.0, 0.5], [2.0, -0.0, 0.0, -2.0], [-0.0, -0.0, -0.0, -0.0]])
    general = np.array([[1.0, -0.0, 3.0, 1.0], [0.25, -1.0, -0.0, 2.0], [0.25, -1.0, 0.0, 0.5],
                        [-0.0, 2.0, 1.5, 4.0]])
    # a scaled sign matrix whose rows 0 and 3 agree in columns 0 and 1, so
    # row 1 of a cancels there; it takes one rank-1 update per inner index
    sign = np.array([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, 1.0],
                     [1.0, -1.0, -1.0, -1.0]]) / math.sqrt(3.0)
    for b, route_calls in ((general, 0), (sign, 4)):
        calls.clear()
        got = matrix.matmul(a, b)
        expect = matmul_triple_loop(a, b)
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))
        assert (got == 0.0).sum() >= 4
        assert len(calls) == route_calls


def _sign_route_case(n, d, t, c, seed):
    """a with -0.0 entries, products that underflow to subnormals and (for
    d >= 2) a row that cancels exactly, against a d x t matrix of +-c."""
    rng = np.random.default_rng(seed)
    b = np.where(rng.random((d, t)) < 0.5, -c, c)
    a = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    a[rng.random((n, d)) < 0.2] = -0.0
    tiny = rng.random((n, d)) < 0.2
    a[tiny] = rng.standard_normal(tiny.sum()) * 1e-310
    # a row whose every product is subnormal or zero
    a[-1] = np.copysign(rng.random(d) * 1e-310, a[-1])
    if d >= 2:
        # row 0 sums x c and -x c, then adds only -0.0 products
        b[1] = -b[0]
        a[0] = -0.0
        a[0, :2] = 1.5
    return a, b


@pytest.mark.parametrize("c", [1.0 / math.sqrt(3.0), 1.0], ids=["c=1/sqrt3", "c=1"])
@pytest.mark.parametrize("n, d, t", [
    (6, 9, 7), (1, 9, 7), (6, 1, 7), (6, 9, 1), (1, 1, 1),
    (40, 8, 300),  # t x n past 9216 elements, where a threaded BLAS splits dger
])
def test_matmul_sign_route_matches_triple_loop(monkeypatch, c, n, d, t):
    calls = _count_dger_calls(monkeypatch)
    a, b = _sign_route_case(n, d, t, c, seed=n * 10_000 + d * 100 + t)
    got = matrix.matmul(a, b)
    expect = matmul_triple_loop(a, b)
    assert got.flags.c_contiguous and got.shape == (n, t)
    assert np.array_equal(got, expect) and np.array_equal(np.signbit(got), np.signbit(expect))
    assert len(calls) == d
    if d >= 2:
        assert np.all(got[0] == 0.0)
    tiny = np.abs(got[-1][got[-1] != 0.0])
    assert tiny.size == 0 or tiny.max() < np.finfo(np.float64).tiny


@pytest.mark.parametrize("entry", [2.0, 0.0, -0.0], ids=["2c", "zero", "minus-zero"])
@pytest.mark.parametrize("at", [(0, 0), (4, 6)], ids=["first", "last"])
def test_matmul_near_sign_matrix_takes_the_loop(monkeypatch, entry, at):
    # one entry off +-c sends b down the einsum loop, which still matches
    calls = _count_dger_calls(monkeypatch)
    c = 1.0 / math.sqrt(3.0)
    a, b = _sign_route_case(6, 5, 7, c, seed=3)
    b[at] = entry * c
    got = matrix.matmul(a, b)
    expect = matmul_triple_loop(a, b)
    assert np.array_equal(got, expect) and np.array_equal(np.signbit(got), np.signbit(expect))
    assert calls == []


def test_matmul_dimension_mismatch():
    with pytest.raises(ParameterError):
        matrix.matmul(np.eye(3), np.eye(4))


def test_spectral_never_exceeds_frobenius():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.standard_normal((5, 7))
        assert matrix.spectral_norm(a) <= matrix.frobenius_norm(a) + 1e-12
