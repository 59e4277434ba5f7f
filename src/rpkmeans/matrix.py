"""Dense matrix kernels: norms, thin SVD, rank-k truncation, pseudo-inverse."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# sigma_i <= SINGULAR_VALUE_CUTOFF * sigma_max counts as zero everywhere.
SINGULAR_VALUE_CUTOFF = 1e-12


def as_matrix(values) -> np.ndarray:
    """Validate and return a dense 2-D float64 array (finite, nonempty)."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ParameterError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ParameterError("matrix must have at least one row and one column")
    if not np.isfinite(a).all():
        raise ParameterError("matrix entries must be finite (no NaN or Inf)")
    return np.ascontiguousarray(a)


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries.

    Summed by einsum, not a BLAS dot: a threaded BLAS splits the sum by
    thread count, which would make the last bit depend on it.
    """
    a = as_matrix(a)
    return math.sqrt(float(np.einsum("ij,ij->", a, a)))


def spectral_norm(a) -> float:
    """Largest singular value, from a full SVD."""
    return float(np.linalg.svd(as_matrix(a), compute_uv=False)[0])


@dataclass
class SvdResult:
    u: np.ndarray       # n x k, orthonormal columns
    sigma: np.ndarray   # k, nonnegative, nonincreasing
    v: np.ndarray       # d x k, orthonormal columns


def svd_thin(a, k: int) -> SvdResult:
    """Top-k singular triplets of a."""
    a = as_matrix(a)
    n, d = a.shape
    if not 1 <= k <= min(n, d):
        raise ParameterError(f"k={k} outside [1, min(n, d)={min(n, d)}]")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(
        u=np.ascontiguousarray(u[:, :k]),
        sigma=s[:k].copy(),
        v=np.ascontiguousarray(vt[:k].T),
    )


def best_rank_k(a, k: int) -> np.ndarray:
    """Closest rank-k matrix to a in Frobenius norm."""
    r = svd_thin(a, k)
    return (r.u * r.sigma) @ r.v.T


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with a relative cutoff."""
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = SINGULAR_VALUE_CUTOFF * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed accumulation order.

    Accumulates over the inner index in ascending order, so the result is
    reproducible bit for bit and matches a scalar triple loop exactly.
    Each step adds one einsum outer product (twice as fast as a broadcast
    multiply on numpy 2.4); out starts at +0.0, as the triple loop's sums do.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ParameterError(
            f"inner dimensions differ: {a.shape[1]} vs {b.shape[0]}"
        )
    out = np.zeros((a.shape[0], b.shape[1]))
    tmp = np.empty_like(out)
    for i in range(a.shape[1]):
        np.einsum("i,j->ij", a[:, i], b[i], out=tmp)
        out += tmp
    return out
