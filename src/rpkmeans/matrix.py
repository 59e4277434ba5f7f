"""Dense matrix kernels: norms, thin SVD, rank-k truncation, pseudo-inverse,
and the input checks every module shares (as_matrix, _integers, _size)."""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# sigma_i <= SINGULAR_VALUE_CUTOFF * sigma_max counts as zero everywhere.
SINGULAR_VALUE_CUTOFF = 1e-12
# Bytes of the bool buffer as_matrix tests finiteness through: a block of
# whole rows at a time (one row when a row is wider).
FINITE_BLOCK_BYTES = 1 << 16


def as_matrix(values) -> np.ndarray:
    """Validate and return a dense 2-D float64 array (finite, nonempty).

    A C-contiguous float64 array comes back as itself, not a copy.  The
    finiteness test runs over blocks of whole rows through one bool buffer
    of about FINITE_BLOCK_BYTES, so it allocates nothing the input's size;
    blocking by rows of the 2-D array keeps a strided view (a column slice)
    uncopied until the final ascontiguousarray.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ParameterError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ParameterError("matrix must have at least one row and one column")
    n, d = a.shape
    step = max(1, FINITE_BLOCK_BYTES // d)
    finite = np.empty((min(n, step), d), dtype=bool)
    for r0 in range(0, n, step):
        block = a[r0:r0 + step]
        ok = finite[:block.shape[0]]
        np.isfinite(block, out=ok)
        if not ok.all():
            raise ParameterError("matrix entries must be finite (no NaN or Inf)")
    return np.ascontiguousarray(a)


def _integers(values, what: str) -> np.ndarray:
    """values as int64, refusing (never truncating or wrapping) entries that
    are not integers or lie outside the int64 range."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        # numpy holds Python ints past int64 as float64 or object entries
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in np.asarray(values, dtype=object).flat):
            raise ParameterError(f"{what} must be integers")
        raise ParameterError(f"{what} must lie in the int64 range")
    if array.dtype == np.uint64 and array.size and array.max() > np.iinfo(np.int64).max:
        raise ParameterError(f"{what} must lie in the int64 range")
    return array.astype(np.int64, copy=False)


def _size(value, name: str) -> int:
    """value as a plain int of at least 1, the rule for every count; numpy
    integers pass, bools and non-integers do not."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            size = operator.index(value)
            if size < 1:
                raise ParameterError(f"{name} must be positive, not {size}")
            return size
    except TypeError:
        pass
    raise ParameterError(f"{name} must be an integer, not {value!r}")


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


@dataclass(eq=False)
class SvdResult:
    u: np.ndarray       # n x k, orthonormal columns
    sigma: np.ndarray   # k, nonnegative, nonincreasing
    v: np.ndarray       # d x k, orthonormal columns


def svd_thin(a, k: int) -> SvdResult:
    """Top-k singular triplets of a."""
    a = as_matrix(a)
    k = _size(k, "k")
    if k > min(a.shape):
        raise ParameterError(f"k={k} outside [1, min(n, d)={min(a.shape)}]")
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
    reproducible bit for bit and matches a scalar triple loop exactly; out
    starts at +0.0, as the triple loop's sums do.  Two routes take the steps:

    - a scaled sign matrix b, every |b_ic| one c > 0 (as densify(sign,
      scaled=True) gives): one BLAS dger rank-1 update per inner index i,
      adding sign(b[i]) times numpy's a[:, i] * c.  Rounding to nearest is
      symmetric in sign, so -(a_ri * c) is the triple loop's a_ri * (-c),
      and a product with +-1 is exact: each update adds the triple loop's
      own product once to each element, with one rounding, whether the
      BLAS fuses the multiply and add or not and however it splits the
      work across threads.
    - any other b: one einsum outer product per step, then an add (twice as
      fast as a broadcast multiply on numpy 2.4).  A general b must not go
      through dger: with fused multiply-adds its products are not rounded
      as the triple loop's are.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ParameterError(
            f"inner dimensions differ: {a.shape[1]} vs {b.shape[0]}"
        )
    # |b|, then (on the sign route) sign(b) in the same buffer
    signs = np.abs(b)
    c = float(signs[0, 0])
    if c > 0.0 and (signs == c).all():
        # imported here so that importing the package does not load scipy
        from scipy.linalg.blas import dger

        np.sign(b, out=signs)
        # Fortran order, so that dger updates it in place
        acc = np.zeros((b.shape[1], a.shape[0]), order="F")
        for i in range(a.shape[1]):
            acc = dger(1.0, signs[i], a[:, i] * c, a=acc, overwrite_a=1)
        return acc.T
    out = np.zeros((a.shape[0], b.shape[1]))
    tmp = np.empty_like(out)
    for i in range(a.shape[1]):
        np.einsum("i,j->ij", a[:, i], b[i], out=tmp)
        out += tmp
    return out
