"""Independent reference implementations used to freeze expected values.

Everything here is deliberately slow and simple: scalar loops, exhaustive
enumeration, and a hand-rolled Jacobi eigensolver, so the fast library
paths are checked against code that shares none of their machinery.
"""

import csv
import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from rpkmeans import rng


def jacobi_eigenvalues(sym, tol=1e-14, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Returns them sorted in non-increasing order.  Accuracy is limited only
    by the sweep budget; for the small Gram matrices used in tests the
    off-diagonal mass hits rounding level well before max_sweeps.
    """
    m = np.array(sym, dtype=np.float64, copy=True)
    n = m.shape[0]
    if n == 1:
        return m[0, :1].copy()
    scale = max(1.0, float(np.abs(m).max()))
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(m * m) - np.sum(np.diag(m) ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(m[p, q]) <= 1e-300:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * col_q
                m[:, q] = s * col_p + c * col_q
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * row_q
                m[q, :] = s * row_p + c * row_q
    return np.sort(np.diag(m))[::-1].copy()


def singular_values_via_gram(a):
    """Singular values of a from the Jacobi eigenvalues of the Gram matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T
    eigs = jacobi_eigenvalues(a.T @ a)
    return np.sqrt(np.clip(eigs, 0.0, None))


def matmul_triple_loop(a, b):
    """Scalar three-loop product, accumulating the inner index in order."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape
    p = b.shape[1]
    out = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            acc = 0.0
            for kk in range(m):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


def dense_pattern_matrix(p):
    """The full 2**p x p sign matrix: row code, bit b set means +1."""
    rows = 1 << p
    out = np.empty((rows, p))
    for code in range(rows):
        for b in range(p):
            out[code, b] = 1.0 if (code >> b) & 1 else -1.0
    return out


def sign_sum_columns(codes, p, x):
    """y_b = sum_j sign(code_j, b) * x_j, one scalar loop per column."""
    y = np.zeros(p)
    for b in range(p):
        acc = 0.0
        for code, value in zip(codes, x):
            acc += value if (int(code) >> b) & 1 else -value
        y[b] = acc
    return y


def densify_by_block(blocks, scale=None):
    """The dense d x t sign matrix of packed blocks, expanded one block at a
    time: (bit * 2 - 1), times scale when one is given."""
    d = blocks[0].d
    dense = np.empty((d, sum(b.p for b in blocks)))
    offset = 0
    for block in blocks:
        bits = (block.codes[:, None] >> np.arange(block.p)[None, :]) & 1
        cols = bits.astype(np.float64) * 2.0 - 1.0
        if scale is not None:
            cols *= scale
        dense[:, offset:offset + block.p] = cols
        offset += block.p
    return dense


def normalized_indicator(labels, k):
    """The n x k matrix X with X[i, j] = 1/sqrt(z_j) where point i is in
    cluster j, z_j its size; X @ X.T @ a averages rows within clusters."""
    labels = np.asarray(labels, dtype=np.int64)
    sizes = np.bincount(labels, minlength=k)
    x = np.zeros((labels.size, k))
    for i, label in enumerate(labels.tolist()):
        x[i, label] = 1.0 / math.sqrt(sizes[label])
    return x


def accuracy_by_permutation(pred_labels, truth):
    """Best fraction matched over every one-to-one cluster-to-class map.

    Exhaustive over permutations, so only sensible for a handful of
    clusters; this is the independent cross-check for the matching-based
    accuracy implementation.
    """
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    size = int(max(pred_labels.max(), truth.max())) + 1
    best = 0
    for perm in itertools.permutations(range(size)):
        mapped = np.array([perm[v] for v in pred_labels])
        best = max(best, int(np.sum(mapped == truth)))
    return best / pred_labels.size


def accuracy_by_assignment(pred_labels, truth):
    """Accuracy from scipy's linear_sum_assignment on the confusion matrix,
    padded square: the reference for cluster counts too large to enumerate."""
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    size = int(max(pred_labels.max(), truth.max())) + 1
    conf = np.zeros((size, size))
    np.add.at(conf, (pred_labels, truth), 1.0)
    rows, cols = linear_sum_assignment(conf, maximize=True)
    return float(conf[rows, cols].sum()) / pred_labels.size


def write_csv_by_csv_module(dataset, path):
    """A dataset written through csv.writer, one repr per float cell: the
    byte-for-byte reference for the CSV writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"x{j}" for j in range(dataset.d)]
        if dataset.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(v) for v in dataset.points[i].tolist()]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def objective_by_gather(a, labels, k):
    """The k-means objective with n x d temporaries: centroids from np.add.at
    sums, every point's centroid gathered, the differences squared and summed
    in one np.sum.  kmeans.objective must return exactly these bits."""
    a = np.asarray(a, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    sums = np.zeros((k, a.shape[1]))
    np.add.at(sums, labels, a)
    centroids = sums / np.maximum(np.bincount(labels, minlength=k), 1)[:, None]
    diff = a - centroids[labels]
    return float(np.sum(diff * diff))


def lloyd_by_add_at(a, k, spec, seed=0):
    """Lloyd's heuristic as it stood with np.add.at mean updates and the
    per-replicate squared norms: the bit-for-bit reference for kmeans.lloyd.

    Returns (labels, objective, trace, iterations, converged) of the best
    replicate.  Inputs are assumed valid and finite.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    best = None
    for rep in range(spec.replicates):
        if rep == 0:
            if hasattr(spec.init, "indices"):
                idx = np.asarray(spec.init.indices, dtype=np.int64)
            else:
                idx = np.arange(k, dtype=np.int64) * spec.init.stride
        else:
            idx = np.sort(rng.stream(seed, rng.LLOYD_RESTART, rep).choice(
                n, size=k, replace=False))
        res = _lloyd_once_by_add_at(a, k, a[idx].copy(), spec.max_iter, spec.tol)
        if best is None or res[1] < best[1]:
            best = res
    return best


def _lloyd_once_by_add_at(a, k, centroids, max_iter, tol):
    n = a.shape[0]
    a_sq = np.einsum("ij,ij->i", a, a)
    a_sq_total = float(a_sq.sum())
    labels_prev = None
    trace = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = a_sq[:, None] - 2.0 * (a @ centroids.T)
        d2 += np.einsum("ij,ij->i", centroids, centroids)[None, :]
        labels = np.argmin(d2, axis=1)
        sizes = np.bincount(labels, minlength=k)
        while (sizes == 0).any():
            empty = int(np.flatnonzero(sizes == 0)[0])
            own = d2[np.arange(n), labels].copy()
            own[sizes[labels] <= 1] = -np.inf
            moved = int(np.argmax(own))
            sizes[labels[moved]] -= 1
            labels[moved] = empty
            sizes[empty] = 1
        sums = np.zeros((k, a.shape[1]))
        np.add.at(sums, labels, a)
        centroids = sums / np.maximum(sizes, 1)[:, None]
        sums_sq = np.einsum("ij,ij->i", sums, sums)
        nonempty = sizes > 0
        cost = a_sq_total - np.sum(sums_sq[nonempty] / sizes[nonempty])
        trace.append(max(float(cost), 0.0))
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            converged = True
            break
        if len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if prev == 0.0 or (prev - cur) < tol * prev:
                converged = True
                break
        labels_prev = labels
    return labels, trace[-1], np.array(trace), iterations, converged


def scatter_about_mean(points):
    """Total squared distance of the rows from their mean."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    return float(np.sum(centered * centered))
