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


def scatter_about_mean(points):
    """Total squared distance of the rows from their mean."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    return float(np.sum(centered * centered))
