import gc
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpkmeans import evaluation, kmeans, mailman, matrix
from rpkmeans.dataio import MixtureSpec, generate_mixture
from rpkmeans.errors import ParameterError
from rpkmeans.rng import LLOYD_RESTART, stream
from rpkmeans.projection import ProjectionConfig, svd_embed, target_dimension

from _oracles import (growth_strings, lloyd_by_add_at, normalized_indicator, objective_by_gather,
                      scatter_about_mean)


def random_assignment(rng, n, k):
    """Labels hitting every cluster in [0, k) at least once."""
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    return kmeans.Assignment.from_labels(labels, k)


def test_assignment_validates_labels_and_sizes():
    # the sizes are the labels' bincount, never given
    asg = kmeans.Assignment.from_labels([0, 1, 0, 2], 3)
    assert np.array_equal(asg.cluster_sizes, [2, 1, 1])
    assert np.array_equal(kmeans.Assignment([1, 1], 3).cluster_sizes, [0, 2, 0])
    with pytest.raises(ParameterError):
        kmeans.Assignment.from_labels([0, 3], 3)
    # labels are integers or refused, never truncated
    for labels in ([0.5, 1.7, 0.2], [0, np.nan, 1], [True, False, True]):
        with pytest.raises(ParameterError, match="labels must be integers"):
            kmeans.Assignment(labels, 2)
    with pytest.raises(TypeError):
        kmeans.Assignment(labels=np.array([0, 1]), k=2, cluster_sizes=np.array([2, 0]))


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
    if k > n:
        # n distinct labels of k: every other cluster is empty
        labels = g.choice(k, size=n, replace=False)
    else:
        labels = np.concatenate((np.arange(k), g.integers(0, k, size=n - k)))
    return a, kmeans.Assignment(labels, k)


LEAF = kmeans.OBJECTIVE_LEAF


@pytest.mark.parametrize("n, d, k", [
    (100, 7, 3),                # n * d below one chunk
    (LEAF // 64, 64, 5),        # exactly one chunk
    (LEAF + 1, 1, 6),           # one chunk + 1 row, d = 1
    (1, LEAF + 1, 1),           # n = 1, k = 1, a row longer than a chunk
    (3, 2 * LEAF + 5, 2),       # rows past twice the chunk bound
    (1061, 64, 9),              # a short last chunk
    (777, 333, 5),              # a short last chunk, odd d
    (10923, 3, 4),              # one chunk of many short rows
    (65541, 1, 6),              # d = 1
    (1, 40, 1),                 # n = 1
    (500, 30, 1),               # k = 1
    (7, 5000, 7),               # one row per cluster
    (30, 17, 50),               # k past the labels used: empty clusters
])
def test_objective_bits_equal_the_gathered_form(n, d, k):
    a, asg = _labelled(n, d, k, seed=n + d + k)
    assert kmeans.objective(a, asg) == objective_by_gather(a, asg.labels, k)


def test_objective_allocates_at_most_one_and_a_half_inputs():
    n, d, k = 4000, 64, 10
    a, asg = _labelled(n, d, k, seed=5)
    tracemalloc.start()
    try:
        kmeans.objective(a, asg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chunk buffer, the k x d sums (divided in place into the
    # centroids), and per row the one-hot's index, pointer and data and the
    # row's cost
    bound = 8 * (LEAF + k * d) + 40 * n + 4096
    assert bound < 0.5 * a.nbytes
    assert peak <= bound


def test_objective_and_lloyd_leave_no_reference_cycles():
    # a cycle would keep the chunk buffer or the one-hot alive until the
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


def test_cluster_sums_refuses_labels_that_are_not_integers():
    # [0.5, 1.7, 0.2] once summed rows 0 and 2 into cluster 0, and
    # [True, False, True] read as [1, 0, 1]
    a = np.arange(6.0).reshape(3, 2)
    for labels in ([0.5, 1.7, 0.2], [0.0, 1.0, 0.0], [True, False, True], [0, np.nan, 1]):
        with pytest.raises(ParameterError, match="^labels must be integers$"):
            kmeans.cluster_sums(a, labels, 2)
    assert np.array_equal(kmeans.cluster_sums(a, np.array([1, 0, 1], dtype=np.uint8), 2),
                          [[2.0, 3.0], [4.0, 6.0]])


LLOYD_KINDS = ["mixture", "decades", "integers", "all_equal", "n_equals_k", "repair",
               "near_tie", "repair_tie", "offset", "tiny_column", "far_column"]
# Tie-heavy inputs, for examples only: integer grids and equal rows with k
# past the number of distinct rows, so lloyd repairs empty clusters in most
# iterations.  Each ignores n, d and seed.
TIE_HEAVY = {
    "grid_20": lambda: np.random.default_rng(0).integers(0, 20, (600, 2)),
    "all_ones": lambda: np.ones((500, 4)),
    "grid_5": lambda: np.random.default_rng(1).integers(0, 5, (1000, 3)),
}


def _lloyd_start(kind, n, k):
    """The start rows: 0..k-1 where the kind places its start rows first,
    else every (n // k)-th row."""
    stride = 1 if kind in ("repair", "near_tie", "repair_tie", *TIE_HEAVY) else n // k
    return tuple(range(0, k * stride, stride))


def _lloyd_input(kind, n, d, k, seed):
    """Rows of one kind, and k (n for "n_equals_k")."""
    if kind in TIE_HEAVY:
        return TIE_HEAVY[kind]().astype(np.float64), k
    rng = np.random.default_rng(seed)
    if kind in ("mixture", "offset", "far_column"):
        centers = rng.standard_normal((k, d)) * 10.0
        a = centers[rng.integers(0, k, size=n)] + rng.standard_normal((n, d))
        if kind == "offset":  # far from the origin, against a spread of ~10
            a += 1e6
        elif kind == "far_column":
            # one column at 2^76 on every row: lloyd's screen scales the
            # centred rows by a bound that includes it, so the screen's
            # products fall below float32's normal range
            a[:, 0] = 2.0 ** 76
    elif kind == "decades":
        a = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))
    elif kind == "integers":
        # few distinct values: exact distance ties, and duplicate rows
        a = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        a[rng.integers(0, n, size=n // 2)] = a[rng.integers(0, n, size=n // 2)]
    elif kind == "tiny_column":
        # few distinct values in every column but the first, whose values
        # fall below float32's normal range once lloyd's screen rescales the
        # rows (for d > 1); it alone separates rows equal in the others
        a = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        a[:, 0] = rng.standard_normal(n) * 1e-40
    elif kind == "all_equal":
        a = np.full((n, d), rng.uniform(-100.0, 100.0))
    elif kind == "n_equals_k":
        a = rng.standard_normal((n, d))
        k = n
    elif kind == "near_tie":
        # rows 0 and 1 hold a vector and its coordinates reversed, rows
        # 2..k-1 lie far away, and the other rows are their own reversal:
        # each is exactly as far from row 0 as from row 1 in real
        # arithmetic, but the two distances sum their terms in different
        # orders, so a BLAS product may round them differently
        v = rng.standard_normal((n, d))
        a = v + v[:, ::-1]
        a[0] = rng.standard_normal(d) * 3.0
        a[1:2] = a[0, ::-1]
        a[2:k] += 1000.0
    elif kind == "repair":  # k equal start rows put every point in cluster 0
        a = rng.standard_normal((n, d))
        a[:k] = a[0]
    else:  # "repair_tie": as "repair", from a row that is its own reversal
        # every other row is paired with its reversal, exactly as far from
        # the start rows in real arithmetic: the repair's farthest point is
        # a near-tie
        a = rng.standard_normal((n, d))
        a[1::2] = a[0:n - 1:2, ::-1]
        a[:k] = a[0] + a[0, ::-1]
    return a, k


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(LLOYD_KINDS),
       n=st.integers(1, 60), d=st.integers(1, 12), k=st.integers(1, 8),
       replicates=st.sampled_from([1, 4]), max_iter=st.sampled_from([1, 100]),
       seed=st.integers(0, 2**31 - 1))
@example(kind="mixture", n=1000, d=256, k=20, replicates=4, max_iter=15,
         seed=7)  # the hd-lloyd shape
@example(kind="mixture", n=1000, d=256, k=20, replicates=5, max_iter=15,
         seed=12)  # the hd-lloyd shape and replicate count
@example(kind="repair", n=12, d=3, k=5, replicates=1, max_iter=100, seed=8)
@example(kind="all_equal", n=9, d=2, k=9, replicates=4, max_iter=100, seed=9)
@example(kind="near_tie", n=13, d=12, k=2, replicates=1, max_iter=100, seed=1)
@example(kind="repair_tie", n=13, d=12, k=2, replicates=1, max_iter=100, seed=0)
@example(kind="integers", n=600, d=2, k=257, replicates=2, max_iter=20,
         seed=16)  # k past 256: the settled-row indices need 16 bits
@example(kind="grid_20", n=600, d=2, k=257, replicates=2, max_iter=100, seed=1)
@example(kind="all_ones", n=500, d=4, k=20, replicates=1, max_iter=100, seed=1)
@example(kind="grid_5", n=1000, d=3, k=40, replicates=1, max_iter=100, seed=1)
@example(kind="offset", n=300, d=32, k=8, replicates=2, max_iter=100, seed=17)
@example(kind="tiny_column", n=300, d=6, k=8, replicates=2, max_iter=100, seed=18)
@example(kind="far_column", n=200, d=6, k=6, replicates=2, max_iter=100, seed=1)
def test_lloyd_bit_identical_to_add_at_oracle(kind, n, d, k, replicates,
                                              max_iter, seed):
    k = min(k, n)
    a, k = _lloyd_input(kind, n, d, k, seed)
    spec = kmeans.SolverSpec(max_iter=max_iter, replicates=replicates,
                             init=_lloyd_start(kind, n, k))
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


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(LLOYD_KINDS), n=st.integers(2, 60), d=st.integers(1, 12),
       k=st.integers(1, 8), replicates=st.sampled_from([2, 5]),
       max_iter=st.sampled_from([1, 100]), seed=st.integers(0, 2**31 - 1))
@example(kind="mixture", n=1000, d=256, k=20, replicates=5, max_iter=15,
         seed=13)  # the hd-lloyd shape
@example(kind="near_tie", n=30, d=9, k=3, replicates=2, max_iter=100, seed=14)
@example(kind="decades", n=60, d=4, k=5, replicates=5, max_iter=100,
         seed=1)  # centroid norms that differ by decades between replicates
@example(kind="near_tie", n=50, d=12, k=5, replicates=5, max_iter=100, seed=15)
def test_lloyd_replicate_does_not_depend_on_its_neighbours(kind, n, d, k, replicates,
                                                           max_iter, seed):
    # the replicates run in lockstep on one stacked product, whose bits
    # change with the number of live replicates; each must still end as it
    # would alone, started from the same rows
    k = min(k, n)
    a, k = _lloyd_input(kind, n, d, k, seed)
    spec = kmeans.SolverSpec(max_iter=max_iter, replicates=replicates,
                             init=_lloyd_start(kind, n, k))
    res = kmeans.lloyd(a, k, spec, seed=seed)
    starts = [spec.init] + [
        tuple(np.sort(stream(seed, LLOYD_RESTART, rep).choice(
            a.shape[0], size=k, replace=False)).tolist())
        for rep in range(1, replicates)]
    alone = [kmeans.lloyd(a, k, kmeans.SolverSpec(max_iter=max_iter, init=rows))
             for rows in starts]
    objectives = [run.objective for run in alone]
    winner = objectives.index(min(objectives))
    assert res.replicate == winner
    best = alone[winner]
    assert np.array_equal(res.assignment.labels, best.assignment.labels)
    assert res.objective == best.objective
    assert np.array_equal(res.objective_trace, best.objective_trace)
    assert (res.iterations, res.converged, res.settled) == (
        best.iterations, best.converged, best.settled)
    if kind == "near_tie" and a.shape[0] > k > 1 and d > 1:
        # replicate 0 starts from a vector and its reversal, and every
        # other row is as far from both: the screen must send rows to the
        # fixed form
        assert alone[0].settled > 0


@pytest.mark.parametrize("m, k, d", [(1, 1, 1), (3, 5, 7), (2, 4, 8), (5, 3, 9),
                                     (4, 2, 127), (3, 3, 128), (2, 2, 129),
                                     (2, 3, 300), (5, 3, 8193), (20, 3, 8193),
                                     (40, 1, 3)])
def test_fixed_form_sums_each_pair_as_np_sum(m, k, d):
    # the fixed form is numpy's own sum of each (row, centroid) pair's
    # squared differences, whatever the chunk of pairs around it (at
    # d = 8193 a chunk holds seven pairs, so 20 own rows go 7 + 7 + 6)
    g = np.random.default_rng(m * k * d)
    a = g.standard_normal((m + 2, d)) * 10.0 ** g.uniform(-6, 6, size=(m + 2, 1))
    # two replicates' centroids, stacked as lloyd stacks them
    c = g.standard_normal((2 * k, d))
    rows = np.arange(1, m + 1)
    expect = np.array([[np.sum((a[i] - c[j]) * (a[i] - c[j])) for j in range(2 * k)]
                       for i in rows])
    # every row against every centroid of both replicates
    pair_row, pair_col = np.divmod(np.arange(m * 2 * k), 2 * k)
    assert np.array_equal(kmeans._fixed_d2(a, rows[pair_row], c, pair_col),
                          expect[pair_row, pair_col])
    # the repair and objective price each row against its own centroid
    # alone, read in place (rows=None), in the same bits as gathered rows
    own = np.arange(m) % k
    assert np.array_equal(kmeans._fixed_d2(a, rows, c, own), expect[np.arange(m), own])
    assert np.array_equal(kmeans._fixed_d2(a[rows], None, c, own), expect[np.arange(m), own])


def test_lloyd_repair_prices_each_row_once(monkeypatch):
    # on an integer grid with k past its distinct rows, lloyd repairs empty
    # clusters in most iterations, at most once per replicate; each repair
    # prices the rows in one call, however many clusters it fills
    counts = {"repairs": 0, "priced": 0}
    fixed_d2, repair = kmeans._fixed_d2, kmeans._repair

    def counted_fixed_d2(*args):
        counts["priced"] += sys._getframe(1).f_code is repair.__code__
        return fixed_d2(*args)

    def counted_repair(*args):
        counts["repairs"] += 1
        return repair(*args)

    monkeypatch.setattr(kmeans, "_fixed_d2", counted_fixed_d2)
    monkeypatch.setattr(kmeans, "_repair", counted_repair)
    kmeans.lloyd(TIE_HEAVY["grid_20"]().astype(np.float64), 257,
                 kmeans.SolverSpec(replicates=2), seed=1)
    assert counts["repairs"] > 2
    assert counts["priced"] == counts["repairs"]


class _PerturbedProduct(np.ndarray):
    """An array whose matrix products come back perturbed, as lloyd's
    screen product of its stacked float32 centroids, times -2, and its
    float32 rows: entry (r, i) of x @ y moves by
    +-scale * gamma_{m+12} * (||y_i|| + max ||x_j|| / 2)^2, with u = 2^-24,
    for inner dimension m, column i of y and the rows j of x in r's block of
    k, with signs from a seeded draw.  Every other ufunc runs on the plain
    arrays."""

    scale = 0.0
    k = 1
    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if ufunc is np.matmul and method == "__call__":
            x, y = inputs
            u = 2.0 ** -24
            gamma = (x.shape[1] + 12) * u / (1 - (x.shape[1] + 12) * u)
            block_max = np.linalg.norm(x, axis=1).reshape(-1, self.k).max(axis=1) / 2
            reach = np.add.outer(block_max.repeat(self.k), np.linalg.norm(y, axis=0))
            signs = np.random.default_rng(result.size).choice([-1.0, 1.0], size=result.shape)
            result += signs * (self.scale * gamma) * reach * reach
            type(self).products += 1
        return result


def _lloyd_perturbed(monkeypatch, scale, a, k, spec, seed):
    """lloyd with every screen product perturbed by _PerturbedProduct: the
    screen's entry q = ||y_j||^2 - 2 y_j.x_i moves by
    +-scale * gamma_{d+12} * (||x_i|| + max ||y_j||)^2, the max over its
    replicate's centroids, in the centred and rescaled float32 rows and
    centroids.  The label rule's margin is gamma_{d+12} times the same
    square."""
    screen_form = kmeans._screen_form

    def perturbed_screen_form(*args):
        out, sq = screen_form(*args)
        return out.view(_PerturbedProduct), sq

    with monkeypatch.context() as patch:
        patch.setattr(_PerturbedProduct, "scale", scale)
        patch.setattr(_PerturbedProduct, "k", k)
        patch.setattr(_PerturbedProduct, "products", 0)
        patch.setattr(kmeans, "_screen_form", perturbed_screen_form)
        res = kmeans.lloyd(a, k, spec, seed=seed)
        # one product per iteration, each one perturbed
        assert _PerturbedProduct.products >= res.iterations
    return res


LLOYD_NEAR_TIES = [(13, 12, 2, 1, 1), (30, 9, 3, 2, 14), (50, 12, 5, 5, 15)]


@pytest.mark.parametrize("kind, n, d, k, replicates, seed", [
    *(("near_tie", *case) for case in LLOYD_NEAR_TIES),
    ("mixture", 1000, 256, 20, 5, 12),  # the hd-lloyd shape
])
def test_lloyd_labels_survive_a_product_perturbed_within_the_margin(
        monkeypatch, kind, n, d, k, replicates, seed):
    # a quarter of gamma_{d+12} (||x_i|| + max ||y_j||)^2 per screen entry,
    # a quarter of the label rule's margin: the labels, and with them the
    # trace, must not move
    a, k = _lloyd_input(kind, n, d, k, seed)
    spec = kmeans.SolverSpec(max_iter=15 if kind == "mixture" else 100, replicates=replicates,
                             init=_lloyd_start(kind, n, k))
    plain = kmeans.lloyd(a, k, spec, seed=seed)
    moved = _lloyd_perturbed(monkeypatch, 0.25, a, k, spec, seed)
    assert np.array_equal(moved.assignment.labels, plain.assignment.labels)
    assert np.array_equal(moved.objective_trace, plain.objective_trace)
    assert (moved.objective, moved.iterations, moved.converged) == (
        plain.objective, plain.iterations, plain.converged)


@pytest.mark.parametrize("n, d, k, seed", [(n, d, k, seed) for n, d, k, _, seed in LLOYD_NEAR_TIES])
def test_lloyd_perturbed_product_beyond_the_margin_is_seen(monkeypatch, n, d, k, seed):
    # the negative control: 400 times the margin moves a label, or changes
    # which rows the fixed form settles, in the replicate that starts from
    # the near-tie rows
    a, k = _lloyd_input("near_tie", n, d, k, seed)
    spec = kmeans.SolverSpec()
    plain = kmeans.lloyd(a, k, spec, seed=seed)
    moved = _lloyd_perturbed(monkeypatch, 400.0, a, k, spec, seed)
    assert (not np.array_equal(moved.assignment.labels, plain.assignment.labels)
            or moved.settled != plain.settled)


@pytest.mark.parametrize("e", [-200, 200])
def test_lloyd_is_exact_under_a_power_of_two_scale(e):
    # on the hd-lloyd workload's rows, 2^e times the input scales every
    # sum, square and mean exactly, and the screen's rescaling undoes it:
    # the run is the same, with its trace scaled by 2^2e
    a = generate_mixture(MixtureSpec(n=1000, d=256, k=20, center_scale=0.4,
                                     noise_sigma=1.5, seed=3)).points
    spec = kmeans.SolverSpec(max_iter=15, replicates=5)
    plain = kmeans.lloyd(a, 20, spec, seed=3)
    scaled = kmeans.lloyd(a * 2.0 ** e, 20, spec, seed=3)
    assert np.array_equal(scaled.assignment.labels, plain.assignment.labels)
    assert (scaled.replicate, scaled.iterations, scaled.converged) == (
        plain.replicate, plain.iterations, plain.converged)
    assert np.array_equal(scaled.objective_trace, plain.objective_trace * 2.0 ** (2 * e))
    assert scaled.objective == plain.objective * 2.0 ** (2 * e)


def _huge_cluster_sums():
    a = np.full((14, 1), 3e153)
    a[::2] *= 1.01
    return a


@pytest.mark.parametrize("a", [
    np.random.default_rng(167).standard_normal((14, 3)) * 1e200,  # row norms overflow
    _huge_cluster_sums(),  # row norms finite, squared cluster sums overflow
])
def test_lloyd_refuses_input_whose_squared_norms_overflow(a):
    # finite input used to come back with a NaN (or zero) objective trace
    # from Lloyd, and with no partition at all from the exhaustive solver;
    # 14 rows, so that the exhaustive solver's row limit is not what refuses
    for solver in (kmeans.lloyd, kmeans.brute_force_optimal):
        with pytest.raises(ParameterError, match="overflow"):
            solver(a, 2)


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
    spec = kmeans.SolverSpec(init=(0, 10))
    res = kmeans.lloyd(a, 2, spec)
    assert res.converged
    expect = scatter_about_mean(left) + scatter_about_mean(right)
    assert res.objective == pytest.approx(expect, rel=1e-10)


def test_lloyd_never_beats_exhaustive():
    rng = np.random.default_rng(151)
    for trial in range(5):
        a = rng.standard_normal((8, 3))
        exact = kmeans.brute_force_optimal(a, 2).objective
        res = kmeans.lloyd(a, 2, kmeans.SolverSpec(init=(0, 3)))
        assert res.objective >= exact - 1e-9 * max(exact, 1.0)


def test_lloyd_trace_non_increasing():
    rng = np.random.default_rng(157)
    for trial in range(10):
        a = rng.standard_normal((30, 4))
        res = kmeans.lloyd(a, 4, kmeans.SolverSpec(init=(0, 7, 14, 21)))
        trace = res.objective_trace
        assert res.objective == trace[-1]
        assert np.all(np.diff(trace) <= 1e-12 * max(trace[0], 1.0))


def test_lloyd_repairs_emptied_clusters():
    # all mass near the origin plus one outlier: the middle start centroid
    # captures nothing after the first update and must be repopulated
    a = np.vstack([np.zeros((5, 2)), np.full((1, 2), 100.0),
                   np.full((4, 2), 0.01)])
    # rows 0 and 1 coincide, so the second start centroid captures nothing
    res = kmeans.lloyd(a, 3, kmeans.SolverSpec(init=(0, 1, 5)))
    assert np.all(res.assignment.cluster_sizes > 0)
    assert np.all(np.diff(res.objective_trace) <= 1e-12)


def test_lloyd_replicates_only_improve():
    rng = np.random.default_rng(163)
    a = rng.standard_normal((40, 3))
    one = kmeans.lloyd(a, 5, kmeans.SolverSpec())
    many = kmeans.lloyd(a, 5, kmeans.SolverSpec(replicates=4), seed=3)
    assert many.objective <= one.objective + 1e-12


def test_lloyd_rejects_k_above_n():
    with pytest.raises(ParameterError):
        kmeans.lloyd(np.zeros((3, 2)), 4)


@pytest.mark.parametrize("init", [
    (0.9, 5.5),  # once truncated to rows 0 and 5
    ((0, 1),),  # once passed the count check at k = 2, then failed in an einsum
    (True, False),
    ("0", "1"),
    3,
])
def test_lloyd_start_refuses_what_is_not_row_indices(init):
    with pytest.raises(ParameterError, match="init"):
        kmeans.SolverSpec(init=init)


@pytest.mark.parametrize("init", [
    (0, 10**400),  # numpy holds it as an object entry
    (0, 2**63),  # numpy holds it as a float64 entry
    (0, -2**63 - 1),
    np.array([0, 2**64 - 1], dtype=np.uint64),  # once wrapped to row -1
])
def test_lloyd_start_names_rows_outside_int64(init):
    # such rows were once called "not integers"
    with pytest.raises(ParameterError, match="init row indices must lie in the int64 range"):
        kmeans.SolverSpec(init=init)


@pytest.mark.parametrize("init", [(0,), (0, 1, 2), (), (0, 6), (-1, 0)])
def test_lloyd_start_refuses_a_wrong_count_or_a_row_out_of_range(init):
    a = np.random.default_rng(5).standard_normal((6, 2))
    with pytest.raises(ParameterError, match="init"):
        kmeans.lloyd(a, 2, kmeans.SolverSpec(init=init))


def test_lloyd_start_is_a_tuple_of_rows_defaulting_to_the_first_k():
    a = np.random.default_rng(6).standard_normal((30, 3))
    for rows in (np.arange(0, 12, 4), range(0, 12, 4), [0, 4, 8]):
        assert kmeans.SolverSpec(init=rows).init == (0, 4, 8)
    first = kmeans.lloyd(a, 3, kmeans.SolverSpec(init=(0, 1, 2)))
    default = kmeans.lloyd(a, 3)
    assert np.array_equal(first.assignment.labels, default.assignment.labels)
    assert np.array_equal(first.objective_trace, default.objective_trace)


def test_solver_spec_validation():
    with pytest.raises(ParameterError):
        kmeans.SolverSpec(kind="annealing")
    with pytest.raises(ParameterError):
        kmeans.SolverSpec(replicates=0)
    for tol in (float("nan"), 1.0, 2.0, float("inf")):
        with pytest.raises(ParameterError):
            kmeans.SolverSpec(tol=tol)


_GRID = np.arange(12.0).reshape(6, 2) ** 2
_SQUARES = np.arange(24.0).reshape(6, 4) ** 2  # rank 3
# each call takes one count, 2 when valid, and returns what it computed
_COUNT_CALLS = {
    "Assignment.k": lambda c: kmeans.Assignment([0, 1, 1], c).cluster_sizes.tolist(),
    "SolverSpec.max_iter": lambda c: kmeans.lloyd(
        _GRID, 3, kmeans.SolverSpec(max_iter=c)).objective_trace.tolist(),
    "SolverSpec.replicates": lambda c: kmeans.lloyd(
        _GRID, 3, kmeans.SolverSpec(replicates=c)).assignment.labels.tolist(),
    "lloyd.k": lambda c: kmeans.lloyd(_GRID, c).assignment.labels.tolist(),
    "brute_force_optimal.k": lambda c: kmeans.brute_force_optimal(_GRID, c).objective,
    "target_dimension.k": lambda c: target_dimension(c, 0.25),
    "ProjectionConfig.k": lambda c: ProjectionConfig(k=c).resolve_t(100),
    "ProjectionConfig.t_override": lambda c: kmeans.apply_projection(
        _GRID, ProjectionConfig(k=2, t_override=c), "svd_embed")[0].tolist(),
    "MixtureSpec.n": lambda c: generate_mixture(MixtureSpec(n=c, d=3, k=2)).points.tolist(),
    "MixtureSpec.d": lambda c: generate_mixture(MixtureSpec(n=4, d=c, k=2)).points.tolist(),
    "MixtureSpec.k": lambda c: generate_mixture(MixtureSpec(n=4, d=3, k=c)).labels.tolist(),
    "cluster_sums.k": lambda c: kmeans.cluster_sums(_GRID, [0, 1, 1, 0, 1, 0], c).tolist(),
    "bit_slices.d": lambda c: [part.tolist() for part in mailman.bit_slices(c, 7)],
    "bit_slices.t": lambda c: [part.tolist() for part in mailman.bit_slices(1024, c)],
    "svd_thin.k": lambda c: matrix.svd_thin(_GRID, c).sigma.tolist(),
    "best_rank_k.k": lambda c: matrix.best_rank_k(_GRID, c).tolist(),
    "svd_embed.k": lambda c: svd_embed(_GRID, c).tolist(),
    "norm_bound_check.k": lambda c: evaluation.norm_bound_check(
        _GRID, k=c, epsilon=0.5, trials=1, seed=0),
    "decomposition_residual_check.k": lambda c: evaluation.decomposition_residual_check(
        _SQUARES, k=c, epsilon=0.5, t=8, trials=1, seed=0),
    "jl_distortion_check.n": lambda c: evaluation.jl_distortion_check(
        c, 3, 2, 0.3, seeds=1, seed=0),
    "jl_distortion_check.d": lambda c: evaluation.jl_distortion_check(
        3, c, 2, 0.3, seeds=1, seed=0),
    "theorem_distortion_trial.n": lambda c: evaluation.theorem_distortion_trial(
        c, 3, 2, 0.5, 2, trials=1, seed=0),
    "theorem_distortion_trial.d": lambda c: evaluation.theorem_distortion_trial(
        3, c, 2, 0.5, 2, trials=1, seed=0),
}


@pytest.mark.parametrize("call", _COUNT_CALLS.values(), ids=_COUNT_CALLS.keys())
def test_counts_may_be_numpy_integers_but_not_floats_bools_or_strings(call):
    # a float k once resolved a fractional t, and other counts failed later
    # with a TypeError or IndexError
    plain = call(2)
    for count in (np.int64(2), np.int32(2), np.uint8(2)):
        assert call(count) == plain
    for count in (2.0, 2.5, True, np.float64(2), "2"):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(count)


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
        res = kmeans.lloyd(a, 3, kmeans.SolverSpec(init=idx))
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
    spec = kmeans.SolverSpec(init=(0, 2, 4))
    pipe = kmeans.project_and_cluster(a, 3, cfg, spec, method="none")
    plain = kmeans.lloyd(a, 3, spec)
    assert np.array_equal(pipe.projected.assignment.labels,
                          plain.assignment.labels)
    assert pipe.original_objective == pytest.approx(plain.objective, rel=1e-9)
    assert pipe.t == 6


def test_pipeline_sign_paths_give_identical_assignments():
    rng = np.random.default_rng(191)
    a = rng.standard_normal((24, 64))
    spec = kmeans.SolverSpec(init=(0, 4, 8))
    for seed in range(3):
        cfg = ProjectionConfig(k=3, t_override=9, seed=seed)
        fast = kmeans.project_and_cluster(a, 3, cfg, spec, method="sign_mailman")
        slow = kmeans.project_and_cluster(a, 3, cfg, spec, method="sign_naive")
        assert np.array_equal(fast.projected.assignment.labels,
                              slow.projected.assignment.labels)
        assert fast.original_objective == pytest.approx(slow.original_objective,
                                                        rel=1e-10)


def test_pipeline_sign_paths_agree_at_d_one():
    # one input column: every block is one width-1 row
    a = np.random.default_rng(192).standard_normal((12, 1))
    spec = kmeans.SolverSpec(init=(0, 6))
    cfg = ProjectionConfig(k=2, t_override=1, seed=4)
    fast = kmeans.project_and_cluster(a, 2, cfg, spec, method="sign_mailman")
    slow = kmeans.project_and_cluster(a, 2, cfg, spec, method="sign_naive")
    projected, t = kmeans.apply_projection(a, cfg, "sign_mailman")
    assert t == 1 and np.array_equal(projected, kmeans.apply_projection(a, cfg, "sign_naive")[0])
    assert np.array_equal(fast.projected.assignment.labels, slow.projected.assignment.labels)
    assert fast.original_objective == slow.original_objective


def test_pipeline_svd_method_runs():
    rng = np.random.default_rng(193)
    a = rng.standard_normal((15, 12))
    spec = kmeans.SolverSpec(init=(0, 2))
    out = kmeans.project_and_cluster(a, 2, ProjectionConfig(k=2, t_override=4),
                                     spec, method="svd_embed")
    assert out.projected.assignment.n == 15
    assert out.original_objective >= 0.0
    assert out.t == 4


def test_pipeline_rejects_unknown_method():
    with pytest.raises(ParameterError):
        kmeans.apply_projection(np.zeros((3, 4)), ProjectionConfig(k=2), "fft")


_NON_FINITE = r"^matrix entries must be finite \(no NaN or Inf\)$"
_OVERFLOW = r"^the projection overflows float64; rescale the input$"
_BAD_ENTRIES = {"nan": (math.nan,), "+inf": (math.inf,), "-inf": (-math.inf,),
                "inf beside -inf": (math.inf, -math.inf)}
# (n, d, t, row, column): the first and the last entry, the short last row
# tile (n = ROW_TILE + 1), one row, and one column (t = 1)
_BAD_SPOTS = {"first": (12, 40, 6, 0, 0), "last": (12, 40, 6, 11, 39),
              "short tile": (mailman.ROW_TILE + 1, 40, 6, mailman.ROW_TILE, 17),
              "n=1": (1, 40, 6, 0, 39), "d=1": (12, 1, 1, 11, 0)}


def _with_entries(n, d, row, col, entries):
    """Standard normal n x d rows with entries placed at (row, col) and,
    for a second one, the entry before it in the row (in the column, when
    d = 1)."""
    a = np.random.default_rng(n * d + row + col).standard_normal((n, d))
    for i, entry in enumerate(entries):
        a[((row - i) % n, col) if d == 1 else (row, (col - i) % d)] = entry
    return a


def _refused_as_non_finite(call):
    # an inf - inf inside a map must not escape as a RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=_NON_FINITE):
            call()


@pytest.mark.parametrize("entries", _BAD_ENTRIES.values(), ids=_BAD_ENTRIES.keys())
@pytest.mark.parametrize("spot", _BAD_SPOTS.values(), ids=_BAD_SPOTS.keys())
def test_non_finite_input_is_refused_by_the_output_checks(spot, entries):
    # project_mailman and objective check their outputs, not their input:
    # every output entry sums every entry of its row (of a, for objective)
    n, d, t, row, col = spot
    a = _with_entries(n, d, row, col, entries)
    k = min(n, 3)
    _refused_as_non_finite(lambda: mailman.project_mailman(a, mailman.build_plan(d, t, 5)))
    _refused_as_non_finite(lambda: kmeans.objective(a, kmeans.Assignment(np.arange(n) % k, k)))
    for method in kmeans.PIPELINE_METHODS:
        # svd_embed refuses t past min(n, d) before it reads a
        cfg = ProjectionConfig(k=1, t_override=min(t, n) if method == "svd_embed" else t)
        _refused_as_non_finite(lambda: kmeans.apply_projection(a, cfg, method))
        _refused_as_non_finite(lambda: kmeans.project_and_cluster(a, 1, cfg, method=method))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 80), data=st.data())
def test_a_non_finite_entry_anywhere_makes_the_outputs_refuse(n, d, data):
    row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
    entry = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    a = _with_entries(n, d, row, col, (entry,))
    plan = mailman.build_plan(d, data.draw(st.integers(1, d)), data.draw(st.integers(0, 99)))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    _refused_as_non_finite(lambda: mailman.project_mailman(a, plan))
    _refused_as_non_finite(lambda: kmeans.objective(a, kmeans.Assignment(labels, 4)))


def test_finite_rows_near_the_largest_double_are_refused_as_an_overflow():
    a = np.random.default_rng(0).standard_normal((mailman.ROW_TILE + 1, 40)) * 4e307
    cfg = ProjectionConfig(k=1, t_override=6)
    for method in ("sign_mailman", "sign_naive"):
        with pytest.raises(ParameterError, match=_OVERFLOW):
            kmeans.apply_projection(a, cfg, method)
        with pytest.raises(ParameterError, match=_OVERFLOW):
            kmeans.project_and_cluster(a, 1, cfg, method=method)
    # project_mailman itself returns a finite input's overflow
    with np.errstate(over="ignore"):
        out = mailman.project_mailman(a, mailman.build_plan(40, 6, cfg.seed))
    assert np.isinf(out).any()


def test_growth_strings_count_small_cases():
    # partitions of n items into at most k nonempty blocks
    assert sum(len(chunk) for chunk in kmeans._growth_chunks(3, 2)) == 4
    assert sum(len(chunk) for chunk in kmeans._growth_chunks(4, 4)) == 15
    assert sum(len(chunk) for chunk in kmeans._growth_chunks(1, 1)) == 1


def _assert_chunks_equal_recursive_strings(n, k):
    chunks = list(kmeans._growth_chunks(n, k))
    assert all(c.dtype == np.int64 and 1 <= len(c) <= kmeans._ENUM_CHUNK for c in chunks)
    assert np.array_equal(np.concatenate(chunks), np.array(list(growth_strings(n, k))))


def test_growth_chunks_equal_the_recursive_strings():
    for n in range(1, 9):
        for k in range(1, n + 1):
            _assert_chunks_equal_recursive_strings(n, k)


def test_small_chunks_keep_the_order_and_the_brute_force_result(monkeypatch):
    rng = np.random.default_rng(181)
    cases = [(rng.standard_normal((n, 3)), k) for n, k in ((8, 3), (7, 7), (6, 2), (5, 1))]
    # a unit square: splits {0, 1}{2, 3} (string 0011) and {0, 3}{1, 2}
    # (0110) tie exactly, and fall in different chunks of at most 5 rows
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cases.append((square, 2))
    default = [kmeans.brute_force_optimal(a, k) for a, k in cases]
    monkeypatch.setattr(kmeans, "_ENUM_CHUNK", 5)
    for n in range(1, 9):
        for k in range(1, n + 1):
            _assert_chunks_equal_recursive_strings(n, k)
    holds = {tuple(row): i for i, c in enumerate(kmeans._growth_chunks(4, 2)) for row in c.tolist()}
    assert holds[(0, 0, 1, 1)] < holds[(0, 1, 1, 0)]
    for (a, k), base in zip(cases, default):
        res = kmeans.brute_force_optimal(a, k)
        assert np.array_equal(res.assignment.labels, base.assignment.labels)
        assert res.objective == base.objective
        assert res.iterations == base.iterations
    tie = kmeans.Assignment.from_labels(np.array([0, 1, 1, 0]), 2)
    assert kmeans.objective(square, tie) == res.objective == 1.0
    assert res.assignment.labels.tolist() == [0, 0, 1, 1]
