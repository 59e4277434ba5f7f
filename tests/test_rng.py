import math

import numpy as np
import pytest

from rpkmeans import dataio, kmeans, mailman, projection, rng
from rpkmeans.errors import ParameterError


def test_stream_is_reproducible():
    a = rng.stream(42, rng.TRIAL, 3).standard_normal(16)
    b = rng.stream(42, rng.TRIAL, 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_streams_differ_across_coordinates():
    base = rng.stream(1, rng.SIGN_MATRIX, 0).standard_normal(8)
    assert not np.array_equal(base, rng.stream(2, rng.SIGN_MATRIX, 0).standard_normal(8))
    assert not np.array_equal(base, rng.stream(1, rng.TRIAL, 0).standard_normal(8))
    assert not np.array_equal(base, rng.stream(1, rng.SIGN_MATRIX, 1).standard_normal(8))


def test_domain_tags_are_distinct_and_never_reuse_a_retired_value():
    # a tag's value keys every stream it owns: a reused retired value would
    # hand a new consumer the streams an old one drew
    tags = {name: value for name, value in vars(rng).items()
            if name.isupper() and not name.startswith("_")}
    assert tags
    assert len(set(tags.values())) == len(tags)
    assert not {1, 2, 3, 9} & set(tags.values())


def test_stream_order_independence():
    # opening other streams first must not disturb a stream's values
    first = rng.stream(9, rng.TRIAL, 5).integers(0, 1 << 30, size=4)
    rng.stream(9, rng.TRIAL, 6).integers(0, 1 << 30, size=100)
    again = rng.stream(9, rng.TRIAL, 5).integers(0, 1 << 30, size=4)
    assert np.array_equal(first, again)


def test_derive_seed_range_and_determinism():
    s = rng.derive_seed(7, rng.BENCH, 2)
    assert 0 <= s < (1 << 63)
    assert s == rng.derive_seed(7, rng.BENCH, 2)
    assert s != rng.derive_seed(7, rng.BENCH, 3)


def test_stream_validates_index_and_domain():
    with pytest.raises(ParameterError):
        rng.stream(0, rng.TRIAL, -1)
    with pytest.raises(ParameterError):
        rng.stream(0, rng.TRIAL, 1 << 48)
    with pytest.raises(ParameterError):
        rng.stream(0, -1, 0)


def _draws(seed):
    """What the seed draws through each seeded entry point of the library."""
    a = np.random.default_rng(5).standard_normal((12, 40))
    spec = kmeans.SolverSpec(replicates=3)
    return (rng.stream(seed, rng.TRIAL, 2).integers(0, 1 << 62, size=4),
            projection.sample_sign_matrix(40, 10, seed).codes,
            mailman.build_plan(40, 10, seed).codes,
            dataio.generate_mixture(dataio.MixtureSpec(n=6, d=3, k=2, seed=seed)).points,
            kmeans.lloyd(a, 3, spec, seed=seed).assignment.labels,
            kmeans.project_and_cluster(a, 3, projection.ProjectionConfig(k=3, t_override=10, seed=seed),
                                       spec, method="sign_naive").projected.assignment.labels)


@pytest.mark.parametrize("seed, same_as", [
    (np.int64(4), 4), (np.uint64(2**64 - 1), 2**64 - 1), (np.int8(-3), -3), (np.uint8(1), 1),
    # seeds key their stream mod 2**64
    (-1, 2**64 - 1), (2**64 + 5, 5), (-(2**64) + 3, 3),
], ids=repr)
def test_integer_seeds_draw_their_residues_stream(seed, same_as):
    # numpy integer seeds once raised a bare OverflowError (seed % 2**64)
    for got, expect in zip(_draws(seed), _draws(same_as)):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("seed", [1.9, 1.0, np.float64(4.0), True, np.True_, "a", math.nan,
                                  None, 2**64 + 0.5], ids=repr)
def test_non_integer_seeds_are_refused(seed):
    # 1.9 once drew seed 1's matrix and True seed 1's; "a", NaN and None
    # raised bare TypeError or ValueError
    calls = (lambda: rng.stream(seed, rng.TRIAL), lambda: rng.derive_seed(seed, rng.BENCH),
             lambda: projection.sample_sign_matrix(40, 10, seed),
             lambda: dataio.generate_mixture(dataio.MixtureSpec(n=6, d=3, k=2, seed=seed)),
             lambda: kmeans.lloyd(np.eye(4), 2, kmeans.SolverSpec(replicates=2), seed=seed))
    for call in calls:
        with pytest.raises(ParameterError, match=r"^seed must be an integer, not "):
            call()


@pytest.mark.parametrize("seed", [1.9, True, "a", None], ids=repr)
def test_seeds_are_checked_where_nothing_is_drawn(seed):
    # one replicate and method "none" open no stream, and once took any seed
    a = np.random.default_rng(7).standard_normal((9, 4))
    with pytest.raises(ParameterError, match=r"^seed must be an integer, not "):
        kmeans.lloyd(a, 3, kmeans.SolverSpec(), seed=seed)
    with pytest.raises(ParameterError, match=r"^seed must be an integer, not "):
        projection.ProjectionConfig(k=3, seed=seed)
    # numpy integers pass, as plain ints
    cfg = projection.ProjectionConfig(k=3, seed=np.uint8(4))
    assert type(cfg.seed) is int and cfg.seed == 4
    got = kmeans.lloyd(a, 3, kmeans.SolverSpec(replicates=2), seed=np.int64(4))
    want = kmeans.lloyd(a, 3, kmeans.SolverSpec(replicates=2), seed=4)
    assert np.array_equal(got.assignment.labels, want.assignment.labels)
    assert kmeans.project_and_cluster(a, 3, cfg, method="none").t == 4


@pytest.mark.parametrize("index", [1.5, 2.0, True, "1", None], ids=repr)
def test_non_integer_stream_indices_are_refused(index):
    with pytest.raises(ParameterError, match=r"^stream index must be an integer, not "):
        rng.stream(0, rng.TRIAL, index)
    assert np.array_equal(rng.stream(0, rng.TRIAL, np.uint16(2)).integers(0, 99, size=3),
                          rng.stream(0, rng.TRIAL, 2).integers(0, 99, size=3))
