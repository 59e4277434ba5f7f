import numpy as np
import pytest

from rpkmeans import rng
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
