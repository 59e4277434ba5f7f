import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpkmeans import mailman, projection, rng
from rpkmeans.errors import ParameterError

from _oracles import dense_pattern_matrix, densify_by_block, sign_sum_columns


def test_block_widths_with_remainder():
    assert mailman.block_widths(16, 10) == [4, 4, 2]


def test_block_widths_even_split():
    assert mailman.block_widths(1024, 40) == [10, 10, 10, 10]


def test_block_widths_small_d():
    # d below 4 still forms width-1 blocks
    assert mailman.block_widths(2, 3) == [1, 1, 1]
    assert mailman.block_widths(3, 2) == [1, 1]


def test_build_plan_rejects_degenerate_sizes():
    with pytest.raises(ParameterError):
        mailman.build_plan(1, 4, seed=0)
    with pytest.raises(ParameterError):
        mailman.build_plan(16, 0, seed=0)


def test_densified_plan_matches_sampled_sign_matrix():
    plan = mailman.build_plan(32, 7, seed=1)
    sign = projection.sample_sign_matrix(32, 7, seed=1)
    assert projection.SignMatrix is mailman.SignMatrix
    assert type(plan) is type(sign) is mailman.SignMatrix
    assert [b.p for b in plan.blocks] == [b.p for b in sign.blocks]
    for one, two in zip(plan.blocks, sign.blocks):
        assert np.array_equal(one.codes, two.codes)
    assert np.array_equal(mailman.densify(plan), sign.signs())


def test_block_codes_validate_range():
    with pytest.raises(ParameterError):
        mailman.MailmanBlock(p=2, codes=np.array([0, 4]))
    with pytest.raises(ParameterError):
        mailman.MailmanBlock(p=2, codes=np.array([-1, 0]))


def test_block_row_multiply_zero_vector():
    block = mailman.MailmanBlock(p=3, codes=np.arange(8) % 8)
    assert np.array_equal(mailman.block_row_multiply_counted(block, np.zeros(8))[0],
                          np.zeros(3))


def test_block_row_multiply_all_plus_block():
    # every code all-ones: each output coordinate sums the whole vector
    d, p = 12, 3
    block = mailman.MailmanBlock(p=p, codes=np.full(d, (1 << p) - 1))
    y = mailman.block_row_multiply_counted(block, np.ones(d))[0]
    assert np.allclose(y * 0.25, d * 0.25, atol=1e-12)


def test_block_row_multiply_hand_case():
    block = mailman.MailmanBlock(p=2, codes=np.array([0, 1, 2, 3]))
    y = mailman.block_row_multiply_counted(block, np.array([1.0, 2.0, 3.0, 4.0]))[0]
    assert np.allclose(y, [2.0, 4.0], atol=1e-12)


def test_block_row_multiply_matches_sign_sum_oracle():
    rng = np.random.default_rng(61)
    for p in (1, 2, 4, 5):
        d = 3 << p
        codes = rng.integers(0, 1 << p, size=d)
        block = mailman.MailmanBlock(p=p, codes=codes)
        x = rng.standard_normal(d)
        expect = sign_sum_columns(codes, p, x)
        assert np.allclose(mailman.block_row_multiply_counted(block, x)[0], expect,
                           atol=1e-10 * max(1.0, np.abs(expect).max()))


def test_block_row_multiply_length_mismatch():
    block = mailman.MailmanBlock(p=2, codes=np.array([0, 1, 2]))
    with pytest.raises(ParameterError):
        mailman.block_row_multiply_counted(block, np.zeros(4))


def test_fold_equals_dense_pattern_multiply_exhaustively():
    """The fold must reproduce the full 2**p x p sign multiply for p up to
    SLICE_BITS + 1."""
    rng = np.random.default_rng(67)
    for p in range(1, mailman.SLICE_BITS + 2):
        pattern = dense_pattern_matrix(p)
        for _ in range(8):
            buckets = rng.standard_normal(1 << p)
            expect = buckets @ pattern
            got = mailman.fold_buckets(buckets)
            assert np.allclose(got, expect, atol=1e-12 * max(1.0, np.abs(expect).max()))


@pytest.mark.parametrize("p", [1, 2, 7])
def test_fold_along_any_axis_gives_each_vector_the_same_bits(p):
    # buckets of 2 x 3 x 5 vectors; the bucket axis in each position
    buckets = np.random.default_rng(p).standard_normal((2, 3, 5, 1 << p))
    alone = np.array([[[mailman.fold_buckets(buckets[i, j, k].copy()) for k in range(5)]
                       for j in range(3)] for i in range(2)])
    for axis in range(4):
        moved = np.ascontiguousarray(np.moveaxis(buckets, 3, axis))
        folded = mailman.fold_buckets(moved, axis=axis)
        assert np.array_equal(np.moveaxis(folded, axis, 3), alone)


def test_fold_rejects_non_power_of_two():
    with pytest.raises(ParameterError):
        mailman.fold_buckets(np.zeros(6))
    with pytest.raises(ParameterError):
        mailman.fold_buckets(np.zeros(1))


def test_counted_multiply_agrees_and_respects_add_budget():
    rng = np.random.default_rng(71)
    for d, t in ((16, 4), (64, 6), (256, 11), (1024, 10)):
        plan = mailman.build_plan(d, t, seed=d + t)
        x = rng.standard_normal(d)
        fast = mailman.project_mailman(x[None], plan)[0]
        col = 0
        for block in plan.blocks:
            y_slow, adds = mailman.block_row_multiply_counted(block, x)
            assert np.allclose(fast[col:col + block.p], y_slow / np.sqrt(t), atol=1e-10)
            assert adds <= d + (1 << (block.p + 1))
            col += block.p


def test_project_mailman_identity_input_reveals_matrix():
    plan = mailman.build_plan(16, 9, seed=3)
    out = mailman.project_mailman(np.eye(16), plan)
    assert np.max(np.abs(out - mailman.densify(plan, scaled=True))) <= 1e-12


def test_project_mailman_zero_input():
    plan = mailman.build_plan(8, 5, seed=4)
    assert np.array_equal(mailman.project_mailman(np.zeros((3, 8)), plan),
                          np.zeros((3, 5)))


def test_project_mailman_matches_naive_reference():
    rng = np.random.default_rng(73)
    a = rng.standard_normal((64, 128))
    plan = mailman.build_plan(128, 14, seed=9)
    fast = mailman.project_mailman(a, plan)
    slow = a @ mailman.densify(plan, scaled=True)
    gap = np.linalg.norm(fast - slow)
    assert gap <= 1e-10 * np.linalg.norm(slow)


def test_project_mailman_exactness_across_sizes():
    rng = np.random.default_rng(79)
    for seed, (d, t) in enumerate([(4, 3), (16, 10), (31, 7), (200, 18), (512, 21)]):
        a = rng.standard_normal((6, d))
        plan = mailman.build_plan(d, t, seed=seed)
        fast = mailman.project_mailman(a, plan)
        slow = a @ mailman.densify(plan, scaled=True)
        assert np.linalg.norm(fast - slow) <= 1e-10 * max(np.linalg.norm(slow), 1e-300)


def test_project_mailman_dimension_mismatch():
    plan = mailman.build_plan(8, 3, seed=0)
    with pytest.raises(ParameterError):
        mailman.project_mailman(np.zeros((2, 9)), plan)


def test_plan_widths_sum_is_validated():
    blocks = mailman.plan_blocks(16, 6, seed=0)
    with pytest.raises(ParameterError, match="sum to t"):
        mailman.SignMatrix(d=16, t=7, blocks=blocks)
    with pytest.raises(ParameterError, match="all blocks must share"):
        mailman.SignMatrix(d=17, t=6, blocks=blocks)


def test_project_mailman_deterministic():
    rng = np.random.default_rng(83)
    a = rng.standard_normal((5, 32))
    one = mailman.project_mailman(a, mailman.build_plan(32, 11, seed=2))
    two = mailman.project_mailman(a, mailman.build_plan(32, 11, seed=2))
    assert np.array_equal(one, two)


def _assert_matches_dense(a, plan):
    fast = mailman.project_mailman(a, plan)
    slow = a @ mailman.densify(plan, scaled=True)
    assert fast.shape == slow.shape
    assert np.linalg.norm(fast - slow) <= 1e-12 * max(np.linalg.norm(slow), 1e-300)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(2, 300), t=st.integers(1, 40),
       seed=st.integers(0, 2**31 - 1))
@example(n=5, d=2, t=3, seed=0)        # d = 2: width-1 blocks
@example(n=4, d=100, t=1, seed=1)      # t = 1
@example(n=3, d=1000, t=5, seed=2)     # t < p = 9, d not a power of two
@example(n=1, d=777, t=29, seed=3)     # n = 1, blocks wider than one slice
@example(n=1, d=10304, t=360, seed=4)  # n = 1, 13-bit blocks: 7 + 6-bit slices
@example(n=9, d=10304, t=29, seed=5)
@example(n=1, d=2**17, t=34, seed=6)   # n = 1, 17-bit blocks: 6 + 6 + 5-bit slices
@example(n=3, d=2**17, t=37, seed=7)
def test_project_mailman_equals_dense_product(n, d, t, seed):
    a = np.random.default_rng(seed).standard_normal((n, d))
    _assert_matches_dense(a, mailman.build_plan(d, t, seed))


def test_bit_slices_are_balanced_and_cover_the_block():
    assert mailman.bit_slices(13) == [(0, 7), (7, 6)]
    for p in range(1, 70):
        slices = mailman.bit_slices(p)
        widths = [w for _, w in slices]
        # in bit order, each starting where the last ended, covering 0..p-1
        assert [shift for shift, _ in slices] == [sum(widths[:i]) for i in range(len(slices))]
        assert sum(widths) == p
        assert len(slices) == -(-p // mailman.SLICE_BITS)
        assert max(widths) <= mailman.SLICE_BITS and max(widths) - min(widths) <= 1


def _multi_tile_shape():
    # d = 64 gives p = 6, one 6-bit slice per block.  n spans more than three
    # row tiles; t holds one more 6-bit slice than a group takes, and a
    # 2-bit remainder block, so the slices fall in three groups.
    per_group = mailman.TILE_BYTES // (8 * mailman.ROW_TILE << 6)
    return 3 * mailman.ROW_TILE + 1, 64, 6 * (per_group + 1) + 2


def _case(n, d, t):
    a = np.random.default_rng(89).standard_normal((n, d))
    return a, mailman.build_plan(d, t, seed=5)


def test_project_mailman_spans_several_row_tiles():
    a, plan = _case(*_multi_tile_shape())
    assert a.shape[0] > 3 * mailman.ROW_TILE
    assert len(mailman._slice_groups(plan)) >= 3
    _assert_matches_dense(a, plan)


@settings(max_examples=10, deadline=None)
@given(cuts=st.lists(st.integers(0, 10**6), max_size=6), shape=st.just(_multi_tile_shape()))
@example(cuts=[1, 3], shape=(1, 10304, 29))      # n = 1, 13-bit blocks
@example(cuts=[64, 30], shape=(65, 10304, 360))  # 7 + 6-bit slices; a one-row tile
@example(cuts=[2], shape=(1, 2**17, 34))         # n = 1, 17-bit blocks
@example(cuts=[1, 4], shape=(5, 2**17, 34))
def test_project_mailman_rows_do_not_depend_on_tiling(cuts, shape):
    a, plan = _case(*shape)
    n = a.shape[0]
    whole = mailman.project_mailman(a, plan)
    bounds = [0] + sorted(c % (n + 1) for c in cuts) + [n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            assert np.array_equal(mailman.project_mailman(a[lo:hi], plan), whole[lo:hi])
    for i in {0, n // 2, n - 1}:
        assert np.array_equal(mailman.project_mailman(a[i:i + 1], plan), whole[i:i + 1])


# sha256 of every block's codes, stacked and written as little-endian int64.
# Codes are integers taken from Philox words, so these hold on every platform
# and numpy version; any change to how sign matrices are sampled breaks them.
GOLDEN_CODE_DIGESTS = [
    # d = 2: width-1 blocks, and t > d
    ((2, 5, 0), "c434fd76a1a51cfe90c5c86fcaa93828a1a9157ed1d2b683d9700e6253ed505a"),
    # odd d, a width-2 remainder block
    ((777, 29, 3), "5415184ed6fecee6d44eb1441ef19c6872d1504107065075de9d8bc1a05c5e73"),
    # a width-1 remainder block
    ((1000, 19, 1), "aa818c4b84770f4445c06a45065c1f8cab09977463ee9482fe4359ffab807259"),
    # t > d, 320 blocks
    ((50, 1600, 11), "c4c17c9ff92bcee6128722a5cc7d2e6ef6f94c4aa16fffca01f023e31ab1ac14"),
    # seed >= 2**63, the rp-faces shape
    ((10304, 360, 2**64 - 1), "799fc777221861cd0afbf51fd083013c8dd7f2fc63874fd1ede0ec39f2674dbb"),
    # negative seed
    ((64, 60, -7), "9440721835f98e7e7b6cc4b823fc57b36d7022266eefdeea89952682208c6c63"),
    # p = 17: codes wider than 16 bits, seed 2**63
    ((140000, 20, 2**63), "66f99c43d1022c0cdda5565bcfbc91cf19eb68249d5623f99ea6c7c3cb0277f1"),
]


@pytest.mark.parametrize("cell, digest", GOLDEN_CODE_DIGESTS,
                         ids=[f"d{d}-t{t}-seed{seed}" for (d, t, seed), _ in GOLDEN_CODE_DIGESTS])
def test_plan_blocks_codes_match_golden_digests(cell, digest):
    codes = np.stack([b.codes for b in mailman.plan_blocks(*cell)]).astype("<i8")
    assert hashlib.sha256(codes.tobytes()).hexdigest() == digest


def _dyadic_rows(n, d):
    # integers in [-1023, 1023] over 64, from integer arithmetic alone: every
    # bucket sum and fold is exact, so the one rounding per output element is
    # the multiply by 1/sqrt(t), and no libm or BLAS enters the bits
    k = np.arange(n * d, dtype=np.int64) * 2654435761 % 2047 - 1023
    return k.reshape(n, d) / 64.0


# sha256 of project_mailman's output on _dyadic_rows(n, d), and of
# densify(scaled=True), both written as little-endian float64.
GOLDEN_OUTPUT_DIGESTS = [
    # the rp-faces shape, two row tiles (the second of one row)
    ((65, 10304, 360, 2**64 - 1),
     "9dc3996af9bb8ecb0308c91f7599766950cb7b89e484ef78d14fae683f358427",
     "19f8463123e515e4f8f7928a37e3caf71c7ee861506fac923e848d6dbc7f8e4f"),
    # a width-2 remainder block
    ((7, 777, 29, 3),
     "a8e57a281dee935e0416a2e503376965519e042e41490ead73ddefa02ffd4640",
     "372a70d9ecb1e669b6ae67116cd8a0a8a3afee64e44182c69f195f7a4af03ca8"),
    # four row tiles, three slice groups (_multi_tile_shape at the default tiling)
    ((193, 64, 200, 5),
     "200c5d8a67a1e3010fa9eb32a845e0f8d439484f4505a906987a063636201ec6",
     "6d493559967016aeaa47d005670d7bce7d2876c11358cba0e479ff60af2e07be"),
]


@pytest.mark.parametrize("cell, projected, dense", GOLDEN_OUTPUT_DIGESTS,
                         ids=[f"n{n}-d{d}-t{t}" for (n, d, t, _), _, _ in GOLDEN_OUTPUT_DIGESTS])
def test_scaled_outputs_match_golden_digests(cell, projected, dense):
    n, d, t, seed = cell
    plan = mailman.build_plan(d, t, seed)
    out = mailman.project_mailman(_dyadic_rows(n, d), plan)
    assert hashlib.sha256(out.astype("<f8").tobytes()).hexdigest() == projected
    scaled = mailman.densify(plan, scaled=True)
    assert hashlib.sha256(scaled.astype("<f8").tobytes()).hexdigest() == dense


SEEDS = st.one_of(st.integers(-(2**64), 2**66),
                  st.sampled_from([0, -1, -7, 2**63, 2**64 - 1, 2**64]))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 3000), t=st.integers(1, 2000), seed=SEEDS)
@example(d=2, t=5, seed=0)
@example(d=1000, t=19, seed=-1)
@example(d=3000, t=2000, seed=2**63)
def test_plan_blocks_equal_per_stream_integers(d, t, seed):
    """Every block's codes are what its own stream's Generator.integers draws."""
    blocks = mailman.plan_blocks(d, t, seed)
    assert [b.p for b in blocks] == mailman.block_widths(d, t)
    for j, block in enumerate(blocks):
        g = rng.stream(seed, rng.SIGN_BLOCK, j)
        expect = g.integers(0, 1 << block.p, size=d, dtype=np.int64)
        assert block.codes.dtype == np.int64 and np.array_equal(block.codes, expect)
    count = (d + 1) // 2
    words = rng.stream_words(seed, rng.SIGN_BLOCK, range(len(blocks)), count)
    for j in range(len(blocks)):
        raw = rng.stream(seed, rng.SIGN_BLOCK, j).bit_generator.random_raw(count)
        assert np.array_equal(words[j], raw)


@pytest.mark.parametrize("p", [33, 40, 62])
def test_codes_wider_than_32_bits_take_whole_words(p):
    # plan_blocks reaches p > 32 only at d >= 2**33; the derivation is
    # checked on a few codes of such a block instead
    for seed, j in ((0, 0), (-3, 5), (2**63 + 1, 2**48 - 1)):
        codes = mailman._sample_codes(7, [p], seed, j)
        expect = rng.stream(seed, rng.SIGN_BLOCK, j).integers(0, 1 << p, size=7, dtype=np.int64)
        assert np.array_equal(codes, expect[None, :])


def _mixed_blocks():
    g = np.random.default_rng(97)
    widths = [3, 3, 1, 5, 5, 5, 2, 3, 13, 13, 40]
    return [mailman.MailmanBlock(p=p, codes=g.integers(0, 1 << p, size=37)) for p in widths]


@pytest.mark.parametrize("scaled", [False, True])
def test_densify_matches_per_block_oracle(scaled):
    cases = [_mixed_blocks(), mailman.plan_blocks(777, 29, 3),
             mailman.plan_blocks(1000, 19, 1), mailman.plan_blocks(50, 1600, 11),
             mailman.plan_blocks(2, 3, 0), mailman.plan_blocks(1, 4, 0)]
    for blocks in cases:
        sign = mailman.SignMatrix(blocks[0].d, sum(b.p for b in blocks), blocks)
        assert np.array_equal(mailman.densify(sign, scaled=scaled),
                              densify_by_block(blocks, 1.0 / np.sqrt(sign.t) if scaled else None))


def test_densify_allocates_little_beyond_its_output():
    sign = mailman.SignMatrix(1000, 2000, mailman.plan_blocks(1000, 2000, 0))
    tracemalloc.start()
    try:
        dense = mailman.densify(sign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * dense.nbytes

