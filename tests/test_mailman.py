import hashlib
import inspect
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


@pytest.mark.parametrize("sample", [mailman.build_plan, projection.sample_sign_matrix],
                         ids=lambda sample: sample.__name__)
def test_samplers_refuse_and_accept_the_same_sizes(sample):
    # the SignMatrix constructor and block_widths are the only refusals
    for d, t in [(0, 4), (4, 0), (-1, 3), (16, 0)]:
        with pytest.raises(ParameterError):
            sample(d, t, seed=0)
    # d = 1: four width-1 blocks of one row each
    sign = sample(1, 4, seed=0)
    assert sign.widths.tolist() == [1, 1, 1, 1]
    assert np.array_equal(sign.codes, mailman.build_plan(1, 4, seed=0).codes)


@pytest.mark.parametrize("sample", [mailman.build_plan, projection.sample_sign_matrix],
                         ids=lambda sample: sample.__name__)
def test_sizes_may_be_numpy_integers_but_not_floats_bools_or_strings(sample):
    # numpy integers once failed on d.bit_length(), and True sampled d = 1;
    # d + 1 must not overflow an int8 d
    plain = sample(127, 5, seed=0)
    for d, t in ((np.int64(127), 5), (127, np.int32(5)), (np.uint16(127), np.int8(5)),
                 (np.int8(127), 5)):
        sign = sample(d, t, seed=0)
        assert type(sign.d) is type(sign.t) is int and np.array_equal(sign.codes, plain.codes)
        x = np.random.default_rng(0).standard_normal((2, 127))
        assert np.array_equal(mailman.project_mailman(x, sign), mailman.project_mailman(x, plain))
    for d, t in ((64.0, 5), (True, 3), ("64", 5), (64, 5.0), (64, True), (np.float64(64), 5)):
        for call in (lambda: sample(d, t, 0), lambda: mailman.block_widths(d, t),
                     lambda: mailman.SignMatrix(d=d, t=t, codes=plain.codes)):
            with pytest.raises(ParameterError, match="must be an integer"):
                call()


def test_sizes_refuse_d_of_2_to_the_32_before_allocating():
    # 32-bit blocks would need a 16 GiB codes row each; 2**40 once failed
    # only when the 4 TiB codes array was allocated
    assert mailman.MAX_WIDTH == 31
    assert mailman.block_widths(2**32 - 1, 40) == [31, 9]
    tracemalloc.start()
    try:
        for d in (2**32, 2**40, np.uint64(2**32)):
            for call in (lambda: mailman.build_plan(d, 1, 0), lambda: mailman.block_widths(d, 1),
                         lambda: projection.sample_sign_matrix(d, 1, 0),
                         lambda: mailman.SignMatrix(d=d, t=1, codes=[[0]])):
                with pytest.raises(ParameterError, match=r"below 2\*\*32"):
                    call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_densified_plan_matches_sampled_sign_matrix():
    plan = mailman.build_plan(32, 7, seed=1)
    sign = projection.sample_sign_matrix(32, 7, seed=1)
    assert type(plan) is type(sign) is mailman.SignMatrix
    assert np.array_equal(plan.widths, sign.widths)
    assert np.array_equal(plan.codes, sign.codes)
    assert np.array_equal(mailman.densify(plan), mailman.densify(sign))


def test_block_codes_validate_range():
    with pytest.raises(ParameterError):
        mailman.MailmanBlock(p=2, codes=np.array([0, 4]))
    with pytest.raises(ParameterError):
        mailman.MailmanBlock(p=2, codes=np.array([-1, 0]))


def test_block_refuses_non_integer_codes_and_widths_above_63():
    # float codes were once truncated: [0.5, 3.9] became [0, 3]
    with pytest.raises(ParameterError, match="codes must be integers"):
        mailman.MailmanBlock(p=2, codes=[0.5, 3.9])
    for p in (32, 64):
        with pytest.raises(ParameterError, match="block widths must lie"):
            mailman.MailmanBlock(p=p, codes=[0, 1])
    with pytest.raises(ParameterError, match="block width must be an integer"):
        mailman.MailmanBlock(p=2.0, codes=[0, 1])
    with pytest.raises(ParameterError):
        mailman.MailmanBlock(p=0, codes=[0, 0])
    with pytest.raises(ParameterError):
        mailman.MailmanBlock(p=2, codes=[])
    with pytest.raises(ParameterError):
        mailman.MailmanBlock(p=2, codes=[[0, 1]])


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
            got = mailman._fold_in_place(buckets.copy(), p)
            assert np.allclose(got, expect, atol=1e-12 * max(1.0, np.abs(expect).max()))


@pytest.mark.parametrize("p", [1, 2, 7, mailman.SLICE_BITS])
def test_fold_along_any_axis_gives_each_vector_the_same_bits(p):
    # buckets of 2 x 3 x 5 vectors, bucket axis first, and the other axes
    # merged or permuted: each vector folds to the bits it gets alone
    buckets = np.random.default_rng(p).standard_normal((1 << p, 2, 3, 5))
    alone = np.array([[[mailman._fold_in_place(buckets[:, i, j, k].copy(), p)
                        for k in range(5)] for j in range(3)] for i in range(2)])
    assert np.array_equal(np.moveaxis(mailman._fold_in_place(buckets.copy(), p), 0, 3), alone)
    merged = mailman._fold_in_place(buckets.reshape(1 << p, -1).copy(), p)
    assert np.array_equal(merged.T.reshape(alone.shape), alone)
    permuted = mailman._fold_in_place(
        np.ascontiguousarray(buckets.transpose(0, 3, 1, 2)), p)
    assert np.array_equal(permuted.transpose(2, 3, 1, 0), alone)


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
    # widths are derived from (d, t), so they sum to t and cannot be passed in
    assert list(inspect.signature(mailman.SignMatrix).parameters) == ["d", "t", "codes"]
    sign = mailman.build_plan(16, 6, seed=0)
    for d, t in ((16, 6), (16, 7), (1, 9), (10304, 360), (2**32 - 1, 100)):
        assert sum(mailman.block_widths(d, t)) == t
    # [4, 2] codes are a valid [4, 3] matrix; [4, 4, 1] and d = 17 are not
    assert mailman.SignMatrix(d=16, t=7, codes=sign.codes).widths.tolist() == [4, 3]
    for d, t in ((16, 9), (17, 6), (16, 3)):
        with pytest.raises(ParameterError, match="codes must have shape"):
            mailman.SignMatrix(d=d, t=t, codes=sign.codes)


def test_sign_matrix_refuses_malformed_arrays():
    codes = np.array([[0, 1, 1], [1, 0, 1]])
    assert mailman.densify(mailman.SignMatrix(d=3, t=2, codes=codes)).shape == (3, 2)
    # t < 1 was once accepted when there were no blocks
    with pytest.raises(ParameterError, match="positive"):
        mailman.SignMatrix(d=2, t=0, codes=np.empty((0, 2), dtype=np.int64))
    for shape_wrong in (codes.T, codes[:, :2], codes[:1], codes.reshape(-1)):
        with pytest.raises(ParameterError, match="codes must have shape"):
            mailman.SignMatrix(d=3, t=2, codes=shape_wrong)
    with pytest.raises(ParameterError, match="codes must be integers"):
        mailman.SignMatrix(d=3, t=2, codes=codes + 0.5)
    with pytest.raises(ParameterError, match="d must be an integer"):
        mailman.SignMatrix(d=3.0, t=2, codes=codes)
    with pytest.raises(ParameterError, match=r"\[0, 2\*\*p\)"):
        mailman.SignMatrix(d=3, t=2, codes=codes * 2)
    # the range is checked per derived width: 4 and 2 bits at d = 16, t = 6
    wide = np.array([[15] * 16, [3] * 16])
    assert mailman.SignMatrix(d=16, t=6, codes=wide).widths.tolist() == [4, 2]
    for j, code in ((0, 16), (1, 4), (1, -1)):
        bad = wide.copy()
        bad[j, 5] = code
        with pytest.raises(ParameterError, match=r"\[0, 2\*\*p\)"):
            mailman.SignMatrix(d=16, t=6, codes=bad)


def test_sign_matrix_names_integers_outside_int64():
    # such entries were once called "not integers", and uint64 codes wrapped
    for codes in ([[0, 2**64]], [[0, 2**63]], np.array([[0, 2**64 - 1]], dtype=np.uint64)):
        with pytest.raises(ParameterError, match="codes must lie in the int64 range"):
            mailman.SignMatrix(d=2, t=1, codes=codes)
    # a d past int64 is past the layout's 2**32 bound too
    with pytest.raises(ParameterError, match=r"below 2\*\*32"):
        mailman.SignMatrix(d=2**64, t=1, codes=[[0, 1]])
    ok = mailman.SignMatrix(d=2, t=1, codes=np.array([[0, 1]], dtype=np.uint64))
    assert ok.codes.dtype == np.int64 and ok.codes.tolist() == [[0, 1]]


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
@example(n=1, d=10304, t=360, seed=4)  # n = 1, 9-bit slices across 13-bit blocks
@example(n=9, d=10304, t=29, seed=5)
@example(n=1, d=2**17, t=34, seed=6)   # n = 1, 17-bit blocks: 9 + 9 + 8 + 8-bit slices
@example(n=3, d=2**17, t=37, seed=7)
def test_project_mailman_equals_dense_product(n, d, t, seed):
    a = np.random.default_rng(seed).standard_normal((n, d))
    _assert_matches_dense(a, mailman.build_plan(d, t, seed))


def _spans(d, t):
    """How many of bit_slices(d, t) span two blocks, and whether the last
    block is narrower than the last slice."""
    first, width = mailman.bit_slices(d, t)
    starts = np.cumsum([0] + mailman.block_widths(d, t))
    block_of = np.searchsorted(starts, np.arange(t), side="right") - 1
    spanning = int(np.sum(block_of[first] != block_of[first + width - 1]))
    return spanning, starts[-1] - starts[-2] < width[-1]


def test_bit_slices_are_balanced_and_cover_the_block():
    first, width = mailman.bit_slices(10304, 360)
    assert width.tolist() == [9] * 40 and first.tolist() == list(range(0, 360, 9))
    assert mailman.bit_slices(1024, 100)[1].tolist() == [6] * 15 + [5] * 2
    assert mailman.bit_slices(1, 9)[1].tolist() == [1] * 9
    for d in (1, 2, 31, 32, 63, 64, 200, 1000, 1024, 10304, 2**17, 2**20, 2**31 - 1):
        # at most d / 16 buckets per slice, and never more than SLICE_BITS bits
        w = min(mailman.SLICE_BITS, max(1, d.bit_length() - 5))
        assert 1 << w <= max(2, d // 16)
        for t in (*range(1, 70), 92, 100, 353, 360, 1600):
            first, width = mailman.bit_slices(d, t)
            # in column order, each starting where the last ended, covering
            # columns 0..t-1 whatever the blocks
            assert first.tolist() == (np.cumsum(width) - width).tolist()
            assert width.sum() == t and first.size == -(-t // w)
            # balanced, wider first
            assert width.max() <= w and width.max() - width.min() <= 1
            assert np.all(np.diff(width) <= 0)
            # a slice crosses at most one block bound, so _slice_groups
            # reads its code from its first block and at most the next
            starts = np.cumsum([0] + mailman.block_widths(d, t))
            blocks = np.searchsorted(starts, np.stack([first, first + width - 1]), side="right")
            assert np.all(blocks[1] - blocks[0] <= 1)
    # the cut ignores block bounds: slices span two blocks, the last block
    # may be narrower than the last slice, and t may exceed d.  The 27 inner
    # block bounds of 10304 x 360 fall inside 24 slices; 117, 234 and 351
    # start one.
    assert _spans(10304, 360) == (24, False)
    assert _spans(10304, 353) == (25, True)   # a 2-bit last block, 8-bit slices
    assert _spans(1024, 92) == (7, True)      # a 2-bit last block, 5-bit slices
    assert _spans(1, 9) == (0, False)         # d = 1: 1-bit blocks and slices
    assert _spans(50, 1600) == (0, False)     # t > d: 1-bit slices of 5-bit blocks
    for d, t in ((10304, 353), (1024, 92), (1, 9), (50, 1600), (64, 60), (200, 23)):
        a = np.random.default_rng(d + t).standard_normal((3, d))
        _assert_matches_dense(a, mailman.build_plan(d, t, seed=t))


def test_rp_faces_shape_cuts_40_slices_of_9_bits():
    # 400 x 10304 at t = 360: 40 slices of 9 bits in five groups of eight,
    # where 7 + 6-bit halves of each 13-bit block made 56 slices and
    # 230,809,600 bucket additions
    n, d, t = 400, 10304, 360
    groups = mailman._slice_groups(mailman.build_plan(d, t, 41))
    assert [w for _, w, _ in groups] == [9] * 5
    assert sum(onehot.shape[0] >> w for onehot, w, _ in groups) == 40
    assert sorted(np.concatenate([cols for _, _, cols in groups])) == list(range(t))
    # each input coordinate of each row is added into one bucket per slice
    assert n * sum(onehot.nnz for onehot, _, _ in groups) == 164_864_000


def _multi_tile_shape():
    # d = 4096 gives 12-bit blocks and 8-bit slices, some across two blocks.
    # n spans more than three row tiles; t holds one slice more than two
    # groups take, the last three of them 7 bits wide, so the slices fall
    # in three groups and the last group holds the narrow slices.
    per_group = mailman.TILE_BYTES // (8 * mailman.ROW_TILE << 8)
    return 3 * mailman.ROW_TILE + 1, 4096, 8 * (2 * per_group + 1) - 3


def _case(n, d, t):
    a = np.random.default_rng(89).standard_normal((n, d))
    return a, mailman.build_plan(d, t, seed=5)


def test_project_mailman_spans_several_row_tiles():
    a, plan = _case(*_multi_tile_shape())
    assert a.shape[0] > 3 * mailman.ROW_TILE
    groups = mailman._slice_groups(plan)
    assert len(groups) >= 3
    # the narrow slices' top bits have no output column
    assert sum(cols.size for _, _, cols in groups) == plan.t
    _assert_matches_dense(a, plan)


@settings(max_examples=10, deadline=None)
@given(cuts=st.lists(st.integers(0, 10**6), max_size=6), shape=st.just(_multi_tile_shape()))
@example(cuts=[1, 3], shape=(1, 10304, 29))      # n = 1, 13-bit blocks
@example(cuts=[64, 30], shape=(65, 10304, 360))  # 9-bit slices; a one-row tile
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
    ((2, 5, 0), "5adc4d414bcb631d3baf838e7c8db28a2362c42ca6a0af0ea162ee069a4c9630"),
    # odd d, a width-2 remainder block
    ((777, 29, 3), "3248f95c397fd2bc2bf23fd54cf526c9fe439fb0b1f9ddeb037587896a6f3563"),
    # a width-1 remainder block
    ((1000, 19, 1), "b046c69a597735e24d88cc356cbfb59568b4dc6db4712693f4976ed05db4c851"),
    # t > d, 320 blocks
    ((50, 1600, 11), "9cacd5614c62e87c16a29e675aab9152587b6aac3ef6bbde382657e9924b06f1"),
    # seed >= 2**63, the rp-faces shape
    ((10304, 360, 2**64 - 1), "84bccde556e4fbbc5310bfaf7df334b1e9b6f1565b341a333aca40d5dee75769"),
    # negative seed
    ((64, 60, -7), "81ffe04a47052fda488b970db87e4d383bfaceadfcb9e52c0ca30a6229112d68"),
    # p = 17: codes wider than 16 bits, seed 2**63
    ((140000, 20, 2**63), "98967a7f940fbcf3c37af1972176cab582c372c9c1ed797a16e0efc96e3bb6be"),
]


@pytest.mark.parametrize("cell, digest", GOLDEN_CODE_DIGESTS,
                         ids=[f"d{d}-t{t}-seed{seed}" for (d, t, seed), _ in GOLDEN_CODE_DIGESTS])
def test_plan_blocks_codes_match_golden_digests(cell, digest):
    codes = mailman.build_plan(*cell).codes.astype("<i8")
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
    # the rp-faces shape, three row tiles (the last of one row)
    ((65, 10304, 360, 2**64 - 1),
     "f4b4cdc484cca4fe38b3e66f3548aa090666df24dfe24e7611913a633724ca8d",
     "aad5ddc08fdbe044a4a19c7d4f82d225fd46f9dcedcb7a4432a6a326815d4932"),
    # a width-2 remainder block
    ((7, 777, 29, 3),
     "e1128d3144e25b4079f46f2729a37dcee4c51a7250a7aee1224b21d94551529a",
     "989a4715cb8e94b3e50fafae049d9160a918855e6dc66c849f6910befdcaec70"),
    # seven row tiles (the last of one row), one group of 100 2-bit slices
    ((193, 64, 200, 5),
     "23583b79bfb811916a15c92906b8bbadd4e43eecc8b65aa75e377845cddcf5d2",
     "8c973e29311c0c2307a4a8ad504b17a73f3387a59d033574bcf4d8283731ae54"),
]


# sha256 of densify(scaled=True) of sample_sign_matrix(d, t, seed), written
# as little-endian float64: shapes that GOLDEN_OUTPUT_DIGESTS does not reach.
GOLDEN_DENSE_DIGESTS = [
    # the quick check suite's heaviest shape: 320 five-bit blocks
    ((50, 1600, 11), "e604917d51f72b93ee84dc6b332db29b7ebc534e50dd41ac370c0ca739c1e397"),
    # d = 1: nine width-1 blocks of one row each
    ((1, 9, 3), "00382d91bcd5ffbfcaf8484b64822e941ace612c04fee53cf82dcb427a86cdb9"),
]


@pytest.mark.parametrize("cell, dense", GOLDEN_DENSE_DIGESTS,
                         ids=[f"d{d}-t{t}" for (d, t, _), _ in GOLDEN_DENSE_DIGESTS])
def test_sampled_dense_matches_golden_digests(cell, dense):
    scaled = mailman.densify(projection.sample_sign_matrix(*cell), scaled=True)
    assert hashlib.sha256(scaled.astype("<f8").tobytes()).hexdigest() == dense


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


def _block_oracle(d, p, seed, j):
    """Block j's codes from numpy alone: the (seed, SIGN_MATRIX, 0) Philox,
    advanced to block j's counter, then Generator.integers."""
    key = np.array([seed % (1 << 64), rng.SIGN_MATRIX << 48], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    half = (d + 1) // 2
    bits.advance(j * -(-half // 4))  # block j starts at counter j * span / 4
    return np.random.Generator(bits).integers(0, 1 << p, size=d, dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3000), t=st.integers(1, 2000), seed=SEEDS)
@example(d=1, t=9, seed=3)             # half = ceil(d / 2) = 1
@example(d=2, t=5, seed=0)             # half 1, even d
@example(d=3, t=4, seed=7)             # half 2
@example(d=5, t=7, seed=2**64 - 1)     # half 3
@example(d=7, t=11, seed=-7)           # half 4: span = half
@example(d=777, t=29, seed=3)          # half 389, 1 mod 4
@example(d=1000, t=19, seed=-1)        # half 500, 0 mod 4
@example(d=3000, t=2000, seed=2**63)
def test_plan_blocks_equal_per_stream_integers(d, t, seed):
    """Every block's codes are what numpy's Generator.integers draws from the
    matrix's one stream, at the block's counter offset."""
    sign = mailman.build_plan(d, t, seed)
    assert sign.widths.tolist() == mailman.block_widths(d, t)
    assert sign.widths.dtype == sign.codes.dtype == np.int64
    # a sampled matrix's arrays pass the constructor's checks again unchanged
    checked = mailman.SignMatrix(d=d, t=t, codes=sign.codes)
    assert np.array_equal(checked.widths, sign.widths) and checked.codes is sign.codes
    for j, (p, codes) in enumerate(zip(sign.widths.tolist(), sign.codes)):
        assert np.array_equal(codes, _block_oracle(d, p, seed, j))


@pytest.mark.parametrize("d, t, seed", [(1, 9, 3), (5, 7, 0), (64, 60, -7),
                                        (777, 29, 3), (1000, 19, 1)])
def test_plan_blocks_are_a_prefix_of_a_wider_matrix(d, t, seed):
    """A (d, t) matrix's blocks are the first blocks of the (d, 2t) matrix:
    a block of width w holds the top w bits of the wider matrix's codes, so
    every full block, and its dense columns, are equal."""
    narrow, wide = mailman.build_plan(d, t, seed), mailman.build_plan(d, 2 * t, seed)
    blocks = narrow.widths.size
    shift = wide.widths[:blocks] - narrow.widths
    assert np.array_equal(narrow.codes, wide.codes[:blocks] >> shift[:, None])
    full = t - t % int(narrow.widths[0])
    assert np.array_equal(mailman.densify(narrow)[:, :full], mailman.densify(wide)[:, :full])


def _assert_densify_matches_blocks(sign, scaled):
    for j, block in enumerate(sign.blocks):
        assert block.p == sign.widths[j] and np.shares_memory(block.codes, sign.codes[j])
    assert np.array_equal(mailman.densify(sign, scaled=scaled),
                          densify_by_block(sign.blocks, 1.0 / np.sqrt(sign.t) if scaled else None))


@pytest.mark.parametrize("scaled", [False, True])
def test_densify_matches_per_block_oracle(scaled):
    cases = [mailman.build_plan(777, 29, 3),
             mailman.build_plan(1000, 19, 1), mailman.build_plan(50, 1600, 11),
             mailman.build_plan(2, 3, 0), mailman.build_plan(1, 4, 0)]
    for sign in cases:
        _assert_densify_matches_blocks(sign, scaled)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 600), t=st.integers(1, 300), seed=SEEDS)
@example(d=1, t=9, seed=3)             # d = 1: width-1 blocks of one row
@example(d=2**16, t=35, seed=0)        # 16-bit blocks: uint16 codes
@example(d=2**17 + 3, t=20, seed=-1)   # 17-bit blocks: uint32 codes
@example(d=600, t=300, seed=2**63)     # 9-bit blocks and a 3-bit remainder
def test_sampled_densify_equals_per_block_oracle(d, t, seed):
    sign = projection.sample_sign_matrix(d, t, seed)
    for scaled in (False, True):
        _assert_densify_matches_blocks(sign, scaled)


@pytest.mark.parametrize("d, t", [(1000, 2000), (10304, 360)])
def test_densify_over_several_row_chunks_equals_per_block_oracle(d, t):
    sign = mailman.build_plan(d, t, 5)
    # one gathered code per output column, in the type that holds p bits
    # (uint16 at p = 9 and 13): at least three row chunks
    code_bytes = np.min_scalar_type((1 << int(sign.widths[0])) - 1).itemsize
    assert d * t * code_bytes >= 3 * mailman.UNPACK_BYTES
    for scaled in (False, True):
        _assert_densify_matches_blocks(sign, scaled)


@pytest.mark.parametrize("budget", [1, 40, 1000])
def test_densify_row_chunks_of_any_size_equal_per_block_oracle(monkeypatch, budget):
    monkeypatch.setattr(mailman, "UNPACK_BYTES", budget)
    cases = [mailman.build_plan(777, 29, 3), mailman.build_plan(1, 4, 0)]
    for sign in cases:
        for scaled in (False, True):
            _assert_densify_matches_blocks(sign, scaled)


def test_densify_allocates_little_beyond_its_output():
    sign = mailman.build_plan(1000, 2000, 0)
    tracemalloc.start()
    try:
        dense = mailman.densify(sign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * dense.nbytes


def test_project_mailman_allocates_within_its_stated_budget():
    # rp-faces' shape: the output, the one-hot matrices, one transposed tile
    # for the whole call and one group's buckets, folded in place
    n, d, t = 400, 10304, 360
    a = np.random.default_rng(41).standard_normal((n, d))
    before = a.copy()
    plan = mailman.build_plan(d, t, 41)
    slices = mailman.bit_slices(d, t)[0].size
    budget = (8 * n * t + 12 * d * slices + 8 * d * mailman.ROW_TILE
              + mailman.TILE_BYTES)
    tracemalloc.start()
    try:
        out = mailman.project_mailman(a, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, t)
    assert peak <= budget
    assert np.array_equal(a, before)
