import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastpolar.classify import PlanOptions, classify, option_sweep
from fastpolar.codec import encode, g_step, polar_transform, sc_decode, sc_decode_batch
from fastpolar.construction import construct_code
from fastpolar.fastsc import (decode_gpc_sc, decode_grep_sc, fast_ssc_decode, fast_ssc_decode_batch,
                              grep_fold, wagner_decode)
from helpers import make_code, ml_even_parity, relaxed_code, sc_descent_batch, wagner_per_row

GEN = PlanOptions(enable_grep=True, enable_gpc=True)


def test_grep_fold_examples():
    assert grep_fold(np.array([1.0, -2.0]), 0)[0] == pytest.approx(-1.0)
    assert grep_fold(np.array([1.0, -2.0, 3.0, -4.0]), 1).tolist() == [4.0, -6.0]
    assert grep_fold(np.array([1.0, -2.0, 3.0, -4.0]), 0)[0] == pytest.approx(-2.0)


def test_grep_fold_is_iterated_g_with_zero_beta():
    rng = np.random.default_rng(0)
    for t in (2, 3, 4):
        for p in range(t):
            alpha = rng.normal(size=1 << t)
            ref = alpha.copy()
            while ref.size > (1 << p):
                ref = g_step(ref, np.zeros(ref.size // 2, np.uint8))
            assert np.allclose(grep_fold(alpha, p), ref)


def test_grep_fold_congruence_sums():
    rng = np.random.default_rng(1)
    alpha = rng.normal(size=16)
    folded = grep_fold(alpha, 2)
    for i in range(4):
        assert folded[i] == pytest.approx(alpha[i::4].sum())


def test_wagner_example():
    assert wagner_decode(np.array([1.0, -2.0, 3.0])).tolist() == [1, 1, 0]


def test_wagner_even_parity_is_hard_decision():
    alpha = np.array([1.0, -2.0, -3.0, 4.0])
    assert wagner_decode(alpha).tolist() == [0, 1, 1, 0]


def test_wagner_tie_flips_lowest_index():
    out = wagner_decode(np.array([2.0, 2.0, -2.0]))
    assert out.tolist() == [1, 0, 1]


@pytest.mark.parametrize("shape", [(5,), (1, 4), (256, 8), (3, 4, 6), (16, 8, 2)])
def test_wagner_matches_per_row_reference(shape):
    # integer LLRs in -2..2: many |LLR| ties (the lowest index flips) and zeros
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    for alpha in (rng.integers(-2, 3, shape).astype(float), rng.normal(size=shape)):
        before = alpha.copy()
        got = np.moveaxis(wagner_decode(np.moveaxis(alpha, -1, 0)), 0, -1)
        assert np.array_equal(got, wagner_per_row(alpha))
        assert np.array_equal(alpha, before)


def test_wagner_on_swapped_view():
    # codes down axis 0 of a non-contiguous view; decode_gpc_sc takes
    # positions first, so its batch is transposed
    rng = np.random.default_rng(3)
    alpha = rng.integers(-2, 3, (64, 32)).astype(float)
    before = alpha.copy()
    for np_sub in (2, 4, 8):
        view = np.swapaxes(alpha.reshape(64, 32 // np_sub, np_sub), -1, -2)
        assert not view.flags.c_contiguous
        codes = np.moveaxis(view, -1, 0)
        assert not codes.flags.c_contiguous
        assert np.array_equal(np.moveaxis(wagner_decode(codes), 0, -1), wagner_per_row(view))
        ref = np.swapaxes(wagner_per_row(view), -1, -2).reshape(64, 32)
        assert np.array_equal(decode_gpc_sc(alpha.T, np_sub).T, ref)
    assert np.array_equal(alpha, before)


@pytest.mark.parametrize("length", [2, 3, 4, 6, 8])
def test_wagner_ml_sign_exhaustive(length):
    # every sign pattern at fixed magnitudes
    mags = np.linspace(1.0, 2.0, length)
    for signs in range(1 << length):
        alpha = mags * np.where((signs >> np.arange(length)) & 1, -1.0, 1.0)
        assert np.array_equal(wagner_decode(alpha), ml_even_parity(alpha))


@pytest.mark.parametrize("length", [5, 9, 12])
def test_wagner_ml_random(length):
    rng = np.random.default_rng(length)
    for _ in range(200):
        alpha = rng.normal(size=length) * 2
        assert np.array_equal(wagner_decode(alpha), ml_even_parity(alpha))


def test_grep_rep_ml():
    plan = classify(make_code([0, 0, 0, 1]), GEN)
    beta = decode_grep_sc(np.array([1.0, -2.0, 3.0, -4.0]), plan)
    assert beta.tolist() == [1, 1, 1, 1]


def test_grep_all_positive_zeros():
    plan = classify(make_code([0] * 12 + [0, 0, 1, 1]), GEN)
    assert plan.kind == "grep"
    assert not decode_grep_sc(np.abs(np.random.default_rng(0).normal(size=16)), plan).any()


def test_gpc_example():
    beta = decode_gpc_sc(np.array([1.0, -2.0, 3.0, -4.0]), 2)
    assert beta.tolist() == [0, 1, 0, 1]


def test_gpc_np1_is_wagner():
    rng = np.random.default_rng(2)
    alpha = rng.normal(size=(30, 8))
    assert np.array_equal(decode_gpc_sc(alpha, 1), wagner_decode(alpha))


@pytest.mark.parametrize("flags", [
    [0, 0, 0, 1],
    [0, 0, 1, 1],
    [0, 0, 1, 1, 1, 1, 1, 1],
    [0] * 8 + [0, 0, 0, 1, 0, 1, 1, 1],
    [0, 1, 1, 1, 1, 1, 1, 1],
])
def test_special_nodes_match_tree_descent(flags):
    code = make_code(flags)
    plan = classify(code, GEN)
    rng = np.random.default_rng(len(flags))
    llrs = rng.normal(size=(2000, code.N)) * 2
    u_sc, x_sc = sc_descent_batch(llrs, code)
    u_f, x_f = fast_ssc_decode_batch(llrs, plan)
    assert np.array_equal(u_sc, u_f)
    assert np.array_equal(x_sc, x_f)


def test_rep_near_zero_sum_matches_sc():
    # the Rep decision must add the LLRs up in SC's g-step order: a plain
    # left-to-right sum rounds 1e16 - 1 - 1e16 to 0 where SC gets -1
    code = make_code([0, 0, 0, 1])
    plan = classify(code)
    assert plan.kind == "rep"
    llrs = np.array([[1e16, -1.0, -1e16, 0.0]])
    u_sc, _ = sc_descent_batch(llrs, code)
    assert u_sc[0, 3] == 1
    assert np.array_equal(fast_ssc_decode_batch(llrs, plan)[0], u_sc)
    rng = np.random.default_rng(5)
    for size in (4, 8, 16, 32, 64):
        code = make_code([0] * (size - 1) + [1])
        llrs = rng.normal(size=(2000, size)) * 3
        llrs[:, -1] = -llrs[:, :-1].sum(axis=1)
        u_sc, _ = sc_descent_batch(llrs, code)
        u_f, _ = fast_ssc_decode_batch(llrs, classify(code))
        assert np.array_equal(u_sc, u_f), size


@pytest.mark.parametrize("n,K", [(6, 13), (6, 32), (7, 64), (7, 100), (8, 128)])
def test_fast_ssc_equals_sc_random_codes(n, K):
    code = construct_code(n, K, 0.5)
    rng = np.random.default_rng(n * 100 + K)
    llrs = rng.normal(size=(1000, code.N)) * 2
    u_sc, _ = sc_descent_batch(llrs, code)
    for opts in (PlanOptions(), PlanOptions(True), GEN):
        u_f, _ = fast_ssc_decode_batch(llrs, classify(code, opts))
        assert np.array_equal(u_sc, u_f)


def test_default_f_rule_matches_sc():
    # the bit-exact pair must hold with default arguments: both default to min-sum
    code = construct_code(8, 128, 0.5)
    plan = classify(code, GEN)
    rng = np.random.default_rng(31)
    for _ in range(100):
        u = np.zeros(code.N, np.uint8)
        u[code.info_indices] = rng.integers(0, 2, code.K)
        llrs = 2.0 * ((1.0 - 2.0 * encode(u, code)) + rng.normal(size=code.N))
        assert np.count_nonzero(llrs) == code.N
        assert np.array_equal(fast_ssc_decode(llrs, plan)[0], sc_decode(llrs, code)[0])


@given(st.integers(0, 7), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_random_patterns_every_rung(n, seed):
    # every node kind on random frozen patterns, min-sum.  RG-PC decodes its
    # AF bits as information bits, so each rung's reference is the relaxed code
    rng = np.random.default_rng(seed)
    code = make_code(rng.random(1 << n) < rng.uniform(0.1, 0.9))
    llrs = rng.normal(size=(16, code.N)) * 2.5
    for label, opts in option_sweep():
        plan = classify(code, opts)
        u_ref, x_ref = sc_descent_batch(llrs, relaxed_code(code, plan))
        u, x = fast_ssc_decode_batch(llrs, plan)
        assert np.array_equal(u, u_ref) and np.array_equal(x, x_ref), label


@given(st.integers(5, 10), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rgpc_rungs_are_sc_on_the_relaxed_code(n, quarters, max_af, seed):
    # N 32 to 1024 at K = N/4, N/2 and 3N/4, on noisy codewords
    code = construct_code(n, quarters << (n - 2), 0.5)
    plan = classify(code, PlanOptions(True, True, max_af))
    rng = np.random.default_rng(seed)
    x = polar_transform(rng.integers(0, 2, (8, code.N), dtype=np.uint8) * code.flags)
    llrs = (1.0 - 2.0 * x) * 1.2 + rng.normal(size=x.shape)
    u, x_hat = fast_ssc_decode_batch(llrs, plan)
    u_ref, x_ref = sc_decode_batch(llrs, relaxed_code(code, plan))
    assert np.array_equal(x_hat, x_ref) and np.array_equal(u, u_ref)


@pytest.mark.xfail(strict=True, reason="a Rate-1 node decides an exact-zero LLR as 0; "
                   "SC copies its partner's decision there")
def test_zero_llr_tie_break_matches_sc():
    # both decisions have metric 2; SC's f-step gives -0.0, so u0 = 0 and
    # then u1 = 1, while the node-root hard decision gives x = [1, 0]
    code = make_code([1, 1])
    llrs = np.array([[-2.0, 0.0]])
    u_ref, _ = sc_descent_batch(llrs, code)
    assert np.array_equal(fast_ssc_decode_batch(llrs, classify(code))[0], u_ref)


def test_overflowing_llrs_rejected():
    # finite LLRs near the float maximum: an overflowing g-sum would give a
    # NaN at a Rate-1 node, where SC and the node's hard decision part ways.
    # The entry points reject N * max|LLR| at the float maximum (test_codec's
    # entry-point table); just below it no f/g sum overflows, and fast SC
    # matches SC
    rng = np.random.default_rng(5)
    for n in (3, 5, 8):
        code = construct_code(n, 1 << (n - 1), 0.5)
        top = np.nextafter(np.finfo(np.float64).max / code.N, 0)
        llrs = rng.choice([-1.0, 1.0], (20, code.N)) * rng.uniform(0.5, 1.0, (20, code.N)) * top
        llrs[:, -1] = top
        u_ref, _ = sc_descent_batch(llrs, code)
        for label, opts in option_sweep()[:3]:
            assert np.array_equal(fast_ssc_decode_batch(llrs, classify(code, opts))[0], u_ref), label


def test_parity_soundness_of_encoder_on_gpc():
    # every codeword restricted to a parity-check node satisfies all Np
    # stride parities
    for z, size in [(1, 8), (2, 8), (2, 16), (4, 16), (4, 32), (8, 32)]:
        flags = np.array([0] * z + [1] * (size - z), np.uint8)
        code = make_code(flags)
        rng = np.random.default_rng(size + z)
        u = np.zeros((200, size), np.uint8)
        u[:, z:] = rng.integers(0, 2, (200, size - z), dtype=np.uint8)
        x = np.stack([encode(row, code) for row in u])
        strided = x.reshape(200, size // z, z)
        assert not np.bitwise_xor.reduce(strided, axis=1).any()


def test_rgpc_noiseless_recovery():
    flags = np.array([0, 0, 0, 1, 0, 1, 1, 1], np.uint8)
    code = make_code(flags)
    plan = classify(code, PlanOptions(True, True, 2))
    assert plan.kind == "rgpc"
    rng = np.random.default_rng(9)
    u = np.zeros((500, 8), np.uint8)
    u[:, code.info_indices] = rng.integers(0, 2, (500, 4), dtype=np.uint8)
    x = np.stack([encode(row, code) for row in u])
    llrs = (1.0 - 2.0 * x) * 5.0
    u_hat, _ = fast_ssc_decode_batch(llrs, plan)
    assert np.array_equal(u_hat, u)

