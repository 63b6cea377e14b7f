import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastpolar.codec import combine, encode, f_step, g_step, polar_transform, sc_decode, sc_decode_batch
from fastpolar.construction import PolarCode, construct_code
from helpers import kron_generator, sc_descent_batch


def test_encode_all_zero():
    code = construct_code(4, 8, 0.5)
    assert not encode(np.zeros(16, np.uint8), code).any()


def test_encode_kernel_row():
    code = PolarCode(1, 1, np.array([0, 1], np.uint8), 0.5)
    assert encode(np.array([0, 1], np.uint8), code).tolist() == [1, 1]


def test_encode_all_ones_row():
    code = PolarCode(2, 1, np.array([0, 0, 0, 1], np.uint8), 0.5)
    assert encode(np.array([0, 0, 0, 1], np.uint8), code).tolist() == [1, 1, 1, 1]


def test_encode_rejects_nonzero_frozen():
    code = construct_code(3, 4, 0.5)
    u = np.zeros(8, np.uint8)
    u[int(code.frozen_indices[0])] = 1
    with pytest.raises(ValueError):
        encode(u, code)


@pytest.mark.parametrize("bad", [2, -1, 256, 0.5])
def test_encode_rejects_values_other_than_bits(bad):
    # a uint8 cast wraps 256 to 0 and -1 to 255, and bit packing reads 2 as 1
    code = construct_code(4, 8, 0.5)
    u = np.zeros(16)
    u[code.info_indices[0]] = bad
    with pytest.raises(ValueError, match="only the bits 0 and 1"):
        encode(u, code)
    with pytest.raises(ValueError, match="only the bits 0 and 1"):
        encode(np.stack([np.zeros(16), u]), code)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_transform_matches_kronecker_matrix(n):
    N = 1 << n
    G = kron_generator(n)
    rng = np.random.default_rng(n)
    u = rng.integers(0, 2, (200, N), dtype=np.uint8)
    assert np.array_equal(polar_transform(u), (u @ G) % 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transform_involution_exhaustive(n):
    N = 1 << n
    u = ((np.arange(1 << N)[:, None] >> np.arange(N)) & 1).astype(np.uint8)
    assert np.array_equal(polar_transform(polar_transform(u)), u)


@given(st.integers(0, 10), st.sampled_from([(), (3,), (2, 3)]), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_transform_matches_kronecker_reference(n, lead, seed):
    # the reference is the explicit generator matrix, independent of the
    # butterfly and of the byte table
    N = 1 << n
    u = np.random.default_rng(seed).integers(0, 2, lead + (N,), dtype=np.uint8)
    x = polar_transform(u)
    assert x.shape == u.shape and x.dtype == np.uint8
    assert np.array_equal(x, (u.astype(np.int64) @ kron_generator(n)) % 2)
    assert np.array_equal(polar_transform(x), u)


def test_f_step_zero_absorbs():
    for c in (-3.0, 0.0, 7.5):
        assert f_step(np.array([0.0, c]))[0] == pytest.approx(0.0)


def test_f_step_numeric_value():
    out = f_step(np.array([2.0, 3.0]))
    assert out[0] == pytest.approx(1.6936, abs=1e-3)
    out = f_step(np.array([-2.0, 3.0]))
    assert out[0] == pytest.approx(-1.6936, abs=1e-3)


def test_f_step_minsum():
    out = f_step(np.array([-2.0, 3.0]), minsum=True)
    assert out[0] == pytest.approx(-2.0)
    out = f_step(np.array([5.0, -1.5]), minsum=True)
    assert out[0] == pytest.approx(-1.5)


def test_f_step_finite_on_huge_inputs():
    out = f_step(np.array([800.0, 900.0]))
    assert np.isfinite(out).all()


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_f_step_minsum_structure(vals):
    a, b = vals
    out = float(f_step(np.array([a, b]), minsum=True)[0])
    assert out == pytest.approx(np.sign(a) * np.sign(b) * min(abs(a), abs(b)))


def test_g_step_examples():
    assert g_step(np.array([1.0, 2.0]), np.array([0]))[0] == pytest.approx(3.0)
    assert g_step(np.array([1.0, 2.0]), np.array([1]))[0] == pytest.approx(1.0)
    assert g_step(np.array([-4.0, 2.5]), np.array([1]))[0] == pytest.approx(6.5)


def test_combine_examples():
    assert combine(np.array([0]), np.array([1])).tolist() == [1, 1]
    assert combine(np.array([1, 0]), np.array([1, 1])).tolist() == [0, 1, 1, 1]
    z = np.array([1, 0, 1], np.uint8)
    assert combine(z, z).tolist() == [0, 0, 0, 1, 0, 1]


def test_sc_all_frozen_decodes_zero():
    code = construct_code(4, 0, 0.5)
    rng = np.random.default_rng(0)
    u_hat, x_hat = sc_decode(rng.normal(size=16), code, minsum=False)
    assert not u_hat.any() and not x_hat.any()


def test_sc_hand_trace_two_bits():
    code = PolarCode(1, 2, np.array([1, 1], np.uint8), 0.5)
    u_hat, _ = sc_decode(np.array([-1.0, 3.0]), code, minsum=False)
    assert u_hat.tolist() == [1, 0]


@pytest.mark.parametrize("n,K", [(4, 8), (5, 20), (6, 32)])
def test_sc_noiseless_round_trip(n, K):
    code = construct_code(n, K, 0.5)
    rng = np.random.default_rng(K)
    u = np.zeros((1000, code.N), np.uint8)
    u[:, code.info_indices] = rng.integers(0, 2, (1000, K), dtype=np.uint8)
    llrs = (1.0 - 2.0 * polar_transform(u)) * 4.0
    u_hat, x_hat = sc_decode_batch(llrs, code, minsum=False)
    assert np.array_equal(u_hat, u)
    assert np.array_equal(x_hat, polar_transform(u_hat))


def test_sc_reencoding_consistency():
    code = construct_code(6, 40, 0.5)
    rng = np.random.default_rng(3)
    u_hat, x_hat = sc_decode_batch(rng.normal(size=(200, 64)), code, minsum=False)
    assert np.array_equal(x_hat, polar_transform(u_hat))


def test_sc_minsum_scale_invariance():
    code = construct_code(6, 32, 0.5)
    rng = np.random.default_rng(4)
    llrs = rng.normal(size=(300, 64)) * 2
    base, _ = sc_decode_batch(llrs, code, minsum=True)
    for c in (0.1, 3.0, 250.0):
        scaled, _ = sc_decode_batch(c * llrs, code, minsum=True)
        assert np.array_equal(base, scaled)


@given(st.integers(0, 7), st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sc_equals_descent_oracle(n, seed, minsum):
    # plain SC is the plan walker on the leaves-only plan; the oracle is an
    # independent tree descent
    rng = np.random.default_rng(seed)
    flags = rng.integers(0, 2, 1 << n, dtype=np.uint8)
    code = PolarCode(n, int(flags.sum()), flags, 0.5)
    llrs = rng.normal(size=(20, code.N)) * 2
    u_hat, x_hat = sc_decode_batch(llrs, code, minsum=minsum)
    u_ref, x_ref = sc_descent_batch(llrs, code, minsum=minsum)
    assert np.array_equal(u_hat, u_ref) and np.array_equal(x_hat, x_ref)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_llrs_rejected(bad):
    code = construct_code(5, 16, 0.5)
    llrs = np.full((3, 32), 2.0)
    llrs[1, [4, 9]] = bad
    with pytest.raises(ValueError, match="2 of 96 channel LLRs are not finite"):
        sc_decode_batch(llrs, code)
    with pytest.raises(ValueError, match="2 of 32 channel LLRs are not finite"):
        sc_decode(llrs[1], code)
