import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fastpolar.classify import PlanOptions, classify
from fastpolar.codec import (_llr_limit, combine, encode, f_step, g_step, polar_transform,
                             sc_decode, sc_decode_batch)
from fastpolar.construction import PolarCode, construct_code
from fastpolar.crc import CRC8
from fastpolar.fastsc import fast_ssc_decode, fast_ssc_decode_batch
from fastpolar.fastscl import fast_scl_decode, fast_scl_decode_batch, fast_scl_decode_paths_batch
from fastpolar.listdec import scl_decode, scl_decode_batch, scl_decode_paths_batch
from helpers import kron_generator, sc_descent_batch


def test_encode_all_zero():
    code = construct_code(4, 8, 0.5)
    assert not encode(np.zeros(16, np.uint8), code).any()


def test_encode_kernel_row():
    code = PolarCode(np.array([0, 1], np.uint8), 0.5)
    assert encode(np.array([0, 1], np.uint8), code).tolist() == [1, 1]


def test_encode_all_ones_row():
    code = PolarCode(np.array([0, 0, 0, 1], np.uint8), 0.5)
    assert encode(np.array([0, 0, 0, 1], np.uint8), code).tolist() == [1, 1, 1, 1]


def test_encode_rejects_nonzero_frozen():
    code = construct_code(3, 4, 0.5)
    u = np.zeros(8, np.uint8)
    u[int(code.frozen_indices[0])] = 1
    with pytest.raises(ValueError):
        encode(u, code)


def test_wrong_lengths_rejected():
    # a 0-d input has no length: it used to raise an IndexError
    for u in (np.zeros(8, np.uint8), 5, np.uint8(1)):
        with pytest.raises(ValueError, match="u must have length 16"):
            encode(u, construct_code(4, 8, 0.5))
    for u in (np.zeros((2, 3), np.uint8), np.zeros(6), np.zeros((1, 12)), 1, np.zeros((2, 0))):
        with pytest.raises(ValueError, match="length must be a power of two"):
            polar_transform(u)


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


@pytest.mark.parametrize("n", range(1, 11))
def test_transform_on_input_layouts(n):
    # the butterfly runs in place on a packed copy, so a reshape that copied
    # for some input layout would lose its writes
    N = 1 << n
    u = np.random.default_rng(n).integers(0, 2, (6, 4, 2 * N), dtype=np.uint8)
    c = np.ascontiguousarray(u[:, :, ::2])  # (B, P, N)
    ref = polar_transform(c)
    assert np.array_equal(ref, (c.astype(np.int64) @ kron_generator(n)) % 2)
    layouts = {"F-ordered": np.asfortranarray(c), "strided slice": u[:, :, ::2],
               "transposed view": np.ascontiguousarray(c.transpose(1, 0, 2)).transpose(1, 0, 2)}
    for name, x in layouts.items():
        assert not x.flags.c_contiguous and np.array_equal(x, c), name
        assert np.array_equal(polar_transform(x), ref), name


def test_f_step_zero_absorbs():
    for c in (-3.0, 0.0, 7.5):
        assert f_step(np.array([0.0, c]))[0] == pytest.approx(0.0)


def test_f_step_minsum():
    out = f_step(np.array([-2.0, 3.0]))
    assert out[0] == pytest.approx(-2.0)
    out = f_step(np.array([5.0, -1.5]))
    assert out[0] == pytest.approx(-1.5)


def test_f_step_finite_on_huge_inputs():
    out = f_step(np.array([800.0, 900.0]))
    assert np.isfinite(out).all()


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_f_step_minsum_structure(vals):
    a, b = vals
    out = float(f_step(np.array([a, b]))[0])
    assert out == pytest.approx(np.sign(a) * np.sign(b) * min(abs(a), abs(b)))


def test_f_step_minsum_matches_sign_product_on_hostile_values():
    # every pair of: exact zeros of both signs, values whose products
    # underflow (1e-170) or overflow (1e200, 1e308), and the infinities of
    # overflowed f/g sums; then Gaussian LLRs at each scale, with zeros
    v = [0.0, -0.0, 1.5, 3e-170, 7e-170, 2e-160, 4e200, 6e200, 1e308, np.inf]
    v = np.array(v + [-x for x in v[2:]])
    a, b = np.meshgrid(v, v)
    rng = np.random.default_rng(11)
    g = np.round(rng.normal(size=(3, 64, 16)), 1)  # about 4% exact zeros
    for alpha in (np.stack([a.ravel(), b.ravel()], axis=-1),
                  *(g * scale for scale in (1.0, 1e-170, 1e200))):
        with np.errstate(invalid="ignore"):  # sign(0) * inf: a NaN sign for a zero
            got = np.moveaxis(f_step(np.moveaxis(alpha, -1, 0)), 0, -1)
        ref = helpers.f_step(alpha)
        assert np.array_equal(got, ref)  # by value: +0 == -0
        assert np.array_equal(got < 0, ref < 0)


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
    u_hat, x_hat = sc_decode(rng.normal(size=16), code)
    assert not u_hat.any() and not x_hat.any()


def test_sc_hand_trace_two_bits():
    code = PolarCode(np.array([1, 1], np.uint8), 0.5)
    u_hat, _ = sc_decode(np.array([-1.0, 3.0]), code)
    assert u_hat.tolist() == [1, 0]


@pytest.mark.parametrize("n,K", [(4, 8), (5, 20), (6, 32)])
def test_sc_noiseless_round_trip(n, K):
    code = construct_code(n, K, 0.5)
    rng = np.random.default_rng(K)
    u = np.zeros((1000, code.N), np.uint8)
    u[:, code.info_indices] = rng.integers(0, 2, (1000, K), dtype=np.uint8)
    llrs = (1.0 - 2.0 * polar_transform(u)) * 4.0
    u_hat, x_hat = sc_decode_batch(llrs, code)
    assert np.array_equal(u_hat, u)
    assert np.array_equal(x_hat, polar_transform(u_hat))


def test_sc_reencoding_consistency():
    code = construct_code(6, 40, 0.5)
    rng = np.random.default_rng(3)
    u_hat, x_hat = sc_decode_batch(rng.normal(size=(200, 64)), code)
    assert np.array_equal(x_hat, polar_transform(u_hat))


def test_sc_minsum_scale_invariance():
    code = construct_code(6, 32, 0.5)
    rng = np.random.default_rng(4)
    llrs = rng.normal(size=(300, 64)) * 2
    base, _ = sc_decode_batch(llrs, code)
    for c in (0.1, 3.0, 250.0):
        scaled, _ = sc_decode_batch(c * llrs, code)
        assert np.array_equal(base, scaled)


@given(st.integers(0, 7), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_sc_equals_descent_oracle(n, seed):
    # plain SC is the plan walker on the leaves-only plan; the oracle is an
    # independent tree descent
    rng = np.random.default_rng(seed)
    flags = rng.integers(0, 2, 1 << n, dtype=np.uint8)
    code = PolarCode(flags, 0.5)
    llrs = rng.normal(size=(20, code.N)) * 2
    u_hat, x_hat = sc_decode_batch(llrs, code)
    u_ref, x_ref = sc_descent_batch(llrs, code)
    assert np.array_equal(u_hat, u_ref) and np.array_equal(x_hat, x_ref)


def _entry_points():
    code = construct_code(4, 8, 0.5)
    plan = classify(code, PlanOptions(enable_grep=True, enable_gpc=True))
    single = {"sc_decode": lambda x, **kw: sc_decode(x, code, **kw),
              "fast_ssc_decode": lambda x, **kw: fast_ssc_decode(x, plan, **kw),
              "scl_decode": lambda x, L=4, **kw: scl_decode(x, code, L, **kw),
              "fast_scl_decode": lambda x, L=4, **kw: fast_scl_decode(x, code, plan, L, **kw)}
    batch = {"sc_decode_batch": lambda x, **kw: sc_decode_batch(x, code, **kw),
             "fast_ssc_decode_batch": lambda x, **kw: fast_ssc_decode_batch(x, plan, **kw),
             "scl_decode_batch": lambda x, L=4, **kw: scl_decode_batch(x, code, L, **kw),
             "scl_decode_paths_batch": lambda x, L=4, **kw: scl_decode_paths_batch(
                 x, code, L, **kw),
             "fast_scl_decode_batch": lambda x, L=4, **kw: fast_scl_decode_batch(
                 x, code, plan, L, **kw),
             "fast_scl_decode_paths_batch": lambda x, L=4, **kw: fast_scl_decode_paths_batch(
                 x, plan, L, **kw)}
    return single, batch


ENTRY_POINTS = ["sc_decode", "fast_ssc_decode", "scl_decode", "fast_scl_decode", "sc_decode_batch",
                "fast_ssc_decode_batch", "scl_decode_batch", "scl_decode_paths_batch",
                "fast_scl_decode_batch", "fast_scl_decode_paths_batch"]
LIST_ENTRY_POINTS = [name for name in ENTRY_POINTS if "scl" in name]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_accept_only_minsum(name):
    # min-sum is the only f-update: the keyword refuses False instead of
    # ignoring it, and True (as the benchmark passes it) is the default
    single, batch = _entry_points()
    decode = {**single, **batch}[name]
    llrs = np.random.default_rng(3).normal(size=16) * 2
    for bad in (False, None, 0, "no"):
        with pytest.raises(ValueError, match="exact f-update was removed"):
            decode(llrs, minsum=bad)
    for got, ref in zip(decode(llrs, minsum=True), decode(llrs)):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("shape", [(2, 16), (1, 16), ()])
@pytest.mark.parametrize("name", ["sc_decode", "fast_ssc_decode", "scl_decode", "fast_scl_decode"])
def test_single_frame_entry_points_reject_other_shapes(name, shape):
    decode = _entry_points()[0][name]
    with pytest.raises(ValueError, match="expected one frame of 16 LLRs"):
        decode(np.ones(shape))
    assert decode(np.ones(16))[0].shape == (16,)


@pytest.mark.parametrize("shape", [(2, 3, 16), ()])
@pytest.mark.parametrize("name", ["sc_decode_batch", "fast_ssc_decode_batch", "scl_decode_batch",
                                  "scl_decode_paths_batch", "fast_scl_decode_batch",
                                  "fast_scl_decode_paths_batch"])
def test_batch_entry_points_reject_other_ranks(name, shape):
    decode = _entry_points()[1][name]
    with pytest.raises(ValueError, match="expected a \\(B, 16\\) batch or one frame of 16 LLRs"):
        decode(np.ones(shape))
    assert decode(np.ones(16))[0].shape[0] == 1  # one frame is a batch of one


@pytest.mark.parametrize("name", ["sc_decode_batch", "fast_ssc_decode_batch", "scl_decode_batch",
                                  "scl_decode_paths_batch", "fast_scl_decode_batch",
                                  "fast_scl_decode_paths_batch"])
def test_batch_entry_points_keep_frames_first_layout(name):
    # the walkers run positions first, but every batch entry point returns
    # C-contiguous arrays with frames first, for C-ordered, F-ordered and
    # strided input alike
    decode = _entry_points()[1][name]
    rng = np.random.default_rng(9)
    wide = rng.normal(size=(5, 32)) * 2.5
    ref = decode(wide[:, ::2].copy())
    for llrs in (np.asfortranarray(wide[:, ::2]), wide[:, ::2]):
        got = decode(llrs)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    for out in ref:
        assert out.shape[0] == 5 and out.flags.c_contiguous
    assert ref[0].shape == ((5, 4, 16) if name.endswith("paths_batch") else (5, 16))


@pytest.mark.parametrize("name", ["sc_decode_batch", "fast_ssc_decode_batch", "scl_decode_batch",
                                  "scl_decode_paths_batch", "fast_scl_decode_batch",
                                  "fast_scl_decode_paths_batch"])
def test_batch_entry_points_decode_empty_batches(name):
    # a (0, N) batch gives (0, N) decisions, or (0, P, N) paths and their
    # metrics, with P as in any other batch; the list decoders used to fail
    # reshaping zero rows, with a CRC or without
    decode = _entry_points()[1][name]
    for kw in [{}, {"crc": CRC8}] if name.endswith("scl_decode_batch") else [{}]:
        out, one = decode(np.empty((0, 16)), **kw), decode(np.ones((1, 16)), **kw)
        assert [o.shape for o in out] == [(0,) + o.shape[1:] for o in one]
        assert [o.dtype for o in out] == [o.dtype for o in one]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_reject_non_finite_llrs(name, bad):
    # NaN or inf would decode silently to garbage; the message counts them
    single, batch = _entry_points()
    decode = {**single, **batch}[name]
    llrs = np.full((3, 16), 2.0)
    llrs[1, [4, 9]] = bad
    llrs = llrs[1] if name in single else llrs
    with pytest.raises(ValueError, match=f"2 of {llrs.size} channel LLRs are not finite"):
        decode(llrs)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_reject_overflowing_llrs(name):
    # at N * max|LLR| up to the float maximum an f/g sum could overflow to
    # inf or NaN; test_fastsc and test_listdec check exactness just below
    single, batch = _entry_points()
    decode = {**single, **batch}[name]
    frame = np.random.default_rng(6).choice([-1.0, 1.0], 16) * np.linspace(0.5, 1.0, 16)
    frames = frame if name in single else np.stack([frame, -frame])
    for peak in (_llr_limit(16), 1e308):
        with pytest.raises(ValueError, match=r"N \* max\|LLR\| must stay below the float"):
            decode(frames * peak)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_reject_complex_llrs(name):
    # a float cast would keep the real part, with only a ComplexWarning
    single, batch = _entry_points()
    decode = {**single, **batch}[name]
    llrs = np.random.default_rng(4).normal(size=16) * 2
    for bad in (llrs + 1j, llrs.astype(np.complex128), list(llrs + 0.5j)):
        with pytest.raises(ValueError, match="channel LLRs must be real"):
            decode(bad)


@pytest.mark.parametrize("name", LIST_ENTRY_POINTS)
def test_list_entry_points_check_list_size_and_crc(name):
    # 4.0 and 2.5 used to fail with a TypeError deep in a fork, and True ran
    # as L = 1; a CRC name used to fail with an AttributeError after decoding
    single, batch = _entry_points()
    decode = {**single, **batch}[name]
    llrs = np.random.default_rng(5).normal(size=16) * 2
    for bad in (0, -2, 4.0, 2.5, True, "4", None):
        with pytest.raises(ValueError, match="list size L must be an integer >= 1"):
            decode(llrs, L=bad)
    ref = decode(llrs, L=4)
    for got, want in zip(decode(llrs, L=np.int64(4)), ref):
        assert np.array_equal(got, want)
    if "paths" in name:
        return
    for bad in ("crc8", 8, {"width": 8}):
        with pytest.raises(ValueError, match="crc must be None or a CrcSpec"):
            decode(llrs, crc=bad)
    assert decode(llrs, crc=CRC8)[0].shape[-1] == 16
