import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fastpolar.classify import PlanOptions
from fastpolar.construction import PolarCode, construct_code, save_descriptor
from fastpolar.crc import CRC8, CRC16, CrcSpec
from fastpolar.sim import (DECODERS, LIST_DECODERS, SimConfig, _gen_frames, awgn_bpsk_llrs,
                           batch_decoder, load_sim_config, run_bler, wilson_interval)
from helpers import gen_frames_per_frame


def small_cfg(**kw):
    base = dict(code=construct_code(5, 16, 0.5), snr_db=(2.0,), min_errors=20,
                max_frames=2000, seed=3, batch=64)
    base.update(kw)
    return SimConfig(**base)


def test_awgn_sign_limit():
    x = np.array([0, 1, 0, 1], np.uint8)
    llrs = awgn_bpsk_llrs(x, 1e-4, np.random.default_rng(0))
    assert ((llrs > 0) == (x == 0)).all()


def test_awgn_mean_scaling():
    sigma = 0.8
    rng = np.random.default_rng(1)
    llrs = awgn_bpsk_llrs(np.zeros(100_000, np.uint8), sigma, rng)
    mean, std = 2.0 / sigma**2, 2.0 / sigma
    assert abs(llrs.mean() - mean) < 4 * std / np.sqrt(llrs.size)
    assert llrs.std() == pytest.approx(std, rel=0.02)


@pytest.mark.parametrize("shape", [(64,), (5, 32)])
def test_awgn_matches_written_out_channel_and_keeps_x(shape):
    # the channel step works in place on its noise; the caller's x stays
    x = np.random.default_rng(4).integers(0, 2, shape).astype(np.float64)
    x_before = x.copy()
    sigma = 0.7
    llrs = awgn_bpsk_llrs(x, sigma, np.random.default_rng(9))
    noise = np.random.default_rng(9).normal(size=shape)
    assert llrs.tobytes() == (2.0 * ((1.0 - 2.0 * x) + sigma * noise) / sigma**2).tobytes()
    assert x.tobytes() == x_before.tobytes()


def test_awgn_rejects_bad_sigma():
    # construct_code's sigma rule: NaN used to give NaN LLRs, and inf or
    # 1e-160 a RuntimeWarning (an error under this suite's filter)
    for bad in (0.0, -0.5, np.nan, np.inf, -np.inf, 1e-160, 1e200, True, "0.5"):
        with pytest.raises(ValueError, match="^sigma must be a positive number .* got"):
            awgn_bpsk_llrs(np.zeros(4, np.uint8), bad, np.random.default_rng(0))


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi and hi - lo < 0.25
    assert wilson_interval(0, 0) == (0.0, 1.0)
    # coverage grows tighter with n
    assert wilson_interval(500, 1000)[1] - wilson_interval(500, 1000)[0] \
        < wilson_interval(50, 100)[1] - wilson_interval(50, 100)[0]


def test_run_is_deterministic():
    a = run_bler(small_cfg())
    b = run_bler(small_cfg())
    assert a.to_csv() == b.to_csv()


def test_counters_batch_size_invariant():
    a = run_bler(small_cfg(batch=7))
    b = run_bler(small_cfg(batch=64))
    for pa, pb in zip(a.points, b.points):
        assert (pa.frames, pa.frame_errors, pa.bit_errors) == \
            (pb.frames, pb.frame_errors, pb.bit_errors)


def test_seed_changes_noise():
    a = run_bler(small_cfg(seed=1))
    b = run_bler(small_cfg(seed=2))
    assert (a.points[0].frames, a.points[0].frame_errors) != \
        (b.points[0].frames, b.points[0].frame_errors)


def test_high_snr_near_zero_errors():
    cfg = small_cfg(snr_db=(8.0,), min_errors=1, max_frames=500)
    point = run_bler(cfg).points[0]
    assert point.bler < 0.02


def test_fastssc_matches_sc_counters():
    a = run_bler(small_cfg(decoder="sc"))
    b = run_bler(small_cfg(decoder="fastssc", enable_grep=True, enable_gpc=True))
    for pa, pb in zip(a.points, b.points):
        assert (pa.frames, pa.frame_errors, pa.bit_errors) == \
            (pb.frames, pb.frame_errors, pb.bit_errors)


def test_fast_list_matches_descent_counters():
    kw = dict(list_size=4, crc=CRC8, snr_db=(1.0, 2.5), min_errors=15, max_frames=1500)
    a = run_bler(small_cfg(decoder="scl", **kw))
    b = run_bler(small_cfg(decoder="ssclspc", enable_grep=True, enable_gpc=True, **kw))
    for pa, pb in zip(a.points, b.points):
        assert (pa.frames, pa.frame_errors, pa.bit_errors) == \
            (pb.frames, pb.frame_errors, pb.bit_errors)


def test_effective_rate_discounts_crc():
    cfg = small_cfg(decoder="scl", crc=CRC8)
    assert cfg.payload_bits == 8
    assert cfg.effective_rate == pytest.approx(8 / 32)
    # rate compensation makes ebn0 sigma larger than esn0 at the same dB
    assert cfg.sigma_for(2.0) > SimConfig(**{**cfg.__dict__, "snr_unit": "esn0"}).sigma_for(2.0)


def test_config_validation():
    code = construct_code(4, 8, 0.5)
    with pytest.raises(ValueError):
        SimConfig(code=code, snr_db=(2.0, 1.0))
    with pytest.raises(ValueError):
        SimConfig(code=code, decoder="viterbi")
    with pytest.raises(ValueError):
        SimConfig(code=code, min_errors=0)
    with pytest.raises(ValueError):
        SimConfig(code=code, crc=CRC8)  # 8 CRC bits leave no payload headroom
    with pytest.raises(ValueError):
        SimConfig(code=code, snr_unit="db")
    # min-sum is the only f-update: False is refused, True (as the
    # benchmark passes it) is accepted
    with pytest.raises(ValueError, match="exact f-update was removed"):
        SimConfig(code=code, minsum=False)
    SimConfig(code=code, minsum=True)
    for field in ("batch", "max_frames", "list_size"):
        with pytest.raises(ValueError, match=field):
            SimConfig(code=code, **{field: 0})
    # the frame key holds 64 bits of the seed: 3 + 2**64 and -1 would alias 3 and 2**64 - 1
    for seed in (-1, 3 + 2**64, 2**64):
        with pytest.raises(ValueError, match=rf"seed must be an integer in \[0, {2**64}\), got"):
            SimConfig(code=code, seed=seed)
    SimConfig(code=code, seed=2**64 - 1)
    # the SC decoders take no list; a CRC still sets their payload size and Eb/N0
    for decoder, L in (("sc", 8), ("fastssc", 2)):
        with pytest.raises(ValueError, match=f"list_size applies only.*{decoder} needs"):
            SimConfig(code=code, decoder=decoder, list_size=L)
    wide = construct_code(5, 16, 0.5)
    for decoder in ("sc", "fastssc"):
        assert SimConfig(code=wide, decoder=decoder, crc=CRC8).payload_bits == 8
    for decoder in LIST_DECODERS:
        SimConfig(code=wide, decoder=decoder, list_size=8, crc=CRC8)
    for snr in ((np.nan,), (np.inf,), (1.0, np.inf)):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            SimConfig(code=code, snr_db=snr)
    # finite, but sigma or the LLR scale 2/sigma**2 overflows or vanishes
    for snr in (4000.0, 3080.0, -4000.0):
        with pytest.raises(ValueError, match=f"snr_db {snr} gives no finite"):
            SimConfig(code=code, snr_db=(1.0, snr) if snr > 1 else (snr, 1.0))


def test_batch_decoder_checks_name_and_list_size():
    # an unknown name used to raise KeyError, and the SC decoders ignored L
    code, opts = construct_code(5, 16, 0.5), PlanOptions(True, True)
    for name in ("foo", None, ["sc"]):
        with pytest.raises(ValueError, match="decoder must be one of"):
            batch_decoder(name, code, opts, 1, None)
    for name in ("sc", "fastssc"):
        for L in (8, 2):
            with pytest.raises(ValueError, match=f"list_size applies only.*{name} needs"):
                batch_decoder(name, code, opts, L, CRC8)
    for L in (0, 2.5, True):
        with pytest.raises(ValueError, match="list_size must be an integer >= 1"):
            batch_decoder("scl", code, opts, L, None)
    # run_bler attaches a CRC for the SC decoders too, so they take one
    llrs = np.random.default_rng(8).normal(size=(3, 32)) * 2
    for name in DECODERS:
        L = 8 if name in LIST_DECODERS else 1
        assert batch_decoder(name, code, opts, L, CRC8)(llrs).shape == (3, 32)


@pytest.mark.parametrize("field,value", [
    ("list_size", 2.5), ("batch", "16"), ("seed", 1.0), ("max_af", True), ("min_errors", None),
    ("max_frames", 1e6), ("enable_grep", "no"), ("enable_gpc", 1), ("minsum", None),
    ("snr_db", 2.0), ("snr_db", "2.0"), ("snr_db", [1.0, "2.0"]), ("snr_db", [True]),
])
def test_config_rejects_wrong_types(field, value):
    # each used to raise a TypeError later, or ran with a truthy string as True
    with pytest.raises(ValueError, match=field):
        SimConfig(code=construct_code(4, 8, 0.5), **{field: value})


def test_config_accepts_only_ladder_node_options():
    # checked when the config is made, not first inside run_bler
    code = construct_code(4, 8, 0.5)
    for kw in ({"max_af": 7}, {"max_af": 2}, {"enable_gpc": True},
               {"enable_gpc": True, "max_af": 1}, {"enable_grep": True, "max_af": 3}):
        with pytest.raises(ValueError, match="max_af|needs enable_"):
            SimConfig(code=code, **kw)
    SimConfig(code=code, enable_grep=True, enable_gpc=True, max_af=3)


def test_crc_as_wide_as_k_needs_esn0():
    # a CRC may fill every information bit (the one fit rule, width <= K),
    # which leaves no payload, so the SNR must be Es/N0
    code = construct_code(4, 8, 0.5)
    with pytest.raises(ValueError, match="'ebn0' needs payload bits.*'esn0'"):
        SimConfig(code=code, crc=CRC8)
    with pytest.raises(ValueError, match="a 16-bit CRC does not fit in 8 bits"):
        SimConfig(code=code, crc=CRC16, snr_unit="esn0")
    cfg = SimConfig(code=code, decoder="scl", list_size=4, crc=CRC8, snr_unit="esn0",
                    max_frames=8, batch=4)
    assert cfg.payload_bits == 0 and run_bler(cfg).points[0].frame_errors == 0
    assert cfg == SimConfig(code=construct_code(4, 8, 0.5), decoder="scl", list_size=4,
                            crc=CRC8, snr_unit="esn0", max_frames=8, batch=4)


def test_config_is_a_frozen_value():
    # a field set after construction skipped every rule: batch = 0 looped
    # run_bler forever and seed = -1 raised an OverflowError in the frame key
    cfg = small_cfg(snr_db=[1, 2.5])
    for field, value in (("batch", 0), ("min_errors", 0), ("seed", -1), ("snr_db", (3.0,))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
    twin = small_cfg(snr_db=(1.0, 2.5))
    assert cfg.snr_db == (1.0, 2.5) and cfg == twin and hash(cfg) == hash(twin)
    assert len({cfg, twin, small_cfg(seed=4)}) == 2
    assert dataclasses.replace(cfg, seed=4) == small_cfg(snr_db=(1, 2.5), seed=4)
    with pytest.raises(ValueError, match="batch must be an integer >= 1, got 0"):
        dataclasses.replace(cfg, batch=0)


@pytest.mark.parametrize("code", [None, np.array([0, 1]), "code.json", 5])
def test_config_refuses_a_code_that_is_not_a_polar_code(code):
    # these used to raise AttributeError: ... has no attribute 'K'
    with pytest.raises(ValueError, match="code must be a PolarCode, got"):
        SimConfig(code=code)
    with pytest.raises(ValueError, match="code must be a PolarCode, got"):
        SimConfig(code=code, decoder="scl", list_size=4, crc=CRC8)


def test_ebn0_needs_payload_bits():
    code = construct_code(4, 0, 0.5)
    with pytest.raises(ValueError, match="'ebn0' needs payload bits.*'esn0'"):
        SimConfig(code=code)
    cfg = SimConfig(code=code, snr_unit="esn0", max_frames=8, batch=4)
    assert run_bler(cfg).points[0].frame_errors == 0


@pytest.mark.parametrize("n,K,bad,good", [(4, 8, 3068.0, 3060.0), (8, 128, 3056.0, 3050.0)])
def test_snr_bound_keeps_fg_updates_finite(n, K, bad, good):
    # g-steps add up to N LLRs of about 2/sigma**2: a bound that depends on N
    code = construct_code(n, K, 0.5)
    with pytest.raises(ValueError, match=f"snr_db {bad} gives no finite"):
        SimConfig(code=code, snr_db=(bad,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for decoder in ("sc", "fastssc", "scl", "ssclspc"):
            cfg = SimConfig(code=code, decoder=decoder, snr_db=(good,),
                            list_size=4 if decoder in LIST_DECODERS else 1,
                            enable_grep=True, enable_gpc=True, max_frames=32, batch=16)
            assert run_bler(cfg).points[0].frame_errors == 0


def test_csv_format():
    out = run_bler(small_cfg(snr_db=(1.0, 3.0))).to_csv()
    lines = out.strip().split("\n")
    assert lines[0].startswith("snr_db,frames,")
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 1.0


def test_load_sim_config_round_trip(tmp_path):
    code = construct_code(5, 16, 0.5)
    save_descriptor(code, tmp_path / "code.json")
    cfg_raw = {"code": "code.json", "decoder": "ssclspc", "enable_grep": True,
               "enable_gpc": True, "list_size": 8, "crc": "crc8",
               "snr_db": [1.0, 2.0], "min_errors": 5, "max_frames": 100, "seed": 7}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg_raw))
    cfg = load_sim_config(path)
    assert np.array_equal(cfg.code.flags, code.flags)
    assert cfg.list_size == 8 and cfg.crc == CRC8
    assert cfg.snr_db == (1.0, 2.0)


def test_load_sim_config_rejects_unknown_fields(tmp_path):
    save_descriptor(construct_code(4, 8, 0.5), tmp_path / "code.json")
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"code": "code.json", "bogus": 1}))
    with pytest.raises(ValueError, match="bogus"):
        load_sim_config(path)


def test_load_sim_config_custom_crc(tmp_path):
    save_descriptor(construct_code(5, 16, 0.5), tmp_path / "code.json")
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"code": "code.json",
                                "crc": {"width": 4, "polynomial": 0x3}}))
    cfg = load_sim_config(path)
    assert cfg.crc.width == 4 and cfg.crc.polynomial == 0x3


def test_load_sim_config_unknown_crc_name(tmp_path):
    save_descriptor(construct_code(5, 16, 0.5), tmp_path / "code.json")
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"code": "code.json", "crc": "crc32"}))
    with pytest.raises(ValueError, match="crc32.*crc16"):
        load_sim_config(path)


def test_load_sim_config_rejects_crc_of_wrong_type(tmp_path):
    save_descriptor(construct_code(5, 16, 0.5), tmp_path / "code.json")
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"code": "code.json", "crc": 8}))
    with pytest.raises(ValueError, match="crc must be None or a CrcSpec.*crc16"):
        load_sim_config(path)
    with pytest.raises(ValueError, match="CrcSpec"):
        SimConfig(code=construct_code(5, 16, 0.5), crc="crc8")


@given(n=st.sampled_from([4, 8, 10]),
       crc=st.sampled_from([None, CRC8, CRC16,
                            CrcSpec(width=6, polynomial=0x21, init=0x2D, reflect=True,
                                    final_xor=0x13)]),
       start=st.integers(0, 2**40 - 301), count=st.integers(1, 300),
       snr_idx=st.integers(0, 5), seed=st.integers(0, 2**32), data=st.data())
@settings(max_examples=40, deadline=None)
def test_batched_frames_match_per_frame_reference(n, crc, start, count, snr_idx, seed, data):
    N = 1 << n
    crc_w = crc.width if crc else 0
    assume(crc_w < N)
    K = data.draw(st.integers(crc_w + 1, N))
    flags = np.zeros(N, dtype=np.uint8)
    flags[np.random.default_rng(seed).choice(N, K, replace=False)] = 1
    cfg = SimConfig(code=PolarCode(flags), crc=crc, seed=seed)
    sigma = cfg.sigma_for(1.5)
    payloads, llrs = _gen_frames(cfg, snr_idx, start, count, sigma)
    ref_payloads, ref_llrs = gen_frames_per_frame(cfg, snr_idx, start, count, sigma)
    assert payloads.tobytes() == ref_payloads.tobytes()
    assert llrs.tobytes() == ref_llrs.tobytes()


@pytest.mark.parametrize("crc", [None, CRC8])
def test_batched_frames_across_key_masks(crc):
    # the 40-bit frame index wraps inside the batch, and the SNR index is
    # masked to 24 bits; the generator reused across frames must follow both
    cfg = SimConfig(code=construct_code(6, 32, 0.5), crc=crc, seed=2**64 - 5)
    sigma = cfg.sigma_for(1.5)
    for snr_idx, start in ((0, 2**40 - 3), (2**24 + 1, 0)):
        payloads, llrs = _gen_frames(cfg, snr_idx, start, 8, sigma)
        ref_payloads, ref_llrs = gen_frames_per_frame(cfg, snr_idx, start, 8, sigma)
        assert payloads.tobytes() == ref_payloads.tobytes()
        assert llrs.tobytes() == ref_llrs.tobytes()
    wrapped = _gen_frames(cfg, 0, 2**40 - 3, 8, sigma)[1]
    assert wrapped[3:].tobytes() == _gen_frames(cfg, 0, 0, 5, sigma)[1].tobytes()
    masked = _gen_frames(cfg, 2**24 + 1, 0, 8, sigma)[1]
    assert masked.tobytes() == _gen_frames(cfg, 1, 0, 8, sigma)[1].tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 33, 496, 512, 1000])
def test_payload_bits_from_raw_words_match_integers(n):
    # _gen_frames reads the payload bits of integers(0, 2, n, uint8) straight
    # from its raw Philox words; an odd count of 32-bit draws (n mod 8 in
    # 1..4) leaves half a word unused, and the normals start at the next word
    key = np.array([0x0123456789ABCDEF, 0xFEDCBA9876543210], dtype=np.uint64)
    a = np.random.Generator(np.random.Philox(key=key))
    b = np.random.Generator(np.random.Philox(key=key))
    ref_bits = a.integers(0, 2, n, dtype=np.uint8)
    ref_noise = a.normal(size=40)
    raw = b.bit_generator.random_raw(-(-n // 8))
    bits = raw.astype("<u8").view(np.uint8)[:n] >> 7
    assert bits.dtype == np.uint8 and bits.tobytes() == ref_bits.tobytes()
    assert b.standard_normal(40).tobytes() == ref_noise.tobytes()


def test_batched_frames_without_payload_bits():
    # K = 0 under Es/N0: no payload words are drawn, only the noise
    cfg = SimConfig(code=PolarCode(np.zeros(16, dtype=np.uint8)), snr_unit="esn0", seed=6)
    sigma = cfg.sigma_for(1.0)
    payloads, llrs = _gen_frames(cfg, 2, 3, 5, sigma)
    ref_payloads, ref_llrs = gen_frames_per_frame(cfg, 2, 3, 5, sigma)
    assert payloads.shape == (5, 0) and ref_payloads.shape == (5, 0)
    assert llrs.tobytes() == ref_llrs.tobytes()
