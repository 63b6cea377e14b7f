import json
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastpolar.classify import PlanOptions
from fastpolar.cli import main
from fastpolar.construction import construct_code, load_descriptor
from fastpolar.crc import (CRC8, CRC16, CrcSpec, _affine_map, _crc_batch, check_integer,
                           crc_attach, crc_by_name, crc_check_batch)
from fastpolar.listdec import scl_decode
from fastpolar.sim import SimConfig, batch_decoder
from helpers import crc_bits


def bytes_to_bits(data):
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


@pytest.mark.parametrize("spec", [CRC8, CRC16])
def test_round_trip(spec):
    rng = np.random.default_rng(spec.width)
    for length in (0, 1, 5, 64, 200):
        payload = rng.integers(0, 2, length, dtype=np.uint8)
        assert crc_check_batch(crc_attach(payload, spec), spec)


def test_crc_by_name_refuses_other_names():
    # an unhashable name used to raise TypeError: unhashable type
    for bad in (["crc8"], {"a": 1}, 8, None, "crc32", "CRC8"):
        with pytest.raises(ValueError, match=r"unknown CRC .*; choose one of \['none', 'crc8'"):
            crc_by_name(bad)
    assert (crc_by_name("none"), crc_by_name("crc8"), crc_by_name("crc16")) == (None, CRC8, CRC16)


def _descriptor(tmp_path, n, frozen):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": n, "frozen_indices": frozen}))
    return path


def _cli(argv):
    try:
        main(argv)
    except SystemExit as exc:  # the CLI reports the ValueError it caught as a usage error
        assert exc.code == 2
        raise exc.__context__ from None


CODE = construct_code(3, 4, 0.5)
# every public call that takes an integer, with a value outside its bounds,
# and the message naming the field, its bounds and the value
INTEGER_BOUNDS = {
    "construct_code-n": (lambda tmp: construct_code(-1, 0), "n must be an integer >= 0, got -1"),
    "construct_code-K": (lambda tmp: construct_code(3, 9),
                         "K must be an integer in [0, 9), got 9"),
    "load_descriptor-n": (lambda tmp: load_descriptor(_descriptor(tmp, -2, [])),
                          "n must be an integer >= 0, got -2"),
    "load_descriptor-index": (lambda tmp: load_descriptor(_descriptor(tmp, 3, [0, 8])),
                              "a frozen index must be an integer in [0, 8), got 8"),
    "CrcSpec-width": (lambda tmp: CrcSpec(width=0, polynomial=0),
                      "CRC width must be an integer >= 1, got 0"),
    "CrcSpec-width-type": (lambda tmp: CrcSpec(width="x", polynomial=0),
                           "CRC width must be an integer >= 1, got 'x'"),
    "CrcSpec-polynomial": (lambda tmp: CrcSpec(width=8, polynomial=256),
                           "CRC polynomial must be an integer in [0, 256), got 256"),
    "CrcSpec-final_xor": (lambda tmp: CrcSpec(width=4, polynomial=3, final_xor=-1),
                          "CRC final_xor must be an integer in [0, 16), got -1"),
    "SimConfig-batch": (lambda tmp: SimConfig(code=CODE, batch=0),
                        "batch must be an integer >= 1, got 0"),
    "SimConfig-batch-type": (lambda tmp: SimConfig(code=CODE, batch="16"),
                             "batch must be an integer >= 1, got '16'"),
    "SimConfig-max_frames": (lambda tmp: SimConfig(code=CODE, max_frames=-5),
                             "max_frames must be an integer >= 1, got -5"),
    "SimConfig-seed": (lambda tmp: SimConfig(code=CODE, seed=2**64),
                       f"seed must be an integer in [0, {2**64}), got {2**64}"),
    "SimConfig-list_size": (lambda tmp: SimConfig(code=CODE, decoder="scl", list_size=2.5),
                            "list_size must be an integer >= 1, got 2.5"),
    "scl_decode": (lambda tmp: scl_decode(np.ones(8), CODE, 0),
                   "list size L must be an integer >= 1, got 0"),
    "batch_decoder": (lambda tmp: batch_decoder("ssclspc", CODE, PlanOptions(), True, None),
                      "list_size must be an integer >= 1, got True"),
    "cli-decode-list": (lambda tmp: _cli(["decode", "--code", str(_descriptor(tmp, 3, [0])),
                                          "--algo", "scl", "--list", "0"]),
                        "--list must be an integer >= 1, got 0"),
    "cli-construct-n": (lambda tmp: _cli(["construct", "-n", "-1", "-K", "0",
                                          "--out", str(tmp / "x.json")]),
                        "n must be an integer >= 0, got -1"),
}


@pytest.mark.parametrize("case", INTEGER_BOUNDS)
def test_integer_bounds_raise_from_check_integer(tmp_path, case):
    call, message = INTEGER_BOUNDS[case]
    with pytest.raises(ValueError) as exc:
        call(tmp_path)
    assert str(exc.value) == message
    assert traceback.extract_tb(exc.tb)[-1].name == "check_integer"


def test_check_integer_bounds():
    for value, low, high in ((0, None, None), (-7, None, None), (3, 3, None), (3, 0, 4),
                             (np.int64(2), 1, None), (np.uint8(255), 0, 256)):
        assert check_integer(value, "x", low, high) is value
    for value, low, high, bounds in ((4.0, None, None, ""), (True, None, None, ""),
                                     ("3", 1, None, " >= 1"), (2, 3, None, " >= 3"),
                                     (4, 0, 4, " in [0, 4)"), (-1, 0, 4, " in [0, 4)"),
                                     (0.5, 0, 4, " in [0, 4)")):
        with pytest.raises(ValueError) as exc:
            check_integer(value, "x", low, high)
        assert str(exc.value) == f"x must be an integer{bounds}, got {value!r}"


def test_attach_rejects_non_bits():
    # a uint8 cast used to carry 2 and 3 into the frame and cut 0.5 to 0
    for bad in ([2, 3], [0, 0.5], [[0, 1], [1, -1]], [1, 257]):
        with pytest.raises(ValueError, match="payload must hold only the bits 0 and 1"):
            crc_attach(np.array(bad), CRC8)
    assert crc_attach(np.array([True, False]), CRC8).dtype == np.uint8


def test_check_rejects_non_bits():
    # read modulo 2, the frame [2, 3] + crc([0, 1]) would check as True
    frame = np.concatenate([[2, 3], crc_attach(np.array([0, 1]), CRC8)[2:]])
    for bad in (frame, frame.astype(np.uint8), [0, 0.5, *[0] * 8], [[0] * 10, [1, -1, *[0] * 8]],
                np.array([0, 257, *[0] * 8], np.uint16)):
        with pytest.raises(ValueError, match="bits must hold only the bits 0 and 1"):
            crc_check_batch(np.array(bad), CRC8)
    assert crc_check_batch(crc_attach(np.array([True, False]), CRC8).astype(bool), CRC8)


@pytest.mark.parametrize("spec", [CRC8, CRC16, CrcSpec(width=16, polynomial=0x8005,
                                                      init=0xFFFF, reflect=True,
                                                      final_xor=0xA5A5)])
@pytest.mark.parametrize("length", [4096, 65536])
def test_long_payload_products_are_exact(spec, length):
    # the float64 product's sums reach about length / 2, far past 255; it
    # must give the bitwise reference and the uint8 product, whose wrapping
    # sums are still right modulo 2
    rng = np.random.default_rng(length + spec.width)
    payloads = rng.integers(0, 2, (3, length), dtype=np.uint8)
    payloads[0] = 1  # the largest sums
    M, zero = _affine_map(spec, length)
    wrapping = (payloads @ M.astype(np.uint8) & 1) ^ zero
    ref = np.stack([crc_bits(p, spec) for p in payloads])
    assert np.array_equal(_crc_batch(payloads, spec), ref)
    assert np.array_equal(wrapping, ref)
    assert crc_check_batch(crc_attach(payloads, spec), spec).all()


@pytest.mark.parametrize("spec", [CRC8, CRC16])
def test_single_bit_flip_detected(spec):
    rng = np.random.default_rng(7)
    frame = crc_attach(rng.integers(0, 2, 40, dtype=np.uint8), spec)
    for i in range(frame.size):
        bad = frame.copy()
        bad[i] ^= 1
        assert not crc_check_batch(bad, spec), f"missed flip at {i}"


def test_empty_payload_reference():
    # zero init, no final xor: an empty message leaves the register at 0
    assert not crc_bits(np.array([], dtype=np.uint8), CRC8).any()
    assert not crc_bits(np.array([], dtype=np.uint8), CRC16).any()


def test_known_check_values():
    # standard "123456789" check words for these polynomial configurations
    msg = bytes_to_bits(b"123456789")
    crc8 = crc_bits(msg, CRC8)
    assert int("".join(map(str, crc8)), 2) == 0xF4
    crc16 = crc_bits(msg, CRC16)
    assert int("".join(map(str, crc16)), 2) == 0x31C3  # xmodem variant


def test_nonzero_init_changes_output():
    spec = CrcSpec(width=8, polynomial=0x07, init=0xFF)
    msg = np.ones(16, dtype=np.uint8)
    assert not np.array_equal(crc_bits(msg, spec), crc_bits(msg, CRC8))
    assert crc_check_batch(crc_attach(msg, spec), spec)


def test_batch_matches_scalar():
    rng = np.random.default_rng(11)
    frames = rng.integers(0, 2, (64, 50), dtype=np.uint8)
    for spec in (CRC8, CRC16):
        batch = crc_check_batch(frames, spec)
        w = spec.width
        scalar = np.array([np.array_equal(f[-w:], crc_bits(f[:-w], spec)) for f in frames])
        assert np.array_equal(batch, scalar)


def test_batch_accepts_attached_frames():
    rng = np.random.default_rng(12)
    payloads = rng.integers(0, 2, (20, 30), dtype=np.uint8)
    frames = np.stack([crc_attach(p, CRC16) for p in payloads])
    assert crc_check_batch(frames, CRC16).all()
    frames[:, 3] ^= 1
    assert not crc_check_batch(frames, CRC16).any()


@given(width=st.integers(1, 16), data=st.data(), length=st.integers(0, 200),
       rows=st.integers(1, 9), seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_attach_batch_matches_bitwise_reference(width, data, length, rows, seed):
    mask = (1 << width) - 1
    spec = CrcSpec(width=width, polynomial=data.draw(st.integers(1, mask)),
                   init=data.draw(st.integers(0, mask)), reflect=data.draw(st.booleans()),
                   final_xor=data.draw(st.integers(0, mask)))
    payloads = np.random.default_rng(seed).integers(0, 2, (rows, length), dtype=np.uint8)
    ref = np.stack([np.concatenate([p, crc_bits(p, spec)]) for p in payloads])
    assert np.array_equal(crc_attach(payloads[0], spec), ref[0])
    assert np.array_equal(crc_attach(payloads, spec), ref)
    assert crc_check_batch(ref, spec).all()
