"""CRC attachment and checking over bit vectors.

A cached GF(2) matrix form of the register map attaches and checks CRCs
over frame batches (a CRC with a fixed init value is affine in the message
bits); the bitwise register reference is ``crc_bits`` in the tests.
The module imports nothing else of the package, so it also owns the input
rules that other modules share: field types, integers and their bounds,
bits and CRC fit.
"""

import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

__all__ = ["CrcSpec", "CRC8", "CRC16", "CRC_NAMES", "crc_by_name", "crc_attach",
           "crc_check_batch"]


def check_integer(value, name, low=None, high=None):
    """``value``, refused unless it is an integer with ``low <= value < high``
    (no bound where None; ``high`` only with ``low``)."""
    # 4.7 must not read as 4, nor true as 1
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or low is not None and value < low or high is not None and value >= high):
        bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high})"
        raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")
    return value


def check_bits(values, name):
    """``values`` as C-contiguous uint8, refused unless every entry is 0 or 1."""
    values = np.asarray(values)
    if not ((values == 0) | (values == 1)).all():  # a cast would wrap 257 to 1, 0.5 to 0
        raise ValueError(f"{name} must hold only the bits 0 and 1")
    return np.ascontiguousarray(values, dtype=np.uint8)


def check_field_types(obj):
    """Reject a dataclass field declared ``int`` or ``bool`` that holds
    another type (a bool is not an integer here)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type is int:
            check_integer(value, f.name)
        if f.type is bool and not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{f.name} must be true or false, got {value!r}")


@dataclass(frozen=True)
class CrcSpec:
    width: int
    polynomial: int  # generator without the leading x^width term
    init: int = 0
    reflect: bool = False
    final_xor: int = 0

    def __post_init__(self):
        check_integer(self.width, "CRC width", 1)
        for name in ("polynomial", "init", "final_xor"):
            check_integer(getattr(self, name), f"CRC {name}", 0, 1 << int(self.width))
        check_field_types(self)


CRC8 = CrcSpec(width=8, polynomial=0x07)
CRC16 = CrcSpec(width=16, polynomial=0x1021)
CRC_NAMES = {"none": None, "crc8": CRC8, "crc16": CRC16}


def crc_by_name(name):
    """The CrcSpec a CLI or config name stands for (None for "none")."""
    try:
        return CRC_NAMES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown CRC {name!r}; choose one of {list(CRC_NAMES)}") from None


def check_fits(spec, length):
    if spec.width > length:
        raise ValueError(f"a {spec.width}-bit CRC does not fit in {length} bits")


def crc_attach(payload, spec):
    """Append the CRC to every bit vector along the last axis of ``payload``."""
    payload = check_bits(payload, "payload")
    return np.concatenate([payload, _crc_batch(payload, spec)], axis=-1)


@lru_cache(maxsize=32)
def _affine_map(spec, length):
    # crc(m) = c0 ^ (m @ M mod 2), valid because the register update is
    # linear in the message for fixed init/final_xor.  A lone 1 fed k bits
    # before the end leaves the register at `polynomial` clocked k times;
    # the zero message leaves it at `init` clocked `length` times.
    top, mask = 1 << (spec.width - 1), (1 << spec.width) - 1
    regs, reg, zero = [], spec.polynomial, spec.init
    for _ in range(length):
        regs.append(reg)
        reg = ((reg << 1) & mask) ^ (spec.polynomial if reg & top else 0)
        zero = ((zero << 1) & mask) ^ (spec.polynomial if zero & top else 0)
    regs.append(zero ^ spec.final_xor)
    bits = np.array([[(r >> (spec.width - 1 - i)) & 1 for i in range(spec.width)] for r in regs],
                    dtype=np.uint8)
    M, c0 = bits[:-1].astype(np.float64), bits[-1]
    # row k of M is the bit fed k before the end; reflect feeds the payload
    # backwards and reverses the register's bits
    return (M[:, ::-1].copy(), c0[::-1]) if spec.reflect else (M[::-1].copy(), c0)


def _crc_batch(payload, spec):
    # a float64 product runs on BLAS and counts exactly below 2^53 payload bits
    M, zero = _affine_map(spec, payload.shape[-1])
    return ((payload.astype(np.float64) @ M) % 2).astype(np.uint8) ^ zero


def crc_check_batch(bits, spec):
    """Whether each bit vector along the last axis of ``bits`` ends in its CRC."""
    bits = check_bits(bits, "bits")
    n = bits.shape[-1]
    check_fits(spec, n)
    expected = _crc_batch(bits[..., :n - spec.width], spec)
    return np.all(expected == bits[..., n - spec.width:], axis=-1)
