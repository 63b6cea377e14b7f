"""Frozen-set construction for the binary-input AWGN channel.

Uses density evolution under the Gaussian approximation: every bit-channel
LLR is modelled as Gaussian with variance twice its mean, so a single mean
per channel is tracked through the polarization recursion.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .crc import check_bits, check_integer

__all__ = ["PolarCode", "construct_code", "save_descriptor", "load_descriptor"]

# Two-segment approximation of phi(x) = 1 - E[tanh(z/2)], z ~ N(x, 2x).
# The segment boundary is placed at the crossing of the two branches so
# that log_phi is continuous and strictly decreasing, which the mean-update
# inversion relies on.
_A, _B, _C = 0.0218, 0.4527, 0.86
_M_MIN = 1e-12
# construct_code re-solves each channel within this relative distance of the
# K-th or (K+1)-th mean with the scalar update, for the scalar recursion's flags:
# the vectorised means differ from it by 3.3e-13 at most (n 0-12, sigma 0.05-20).
_CUT_BAND = 1e-9


def _log_phi_small(x):
    return _A - _B * x ** _C


def _log_phi_large(x):
    return 0.5 * (np.log(np.pi) - np.log(x)) - x / 4.0 + np.log1p(-10.0 / (7.0 * x))


_X_SPLIT = brentq(lambda x: _log_phi_small(x) - _log_phi_large(x), 10.0, 20.0)
_LP_SPLIT, _LP_TOP = _log_phi_small(_X_SPLIT), _log_phi_small(_M_MIN)


def _check_target(lp):
    # phi_new = 1 - (1 - phi)^2 = phi * (2 - phi), done in log domain
    return np.minimum(lp + np.log(2.0 - np.minimum(np.exp(lp), 1.999)), _LP_TOP)


def _check_update(m):
    """Mean update for the upper (check-side) bit-channel, one channel at a time."""
    m = max(m, _M_MIN)
    target = _check_target(_log_phi_small(m) if m < _X_SPLIT else _log_phi_large(m))
    if target >= _LP_SPLIT:  # closed form on the low-mean branch
        return max(((_A - target) / _B) ** (1.0 / _C), _M_MIN)
    # brackets the root: see test_inv_log_phi_upper_bracket for the proof
    hi = max(4.0 * _X_SPLIT, -8.0 * target)
    return brentq(lambda x: _log_phi_large(x) - target, _X_SPLIT, hi)


def _solve_large(target):
    """Newton's method for _log_phi_large(x) = target from x = _X_SPLIT.  The
    function is convex and decreasing there, so no iterate passes the root."""
    x = np.full_like(target, _X_SPLIT)
    for _ in range(50):  # 6 steps reached 2 ulps on 2e6 targets down to -1e12
        slope = -0.5 / x - 0.25 + 10.0 / (x * (7.0 * x - 10.0))
        x, last = np.maximum(x - (_log_phi_large(x) - target) / slope, _X_SPLIT), x
        if (np.abs(x - last) <= 2.0 * np.spacing(x)).all():
            break
    return x


def _channel_mean(n, sigma, name="design_sigma"):
    """2/sigma^2, the channel's mean LLR, refused unless it and 2^n times it
    (the best bit-channel's mean) are finite and positive; ``name`` is reported."""
    real = isinstance(sigma, numbers.Real) and not isinstance(sigma, bool)
    try:
        m0 = 2.0 / float(sigma) ** 2 if real and sigma > 0 else 0.0
        ok = m0 > 0 and math.ldexp(m0, int(n)) < math.inf
    except (OverflowError, ZeroDivisionError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a positive number with 2/sigma^2, and 2^n "
                         f"times it, finite and nonzero; got {sigma!r} at n = {n}")
    return m0


def ga_llr_means(n, design_sigma):
    """Per-bit-channel mean LLRs after n polarization levels.

    Index order matches the natural (non-bit-reversed) encoder and the SC
    decode schedule: the tree's top split acts on the raw channel first,
    so each level of the recursion refines the previous one in place.  An
    index's most significant bit selects check/variable at the top split,
    the least significant bit at the deepest one.  Each level is one array pass.
    """
    means = np.array([_channel_mean(n, design_sigma)])
    for _ in range(n):
        m = np.maximum(means, _M_MIN)
        t = _check_target(np.where(m < _X_SPLIT, _log_phi_small(m),
                                   _log_phi_large(np.maximum(m, _X_SPLIT))))
        check = np.where(t >= _LP_SPLIT,
                         np.maximum(((_A - np.maximum(t, _LP_SPLIT)) / _B) ** (1.0 / _C), _M_MIN),
                         _solve_large(np.minimum(t, _LP_SPLIT)))
        # the new level is the next lower index bit: check 2j, variable 2j + 1
        means = np.stack([check, 2.0 * means], axis=1).reshape(-1)
    return means


@dataclass(frozen=True, eq=False)
class PolarCode:
    """A polar code: its flags and design sigma; n, N = 2^n and K are read off the flags."""

    flags: np.ndarray = field(repr=False)  # 1 = information bit
    design_sigma: float = 0.5

    def __post_init__(self):
        flags = check_bits(self.flags, "flags").copy()
        if flags.ndim != 1 or flags.size.bit_count() != 1:
            raise ValueError(f"flags must be a 1-D bit vector whose length is a power of "
                             f"two, got shape {flags.shape}")
        flags.setflags(write=False)  # a copy, read-only: no one can move K under the code
        object.__setattr__(self, "flags", flags)
        _channel_mean(self.n, self.design_sigma)  # construct_code's rule for any sigma

    def __eq__(self, other):
        return isinstance(other, PolarCode) and (self.flags.tobytes(), self.design_sigma) == (
            other.flags.tobytes(), other.design_sigma)

    def __hash__(self):
        return hash((self.flags.tobytes(), self.design_sigma))

    @property
    def n(self):
        return self.N.bit_length() - 1

    @property
    def N(self):
        return len(self.flags)

    @property
    def K(self):
        return int(np.count_nonzero(self.flags))

    @property
    def frozen_indices(self):
        return np.flatnonzero(self.flags == 0)

    @property
    def info_indices(self):
        return np.flatnonzero(self.flags == 1)


def construct_code(n, K, design_sigma=0.5):
    """Build a PolarCode freezing the 2^n - K least reliable bit-channels.

    Reliability is the GA mean LLR; ties freeze the lower index.
    """
    N = 1 << check_integer(n, "n", 0)  # checked before the shift, whose error names no n
    check_integer(K, "K", 0, N + 1)
    means = ga_llr_means(n, design_sigma)
    if 0 < K < N:
        lo, hi = np.sort(means)[N - K - 1:N - K + 1]
        near = np.flatnonzero((means >= lo * (1 - _CUT_BAND)) & (means <= hi * (1 + _CUT_BAND)))
        # the scalar recursion solves each of their ancestors once: node 1 is
        # the root, node p's children are 2p and 2p + 1, channel i is N + i
        solved = {1: np.float64(_channel_mean(n, design_sigma))}
        for node in sorted({(N + i) >> s for i in near.tolist() for s in range(n)}):
            up = solved[node >> 1]
            solved[node] = 2.0 * up if node & 1 else np.float64(_check_update(up))
        means[near] = [solved[N + i] for i in near.tolist()]
    flags = np.zeros(N, dtype=np.uint8)
    flags[np.argsort(means, kind="stable")[N - K:]] = 1  # ties put the lower index first
    return PolarCode(flags, design_sigma)


def save_descriptor(code, path):
    """Write the JSON code descriptor consumed by the CLI subcommands."""
    desc = {"n": code.n, "K": code.K, "design_sigma": code.design_sigma,
            "frozen_indices": code.frozen_indices.tolist()}
    with open(path, "w") as fh:
        json.dump(desc, fh, indent=2)
        fh.write("\n")


def load_descriptor(path):
    with open(path) as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict) or not {"n", "frozen_indices"} <= desc.keys():
        raise ValueError("a code descriptor is a JSON object with 'n' and 'frozen_indices'")
    if not isinstance(desc["frozen_indices"], list):
        raise ValueError(f"frozen_indices must be a list, got {desc['frozen_indices']!r}")
    n = check_integer(desc["n"], "n", 0)
    N = 1 << n
    frozen = sorted(check_integer(i, "a frozen index", 0, N) for i in desc["frozen_indices"])
    repeated = sorted({a for a, b in zip(frozen, frozen[1:]) if a == b})
    if repeated:
        raise ValueError(f"frozen_indices repeats {repeated}")
    try:
        flags = np.ones(N, dtype=np.uint8)
    except MemoryError:
        raise ValueError(f"n = {n} is too large: 2**{n} code bits do not fit in memory") from None
    flags[frozen] = 0
    if "K" in desc and check_integer(desc["K"], "K") != N - len(frozen):
        raise ValueError("descriptor K inconsistent with frozen_indices")
    return PolarCode(flags, desc.get("design_sigma", 0.5))
