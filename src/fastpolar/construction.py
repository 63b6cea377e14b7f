"""Frozen-set construction for the binary-input AWGN channel.

Uses density evolution under the Gaussian approximation: every bit-channel
LLR is modelled as Gaussian with variance twice its mean, so a single mean
per channel is tracked through the polarization recursion.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

__all__ = ["PolarCode", "construct_code", "save_descriptor", "load_descriptor"]

# Two-segment approximation of phi(x) = 1 - E[tanh(z/2)], z ~ N(x, 2x).
# The segment boundary is placed at the crossing of the two branches so
# that log_phi is continuous and strictly decreasing, which the mean-update
# inversion relies on.
_A, _B, _C = 0.0218, 0.4527, 0.86
_M_MIN = 1e-12


def _log_phi_small(x):
    return _A - _B * x ** _C


def _log_phi_large(x):
    return 0.5 * (np.log(np.pi) - np.log(x)) - x / 4.0 + np.log1p(-10.0 / (7.0 * x))


_X_SPLIT = brentq(lambda x: _log_phi_small(x) - _log_phi_large(x), 10.0, 20.0)


def _log_phi(x):
    if x < _X_SPLIT:
        return _log_phi_small(x)
    return _log_phi_large(x)


def _inv_log_phi(target):
    """Solve log_phi(x) = target for x > 0."""
    if target >= _log_phi_small(_X_SPLIT):
        # closed form on the low-mean branch
        return max(((_A - target) / _B) ** (1.0 / _C), _M_MIN)
    hi = max(4.0 * _X_SPLIT, -8.0 * target)
    while _log_phi_large(hi) > target:
        hi *= 2.0
    return brentq(lambda x: _log_phi_large(x) - target, _X_SPLIT, hi)


def _check_update(m):
    """Mean update for the upper (check-side) bit-channel."""
    m = max(m, _M_MIN)
    lp = _log_phi(m)
    # phi_new = 1 - (1 - phi)^2 = phi * (2 - phi), done in log domain
    lp_new = lp + np.log(2.0 - min(np.exp(lp), 1.999))
    return _inv_log_phi(min(lp_new, _log_phi(_M_MIN)))


def ga_llr_means(n, design_sigma):
    """Per-bit-channel mean LLRs after n polarization levels.

    Index order matches the natural (non-bit-reversed) encoder and the SC
    decode schedule: the tree's top split acts on the raw channel first,
    so each level of the recursion refines the previous one in place.  An
    index's most significant bit selects check/variable at the top split,
    the least significant bit at the deepest one.
    """
    means = np.array([2.0 / design_sigma**2])
    for _ in range(n):
        out = np.empty(2 * means.size)
        out[: means.size] = [_check_update(m) for m in means]
        out[means.size:] = 2.0 * means
        # expand within each index prefix: the new level is the next lower bit
        means = out.reshape(2, -1).T.reshape(-1)
    return means


@dataclass(frozen=True)
class PolarCode:
    """A polar code: block length, information set and design parameters."""

    n: int
    K: int
    flags: np.ndarray = field(repr=False)  # length N, 1 = information bit
    design_sigma: float = 0.5

    def __post_init__(self):
        flags = np.ascontiguousarray(self.flags, dtype=np.uint8)
        object.__setattr__(self, "flags", flags)
        if flags.shape != (self.N,):
            raise ValueError(f"flags must have length {self.N}")
        if int(flags.sum()) != self.K:
            raise ValueError("flags must mark exactly K information bits")

    @property
    def N(self):
        return 1 << self.n

    @property
    def rate(self):
        return self.K / self.N

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
    N = 1 << n
    if not 0 <= K <= N:
        raise ValueError(f"K must be in [0, {N}], got {K}")
    if design_sigma <= 0:
        raise ValueError(f"design_sigma must be positive, got {design_sigma}")
    means = ga_llr_means(n, design_sigma)
    # sort descending by reliability, then descending by index, so the
    # first K picks prefer the higher index on exact ties
    order = sorted(range(N), key=lambda i: (-means[i], -i))
    flags = np.zeros(N, dtype=np.uint8)
    flags[order[:K]] = 1
    return PolarCode(n=n, K=K, flags=flags, design_sigma=design_sigma)


def save_descriptor(code, path):
    """Write the JSON code descriptor consumed by the CLI subcommands."""
    desc = {
        "n": code.n,
        "K": code.K,
        "design_sigma": code.design_sigma,
        "frozen_indices": [int(i) for i in code.frozen_indices],
    }
    with open(path, "w") as fh:
        json.dump(desc, fh, indent=2)
        fh.write("\n")


def _integer(value, name):
    # JSON numbers: 4.7 must not load as 4, nor true as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def load_descriptor(path):
    with open(path) as fh:
        desc = json.load(fh)
    n = _integer(desc["n"], "n")
    N = 1 << n
    frozen = sorted(_integer(i, "a frozen index") for i in desc["frozen_indices"])
    repeated = sorted({a for a, b in zip(frozen, frozen[1:]) if a == b})
    if repeated:
        raise ValueError(f"frozen_indices repeats {repeated}")
    if frozen and not 0 <= frozen[0] <= frozen[-1] < N:
        raise ValueError("frozen_indices out of range")
    flags = np.ones(N, dtype=np.uint8)
    flags[frozen] = 0
    K = N - len(frozen)
    if "K" in desc and _integer(desc["K"], "K") != K:
        raise ValueError("descriptor K inconsistent with frozen_indices")
    return PolarCode(n=n, K=K, flags=flags, design_sigma=float(desc.get("design_sigma", 0.5)))
