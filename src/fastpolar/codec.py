"""Polar encoding and full-tree successive-cancellation decoding.

The soft-value operations work on the leading axis, positions first, so
that the same routines serve single frames, (size, B) frame batches and
(size, B, P) per-path arrays in list decoding, and each step's two halves
are contiguous blocks.  A node owning 2^t LLRs consumes its parent's
2^(t+1) values through ``f_step``/``g_step``, whose f-update is min-sum:
the rule under which the fast node decoders reproduce SC.
These and ``combine`` are the walkers' internal kernels and check nothing;
the entry points check their input once, in ``_llr_batch``.
"""

import numpy as np

from .classify import leaves_only_plan
from .crc import check_bits, check_bool

__all__ = ["encode", "polar_transform", "sc_decode", "sc_decode_batch"]


def _butterfly(x, h):
    """In-place XOR butterfly levels h, 2h, ... on the trailing axis of x."""
    N = x.shape[-1]
    while h < N:
        v = x.reshape(x.shape[:-1] + (N // (2 * h), 2 * h))
        v[..., :h] ^= v[..., h:]
        h *= 2
    return x


# the 8-bit transform of every byte value (bit j is position j), so that
# levels h = 1, 2, 4, whose XOR runs are only 1-4 elements long, take one lookup
_BYTE_TRANSFORM = np.packbits(
    _butterfly(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"), 1),
    axis=1, bitorder="little")[:, 0]


def polar_transform(u):
    """u @ G^(kron n) over GF(2) on the trailing axis.

    The inputs must be bits: they are packed into bytes, which reads any
    nonzero value as 1.  A length below 8 is zero-padded to one byte, which
    the byte table maps to the transform followed by zeros.
    """
    x = np.asarray(u, dtype=np.uint8)
    N = x.shape[-1] if x.ndim else 0  # a 0-d input has no length
    if N.bit_count() != 1:
        raise ValueError("length must be a power of two")
    packed = _BYTE_TRANSFORM[np.packbits(x, axis=-1, bitorder="little")]
    # levels h >= 8 XOR whole bytes, so they run on the packed array
    return np.unpackbits(_butterfly(packed, 1), axis=-1, count=N, bitorder="little")


def encode(u, code):
    """Encode message vector u (bits, zeros at frozen indices) into a codeword."""
    if np.shape(u)[-1:] != (code.N,):
        raise ValueError(f"u must have length {code.N}")
    u = check_bits(u, "u")
    if np.any(u[..., code.flags == 0] != 0):
        raise ValueError("nonzero value at a frozen index")
    return polar_transform(u)


def f_step(alpha):
    """Min-sum soft update for the left child; halves the leading axis."""
    m = alpha.shape[0] // 2
    a, b = alpha[:m], alpha[m:]
    # sign(a) sign(b) min(|a|, |b|) in fewer passes; only the sign of a
    # zero can differ.  sign(a) * b, unlike a * b, cannot overflow
    return np.copysign(np.minimum(np.abs(a), np.abs(b)), np.sign(a) * b)


def g_step(alpha, beta_left):
    """Soft update for the right child, given the left partial sums."""
    m = alpha.shape[0] // 2
    a, b = alpha[:m], alpha[m:]
    return b + (1.0 - 2.0 * beta_left) * a


def combine(beta_left, beta_right):
    """Partial-sum merge: (bl ^ br, br)."""
    return np.concatenate([beta_left ^ beta_right, beta_right])


def _llr_limit(N):
    """The bound on every channel |LLR| at length N: a leaf's LLR sums up to
    N channel values, so below it no f/g sum overflows to inf or NaN."""
    return np.finfo(np.float64).max / N


def check_minsum(minsum):
    if not check_bool(minsum, "minsum"):
        raise ValueError(f"minsum must be True, got {minsum!r}: the exact f-update was "
                         f"removed, and every decoder uses min-sum")


def _llr_batch(channel_llrs, N, minsum):
    """Channel LLRs as a bounded, C-contiguous float (N, B) array, positions
    first, as the walkers take them; one frame becomes a batch of one.
    Every check that the walkers' kernels rely on runs here, once per call,
    as does the check of the entry points' f-rule keyword."""
    check_minsum(minsum)
    if np.iscomplexobj(channel_llrs):  # a float cast would drop the imaginary part
        raise ValueError("channel LLRs must be real, got a complex array")
    alpha = np.asarray(channel_llrs, dtype=np.float64)
    if alpha.ndim not in (1, 2):
        raise ValueError(f"expected a (B, {N}) batch or one frame of {N} LLRs, "
                         f"got an array of shape {alpha.shape}")
    alpha = np.atleast_2d(alpha)
    if alpha.shape[-1] != N:
        raise ValueError(f"expected {N} LLRs per frame, got {alpha.shape[-1]}")
    peak = np.abs(alpha).max(initial=0.0)
    if not peak < _llr_limit(N):  # NaN fails this too
        bad = alpha.size - np.count_nonzero(np.isfinite(alpha))
        if bad:  # NaN or inf would decode silently to garbage
            raise ValueError(f"{bad} of {alpha.size} channel LLRs are not finite (NaN or inf)")
        raise ValueError(f"channel LLRs up to {peak:.4g} in magnitude: N * max|LLR| must stay "
                         f"below the float maximum, so |LLR| < {_llr_limit(N):.4g} at N = {N}")
    return np.ascontiguousarray(alpha.T)


def _one_frame(channel_llrs, N):
    """One frame's LLRs as a batch of one, for the single-frame entry points."""
    alpha = np.asarray(channel_llrs)
    if alpha.ndim != 1:
        raise ValueError(f"expected one frame of {N} LLRs (a 1-D array), "
                         f"got an array of shape {alpha.shape}")
    return alpha[None, :]


def sc_decode_batch(channel_llrs, code, minsum=True):
    """SC-decode a (B, N) batch of LLR frames.

    Plain SC is the fast SC walker run on the leaves-only plan.  Returns
    (u_hat, x_hat), both (B, N) uint8 arrays.
    """
    from .fastsc import _decode_node

    alpha = _llr_batch(channel_llrs, code.N, minsum)
    x_hat = np.ascontiguousarray(_decode_node(alpha, leaves_only_plan(code)).T)
    return polar_transform(x_hat), x_hat


def sc_decode(channel_llrs, code, minsum=True):
    """SC-decode one frame; returns (u_hat, x_hat)."""
    u_hat, x_hat = sc_decode_batch(_one_frame(channel_llrs, code.N), code, minsum)
    return u_hat[0], x_hat[0]
