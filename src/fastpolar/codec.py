"""Polar encoding and full-tree successive-cancellation decoding.

All soft-value operations work on the trailing axis so the same routines
serve single frames, frame batches and per-path arrays in list decoding.
A node owning 2^t LLRs consumes its parent's 2^(t+1) values through
``f_step``/``g_step``.
"""

import numpy as np

from .classify import leaves_only_plan

__all__ = ["encode", "polar_transform", "f_step", "g_step", "combine", "sc_decode",
           "sc_decode_batch"]

# arctanh argument clamp; keeps the exact f-function finite at +-1
_ATANH_CLIP = 1.0 - 2.0**-52


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
    N = x.shape[-1]
    if N & (N - 1):
        raise ValueError("length must be a power of two")
    packed = _BYTE_TRANSFORM[np.packbits(x, axis=-1, bitorder="little")]
    return _butterfly(np.unpackbits(packed, axis=-1, count=N, bitorder="little"), 8)


def encode(u, code):
    """Encode message vector u (bits, zeros at frozen indices) into a codeword."""
    u = np.asarray(u)
    if u.shape[-1] != code.N:
        raise ValueError(f"u must have length {code.N}")
    if not ((u == 0) | (u == 1)).all():  # a cast to uint8 would wrap or truncate
        raise ValueError("u must hold only the bits 0 and 1")
    if np.any(u[..., code.flags == 0] != 0):
        raise ValueError("nonzero value at a frozen index")
    return polar_transform(u)


def f_step(alpha, minsum=False):
    """Soft update for the left child; halves the trailing axis."""
    alpha = np.asarray(alpha, dtype=np.float64)
    m = alpha.shape[-1] // 2
    if alpha.shape[-1] != 2 * m:
        raise ValueError("f_step needs an even-length LLR vector")
    a, b = alpha[..., :m], alpha[..., m:]
    if minsum:
        return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    prod = np.tanh(a / 2.0) * np.tanh(b / 2.0)
    return 2.0 * np.arctanh(np.clip(prod, -_ATANH_CLIP, _ATANH_CLIP))


def g_step(alpha, beta_left):
    """Soft update for the right child, given the left partial sums."""
    alpha = np.asarray(alpha, dtype=np.float64)
    m = alpha.shape[-1] // 2
    beta_left = np.asarray(beta_left)
    if beta_left.shape[-1] != m:
        raise ValueError("beta_left length must be half of alpha's")
    a, b = alpha[..., :m], alpha[..., m:]
    return b + (1.0 - 2.0 * beta_left) * a


def combine(beta_left, beta_right):
    """Partial-sum merge: (bl ^ br, br)."""
    bl = np.asarray(beta_left, dtype=np.uint8)
    br = np.asarray(beta_right, dtype=np.uint8)
    return np.concatenate([bl ^ br, br], axis=-1)


def _llr_batch(channel_llrs, N):
    """Channel LLRs as a finite float (B, N) array; one frame becomes a batch of one."""
    alpha = np.atleast_2d(np.asarray(channel_llrs, dtype=np.float64))
    if alpha.shape[-1] != N:
        raise ValueError(f"expected {N} LLRs per frame, got {alpha.shape[-1]}")
    bad = alpha.size - np.count_nonzero(np.isfinite(alpha))
    if bad:  # NaN or inf would decode silently to garbage
        raise ValueError(f"{bad} of {alpha.size} channel LLRs are not finite (NaN or inf)")
    return alpha


def sc_decode_batch(channel_llrs, code, minsum=True):
    """SC-decode a (B, N) batch of LLR frames.

    Plain SC is the fast SC walker run on the leaves-only plan.  Returns
    (u_hat, x_hat), both (B, N) uint8 arrays.
    """
    from .fastsc import _decode_node

    x_hat = _decode_node(_llr_batch(channel_llrs, code.N), leaves_only_plan(code), minsum)
    return polar_transform(x_hat), x_hat


def sc_decode(channel_llrs, code, minsum=True):
    """SC-decode one frame; returns (u_hat, x_hat)."""
    u_hat, x_hat = sc_decode_batch(np.asarray(channel_llrs)[None, :], code, minsum)
    return u_hat[0], x_hat[0]
