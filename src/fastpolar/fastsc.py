"""Fast SC decoding of special nodes and the plan-driven decoder.

Node decoders operate on the trailing axis and broadcast over leading
batch axes; ``fast_ssc_decode_batch`` walks a DecodePlan and is bit-exact
with plain SC when only exact node kinds (everything except RG-PC) appear
in the plan.  Plain SC is this walker on the leaves-only plan.
"""

import numpy as np

from .codec import _llr_batch, combine, f_step, g_step, polar_transform

__all__ = ["grep_fold", "wagner_decode", "decode_grep_sc", "decode_gpc_sc",
           "fast_ssc_decode", "fast_ssc_decode_batch"]


def grep_fold(alpha, p):
    """Collapse a G-Rep node's LLRs onto its Rate-C child.

    Iterated g-updates with all-zero left partial sums; the result sums
    LLRs whose indices are congruent modulo 2^p.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    target = 1 << p
    if alpha.shape[-1] < target:
        raise ValueError("p too large for this node")
    while alpha.shape[-1] > target:
        half = alpha.shape[-1] // 2
        alpha = alpha[..., half:] + alpha[..., :half]
    return alpha


def wagner_decode(alpha):
    """ML decoding of a single-parity-check code.

    Hard decisions; if their XOR is odd, flip the least reliable position
    (lowest index on |LLR| ties).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.ascontiguousarray(alpha < 0).astype(np.uint8)
    parity = np.bitwise_xor.reduce(beta, axis=-1, keepdims=True)
    worst = np.argmin(np.abs(alpha), axis=-1)[..., None]
    flip = np.zeros_like(beta)
    np.put_along_axis(flip, worst, parity, axis=-1)
    return beta ^ flip


def decode_grep_sc(alpha, plan, minsum=True):
    """Decode a G-Rep node: fold, decode the Rate-C child, tile."""
    alpha = np.asarray(alpha, dtype=np.float64)
    p = plan.rate_c.stage
    beta_rc = _decode_node(grep_fold(alpha, p), plan.rate_c, minsum)
    reps = alpha.shape[-1] >> p
    return np.concatenate([beta_rc] * reps, axis=-1)


def decode_gpc_sc(alpha, np_sub):
    """Decode a G-PC node as np_sub interleaved SPC codes (parallel Wagner)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    size = alpha.shape[-1]
    if size % np_sub:
        raise ValueError("np_sub must divide the node size")
    # sub-code j holds positions i*np_sub + j
    strided = alpha.reshape(alpha.shape[:-1] + (size // np_sub, np_sub))
    beta = wagner_decode(np.swapaxes(strided, -1, -2))
    return np.swapaxes(beta, -1, -2).reshape(alpha.shape[:-1] + (size,))


def _decode_rep(alpha, plan, minsum):
    # fold by halving g-steps, in the order SC adds the LLRs up
    bit = (grep_fold(alpha, 0) < 0).astype(np.uint8)
    return np.broadcast_to(bit, alpha.shape).copy()


def _decode_split(alpha, plan, minsum):
    bl = _decode_node(f_step(alpha, minsum), plan.left, minsum)
    br = _decode_node(g_step(alpha, bl), plan.right, minsum)
    return combine(bl, br)


# node kind -> decoder(alpha, plan, minsum) returning the node's partial
# sums; the lambdas look module names up per call, so a wrapper installed
# on e.g. ``fastsc.wagner_decode`` sees every node that uses it
_NODE_DECODERS = {
    "rate0": lambda alpha, plan, minsum: np.zeros(alpha.shape, dtype=np.uint8),
    "rate1": lambda alpha, plan, minsum: (alpha < 0).astype(np.uint8),
    "rep": _decode_rep,
    "grep": lambda alpha, plan, minsum: decode_grep_sc(alpha, plan, minsum),
    # SPC is G-PC with Np = 1; RG-PC decodes as G-PC, ignoring its AF bits
    **dict.fromkeys(("spc", "gpc", "rgpc"),
                    lambda alpha, plan, minsum: decode_gpc_sc(alpha, plan.np_sub)),
    "split": _decode_split,
}


def _decode_node(alpha, plan, minsum):
    return _NODE_DECODERS[plan.kind](alpha, plan, minsum)


def fast_ssc_decode_batch(channel_llrs, plan, minsum=True):
    """Fast-SSC decode a (B, N) LLR batch; returns (u_hat, x_hat)."""
    alpha = _llr_batch(channel_llrs, plan.size)
    x_hat = _decode_node(alpha, plan, minsum)
    return polar_transform(x_hat), x_hat


def fast_ssc_decode(channel_llrs, plan, minsum=True):
    """Fast-SSC decode one frame; returns (u_hat, x_hat)."""
    u_hat, x_hat = fast_ssc_decode_batch(np.asarray(channel_llrs)[None, :], plan, minsum)
    return u_hat[0], x_hat[0]
