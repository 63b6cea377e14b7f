"""Fast SC decoding of special nodes and the plan-driven decoder.

``fast_ssc_decode_batch`` walks a DecodePlan and is bit-exact with plain
SC when only exact node kinds (everything except RG-PC) appear in the plan.
Plain SC is this walker on the leaves-only plan.  The node decoders are
the walker's internal kernels: they work on the leading (positions) axis,
broadcast over trailing batch axes and check nothing, since the entry
points check the channel LLRs once and the plan fixes every node's size.
"""

import numpy as np

from .codec import _frames_first, _llr_batch, _one_frame, combine, f_step, g_step, polar_transform

__all__ = ["fast_ssc_decode", "fast_ssc_decode_batch"]


def grep_fold(alpha, p):
    """Collapse a G-Rep node's LLRs onto its Rate-C child.

    Iterated g-updates with all-zero left partial sums; the result sums
    LLRs whose indices are congruent modulo 2^p.
    """
    target = 1 << p
    while alpha.shape[0] > target:
        half = alpha.shape[0] // 2
        alpha = alpha[half:] + alpha[:half]
    return alpha


def wagner_decode(alpha):
    """ML decoding of single-parity-check codes, each down axis 0.

    Hard decisions; if their XOR is odd, flip the least reliable position
    (lowest index on |LLR| ties).
    """
    # C order, so that the flat view below writes into beta (alpha may be
    # a non-contiguous view, and a reshape of a non-contiguous array copies)
    beta = (alpha < 0).astype(np.uint8, order="C")
    R = beta.size // beta.shape[0]  # number of codes
    parity = np.bitwise_xor.reduce(beta, axis=0)
    worst = np.argmin(np.abs(alpha), axis=0).reshape(-1)
    beta.reshape(-1)[worst * R + np.arange(R)] ^= parity.reshape(-1)
    return beta


def decode_grep_sc(alpha, plan):
    """Decode a G-Rep node: fold, decode the Rate-C child, tile."""
    p = plan.rate_c.stage
    beta_rc = _decode_node(grep_fold(alpha, p), plan.rate_c)
    return np.concatenate([beta_rc] * (alpha.shape[0] >> p))


def decode_gpc_sc(alpha, np_sub):
    """Decode a G-PC node as np_sub interleaved SPC codes (parallel Wagner)."""
    size = alpha.shape[0]
    # sub-code j holds positions i*np_sub + j: axis 0 of this free reshape
    beta = wagner_decode(alpha.reshape((size // np_sub, np_sub) + alpha.shape[1:]))
    return beta.reshape(alpha.shape)


def _decode_rep(alpha, plan):
    # fold by halving g-steps, in the order SC adds the LLRs up
    bit = (grep_fold(alpha, 0) < 0).astype(np.uint8)
    return np.broadcast_to(bit, alpha.shape).copy()


def _decode_split(alpha, plan):
    bl = _decode_node(f_step(alpha), plan.left)
    br = _decode_node(g_step(alpha, bl), plan.right)
    return combine(bl, br)


# node kind -> decoder(alpha, plan) returning the node's partial sums; the
# lambdas look module names up per call, so a wrapper installed on e.g.
# ``fastsc.wagner_decode`` sees every node that uses it
_NODE_DECODERS = {
    "rate0": lambda alpha, plan: np.zeros(alpha.shape, dtype=np.uint8),
    "rate1": lambda alpha, plan: (alpha < 0).astype(np.uint8),
    "rep": _decode_rep,
    "grep": lambda alpha, plan: decode_grep_sc(alpha, plan),
    # SPC is G-PC with Np = 1; RG-PC decodes as G-PC, ignoring its AF bits
    **dict.fromkeys(("spc", "gpc", "rgpc"),
                    lambda alpha, plan: decode_gpc_sc(alpha, plan.np_sub)),
    "split": _decode_split,
}


def _decode_node(alpha, plan):
    return _NODE_DECODERS[plan.kind](alpha, plan)


def fast_ssc_decode_batch(channel_llrs, plan, minsum=True):
    """Fast-SSC decode a (B, N) LLR batch; returns (u_hat, x_hat)."""
    x_hat = _frames_first(_decode_node(_llr_batch(channel_llrs, plan.size, minsum), plan))
    return polar_transform(x_hat), x_hat


def fast_ssc_decode(channel_llrs, plan, minsum=True):
    """Fast-SSC decode one frame; returns (u_hat, x_hat)."""
    u_hat, x_hat = fast_ssc_decode_batch(_one_frame(channel_llrs, plan.size), plan, minsum)
    return u_hat[0], x_hat[0]
