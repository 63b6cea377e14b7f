"""Fast SCL decoding over a pruned decode plan.

Rate-0, Rep and Rate-1 nodes extend the path set at the node root; G-Rep
folds its LLRs onto the Rate-C child; SPC, G-PC and RG-PC recurse as
(same-Np half, Rate-1 half) splits down to their all-frozen Np block (SPC
is G-PC with Np = 1).  The surviving path set (bit histories and metrics)
matches tree-descent SCL on the code or, for a plan with RG-PC nodes, on
its relaxed code: the code with every AF bit unfrozen, since RG-PC decodes
its AF bits as information.
Plain SCL is this walker on the leaves-only plan.
"""

import numbers

import numpy as np

from .codec import _llr_batch, _one_frame, combine, f_step, g_step, polar_transform
from .listdec import PathSet, select_output

__all__ = ["fast_scl_decode", "fast_scl_decode_batch", "fast_scl_decode_paths_batch"]


def _relu_neg(a):
    # Eq-(7) penalty for deciding 0 everywhere: |alpha| where the hard
    # decision disagrees
    return np.fmax(-a, 0.0)


def _penalties(a):
    # Eq-(7) penalties for deciding 0 and for deciding 1
    return _relu_neg(a), np.fmax(a, 0.0)


def _extend_rate0(ps, alpha):
    ps.penalize(_relu_neg(alpha).sum(axis=0))
    return np.zeros(alpha.shape, dtype=np.uint8), None


def _extend_serial(ps, alpha):
    """Bit-serial Rate-1 extension: one fork per column that can change paths.

    While the path set is ``settled``, the leading columns whose forks are
    no-ops (``ps.noop_columns``) are decided by hard decision without a
    fork; the path set, its row order and the metrics are the same as if
    they had forked.  After a real fork the remaining columns are tested
    again.  Column LLRs are read through each path's row at node entry, so
    ``alpha`` is never re-gathered; the decided bits follow every fork.
    """
    size = alpha.shape[0]
    beta = np.empty(alpha.shape, dtype=np.uint8)
    anc = None
    i = 0
    while i < size:
        settled = ps.settled()
        cols = slice(i, None) if settled else i  # a run test reads the rest
        a = ps.realign(alpha[cols], anc)
        if settled:
            run = [*ps.noop_columns(a).tolist(), False].index(False)
            if run:
                beta[i:i + run] = a[:run] < 0
                i += run
                if i == size:
                    break
            a = a[run]
        src, bits = ps.fork(*_penalties(a))
        beta = beta.reshape(size, -1).take(src, axis=1)
        beta[i] = bits
        anc = ps.realign(anc, src)
        i += 1
    return beta, anc


def _extend_rep(ps, alpha):
    pen0, pen1 = _penalties(alpha)
    src, bits = ps.fork(pen0.sum(axis=0), pen1.sum(axis=0))
    return np.repeat(bits[None], alpha.shape[0], axis=0), src


def _extend_grep(ps, alpha, plan):
    # fold through the all-frozen left siblings, charging their Rate-0
    # penalties level by level
    size = alpha.shape[0]
    p = plan.rate_c.stage
    while alpha.shape[0] > (1 << p):
        half = alpha.shape[0] // 2
        ps.penalize(_relu_neg(f_step(alpha)).sum(axis=0))
        alpha = alpha[half:] + alpha[:half]
    beta_rc, anc = _extend_node(ps, alpha, plan.rate_c)
    return np.concatenate([beta_rc] * (size >> p)), anc


def _extend_parity(ps, alpha, np_sub):
    # an SPC, G-PC or RG-PC node: walking it as (same-Np half, Rate-1 half)
    # splits down to its Rate-0 Np block keeps the descent path set and
    # enforces the Np parity constraints; RG-PC's AF bits are information
    if alpha.shape[0] == np_sub:
        return _extend_rate0(ps, alpha)
    bl, anc_l = _extend_parity(ps, f_step(alpha), np_sub)
    br, anc_r = _extend_serial(ps, g_step(ps.realign(alpha, anc_l), bl))
    return combine(ps.realign(bl, anc_r), br), ps.realign(anc_l, anc_r)


def _extend_split(ps, alpha, plan):
    bl, anc_l = _extend_node(ps, f_step(alpha), plan.left)
    br, anc_r = _extend_node(ps, g_step(ps.realign(alpha, anc_l), bl), plan.right)
    return combine(ps.realign(bl, anc_r), br), ps.realign(anc_l, anc_r)


# node kind -> extension(ps, alpha, plan) of (size, B, P) LLRs,
# returning the (size, B, P) partial sums of the surviving paths and their
# ancestry: each survivor's row at node entry, or None when no row moved
_NODE_EXTENDERS = {
    "rate0": lambda ps, alpha, plan: _extend_rate0(ps, alpha),
    "rate1": lambda ps, alpha, plan: _extend_serial(ps, alpha),
    "rep": lambda ps, alpha, plan: _extend_rep(ps, alpha),
    "grep": _extend_grep,
    **dict.fromkeys(("spc", "gpc", "rgpc"),
                    lambda ps, alpha, plan: _extend_parity(ps, alpha, plan.np_sub)),
    "split": _extend_split,
}


def _extend_node(ps, alpha, plan):
    return _NODE_EXTENDERS[plan.kind](ps, alpha, plan)


def _decode_paths(alpha, plan, L):
    """Walk ``plan`` over (N, B) LLRs; returns (u (B, P, N), pm) sorted by metric."""
    if type(L) is bool or not isinstance(L, numbers.Integral) or L < 1:
        raise ValueError(f"list size L must be an integer >= 1, got {L!r}")
    ps = PathSet(alpha.shape[1], L)
    beta, _ = _extend_node(ps, alpha[:, :, None], plan)
    order = np.argsort(ps.pm, axis=1, kind="stable")
    # a gather on the leading axes of (B, P, N) is a C-contiguous batch
    return polar_transform(beta.transpose(1, 2, 0)[ps.rows, order]), ps.pm[ps.rows, order]


def fast_scl_decode_paths_batch(channel_llrs, plan, L, minsum=True):
    """Batched fast SCL; returns (u (B, P, N), pm (B, P)) sorted by metric."""
    return _decode_paths(_llr_batch(channel_llrs, plan.size, minsum), plan, L)


def fast_scl_decode_batch(channel_llrs, code, plan, L, crc=None, minsum=True):
    """Batched fast SCL decode; returns (u_hat (B, N), pm (B,))."""
    if plan.size != code.N:
        raise ValueError(f"a plan of size {plan.size} cannot decode a code of length {code.N}")
    u, pm = fast_scl_decode_paths_batch(channel_llrs, plan, L, minsum)
    return select_output(u, pm, code, crc)


def fast_scl_decode(channel_llrs, code, plan, L, crc=None, minsum=True):
    """Fast SCL decode of one frame; returns (u_hat, pm)."""
    llrs = _one_frame(channel_llrs, plan.size)
    u_hat, pm = fast_scl_decode_batch(llrs, code, plan, L, crc, minsum)
    return u_hat[0], float(pm[0])
