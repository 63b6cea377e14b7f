"""Fast SCL decoding over a pruned decode plan.

Rate-0, Rep and Rate-1 nodes extend the path set at the node root; G-Rep
folds its LLRs onto the Rate-C child; SPC, G-PC and RG-PC are walked as
split shapes of Rate-0 and Rate-1 nodes (SPC is G-PC with Np = 1).  With
the min-sum f-update the surviving path set (bit histories and metrics)
matches tree-descent SCL for every node kind except RG-PC, whose metrics
are exact only for a descent that ignores its AF bits.
Plain SCL is this walker on the leaves-only plan.
"""

from functools import lru_cache

import numpy as np

from .classify import DecodePlan
from .codec import _llr_batch, combine, f_step, g_step, polar_transform
from .listdec import PathSet, select_output

__all__ = ["fast_scl_decode", "fast_scl_decode_batch", "fast_scl_decode_paths_batch"]


def _relu_neg(a):
    # Eq-(7) penalty for deciding 0 everywhere: |alpha| where the hard
    # decision disagrees
    return np.where(a < 0, -a, 0.0)


def _relu_pos(a):
    return np.where(a >= 0, a, 0.0)


def _extend_rate0(ps, alpha):
    ps.penalize(_relu_neg(alpha).sum(axis=-1))
    return np.zeros(alpha.shape, dtype=np.uint8)


def _extend_serial(ps, alpha):
    """Bit-serial Rate-1 extension: one fork per column that can change paths.

    While the path set is ``settled``, the leading columns whose forks are
    no-ops (``ps.noop_columns``) are decided by hard decision without a fork
    or a map; the path set, its row order and the metrics are the same as if
    they had forked.  After a real fork the remaining columns are tested
    again.  Column LLRs are read through each path's source row at node
    entry (``ps.realign``), so ``alpha`` is never re-gathered; the decided
    bits are traced back through the node's forks once, at node exit, where
    a no-op run keeps every row in place.
    """
    size = alpha.shape[-1]
    gen = len(ps.maps)
    steps = []  # (column or no-op run, fork src or None, bits there)
    i = 0
    while i < size:
        settled = ps.settled()
        cols = slice(i, None) if settled else i  # a run test reads the rest
        a = ps.realign(alpha[:, :, cols], gen)
        if settled:
            run = [*ps.noop_columns(a).tolist(), False].index(False)
            if run:
                steps.append((slice(i, i + run), None, a[:, :, :run] < 0))
                i += run
                if i == size:
                    break
            a = a[:, :, run]
        src, bits = ps.fork(_relu_neg(a), _relu_pos(a))
        steps.append((i, src, bits))
        i += 1
    beta = np.empty((ps.B, ps.P, size), dtype=np.uint8)
    row = None  # each path's row after the step being traced; None: unmoved
    for cols, src, bits in reversed(steps):
        beta[:, :, cols] = bits if row is None else bits[ps.rows, row]
        if src is not None:
            row = src if row is None else src[ps.rows, row]
    return beta


def _extend_rep(ps, alpha):
    _, bits = ps.fork(_relu_neg(alpha).sum(axis=-1), _relu_pos(alpha).sum(axis=-1))
    return np.repeat(bits[:, :, None], alpha.shape[-1], axis=2)


def _extend_grep(ps, alpha, plan, minsum):
    # fold through the all-frozen left siblings, charging their Rate-0
    # penalties level by level
    size = alpha.shape[-1]
    p = plan.rate_c.stage
    while alpha.shape[-1] > (1 << p):
        half = alpha.shape[-1] // 2
        ps.penalize(_relu_neg(f_step(alpha, minsum)).sum(axis=-1))
        alpha = alpha[..., half:] + alpha[..., :half]
    beta_rc = _extend_node(ps, alpha, plan.rate_c, minsum)
    return np.concatenate([beta_rc] * (size >> p), axis=-1)


@lru_cache(maxsize=None)
def _parity_shape(stage, np_sub):
    """The split shape an SPC, G-PC or RG-PC node is walked as.

    The node splits as (same-Np half, Rate-1 half) down to its all-frozen
    Np block; walking that shape (Rate-0 at the bottom, bit-serial Rate-1
    on every right half) keeps the descent path set and enforces the Np
    parity constraints.  RG-PC treats its AF bits as information bits.
    """
    if 1 << stage == np_sub:
        return DecodePlan("rate0", stage, 0)
    return DecodePlan("split", stage, 0, left=_parity_shape(stage - 1, np_sub),
                      right=DecodePlan("rate1", stage - 1, 0))


def _extend_split(ps, alpha, plan, minsum):
    gen = len(ps.maps)
    bl = _extend_node(ps, f_step(alpha, minsum), plan.left, minsum)
    alpha = ps.realign(alpha, gen)
    gen_r = len(ps.maps)
    br = _extend_node(ps, g_step(alpha, bl), plan.right, minsum)
    bl = ps.realign(bl, gen_r)
    return combine(bl, br)


# node kind -> extension(ps, alpha, plan, minsum) returning the (B, P, size)
# partial sums of the surviving paths
_NODE_EXTENDERS = {
    "rate0": lambda ps, alpha, plan, minsum: _extend_rate0(ps, alpha),
    "rate1": lambda ps, alpha, plan, minsum: _extend_serial(ps, alpha),
    "rep": lambda ps, alpha, plan, minsum: _extend_rep(ps, alpha),
    "grep": _extend_grep,
    **dict.fromkeys(("spc", "gpc", "rgpc"), lambda ps, alpha, plan, minsum: _extend_split(
        ps, alpha, _parity_shape(plan.stage, plan.np_sub), minsum)),
    "split": _extend_split,
}


def _extend_node(ps, alpha, plan, minsum):
    return _NODE_EXTENDERS[plan.kind](ps, alpha, plan, minsum)


def _decode_paths(alpha, plan, L, minsum):
    """Walk ``plan`` over a (B, N) LLR batch; returns (u, pm) sorted by metric."""
    if L < 1:
        raise ValueError("list size must be >= 1")
    ps = PathSet(alpha.shape[0], L)
    beta = _extend_node(ps, alpha[:, None, :], plan, minsum)
    order = np.argsort(ps.pm, axis=1, kind="stable")
    return polar_transform(beta[ps.rows, order]), ps.pm[ps.rows, order]


def fast_scl_decode_paths_batch(channel_llrs, plan, L, minsum=True):
    """Batched fast SCL; returns (u (B, P, N), pm (B, P)) sorted by metric."""
    return _decode_paths(_llr_batch(channel_llrs, plan.size), plan, L, minsum)


def fast_scl_decode_batch(channel_llrs, code, plan, L, crc=None, minsum=True):
    """Batched fast SCL decode; returns (u_hat (B, N), pm (B,))."""
    u, pm = fast_scl_decode_paths_batch(channel_llrs, plan, L, minsum)
    return select_output(u, pm, code, crc)


def fast_scl_decode(channel_llrs, code, plan, L, crc=None, minsum=True):
    """Fast SCL decode of one frame; returns (u_hat, pm)."""
    u_hat, pm = fast_scl_decode_batch(np.asarray(channel_llrs)[None, :], code, plan, L, crc, minsum)
    return u_hat[0], float(pm[0])
