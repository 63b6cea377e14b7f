"""SC-list decoding: the path set, the SCL plan walker and CRC-aided selection.

``PathSet`` holds the alive paths' metrics for a batch of frames; a fork
prunes to the L lowest-metric candidates (stable tie-break on candidate
creation order).  The walker extends the path set node by node over a
decode plan: Rate-0, Rep and Rate-1 nodes at the node root, G-Rep by
folding onto its Rate-C child, and SPC/G-PC/RG-PC by (same-Np half,
Rate-1 half) splits down to a fold of their all-frozen Np block.  Its
surviving path set matches tree-descent SCL on the code or, for a plan
with RG-PC nodes, on its relaxed code (every AF bit unfrozen).  Plain SCL
is the walker on the leaves-only plan.  Every frame of a batch holds the
same number of alive paths at any point, because forks depend only on the
frozen pattern.  ``select_output`` picks each frame's winner.
"""

import numpy as np

from .classify import leaves_only_plan
from .codec import _llr_batch, _one_frame, combine, f_step, g_step, polar_transform
from .crc import CRC_NAMES, CrcSpec, check_fits, check_integer, crc_check_batch

__all__ = ["scl_decode", "scl_decode_batch", "scl_decode_paths_batch", "select_output"]


class PathSet:
    """Alive decoding paths for a batch of frames.

    A fork copies no path state: it returns each survivor's parent row.  A
    node extension returns its survivors' ancestry, their rows when the node
    was entered (None when no row moved), and a recursion frame gathers what
    it kept from before a child through that child's ancestry only when it
    resumes (``realign``).  An ancestry holds flat row indices ``b * P + p``
    into the earlier (B·P) path axis, so each gather is one ``take``.
    """

    def __init__(self, B, L):
        self.L = L
        self.pm = np.zeros((B, 1))
        self.rows = np.arange(B)[:, None]

    @property
    def P(self):
        return self.pm.shape[1]

    def realign(self, arr, anc):
        """Gather a (..., B, P_then) array into a C-ordered (..., B, P_now) one.

        None on either side is the identity, so ``realign(first, then)`` of
        two ancestries composes them.
        """
        if anc is None:
            return arr
        if arr is None:
            return anc
        return arr.reshape(arr.shape[:-2] + (-1,)).take(anc, axis=-1)

    def fork(self, pen):
        """Split every path on a binary decision and prune to L.

        pen: (B, 2, P) metric penalties for deciding 0 and 1, so candidate
        ``c`` is bit ``c // P`` on row ``c % P``.  Returns (src, bits): for
        each surviving row, its pre-fork parent row (a flat index into the
        B·P paths) and the decided bit (int64); ``src`` is the fork's ancestry.
        """
        P = self.P
        cand = (self.pm[:, None] + pen).reshape(len(self.pm), 2 * P)
        order = cand.argsort(axis=1, kind="stable")[:, :self.L]
        bits, src = np.divmod(order, P)
        src += self.rows * P
        self.pm = cand[self.rows, order]
        return src, bits

    def settled(self):
        """Whether a fork can leave the paths as they are: the list is full
        and the metrics rise strictly across rows."""
        return self.P == self.L and not np.count_nonzero(self.pm[:, 1:] <= self.pm[:, :-1])

    def noop_columns(self, a):
        """Per column of a (k, B, P) LLR block, whether its fork is a no-op.

        When ``settled()``, a fork keeps every row in place with its metric
        and hard decision ``a < 0`` if each flip candidate ``pm + |a|`` is
        strictly above the largest metric.  Such forks leave the metrics as
        they were, so column j's answer holds after those before it."""
        return (self.pm + np.abs(a) > self.pm[:, -1:]).all(axis=(1, 2))

    def penalize(self, pen):
        self.pm = self.pm + pen


# fmax(sign * alpha, 0): the Eq-(7) penalties for deciding 0 and 1
_SIGNS = np.array([[-1.0], [1.0]])


def _sum_rows(x):
    # the leading-axis sum in row order at every shape; numpy sums one lane pairwise
    return x.sum(axis=0) if x.size > len(x) else np.add.accumulate(x)[-1]


def _extend_rate0(ps, alpha):
    ps.penalize(_sum_rows(np.fmax(-alpha, 0.0)))
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
        src, bits = ps.fork(np.fmax(a[:, None] * _SIGNS, 0.0))
        beta = beta.reshape(size, -1).take(src, axis=1)
        beta[i] = bits
        anc = ps.realign(anc, src)
        i += 1
    return beta, anc


def _extend_rep(ps, alpha):
    # summed in the fork's (B, 2, P) layout: two lanes or more, so in row order
    src, bits = ps.fork(np.fmax(alpha[:, :, None] * _SIGNS, 0.0).sum(axis=0))
    return np.repeat(bits.astype(np.uint8)[None], alpha.shape[0], axis=0), src


def _extend_folded(ps, alpha, size, child=None):
    """All-frozen left halves down to ``size`` LLRs, then the ``child`` plan
    (a Rate-1 serial extension if None).  Each level charges the Rate-0
    penalty of f(a, b), min(|a|, |b|) where the signs differ, and goes on
    with g = b + a (the left partial sums are zero)."""
    folds = alpha.shape[0] // size
    while alpha.shape[0] > size:
        half = alpha.shape[0] // 2
        a, b = alpha[:half], alpha[half:]
        ps.penalize(_sum_rows(np.fmax(np.fmax(np.minimum(-a, b), np.minimum(a, -b)), 0.0)))
        alpha = b + a
    beta, anc = _extend_serial(ps, alpha) if child is None else _extend_node(ps, alpha, child)
    return np.concatenate([beta] * folds), anc


def _extend_parity(ps, alpha, np_sub):
    # an SPC, G-PC or RG-PC node: walking it as (same-Np half, Rate-1 half)
    # splits down to a fold of its Rate-0 Np block keeps the descent path
    # set and enforces the Np parity constraints; RG-PC's AF bits are information
    if alpha.shape[0] == 2 * np_sub:
        return _extend_folded(ps, alpha, np_sub)
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
    "grep": lambda ps, alpha, plan: _extend_folded(ps, alpha, plan.rate_c.size, plan.rate_c),
    **dict.fromkeys(("spc", "gpc", "rgpc"),
                    lambda ps, alpha, plan: _extend_parity(ps, alpha, plan.np_sub)),
    "split": _extend_split,
}


def _extend_node(ps, alpha, plan):
    return _NODE_EXTENDERS[plan.kind](ps, alpha, plan)


def check_crc(crc, code):
    if crc is not None and not isinstance(crc, CrcSpec):
        raise ValueError(f"crc must be None or a CrcSpec (in a config file: one of "
                         f"{list(CRC_NAMES)} or a spec object), got {crc!r}")
    if crc is not None:
        check_fits(crc, code.K)


def _decode_paths(alpha, plan, L):
    """Walk ``plan`` over (N, B) LLRs; returns (u (B, P, N), pm) sorted by metric."""
    check_integer(L, "list size L", 1)
    ps = PathSet(alpha.shape[1], L)
    beta, _ = _extend_node(ps, alpha[:, :, None], plan)
    order = np.argsort(ps.pm, axis=1, kind="stable")
    # a gather on the leading axes of (B, P, N) is a C-contiguous batch
    return polar_transform(beta.transpose(1, 2, 0)[ps.rows, order]), ps.pm[ps.rows, order]


def scl_decode_paths_batch(channel_llrs, code, L, minsum=True):
    """Batched SCL; returns (u (B, P, N), pm (B, P)) sorted by metric (stable)."""
    return _decode_paths(_llr_batch(channel_llrs, code.N, minsum), leaves_only_plan(code), L)


def select_output(u, pm, code, crc=None):
    """Pick the winning path per frame: lowest metric, CRC-aided if given.

    ``u``/``pm`` must be sorted by metric.  With a CRC, the best path whose
    unfrozen payload passes wins; if none passes, fall back to lowest metric.
    """
    check_crc(crc, code)
    B = u.shape[0]
    best = np.zeros(B, dtype=np.int64)
    if crc is not None:  # a row with no passing path has argmax 0, the lowest metric
        best = np.argmax(crc_check_batch(u.take(code.info_indices, axis=2), crc), axis=1)
    return u[np.arange(B), best], pm[np.arange(B), best]


def scl_decode_batch(channel_llrs, code, L, crc=None, minsum=True):
    """Batched SCL decode; returns (u_hat (B, N), pm (B,))."""
    check_crc(crc, code)
    u, pm = scl_decode_paths_batch(channel_llrs, code, L, minsum)
    return select_output(u, pm, code, crc)


def scl_decode(channel_llrs, code, L, crc=None, minsum=True):
    """SCL-decode one frame; returns (u_hat, pm)."""
    u_hat, pm = scl_decode_batch(_one_frame(channel_llrs, code.N), code, L, crc, minsum)
    return u_hat[0], float(pm[0])
