"""SC-list decoding with LLR path metrics, CRC-aided selection.

Paths fork at information leaves and the L lowest-metric candidates
survive (stable tie-break on candidate creation order); the schedule is
the fast SCL walker's on the leaves-only plan.  The decoder is
vectorized over frames and paths: every frame of a batch holds the same
number of alive paths at any point because fork/prune events depend only
on the frozen pattern, never on the data.
"""

import numpy as np

from .classify import leaves_only_plan
from .codec import _llr_batch, _one_frame
from .crc import CrcSpec, crc_check_batch

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
        self.P = 1
        self.pm = np.zeros((B, 1))
        self.rows = np.arange(B)[:, None]

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

    def fork(self, pen0, pen1):
        """Split every path on a binary decision and prune to L.

        pen0/pen1: (B, P) metric penalties for deciding 0/1.  Returns
        (src, bits): for each surviving row, its pre-fork parent row (a flat
        index into the B·P paths) and the decided bit; ``src`` is the fork's
        ancestry.
        """
        cand = np.concatenate([self.pm + pen0, self.pm + pen1], axis=1)
        newP = min(2 * self.P, self.L)
        order = np.argsort(cand, axis=1, kind="stable")[:, :newP]
        src = order % self.P + self.rows * self.P
        bits = (order >= self.P).astype(np.uint8)
        self.pm = cand[self.rows, order]
        self.P = newP
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


def scl_decode_paths_batch(channel_llrs, code, L, minsum=True):
    """Run batched SCL and return the full surviving path sets.

    Plain SCL is the fast SCL walker run on the leaves-only plan.  Returns
    (u, pm): (B, P, N) bit histories and (B, P) metrics, rows sorted by
    metric (stable).
    """
    from .fastscl import _decode_paths

    return _decode_paths(_llr_batch(channel_llrs, code.N, minsum), leaves_only_plan(code), L)


def select_output(u, pm, code, crc=None):
    """Pick the winning path per frame: lowest metric, CRC-aided if given.

    ``u``/``pm`` must be sorted by metric.  With a CRC, the best path whose
    unfrozen payload passes wins; if none passes, fall back to lowest metric.
    """
    if crc is not None and not isinstance(crc, CrcSpec):
        raise ValueError(f"crc must be None or a CrcSpec, got {crc!r}")
    B = u.shape[0]
    best = np.zeros(B, dtype=np.int64)
    if crc is not None:  # a row with no passing path has argmax 0, the lowest metric
        best = np.argmax(crc_check_batch(u[:, :, code.flags == 1], crc), axis=1)
    return u[np.arange(B), best], pm[np.arange(B), best]


def scl_decode_batch(channel_llrs, code, L, crc=None, minsum=True):
    """Batched SCL decode; returns (u_hat (B, N), pm (B,))."""
    u, pm = scl_decode_paths_batch(channel_llrs, code, L, minsum)
    return select_output(u, pm, code, crc)


def scl_decode(channel_llrs, code, L, crc=None, minsum=True):
    """SCL-decode one frame; returns (u_hat, pm)."""
    u_hat, pm = scl_decode_batch(_one_frame(channel_llrs, code.N), code, L, crc, minsum)
    return u_hat[0], float(pm[0])
