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
from .codec import _llr_batch
from .crc import crc_check_batch

__all__ = ["scl_decode", "scl_decode_batch", "scl_decode_paths_batch", "select_output"]


class PathSet:
    """Alive decoding paths for a batch of frames.

    ``maps`` records, per prune event, which pre-event row each surviving
    row came from; recursion frames use it to realign soft values computed
    before the event (lazy row remapping instead of eager copies).  A
    ``realign`` replaces the maps it composed by their composition, so an
    enclosing frame's later ``realign`` composes each map only once.
    """

    def __init__(self, B, L):
        self.B = B
        self.L = L
        self.P = 1
        self.pm = np.zeros((B, 1))
        self.maps = []
        self.rows = np.arange(B)[:, None]
        self.tied = False  # metrics seen tied since the last penalize

    def lineage(self, gen):
        """Row indices mapping the current path set back to generation ``gen``.

        The composed maps ``maps[gen:]`` are replaced by the result; every
        open recursion frame started at a generation <= ``gen``, so their
        generations still index the same events.
        """
        idx = self.maps[-1]
        for m in reversed(self.maps[gen:-1]):
            idx = m[self.rows, idx]
        self.maps[gen:] = [idx]
        return idx

    def realign(self, arr, gen):
        """Gather rows of a (B, P_gen, ...) array for the current path set."""
        if gen == len(self.maps):
            return arr
        return arr[self.rows, self.lineage(gen)]

    def fork(self, pen0, pen1):
        """Split every path on a binary decision and prune to L.

        pen0/pen1: (B, P) metric penalties for deciding 0/1.  Returns
        (src, bits): for each surviving row, its pre-fork parent row and
        the decided bit.
        """
        cand = np.concatenate([self.pm + pen0, self.pm + pen1], axis=1)
        newP = min(2 * self.P, self.L)
        order = np.argsort(cand, axis=1, kind="stable")[:, :newP]
        src = order % self.P
        bits = (order >= self.P).astype(np.uint8)
        self.pm = cand[self.rows, order]
        self.maps.append(src)
        self.P = newP
        return src, bits

    def settled(self):
        """Whether a fork can leave the paths as they are: the list is full
        and the metrics rise strictly across rows.  Once metrics tie, it says
        False without looking until the next ``penalize``: forks mostly keep
        a tie among hard candidates (an all-zero frame stays tied)."""
        if self.P < self.L or self.tied:
            return False
        step = self.pm[:, 1:] - self.pm[:, :-1]
        if not np.count_nonzero(step <= 0):
            return True
        self.tied = bool(np.count_nonzero(step == 0))
        return False

    def noop_columns(self, a):
        """Per column of a (B, P, k) LLR block, whether its fork is a no-op.

        When ``settled()``, a fork keeps every row in place with its metric
        and hard decision ``a < 0`` if each flip candidate ``pm + |a|`` is
        strictly above the largest metric.  Such forks leave the metrics as
        they were, so column j's answer holds after those before it."""
        pm = self.pm[:, :, None]
        return (pm + np.abs(a) > pm[:, -1:]).all(axis=(0, 1))

    def penalize(self, pen):
        self.pm = self.pm + pen
        self.tied = False


def scl_decode_paths_batch(channel_llrs, code, L, minsum=False):
    """Run batched SCL and return the full surviving path sets.

    Plain SCL is the fast SCL walker run on the leaves-only plan.  Returns
    (u, pm): (B, P, N) bit histories and (B, P) metrics, rows sorted by
    metric (stable).
    """
    from .fastscl import _decode_paths

    return _decode_paths(_llr_batch(channel_llrs, code.N), leaves_only_plan(code), L, minsum)


def select_output(u, pm, code, crc=None):
    """Pick the winning path per frame: lowest metric, CRC-aided if given.

    ``u``/``pm`` must be sorted by metric.  With a CRC, the best path whose
    unfrozen payload passes wins; if none passes, fall back to lowest metric.
    """
    B, P, _ = u.shape
    best = np.zeros(B, dtype=np.int64)
    if crc is not None:
        info = u[:, :, code.flags == 1]
        ok = crc_check_batch(info, crc)
        has = ok.any(axis=1)
        best[has] = np.argmax(ok[has], axis=1)
    sel = u[np.arange(B), best]
    return sel, pm[np.arange(B), best]


def scl_decode_batch(channel_llrs, code, L, crc=None, minsum=False):
    """Batched SCL decode; returns (u_hat (B, N), pm (B,))."""
    u, pm = scl_decode_paths_batch(channel_llrs, code, L, minsum)
    return select_output(u, pm, code, crc)


def scl_decode(channel_llrs, code, L, crc=None, minsum=False):
    """SCL-decode one frame; returns (u_hat, pm)."""
    u_hat, pm = scl_decode_batch(np.asarray(channel_llrs)[None, :], code, L, crc, minsum)
    return u_hat[0], float(pm[0])
