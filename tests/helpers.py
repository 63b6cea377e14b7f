"""Shared oracles for the test suite."""

import numpy as np

from fastpolar.codec import encode, polar_transform
from fastpolar.construction import PolarCode, _check_update
from fastpolar.sim import _frame_rng

# The descent oracles' own f/g/combine kernels, written as the textbook
# formulas on the trailing axis, so that a change to ``codec.f_step``,
# ``g_step`` or ``combine`` cannot change the reference the fast walkers are
# checked against.
def f_step(alpha):
    alpha = np.asarray(alpha, dtype=np.float64)
    m = alpha.shape[-1] // 2
    a, b = alpha[..., :m], alpha[..., m:]
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def g_step(alpha, beta_left):
    alpha = np.asarray(alpha, dtype=np.float64)
    m = alpha.shape[-1] // 2
    return alpha[..., m:] + (1 - 2 * np.asarray(beta_left, dtype=np.float64)) * alpha[..., :m]


def combine(beta_left, beta_right):
    return np.concatenate([beta_left ^ beta_right, beta_right], axis=-1)


def crc_bits(payload, spec):
    """Reference CRC: the register bits (MSB first) for a bit-vector payload,
    clocked one bit at a time."""
    bits = np.asarray(payload, dtype=np.uint8).tolist()
    if spec.reflect:
        bits = bits[::-1]
    reg = spec.init
    mask = (1 << spec.width) - 1
    for b in bits:
        fb = ((reg >> (spec.width - 1)) & 1) ^ int(b)
        reg = ((reg << 1) & mask)
        if fb:
            reg ^= spec.polynomial
    reg ^= spec.final_xor
    out = [(reg >> (spec.width - 1 - i)) & 1 for i in range(spec.width)]
    if spec.reflect:
        out = out[::-1]
    return np.array(out, dtype=np.uint8)


def fork_reference(ps, pen0, pen1):
    """``PathSet.fork`` from two (B, P) penalty arrays, one per decision:
    the candidates concatenated, pruned by a stable argsort.  Returns
    (src, bits) like the library's fork and updates ``ps`` the same way."""
    P = ps.P
    cand = np.concatenate([ps.pm + pen0, ps.pm + pen1], axis=1)
    order = np.argsort(cand, axis=1, kind="stable")[:, :min(2 * P, ps.L)]
    src = order % P + ps.rows * P
    bits = (order >= P).astype(np.uint8)
    ps.pm = cand[ps.rows, order]
    return src, bits


def ga_llr_means_reference(n, design_sigma):
    """Reference GA means: the check update solved one bit-channel at a time
    with the scalar ``_check_update``, level by level."""
    means = np.array([2.0 / design_sigma**2])
    for _ in range(n):
        out = np.empty(2 * means.size)
        out[: means.size] = [_check_update(m) for m in means]
        out[means.size:] = 2.0 * means
        # expand within each index prefix: the new level is the next lower bit
        means = out.reshape(2, -1).T.reshape(-1)
    return means


def make_code(flags):
    """The PolarCode with these 0/1 flags (design sigma 0.5)."""
    flags = np.asarray(flags, dtype=np.uint8)
    return PolarCode(flags, 0.5)


def relaxed_code(code, plan):
    """The code that leaves every RG-PC node's AF bits unfrozen.

    An RG-PC node decodes its AF bits as information bits, so ``plan``
    decodes exactly as plain SC and SCL (and the descent oracles) do on this
    code; a plan without RG-PC nodes gives the code's own flags.
    """
    flags = code.flags.copy()
    for node in plan.walk():
        if node.kind == "rgpc":
            flags[[node.offset + af for af in node.af_positions]] = 1
    return PolarCode(flags, code.design_sigma)


def plan_leaves(plan):
    """The nodes that tile a plan's block: every node but the splits, in
    decode order (a G-Rep node stands for its Rate-C sub-plan)."""
    if plan.kind != "split":
        yield plan
        return
    yield from plan_leaves(plan.left)
    yield from plan_leaves(plan.right)


def kron_generator(n):
    """Explicit generator matrix: n-fold Kronecker power of [[1,0],[1,1]]."""
    g = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    out = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        out = np.kron(out, g)
    return out


def path_metric_of(llrs, u):
    """Leaf-by-leaf metric of a fixed bit history: |alpha| wherever the
    decision disagrees with the hard decision, summed over the tree."""

    def rec(alpha, bits):
        if alpha.shape[-1] == 1:
            return abs(alpha[0]) if bits[0] != (alpha[0] < 0) else 0.0
        half = len(bits) // 2
        bl = polar_transform(bits[:half].copy())
        return rec(f_step(alpha), bits[:half]) + rec(g_step(alpha, bl), bits[half:])

    return rec(np.asarray(llrs, dtype=np.float64), np.asarray(bits_array(u), dtype=np.uint8))


def bits_array(u):
    return np.asarray(u, dtype=np.uint8)


def canon_paths(u, pm, digits=6):
    """Order-independent canonical form of a path set for comparison."""
    return sorted((round(float(p), digits), tuple(int(b) for b in row))
                  for p, row in zip(pm, u))


def even_parity_words(length):
    """All binary words of the given length with XOR zero."""
    words = []
    for w in range(1 << length):
        bits = [(w >> k) & 1 for k in range(length)]
        if sum(bits) % 2 == 0:
            words.append(np.array(bits, dtype=np.uint8))
    return words


def ml_even_parity(alpha):
    """Brute-force ML over the even-parity code: maximize correlation
    sum((1-2b) * alpha)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    best, best_corr = None, -np.inf
    for word in even_parity_words(len(alpha)):
        corr = float(np.dot(1.0 - 2.0 * word, alpha))
        if corr > best_corr:
            best, best_corr = word, corr
    return best


def wagner_per_row(alpha):
    """Reference Wagner decoder: one row at a time, in plain Python."""
    alpha = np.asarray(alpha, dtype=np.float64)
    rows = alpha.reshape(-1, alpha.shape[-1])
    out = np.empty(rows.shape, dtype=np.uint8)
    for r, row in enumerate(rows.tolist()):
        bits = [int(v < 0) for v in row]
        if sum(bits) % 2:
            mags = [abs(v) for v in row]
            bits[mags.index(min(mags))] ^= 1  # the first of tied minima
        out[r] = bits
    return out.reshape(alpha.shape)


def sc_descent_batch(llrs, code):
    """Reference plain SC: recursive tree descent, deciding each leaf in turn.

    Returns (u_hat, x_hat) for a (B, N) batch.
    """
    alpha = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    B, N = alpha.shape
    flags = code.flags
    u_hat = np.zeros((B, N), dtype=np.uint8)

    def descend(a, lo, size):
        if size == 1:
            if flags[lo]:
                bit = (a[:, 0] < 0).astype(np.uint8)
            else:
                bit = np.zeros(B, dtype=np.uint8)
            u_hat[:, lo] = bit
            return bit[:, None]
        half = size // 2
        bl = descend(f_step(a), lo, half)
        br = descend(g_step(a, bl), lo + half, half)
        return combine(bl, br)

    x_hat = descend(alpha, 0, N)
    return u_hat, x_hat


class _DescentPaths:
    """Alive paths of the reference SCL, with their decided bits.

    ``maps`` records, per prune event, which pre-event row each surviving
    row came from; ``decisions`` logs every decided bit column, and
    ``bit_histories`` rebuilds the final paths' bits by walking the events
    backwards.
    """

    def __init__(self, B, N, L):
        self.B, self.N, self.L = B, N, L
        self.P = 1
        self.pm = np.zeros((B, 1))
        self.maps = []
        self.decisions = []  # (map index, column, per-row bits)

    def realign(self, arr, gen):
        """Gather rows of a (B, P_gen, ...) array for the current path set."""
        if gen == len(self.maps):
            return arr
        idx = np.broadcast_to(np.arange(self.P), (self.B, self.P))
        for m in reversed(self.maps[gen:]):
            idx = np.take_along_axis(m, idx, axis=1)
        return np.take_along_axis(arr, idx.reshape(idx.shape + (1,) * (arr.ndim - 2)), axis=1)

    def fork(self, pen0, pen1):
        """Split every path on one bit, keep the L best (stable); returns the bits."""
        cand = np.concatenate([self.pm + pen0, self.pm + pen1], axis=1)
        newP = min(2 * self.P, self.L)
        order = np.argsort(cand, axis=1, kind="stable")[:, :newP]
        bits = (order >= self.P).astype(np.uint8)
        self.pm = np.take_along_axis(cand, order, axis=1)
        self.maps.append(order % self.P)
        self.P = newP
        return bits

    def record(self, col, bits):
        self.decisions.append((len(self.maps) - 1, col, bits))

    def bit_histories(self):
        """(B, P, N) decided bits of the surviving paths, zeros elsewhere."""
        u = np.zeros((self.B, self.P, self.N), dtype=np.uint8)
        idx = np.broadcast_to(np.arange(self.P), (self.B, self.P))
        ev = len(self.decisions) - 1
        for gen in range(len(self.maps) - 1, -1, -1):
            while ev >= 0 and self.decisions[ev][0] == gen:
                _, col, bits = self.decisions[ev]
                u[:, :, col] = np.take_along_axis(bits, idx, axis=1)
                ev -= 1
            idx = np.take_along_axis(self.maps[gen], idx, axis=1)
        return u


def scl_descent_paths_batch(llrs, code, L):
    """Reference SCL: tree descent forking at every information leaf.

    Returns (u, pm): (B, P, N) bit histories and (B, P) metrics, rows
    sorted by metric (stable).
    """
    alpha = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    B, N = alpha.shape
    flags = code.flags
    ps = _DescentPaths(B, N, L)

    def descend(a, lo, size):
        if size == 1:
            a = a[:, :, 0]
            pen0 = np.where(a < 0, -a, 0.0)
            if not flags[lo]:
                ps.pm = ps.pm + pen0
                return np.zeros((B, ps.P, 1), dtype=np.uint8)
            bits = ps.fork(pen0, np.where(a >= 0, a, 0.0))
            ps.record(lo, bits)
            return bits[:, :, None]
        half = size // 2
        gen = len(ps.maps)
        bl = descend(f_step(a), lo, half)
        a = ps.realign(a, gen)
        gen_r = len(ps.maps)
        br = descend(g_step(a, bl), lo + half, half)
        bl = ps.realign(bl, gen_r)
        return combine(bl, br)

    descend(alpha[:, None, :], 0, N)
    order = np.argsort(ps.pm, axis=1, kind="stable")
    pm = np.take_along_axis(ps.pm, order, axis=1)
    u = np.take_along_axis(ps.bit_histories(), order[:, :, None], axis=1)
    return u, pm


def gen_frames_per_frame(cfg, snr_idx, start, count, sigma):
    """Reference frame generator: the simulator's frames built one at a
    time, with the bitwise CRC register and the channel formula written out."""
    N = cfg.code.N
    nbits = cfg.payload_bits
    info = cfg.code.info_indices
    payloads = np.empty((count, nbits), dtype=np.uint8)
    llrs = np.empty((count, N))
    for k in range(count):
        rng = _frame_rng(cfg.seed, snr_idx, start + k)
        payload = rng.integers(0, 2, nbits, dtype=np.uint8)
        bits = np.concatenate([payload, crc_bits(payload, cfg.crc)]) if cfg.crc else payload
        u = np.zeros(N, dtype=np.uint8)
        u[info] = bits
        payloads[k] = payload
        x = encode(u, cfg.code).astype(np.float64)
        y = (1.0 - 2.0 * x) + sigma * rng.normal(size=N)
        llrs[k] = 2.0 * y / sigma**2
    return payloads, llrs
