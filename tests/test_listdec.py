import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastpolar import listdec
from fastpolar.classify import PlanOptions, classify
from fastpolar.codec import f_step, polar_transform
from fastpolar.construction import construct_code
from fastpolar.crc import CRC8, CRC16, crc_attach
from fastpolar.fastscl import fast_scl_decode, fast_scl_decode_batch
from fastpolar.listdec import (PathSet, scl_decode, scl_decode_batch, scl_decode_paths_batch,
                               select_output)
from helpers import (fork_reference, make_code, path_metric_of, sc_descent_batch,
                     scl_descent_paths_batch)


def test_list_one_equals_sc():
    code = construct_code(6, 32, 0.5)
    rng = np.random.default_rng(1)
    llrs = rng.normal(size=(300, 64)) * 2
    u_sc, _ = sc_descent_batch(llrs, code)
    u_l, _ = scl_decode_batch(llrs, code, 1)
    assert np.array_equal(u_sc, u_l)


def brute_force_ml(llrs, code):
    info = code.info_indices
    K = info.size
    best, best_pm = None, np.inf
    for w in range(1 << K):
        u = np.zeros(code.N, np.uint8)
        u[info] = (w >> np.arange(K)) & 1
        pm = path_metric_of(llrs, u)
        if pm < best_pm - 1e-12:
            best, best_pm = u, pm
    return best, best_pm


@pytest.mark.parametrize("flags", [
    [0, 0, 1, 1, 0, 1, 1, 1],
    [0, 1, 0, 1, 1, 1, 1, 1],
    [0] * 8 + [0, 0, 0, 1, 0, 1, 1, 1],
])
def test_full_list_is_ml(flags):
    code = make_code(flags)
    L = 1 << code.K
    rng = np.random.default_rng(code.N)
    for _ in range(40):
        llrs = rng.normal(size=code.N) * 2
        u_hat, pm = scl_decode(llrs, code, L)
        u_ml, pm_ml = brute_force_ml(llrs, code)
        assert pm == pytest.approx(pm_ml, rel=1e-9)
        assert np.array_equal(u_hat, u_ml)


def test_noiseless_crc_aided():
    code = construct_code(6, 24, 0.5)
    rng = np.random.default_rng(6)
    payload = rng.integers(0, 2, (1000, 16), dtype=np.uint8)
    u = np.zeros((1000, 64), np.uint8)
    u[:, code.info_indices] = np.stack([crc_attach(p, CRC8) for p in payload])
    llrs = (1.0 - 2.0 * polar_transform(u)) * 4.0
    u_hat, _ = scl_decode_batch(llrs, code, 4, crc=CRC8)
    assert np.array_equal(u_hat, u)


def test_path_count_and_metric_monotonicity():
    code = construct_code(5, 16, 0.5)
    rng = np.random.default_rng(2)
    for L in (1, 2, 4, 8):
        llrs = rng.normal(size=(50, 32)) * 2
        u, pm = scl_decode_paths_batch(llrs, code, L)
        assert u.shape[1] <= L
        assert (pm >= -1e-12).all()
        assert (np.diff(pm, axis=1) >= -1e-12).all()  # sorted output


def test_survivors_are_smallest_metric_candidates():
    # with L covering half the candidate space, every survivor must beat
    # every non-survivor under the brute-force metric
    flags = [0, 0, 0, 1, 0, 1, 1, 1]
    code = make_code(flags)
    rng = np.random.default_rng(3)
    info = code.info_indices
    for _ in range(20):
        llrs = rng.normal(size=8) * 2
        u, pm = scl_decode_paths_batch(llrs[None], code, 8)
        kept = {tuple(int(b) for b in row) for row in u[0]}
        all_pms = []
        for w in range(16):
            cand = np.zeros(8, np.uint8)
            cand[info] = (w >> np.arange(4)) & 1
            all_pms.append((path_metric_of(llrs, cand), tuple(cand)))
        all_pms.sort()
        worst_kept = max(p for p, c in all_pms if c in kept)
        best_dropped = min((p for p, c in all_pms if c not in kept), default=np.inf)
        assert worst_kept <= best_dropped + 1e-12


def test_pm_recomputable_from_history():
    code = construct_code(6, 32, 0.5)
    rng = np.random.default_rng(4)
    llrs = rng.normal(size=(20, 64)) * 2
    u, pm = scl_decode_paths_batch(llrs, code, 4)
    for b in range(20):
        for p in range(u.shape[1]):
            ref = path_metric_of(llrs[b], u[b, p])
            assert pm[b, p] == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_crc_selection_falls_back_to_lowest_metric():
    # frames 0 and 3 have no passing path, frame 1 passes at rows 2 and 3,
    # frame 2 at row 0 only; rows are sorted by metric
    code = construct_code(5, 16, 0.5)
    passing = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 0, 0]], dtype=bool)
    B, P = passing.shape
    rng = np.random.default_rng(4)
    info = crc_attach(rng.integers(0, 2, (B, P, 8), dtype=np.uint8), CRC8)
    info[~passing, -1] ^= 1  # a wrong last CRC bit
    u = np.zeros((B, P, code.N), dtype=np.uint8)
    u[:, :, code.info_indices] = info
    pm = np.sort(rng.random((B, P)), axis=1)
    u_hat, pm_hat = select_output(u, pm, code, CRC8)
    best = [0, 2, 0, 0]
    assert np.array_equal(u_hat, u[np.arange(B), best])
    assert np.array_equal(pm_hat, pm[np.arange(B), best])


def test_crc_selection_prefers_passing_path():
    # craft a code where the ML path fails CRC but a close competitor passes
    code = construct_code(5, 16, 0.5)
    rng = np.random.default_rng(8)
    payload = rng.integers(0, 2, 8, dtype=np.uint8)
    u = np.zeros(32, np.uint8)
    u[code.info_indices] = crc_attach(payload, CRC8)
    x = polar_transform(u.copy())
    found = False
    for trial in range(400):
        noise = rng.normal(size=32)
        llrs = (1.0 - 2.0 * x) * 1.2 + noise
        u_plain, _ = scl_decode_batch(llrs[None], code, 8)
        u_crc, _ = scl_decode_batch(llrs[None], code, 8, crc=CRC8)
        if not np.array_equal(u_plain[0], u) and np.array_equal(u_crc[0], u):
            found = True
            break
    assert found, "never saw the CRC rescue a frame; raise the trial budget"


def test_bler_non_increasing_in_list_size():
    code = construct_code(7, 64, 0.5)
    rng = np.random.default_rng(10)
    u = np.zeros((600, 128), np.uint8)
    u[:, code.info_indices] = rng.integers(0, 2, (600, 64), dtype=np.uint8)
    llrs = (1.0 - 2.0 * polar_transform(u)) * 1.0 + rng.normal(size=(600, 128)) * 1.0
    errs = []
    for L in (1, 2, 4, 8):
        u_hat, _ = scl_decode_batch(llrs, code, L)
        errs.append(int((u_hat != u).any(axis=1).sum()))
    # allow tiny statistical wiggle between adjacent list sizes
    for a, b in zip(errs, errs[1:]):
        assert b <= a + max(3, int(0.05 * a))


def test_single_frame_wrapper():
    code = construct_code(4, 8, 0.5)
    rng = np.random.default_rng(11)
    llrs = rng.normal(size=16)
    u1, pm1 = scl_decode(llrs, code, 4)
    ub, pmb = scl_decode_batch(llrs[None], code, 4)
    assert np.array_equal(u1, ub[0]) and pm1 == pytest.approx(float(pmb[0]))


@pytest.mark.parametrize("crc,message", [(CRC16, "a 16-bit CRC does not fit in 8 bits"),
                                         ("crc8", "crc must be None or a CrcSpec")])
@pytest.mark.parametrize("decode", ["scl", "scl_batch", "ssclspc", "ssclspc_batch"])
def test_doomed_crc_is_refused_before_any_fork(monkeypatch, decode, crc, message):
    # the CRC rules run first: a decode that could only end in their error forks no path
    def fork(self, pen):
        raise AssertionError("forked before the CRC was checked")

    monkeypatch.setattr(PathSet, "fork", fork)
    code = construct_code(4, 8, 0.5)
    plan = classify(code, PlanOptions(enable_grep=True, enable_gpc=True))
    llrs = np.random.default_rng(4).normal(size=(3, code.N))
    calls = {"scl": lambda: scl_decode(llrs[0], code, 4, crc),
             "scl_batch": lambda: scl_decode_batch(llrs, code, 4, crc),
             "ssclspc": lambda: fast_scl_decode(llrs[0], code, plan, 4, crc),
             "ssclspc_batch": lambda: fast_scl_decode_batch(llrs, code, plan, 4, crc)}
    with pytest.raises(ValueError, match=message):
        calls[decode]()


def test_crc_as_wide_as_k_decodes():
    # a CRC filling every information bit still fits; the all-zero frame
    # passes CRC8 (init 0) with an empty payload
    code = construct_code(4, 8, 0.5)
    llrs = np.full((2, code.N), 2.0)
    for u, pm in (scl_decode_batch(llrs, code, 4, CRC8),
                  fast_scl_decode_batch(llrs, code, classify(code), 4, CRC8)):
        assert u.shape == (2, code.N) and not u.any()


@given(st.integers(0, 6), st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_scl_equals_descent_oracle(n, seed, L):
    # plain SCL is the fast SCL walker on the leaves-only plan; the oracle
    # is an independent tree descent that records every decided bit
    rng = np.random.default_rng(seed)
    code = make_code(rng.integers(0, 2, 1 << n, dtype=np.uint8))
    llrs = rng.normal(size=(10, code.N)) * 2
    u, pm = scl_decode_paths_batch(llrs, code, L)
    u_ref, pm_ref = scl_descent_paths_batch(llrs, code, L)
    assert np.array_equal(u, u_ref) and np.array_equal(pm, pm_ref)


@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_realign_reuses_composed_lineage(seed, B, L):
    # random fork maps under a random recursion tree; every frame returns
    # its ancestry composed by realign, as the walker does, and each realign
    # through it must equal composing the original per-frame maps one by one
    rng = np.random.default_rng(seed)
    ps = PathSet(B, L)
    events = []  # every fork map, in order, as per-frame parent rows

    def expected(arr, ev):
        idx = np.broadcast_to(np.arange(ps.P), (B, ps.P))
        for m in reversed(events[ev:]):
            idx = np.take_along_axis(m, idx, axis=1)
        return np.take_along_axis(arr, idx[:, :, None], axis=1)

    def check(arr, anc, ev):
        got = np.moveaxis(ps.realign(np.moveaxis(arr, -1, 0), anc), 0, -1)
        assert np.array_equal(got, expected(arr, ev))

    def frame(depth):
        ev, arr = len(events), rng.random((B, ps.P, 2))
        if depth == 0 or rng.random() < 0.2:
            anc = None
            for _ in range(rng.integers(0, 4)):
                new_p = int(rng.integers(1, L + 1))
                events.append(rng.integers(0, ps.P, (B, new_p)))
                # an ancestry holds flat indices into the (B·P) path axis
                flat = events[-1] + ps.rows * ps.P
                ps.pm = np.zeros((B, new_p))
                anc = ps.realign(anc, flat)
                # a Rate-1 node reads each column through its ancestry so far
                check(arr, anc, ev)
            check(arr, anc, ev)
            return anc
        anc_l = frame(depth - 1)
        check(arr, anc_l, ev)
        anc = ps.realign(anc_l, frame(depth - 1))
        check(arr, anc, ev)
        return anc

    frame(int(rng.integers(1, 7)))


def test_path_set_holds_only_its_metrics():
    # the path count is the metrics' width, and nothing is sized by L
    ps = PathSet(3, 10 ** 12)
    assert sorted(vars(ps)) == ["L", "pm", "rows"]
    src, bits = ps.fork(np.zeros((3, 2, 1)))
    assert ps.P == 2 and ps.pm.shape == (3, 2)
    assert src.tolist() == [[0, 0], [1, 1], [2, 2]] and bits.tolist() == [[0, 1]] * 3


def test_noop_predicate_examples():
    def paths(*pm):
        ps = PathSet(1, len(pm))
        ps.pm = np.array([pm])
        return ps

    assert not PathSet(1, 3).settled()  # one path, list not full
    assert not paths(0.0, 2.0, 1.0).settled()  # rows out of metric order
    ps = paths(0.0, 1.0, 3.0)
    assert ps.settled()
    # column 0's flips 5, 5, 5 clear the largest metric 3; column 1's 0 + 3
    # only ties it; column 2's 0 + 0 is below it
    a = np.array([[5.0, 3.0, 0.0], [-4.0, 9.0, 2.0], [2.0, -7.0, 1.0]])[None]
    assert ps.noop_columns(np.moveaxis(a, -1, 0)).tolist() == [True, False, False]
    # tied metrics are not settled; there is no latch, so the answer
    # follows the metrics as soon as they change, with or without a penalize
    ps = paths(0.0, 1.0, 1.0)
    assert not ps.settled() and not hasattr(ps, "tied")
    ps.pm = np.array([[0.0, 1.0, 3.0]])
    assert ps.settled()
    ps.penalize(np.array([[0.0, 2.0, 0.0]]))
    assert not ps.settled()


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 8]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_noop_predicate_agrees_with_fork(seed, B, L, full):
    # tie-heavy (pm, a): small integers, repeated metrics, zero LLRs, rows
    # sometimes out of order, P at or below L.  Wherever the predicate says
    # no-op, the real fork keeps every row in place with its hard decision
    # and its metric; this checks row order, which canon_paths does not see.
    # The identity ancestry is each row's own flat index into the B·P paths
    rng = np.random.default_rng(seed)
    ps = PathSet(B, L)
    P = L if full else int(rng.integers(1, L + 1))
    ps.pm = np.cumsum(rng.integers(0, 3, (B, P)), axis=1).astype(float)
    if rng.random() < 0.2:
        ps.pm = rng.permuted(ps.pm, axis=1)
    a = rng.integers(-6, 7, (B, ps.P, int(rng.integers(1, 6)))).astype(float)
    a[rng.random(a.shape) < 0.2] = 0.0
    noop = ps.noop_columns(np.moveaxis(a, -1, 0)) if ps.settled() else np.zeros(a.shape[-1], bool)
    pm = ps.pm.copy()
    for j in np.flatnonzero(noop):
        col = a[:, :, j]
        src, bits = ps.fork(np.stack([np.where(col < 0, -col, 0.0),
                                      np.where(col >= 0, col, 0.0)], axis=1))
        assert np.array_equal(src, ps.rows * ps.P + np.arange(ps.P))
        assert np.array_equal(bits, col < 0)
        assert np.array_equal(ps.pm, pm)


@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from([1, 2, 3, 4, 8]))
@settings(max_examples=300, deadline=None)
def test_fork_matches_two_penalty_reference(seed, B, L):
    # tie-heavy forks: small-integer metrics and penalties, repeated values
    # and zeros of both signs, P at or below L.  One (B, 2, P) penalty block
    # must keep the same rows in the same order, with the same bits and
    # bitwise the same metrics, as two penalty arrays concatenated
    rng = np.random.default_rng(seed)
    ps, ref = PathSet(B, L), PathSet(B, L)
    ps.pm = ref.pm = np.zeros((B, int(rng.integers(1, L + 1))))
    for _ in range(int(rng.integers(1, 6))):
        pm = rng.integers(0, 4, (B, ps.P)).astype(float)
        pm[rng.random(pm.shape) < 0.2] = -0.0
        pen = rng.integers(0, 3, (B, 2, ps.P)).astype(float)
        pen[rng.random(pen.shape) < 0.3] *= -0.0
        ps.pm, ref.pm = pm, pm.copy()
        src, bits = ps.fork(pen)
        src_ref, bits_ref = fork_reference(ref, pen[:, 0], pen[:, 1])
        assert np.array_equal(src, src_ref) and np.array_equal(bits, bits_ref)
        assert ps.P == ref.P and ps.pm.tobytes() == ref.pm.tobytes()


def sequential_sum(x):
    """x[0] + x[1] + ... in that order, whatever the shape of each row."""
    return np.add.accumulate(x)[-1]


@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 8]))
@settings(max_examples=200, deadline=None)
def test_rep_and_fold_penalties_keep_their_sums(seed, B, L):
    # a Rep node forks on the per-decision penalty sums, and a G-Rep fold
    # level charges the Rate-0 penalty of f(a, b) without forming f.  Both
    # sum row by row at every B and P (numpy's own sum of a single lane,
    # B = P = 1, is pairwise), so they must leave the metrics bitwise as
    # these sequential reference sums do
    rng = np.random.default_rng(seed)
    size = 1 << int(rng.integers(1, 8))
    P = int(rng.integers(1, L + 1))
    alpha = rng.normal(size=(size, B, P)) * 10.0 ** rng.integers(-3, 4)
    if rng.random() < 0.5:
        alpha = rng.integers(-2, 3, alpha.shape) * (1.0 - 2.0 * (rng.random(alpha.shape) < 0.5))
    pm = np.sort(rng.integers(0, 4, (B, P)), axis=1).astype(float)

    def paths():
        ps = PathSet(B, L)
        ps.pm = pm.copy()
        return ps

    code = make_code([0] * (size - 1) + [1])
    ps, ref = paths(), paths()
    beta, src = listdec._extend_node(ps, alpha, classify(code, PlanOptions(False, False)))
    src_ref, bits_ref = fork_reference(ref, sequential_sum(np.fmax(-alpha, 0.0)),
                                       sequential_sum(np.fmax(alpha, 0.0)))
    assert np.array_equal(src, src_ref) and ps.pm.tobytes() == ref.pm.tobytes()
    assert beta.dtype == np.uint8 and np.array_equal(beta, np.broadcast_to(bits_ref, beta.shape))
    plan = classify(code, PlanOptions(True, True))
    ps, ref, a = paths(), paths(), alpha
    beta, anc = listdec._extend_node(ps, alpha, plan)
    while a.shape[0] > 1:
        ref.penalize(sequential_sum(np.fmax(-f_step(a), 0.0)))
        a = a[a.shape[0] // 2:] + a[:a.shape[0] // 2]
    beta_ref, anc_ref = listdec._extend_node(ref, a, plan.rate_c)
    assert ps.pm.tobytes() == ref.pm.tobytes() and np.array_equal(anc, anc_ref)
    assert np.array_equal(beta, np.concatenate([beta_ref] * size))


def test_overflowing_llrs_rejected():
    # |LLR| near the float maximum would overflow g-sums to inf, then to NaN
    # (inf - inf).  The entry points reject N * max|LLR| at the float
    # maximum (test_codec's entry-point table); just below it the walker
    # still keeps descent's path sets and metrics
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6):
        code = construct_code(n, 1 << (n - 1), 0.5)
        shape = (20, code.N)
        llrs = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 1.0, shape)
        llrs[:, 0] = 1.0
        llrs *= np.nextafter(np.finfo(np.float64).max / code.N, 0)
        for L in (2, 4):
            u, pm = scl_decode_paths_batch(llrs, code, L)
            u_ref, pm_ref = scl_descent_paths_batch(llrs, code, L)
            assert np.array_equal(u, u_ref) and np.array_equal(pm, pm_ref)
