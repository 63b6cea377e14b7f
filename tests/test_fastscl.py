import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastpolar import fastsc, listdec
from fastpolar.classify import PlanOptions, classify, leaves_only_plan, option_sweep
from fastpolar.codec import encode, polar_transform
from fastpolar.construction import construct_code
from fastpolar.crc import CRC8, CRC16, crc_attach
from fastpolar.fastsc import fast_ssc_decode_batch
from fastpolar.fastscl import fast_scl_decode, fast_scl_decode_batch, fast_scl_decode_paths_batch
from fastpolar.listdec import PathSet, scl_decode, scl_decode_paths_batch, select_output
from fastpolar.sim import awgn_bpsk_llrs
from helpers import canon_paths, make_code, path_metric_of, relaxed_code, scl_descent_paths_batch

GEN = PlanOptions(enable_grep=True, enable_gpc=True)


def assert_path_sets_equal(code, plan, L, frames, seed):
    rng = np.random.default_rng(seed)
    llrs = rng.normal(size=(frames, code.N)) * 2.5
    u_ref, pm_ref = scl_descent_paths_batch(llrs, code, L)
    u_fast, pm_fast = fast_scl_decode_paths_batch(llrs, plan, L)
    for b in range(frames):
        assert canon_paths(u_ref[b], pm_ref[b]) == canon_paths(u_fast[b], pm_fast[b]), \
            f"frame {b} diverged"


def test_list_one_reduces_to_fast_ssc():
    for n, K in [(5, 16), (6, 40), (7, 64)]:
        code = construct_code(n, K, 0.5)
        plan = classify(code, GEN)
        rng = np.random.default_rng(K)
        llrs = rng.normal(size=(300, code.N)) * 2
        u_sc, _ = fast_ssc_decode_batch(llrs, plan)
        u_l, _ = fast_scl_decode_batch(llrs, code, plan, 1)
        assert np.array_equal(u_sc, u_l)


def test_rep_fork_metrics():
    # single repetition node: the two candidates split the penalty mass
    code = make_code([0, 0, 0, 1])
    plan = classify(code, GEN)
    llrs = np.array([[1.0, -2.0, 3.0, -4.0]])
    u, pm = fast_scl_decode_paths_batch(llrs, plan, 2)
    got = canon_paths(u[0], pm[0])
    ref_u, ref_pm = scl_descent_paths_batch(llrs, code, 2)
    assert got == canon_paths(ref_u[0], ref_pm[0])
    # all-ones codeword wins (u3=1): positives 1 and 3 disagree with it
    assert got[0] == (pytest.approx(4.0), (0, 0, 0, 1))
    assert got[1] == (pytest.approx(6.0), (0, 0, 0, 0))


def test_all_positive_keeps_best_metric_zero():
    code = make_code([0] * 12 + [0, 0, 1, 1])
    plan = classify(code, GEN)
    llrs = np.abs(np.random.default_rng(0).normal(size=(50, 16))) + 0.1
    _, pm = fast_scl_decode_paths_batch(llrs, plan, 4)
    assert np.allclose(pm[:, 0], 0.0)


@pytest.mark.parametrize("flags", [
    [0, 1, 1, 1],
    [0, 0, 1, 1],
    [0, 0, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0] * 8 + [0, 0, 0, 1, 0, 1, 1, 1],
])
@pytest.mark.parametrize("L", [1, 2, 4, 8])
def test_single_node_path_sets(flags, L):
    code = make_code(flags)
    plan = classify(code, GEN)
    assert_path_sets_equal(code, plan, L, 150, seed=len(flags) * 10 + L)


@pytest.mark.parametrize("L", [2, 4, 8])
def test_nodes_after_path_divergence(L):
    # a rate-1 sibling first, so the special node sees diverged paths
    for gflags in ([0, 1, 1, 1], [0, 0, 1, 1, 1, 1, 1, 1], [0, 0, 0, 1]):
        size = len(gflags)
        code = make_code([1] * size + gflags)
        plan = classify(code, GEN)
        assert_path_sets_equal(code, plan, L, 150, seed=size + L)


@pytest.mark.parametrize("n,K", [(6, 32), (7, 64), (7, 100), (8, 128)])
@pytest.mark.parametrize("L", [2, 4, 8])
def test_random_codes_match_descent(n, K, L):
    code = construct_code(n, K, 0.5)
    for opts in (PlanOptions(), PlanOptions(True), GEN):
        plan = classify(code, opts)
        assert_path_sets_equal(code, plan, L, 60, seed=n * 1000 + K + L)


def test_rgpc_metric_matches_relaxed_descent():
    # every emitted path's metric must equal the leaf-sum metric of its own
    # bit history (frozen-bit constraints inside the node ignored)
    rng = np.random.default_rng(17)
    for n, K in [(5, 10), (6, 32), (7, 64)]:
        code = construct_code(n, K, 0.5)
        for af in (1, 2, 3):
            plan = classify(code, PlanOptions(True, True, af))
            for L in (1, 4):
                llrs = rng.normal(size=(10, code.N)) * 2.5
                u, pm = fast_scl_decode_paths_batch(llrs, plan, L)
                for b in range(10):
                    for p in range(u.shape[1]):
                        ref = path_metric_of(llrs[b], u[b, p])
                        assert pm[b, p] == pytest.approx(ref, rel=1e-9, abs=1e-9)


@given(st.integers(2, 6), st.integers(0, 10 ** 6), st.sampled_from([1, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_random_patterns_every_rung(n, seed, L):
    # SPC (base rung), G-PC and RG-PC nodes share one list extension, so
    # every rung's path set is checked against the tree-descent oracle, on
    # the relaxed code for the RG-PC rungs
    rng = np.random.default_rng(seed)
    code = make_code(rng.random(1 << n) < rng.uniform(0.2, 0.9))
    llrs = rng.normal(size=(8, code.N)) * 2.5
    for label, opts in option_sweep():
        plan = classify(code, opts)
        u_ref, pm_ref = scl_descent_paths_batch(llrs, relaxed_code(code, plan), L)
        u, pm = fast_scl_decode_paths_batch(llrs, plan, L)
        for b in range(len(llrs)):
            assert canon_paths(u[b], pm[b]) == canon_paths(u_ref[b], pm_ref[b]), label


@pytest.mark.parametrize("plan_of", [lambda code: classify(code, GEN), leaves_only_plan],
                         ids=["grep+gpc", "leaves-only"])
def test_deep_lineage_matches_descent(plan_of):
    # at N=1024 the walker's realigns nest up to ten frames deep and Rate-1
    # nodes fork up to 32 times in a row, so composed lineage maps get reused
    code = construct_code(10, 512, 0.5)
    rng = np.random.default_rng(5)
    x = polar_transform(rng.integers(0, 2, (4, code.N), dtype=np.uint8) * code.flags)
    llrs = (1.0 - 2.0 * x) * 1.2 + rng.normal(size=x.shape)
    u, pm = fast_scl_decode_paths_batch(llrs, plan_of(code), 8)
    u_ref, pm_ref = scl_descent_paths_batch(llrs, code, 8)
    for b in range(len(llrs)):
        assert canon_paths(u[b], pm[b]) == canon_paths(u_ref[b], pm_ref[b]), f"frame {b}"
        for p in range(u.shape[1]):
            assert pm[b, p] == pytest.approx(path_metric_of(llrs[b], u[b, p]), rel=1e-9, abs=1e-9)


# the largest relative metric gap to descent is 6.0e-16 for N 16-128 and
# 1.27e-15 for N 256-1024, measured on this test's codes, lists and plans with
# six seeds and LLR scales 1.0, 1.2 and 2.0 (3,402 path sets, each with
# descent's bits)
METRIC_GAP_BOUND = 1.5e-15


@pytest.mark.parametrize("n", range(4, 11))
def test_metric_gap_to_descent_is_bounded(n):
    # a node sums its penalties before adding them to the metric, and descent
    # adds them one leaf at a time; only that order may move a metric
    N = 1 << n
    for K in (N // 4, N // 2, 3 * N // 4):
        code = construct_code(n, K, 0.5)
        rng = np.random.default_rng([0, n, K])
        x = polar_transform(rng.integers(0, 2, (16, N), dtype=np.uint8) * code.flags)
        llrs = (1.0 - 2.0 * x) * 1.2 + rng.normal(size=x.shape)
        for L in (1, 4, 8):
            u_ref, pm_ref = scl_descent_paths_batch(llrs, code, L)
            for label, opts in option_sweep()[:3]:
                u, pm = fast_scl_decode_paths_batch(llrs, classify(code, opts), L)
                assert np.array_equal(u, u_ref), (K, L, label)
                assert np.all(np.abs(pm - pm_ref) <= METRIC_GAP_BOUND * np.abs(pm_ref)), (K, L, label)


@given(st.integers(5, 10), st.integers(1, 3), st.integers(1, 3), st.sampled_from([4, 8]),
       st.integers(0, 2**32 - 1))
# fixed draws: the bound is empirical, and the largest gap over 1,500 random
# draws of this space was 1.34e-15
@settings(max_examples=40, deadline=None, derandomize=True)
def test_rgpc_rungs_are_scl_on_the_relaxed_code(n, quarters, max_af, L, seed):
    # N 32 to 1024 at K = N/4, N/2 and 3N/4, on noisy codewords: the RG-PC
    # rungs keep plain SCL's path sets on the relaxed code, with the exact
    # nodes' metric bound
    code = construct_code(n, quarters << (n - 2), 0.5)
    plan = classify(code, PlanOptions(True, True, max_af))
    rng = np.random.default_rng(seed)
    x = polar_transform(rng.integers(0, 2, (8, code.N), dtype=np.uint8) * code.flags)
    llrs = (1.0 - 2.0 * x) * 1.2 + rng.normal(size=x.shape)
    u, pm = fast_scl_decode_paths_batch(llrs, plan, L)
    u_ref, pm_ref = scl_decode_paths_batch(llrs, relaxed_code(code, plan), L)
    assert np.array_equal(u, u_ref)
    assert np.all(np.abs(pm - pm_ref) <= METRIC_GAP_BOUND * np.abs(pm_ref))


# the SC walker's kernels that each node kind calls, besides f/g/combine
_SC_KERNELS = {"rep": {"grep_fold"}, "grep": {"decode_grep_sc", "grep_fold"},
               **dict.fromkeys(("spc", "gpc", "rgpc"), {"decode_gpc_sc", "wagner_decode"}),
               "split": {"f_step", "g_step", "combine"}}


# between them, these plans hold every node kind
@pytest.mark.parametrize("plan_of", [lambda code: classify(code, GEN), leaves_only_plan,
                                     lambda code: classify(code, PlanOptions()),
                                     lambda code: classify(code, PlanOptions(True, True, 2))],
                         ids=["grep+gpc", "leaves-only", "base", "rgpc2"])
def test_walker_steps_read_c_ordered_blocks(plan_of, monkeypatch):
    # every path gather is a take over the flattened (B·P) path axis, so the
    # f/g steps and partial-sum merges to the right of a fork read C-ordered
    # blocks, positions first.  The node kernels check nothing, so both
    # walkers must also hand them float64 LLRs, uint8 partial sums, an even
    # length where they halve and an np_sub that divides the node size
    code = construct_code(10, 512, 0.5)
    plan = plan_of(code)
    rng = np.random.default_rng(9)
    x = polar_transform(rng.integers(0, 2, (4, code.N), dtype=np.uint8) * code.flags)
    llrs = (1.0 - 2.0 * x) * 1.2 + rng.normal(size=x.shape)
    called = set()

    def llrs_of(alpha, *rest):
        assert alpha.dtype == np.float64

    def halving(alpha, *beta_left):
        assert alpha.dtype == np.float64 and alpha.shape[0] % 2 == 0
        for bl in beta_left:
            assert bl.dtype == np.uint8 and bl.shape == (alpha.shape[0] // 2,) + alpha.shape[1:]

    def sums(bl, br):
        assert bl.dtype == br.dtype == np.uint8 and bl.shape == br.shape

    def folding(alpha, p):
        assert alpha.dtype == np.float64 and alpha.shape[0] >= 1 << p

    def parity(alpha, np_sub):
        assert alpha.dtype == np.float64 and alpha.shape[0] % np_sub == 0

    preconditions = {"f_step": halving, "g_step": halving, "combine": sums,
                     "grep_fold": folding, "wagner_decode": llrs_of,
                     "decode_grep_sc": llrs_of, "decode_gpc_sc": parity}

    def checked(module, name):
        step = getattr(module, name)

        def wrapped(*args):
            for arr in args:  # LLR blocks and partial sums
                if isinstance(arr, np.ndarray):
                    assert arr.flags.c_contiguous, (name, arr.shape, arr.strides)
            preconditions[name](*args)
            called.add((module.__name__, name))
            return step(*args)
        monkeypatch.setattr(module, name, wrapped)

    for name in ("f_step", "g_step", "combine"):
        checked(listdec, name)
    for name in preconditions:
        checked(fastsc, name)
    u, _ = fast_scl_decode_paths_batch(llrs, plan, 8)
    assert u.shape == (4, 8, code.N)
    assert {n for m, n in called if m == listdec.__name__} == {"f_step", "g_step", "combine"}
    fast_ssc_decode_batch(llrs, plan)
    expected = set().union(*(_SC_KERNELS.get(node.kind, set()) for node in plan.walk()))
    assert {n for m, n in called if m == fastsc.__name__} == expected


@pytest.mark.parametrize("label", [label for label, _ in option_sweep()] + ["leaves-only"])
def test_walkers_dispatch_once_per_plan_node(label, monkeypatch):
    # each walker enters its node-table dispatch exactly at the plan's nodes,
    # in plan.walk() order: a parity node recurses inside its extension, and
    # no walker builds plan nodes of its own
    code = construct_code(8, 128, 0.5)
    plan = leaves_only_plan(code) if label == "leaves-only" else classify(
        code, dict(option_sweep())[label])
    llrs = np.random.default_rng(3).normal(size=(2, code.N)) * 2.5

    def entered(module, name, decode):
        nodes, dispatch = [], getattr(module, name)

        def recorded(*args):
            nodes.append(args[-1])  # either walker takes the plan node last
            return dispatch(*args)
        monkeypatch.setattr(module, name, recorded)
        decode(llrs, plan)
        return nodes

    for nodes in (entered(fastsc, "_decode_node", fast_ssc_decode_batch),
                  entered(listdec, "_extend_node",
                          lambda llrs, plan: fast_scl_decode_paths_batch(llrs, plan, 8))):
        assert len(nodes) == len(list(plan.walk()))
        assert all(a is b for a, b in zip(nodes, plan.walk()))


@given(st.integers(1, 6), st.integers(0, 10 ** 6), st.sampled_from([2, 4, 8]),
       st.sampled_from([1, 4]))
@settings(max_examples=80, deadline=None)
def test_tie_heavy_llrs_keep_path_sets(n, seed, L, B):
    # small-integer LLRs give tied metrics and flip candidates equal to the
    # largest kept metric, where a wrong no-op predicate changes the paths
    rng = np.random.default_rng(seed)
    code = make_code(rng.random(1 << n) < rng.uniform(0.2, 0.9))
    llrs = rng.integers(-2, 3, (B, code.N)).astype(float)
    # plain SCL keeps descent's paths in descent's order
    u, pm = fast_scl_decode_paths_batch(llrs, leaves_only_plan(code), L)
    u_ref, pm_ref = scl_descent_paths_batch(llrs, code, L)
    assert np.array_equal(u, u_ref) and np.array_equal(pm, pm_ref)
    # special nodes order their candidates unlike descent, so a tie on the
    # list cut can keep another tied path there; skipping no-op forks must
    # still change nothing
    plan = classify(code, GEN)
    u_gen, pm_gen = fast_scl_decode_paths_batch(llrs, plan, L)
    with pytest.MonkeyPatch.context() as mp:  # no no-op test: every column forks
        mp.setattr(PathSet, "settled", lambda ps: False)
        u_all, pm_all = fast_scl_decode_paths_batch(llrs, plan, L)
    assert np.array_equal(u_gen, u_all) and np.array_equal(pm_gen, pm_all)
    for uu, mm in ((u, pm), (u_gen, pm_gen)):
        for b in range(B):
            for p in range(uu.shape[1]):
                assert mm[b, p] == path_metric_of(llrs[b], uu[b, p])


@pytest.mark.parametrize("n", range(4, 11))
def test_fast_scl_list_of_one_is_fast_sc(n):
    # with one path every fork keeps the hard decision, as fast SC takes it;
    # this ties the two plan walkers together on every exact rung
    rng = np.random.default_rng(n)
    for K in ((1 << n) // 4, (1 << n) // 2, 3 * (1 << n) // 4):
        code = construct_code(n, K, 0.5)
        x = polar_transform(rng.integers(0, 2, (16, code.N), dtype=np.uint8) * code.flags)
        llrs = (1.0 - 2.0 * x) * 1.2 + rng.normal(size=x.shape)
        for label, opts in option_sweep()[:3]:
            plan = classify(code, opts)
            u, _ = fast_scl_decode_paths_batch(llrs, plan, 1)
            assert np.array_equal(u[:, 0], fast_ssc_decode_batch(llrs, plan)[0]), (K, label)


def test_noop_forks_are_skipped(monkeypatch):
    # a noisy frame at 2 dB: most Rate-1 columns are decided by hard
    # decision without a fork, and the decode is the same as with every fork
    code = construct_code(8, 128, 0.5)
    plan = classify(code, GEN)
    rng = np.random.default_rng(2)
    x = polar_transform(rng.integers(0, 2, (1, code.N), dtype=np.uint8) * code.flags)
    sigma = np.sqrt(1.0 / (2.0 * 0.5 * 10 ** 0.2))
    llrs = 2.0 * ((1.0 - 2.0 * x) + sigma * rng.normal(size=x.shape)) / sigma**2
    u_ref, pm_ref = fast_scl_decode_paths_batch(llrs, plan, 8)
    forks = []
    fork = PathSet.fork

    def counted(ps, pen):
        forks.append(1)
        return fork(ps, pen)

    monkeypatch.setattr(PathSet, "fork", counted)
    u, pm = fast_scl_decode_paths_batch(llrs, plan, 8)
    assert len(forks) < code.K
    assert np.array_equal(u, u_ref) and np.array_equal(pm, pm_ref)


def test_benchmark_path_sets_pinned():
    # SHA-256 of (u, pm) from both list decoders on the N=1024, K=512, L=8,
    # CRC16 benchmark code at 1.5 dB: a change to the fork or the CRC
    # product must keep every path, its row and its metric bits
    code = construct_code(10, 512, 0.5)
    rng = np.random.default_rng(2507)
    u = np.zeros((16, code.N), np.uint8)
    u[:, code.info_indices] = crc_attach(rng.integers(0, 2, (16, code.K - 16), dtype=np.uint8),
                                         CRC16)
    sigma = np.sqrt(1.0 / (2.0 * 496 / 1024 * 10 ** 0.15))
    llrs = awgn_bpsk_llrs(encode(u, code), sigma, rng)
    for (uu, pm), digest in (
            (fast_scl_decode_paths_batch(llrs, classify(code, GEN), 8),
             "fd48d896e43ac39238c24693db3ad1b62096c6ba882cc39e975d9bcefccd11b3"),
            (scl_decode_paths_batch(llrs, code, 8),
             "ff2c2f0b064d066a702a4d6f28c7b0d38fe2bdb484fe9c93f2566aa388cd9b0a")):
        assert uu.shape == (16, 8, code.N) and uu.dtype == np.uint8
        assert hashlib.sha256(uu.tobytes() + pm.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("integer_llrs", [False, True])
@pytest.mark.parametrize("rung", [label for label, _ in option_sweep()] + ["plain SCL"])
def test_a_frame_decodes_alone_as_in_its_batch(rung, integer_llrs):
    # (u, pm) of a frame decoded alone are bitwise its row of every batch it
    # is in: with one frame and one path left, a Rate-0, Rep or fold penalty
    # summed pairwise by numpy would round otherwise than the batch's sum
    code = construct_code(8, 128, 0.7)
    if rung == "plain SCL":
        decode = functools.partial(scl_decode_paths_batch, code=code, L=8)
    else:
        plan = classify(code, dict(option_sweep())[rung])
        decode = functools.partial(fast_scl_decode_paths_batch, plan=plan, L=8)
    rng = np.random.default_rng(26)
    if integer_llrs:
        llrs = rng.integers(-2, 3, (16, code.N)).astype(float)
    else:
        u = np.zeros((16, code.N), np.uint8)
        u[:, code.info_indices] = rng.integers(0, 2, (16, code.K))
        llrs = awgn_bpsk_llrs(encode(u, code), 0.7, rng) * 10.0 ** rng.integers(-2, 3, (16, 1))
    alone = [decode(frame) for frame in llrs]
    for B in range(2, 17):
        u_batch, pm_batch = decode(llrs[:B])
        for b, (u_alone, pm_alone) in enumerate(alone[:B]):
            assert np.array_equal(u_batch[b], u_alone[0]), (B, b)
            assert pm_batch[b].tobytes() == pm_alone[0].tobytes(), (B, b)


def test_rgpc_may_violate_frozen_bits_without_error():
    flags = np.array([0, 1, 0, 1], np.uint8)
    code = make_code(flags)
    plan = classify(code, PlanOptions(True, True, 1))
    assert plan.kind == "rgpc"
    # an adversarial frame pushing the ignored frozen position toward 1
    llrs = np.array([[0.2, -5.0, 4.0, -4.0]])
    u, _ = fast_scl_decode_paths_batch(llrs, plan, 1)
    assert u.shape == (1, 1, 4)  # decodes without raising


def test_crc_aided_selection():
    code = construct_code(6, 24, 0.5)
    plan = classify(code, GEN)
    rng = np.random.default_rng(23)
    payload = rng.integers(0, 2, (400, 16), dtype=np.uint8)
    u = np.zeros((400, 64), np.uint8)
    u[:, code.info_indices] = np.stack([crc_attach(p, CRC8) for p in payload])
    llrs = (1.0 - 2.0 * polar_transform(u)) * 1.5 + rng.normal(size=(400, 64))
    u_fast, _ = fast_scl_decode_batch(llrs, code, plan, 8, crc=CRC8)
    u_ref, _ = select_output(*scl_descent_paths_batch(llrs, code, 8), code, CRC8)
    assert np.array_equal(u_fast, u_ref)


def test_default_f_rule_matches_scl():
    # scl and ssclspc keep the same path sets with default arguments: both
    # default to min-sum
    code = construct_code(8, 128, 0.5)
    plan = classify(code, GEN)
    rng = np.random.default_rng(37)
    for _ in range(30):
        u = np.zeros(code.N, np.uint8)
        u[code.info_indices] = rng.integers(0, 2, code.K)
        llrs = 2.0 * ((1.0 - 2.0 * encode(u, code)) + rng.normal(size=code.N))
        assert np.count_nonzero(llrs) == code.N
        u_fast, pm_fast = fast_scl_decode(llrs, code, plan, 8, CRC8)
        u_ref, pm_ref = scl_decode(llrs, code, 8, CRC8)
        assert np.array_equal(u_fast, u_ref) and pm_fast == pytest.approx(pm_ref, rel=1e-9)


def test_invalid_list_size():
    code = construct_code(3, 4, 0.5)
    plan = classify(code, GEN)
    with pytest.raises(ValueError):
        fast_scl_decode_paths_batch(np.zeros((1, 8)), plan, 0)


def test_huge_list_size_keeps_every_path():
    # L bounds the list and sizes no array: at L = 10**12 a K = 4 code keeps
    # its 16 paths as at L = 16, where an (L + 1)-row offset table used to
    # raise MemoryError
    code = construct_code(3, 4, 0.5)
    plan = classify(code, GEN)
    llrs = np.random.default_rng(8).normal(size=8) * 2
    for decode in (lambda L: scl_decode(llrs, code, L),
                   lambda L: fast_scl_decode(llrs, code, plan, L),
                   lambda L: fast_scl_decode_paths_batch(llrs, plan, L)):
        got, ref = decode(10 ** 12), decode(16)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))
    assert fast_scl_decode_paths_batch(llrs, plan, 10 ** 12)[0].shape == (1, 16, 8)


def test_plan_must_match_code_length():
    # an N = 64 plan with an N = 128 code used to return 64-bit u_hat, and
    # with CRC8 to fail with an IndexError
    code = construct_code(7, 64, 0.5)
    plan = classify(construct_code(6, 32, 0.5), GEN)
    llrs = np.random.default_rng(6).normal(size=(2, 64))
    for crc in (None, CRC8):
        with pytest.raises(ValueError, match="plan of size 64 cannot decode a code of length 128"):
            fast_scl_decode_batch(llrs, code, plan, 4, crc)
        with pytest.raises(ValueError, match="plan of size 64 cannot decode a code of length 128"):
            fast_scl_decode(llrs[0], code, plan, 4, crc)
