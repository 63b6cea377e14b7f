import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastpolar.classify import (PlanOptions, classify, leaves_only_plan, option_sweep,
                                plan_stats)
from fastpolar.construction import PolarCode, construct_code

GEN = PlanOptions(enable_grep=True, enable_gpc=True)
LADDER = [(opts.enable_grep, opts.enable_gpc, opts.max_af) for _, opts in option_sweep()]


def make_code(flags):
    flags = np.asarray(flags, dtype=np.uint8)
    n = int(np.log2(flags.size))
    return PolarCode(n, int(flags.sum()), flags, 0.5)


def test_classical_rep_is_grep_p0():
    plan = classify(make_code([0, 0, 0, 1]), GEN)
    assert plan.kind == "grep"
    assert plan.rate_c.kind == "rate1" and plan.rate_c.stage == 0
    assert plan.rate_c.offset == 3


def test_type_iii_is_gpc_np2():
    plan = classify(make_code([0, 0, 1, 1, 1, 1, 1, 1]), GEN)
    assert plan.kind == "gpc" and plan.np_sub == 2


def test_type_v_is_grep_with_eight_bit_rate_c():
    flags = [0] * 8 + [0, 0, 0, 1, 0, 1, 1, 1]
    plan = classify(make_code(flags), GEN)
    assert plan.kind == "grep"
    rc = plan.rate_c
    assert rc.stage == 3 and rc.offset == 8


def test_all_frozen_stats():
    plan = classify(make_code([0] * 16), GEN)
    assert plan_stats(plan) == {"rate0": 1}


def test_n8_base_plan_rep_spc():
    code = make_code([0, 0, 0, 1, 0, 1, 1, 1])  # frozen {0,1,2,4}
    stats = plan_stats(classify(code, PlanOptions()))
    assert stats == {"split": 1, "rep": 1, "spc": 1}


def test_n8_rgpc_two_af():
    code = make_code([0, 0, 0, 1, 0, 1, 1, 1])
    plan = classify(code, PlanOptions(enable_grep=True, enable_gpc=True, max_af=2))
    assert plan.kind == "rgpc"
    assert plan.np_sub == 2
    assert plan.af_positions == (2, 4)


def _leaf_sound(leaf, flags):
    s = flags[leaf.offset:leaf.offset + leaf.size]
    if leaf.kind == "rate0":
        return not s.any()
    if leaf.kind == "rate1":
        return s.all()
    if leaf.kind == "rep":
        return s.sum() == 1 and s[-1] == 1
    if leaf.kind == "spc":
        return s.sum() == s.size - 1 and s[0] == 0
    if leaf.kind == "grep":
        p = leaf.rate_c.stage
        return not s[:s.size - (1 << p)].any() and p < leaf.stage
    if leaf.kind == "gpc":
        z = leaf.np_sub
        return z & (z - 1) == 0 and not s[:z].any() and s[z:].all()
    if leaf.kind == "rgpc":
        z = leaf.np_sub
        extra = np.flatnonzero(s[z:] == 0) + z
        return (z & (z - 1) == 0 and not s[:z].any()
                and tuple(int(i) for i in extra) == leaf.af_positions)
    return False


def all_special_leaves(plan):
    for leaf in plan.leaves():
        if leaf.kind == "grep":
            yield leaf
            yield from all_special_leaves(leaf.rate_c)
        else:
            yield leaf


@pytest.mark.parametrize("seed", range(8))
def test_soundness_random_codes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    flags = rng.integers(0, 2, 1 << n, dtype=np.uint8)
    code = make_code(flags)
    for opts in (PlanOptions(), GEN, PlanOptions(True, True, 3)):
        plan = classify(code, opts)
        for leaf in all_special_leaves(plan):
            assert _leaf_sound(leaf, code.flags), (leaf.kind, leaf.offset)


def test_plan_tiles_whole_block():
    rng = np.random.default_rng(42)
    for _ in range(20):
        flags = rng.integers(0, 2, 64, dtype=np.uint8)
        plan = classify(make_code(flags), GEN)
        cover = sorted((l.offset, l.offset + l.size) for l in plan.leaves())
        assert cover[0][0] == 0 and cover[-1][1] == 64
        assert all(a[1] == b[0] for a, b in zip(cover, cover[1:]))


def test_maximality_no_parent_match():
    # a split's own slice must not match any enabled special pattern
    rng = np.random.default_rng(5)
    for _ in range(20):
        flags = rng.integers(0, 2, 128, dtype=np.uint8)
        code = make_code(flags)
        plan = classify(code, GEN)
        for node in plan.walk():
            if node.kind != "split":
                continue
            s = code.flags[node.offset:node.offset + node.size]
            assert s.any() and not s.all()
            ones = np.flatnonzero(s)
            assert ones[0] < s.size // 2  # would be G-Rep otherwise
            z = int(ones[0])
            if z > 0 and z & (z - 1) == 0:
                assert not s[z:].all()  # would be G-PC


def test_leaf_count_monotone_in_af():
    for n, K in [(6, 32), (7, 64), (8, 100)]:
        code = construct_code(n, K, 0.5)
        prev = None
        for af in (0, 1, 2, 3):
            plan = classify(code, PlanOptions(True, True, af))
            count = sum(1 for _ in plan.leaves())
            if prev is not None:
                assert count <= prev
            prev = count


def test_option_sweep_labels():
    labels = [name for name, _ in option_sweep()]
    assert labels == ["base", "+grep", "+gpc", "+rgpc1", "+rgpc2", "+rgpc3"]


def test_rep_subsumed_by_grep():
    code = make_code([0, 0, 0, 0, 0, 0, 0, 1])
    base = classify(code, PlanOptions())
    gen = classify(code, GEN)
    assert base.kind == "rep"
    assert gen.kind == "grep"


def test_spc_is_np1_gpc():
    from fastpolar.fastsc import decode_gpc_sc, wagner_decode

    code = make_code([0, 1, 1, 1, 1, 1, 1, 1])
    assert classify(code, PlanOptions()).kind == "spc"
    plan = classify(code, GEN)
    assert plan.kind == "gpc" and plan.np_sub == 1
    rng = np.random.default_rng(1)
    alpha = rng.normal(size=(50, 8))
    assert np.array_equal(decode_gpc_sc(alpha, 1), wagner_decode(alpha))


def test_invalid_max_af():
    with pytest.raises(ValueError):
        PlanOptions(max_af=4)
    off = [(g, p, af) for g in (False, True) for p in (False, True) for af in range(4)
           if (g, p, af) not in LADDER]
    assert len(off) == 10
    for combo in off:
        with pytest.raises(ValueError, match="needs enable_"):
            PlanOptions(*combo)


@given(st.integers(2, 6), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_random_flags_round_trip_json(n, seed):
    rng = np.random.default_rng(seed)
    flags = rng.integers(0, 2, 1 << n, dtype=np.uint8)
    plan = classify(make_code(flags), PlanOptions(True, True, 2))
    d = plan.to_dict()
    assert d["kind"] == plan.kind and d["stage"] == n


def test_walk_enters_grep_rate_c():
    plan = classify(construct_code(8, 40, 0.5), GEN)
    nodes = list(plan.walk())
    assert len(nodes) == sum(plan_stats(plan).values())
    walked = {id(node) for node in nodes}
    inner = [rc for g in nodes if g.kind == "grep" for rc in g.rate_c.walk()]
    assert inner and all(id(rc) in walked for rc in inner)


def test_leaves_only_plan():
    code = construct_code(6, 20, 0.5)
    plan = leaves_only_plan(code)
    leaves = list(plan.leaves())
    assert [leaf.offset for leaf in leaves] == list(range(code.N))
    assert all(leaf.size == 1 for leaf in leaves)
    assert [leaf.kind == "rate1" for leaf in leaves] == list(code.flags == 1)
    assert plan_stats(plan)["split"] == code.N - 1
    # memoised per frozen pattern, not per code object
    assert leaves_only_plan(construct_code(6, 20, 0.5)) is plan


@given(st.integers(1, 7), st.integers(0, 10 ** 6), st.booleans(), st.booleans(),
       st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_parity_nodes_under_every_option_combination(n, seed, grep, gpc, max_af):
    # only the six rungs of the node-set ladder are accepted; the other ten
    # of the 2 x 2 x 4 combinations raise when the options are made
    if (grep, gpc, max_af) not in LADDER:
        with pytest.raises(ValueError, match="needs enable_"):
            PlanOptions(grep, gpc, max_af)
        return
    rng = np.random.default_rng(seed)
    code = make_code(rng.random(1 << n) < rng.uniform(0.1, 0.95))
    opts = PlanOptions(grep, gpc, max_af)
    plan = classify(code, opts)
    for node in plan.walk():
        s = code.flags[node.offset:node.offset + node.size]
        ones = np.flatnonzero(s)
        run = int(ones[0]) if ones.size else s.size  # leading frozen run
        if node.kind in ("spc", "gpc", "rgpc"):
            z = node.np_sub
            assert z & (z - 1) == 0 and z <= run < 2 * z, (node.kind, z, run)
        if node.kind == "spc":
            assert z == 1 and s[1:].all()
        elif node.kind == "gpc":
            assert gpc and z == run and s[z:].all()
        elif node.kind == "rgpc":
            af = tuple(int(i) for i in np.flatnonzero(s[z:] == 0) + z)
            assert 0 < max_af and node.af_positions == af and len(af) <= max_af
        elif node.kind == "grep":
            assert grep
