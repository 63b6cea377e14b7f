import pytest

from fastpolar import fastsc, latency, listdec
from fastpolar.classify import PlanOptions, classify, option_sweep
from fastpolar.construction import construct_code
from fastpolar.latency import CostReport, cost_sc, cost_scl, latency_table
from helpers import make_code

GEN = PlanOptions(enable_grep=True, enable_gpc=True)


def test_single_leaf_prices():
    assert cost_sc(classify(make_code([0, 0]), PlanOptions())).total_steps == 1
    assert cost_sc(classify(make_code([1, 1]), PlanOptions())).total_steps == 1
    assert cost_sc(classify(make_code([0, 1]), PlanOptions())).total_steps == 2
    assert cost_sc(classify(make_code([0, 1, 1, 1]), PlanOptions())).total_steps == 3


def test_n8_hand_counts():
    # frozen {0,1,2,4}: split(Rep(4), SPC(4)) under the classical node set
    code = make_code([0, 0, 0, 1, 0, 1, 1, 1])
    plan = classify(code, PlanOptions())
    assert cost_sc(plan).total_steps == 2 + 2 + 3
    # SCL: split 2, Rep 1+4, SPC 2*4-1
    assert cost_scl(plan).total_steps == 2 + 5 + 7


def test_scl_rate1_and_rep_scale_with_size():
    for t in (2, 3, 4):
        r1 = classify(make_code([1] * (1 << t)), PlanOptions())
        assert cost_scl(r1).total_steps == 2 * (1 << t)
        rep = classify(make_code([0] * ((1 << t) - 1) + [1]), PlanOptions())
        assert cost_scl(rep).total_steps == 1 + (1 << t)


def test_grep_price_wraps_rate_c():
    flags = [0] * 8 + [0, 0, 0, 1, 0, 1, 1, 1]
    plan = classify(make_code(flags), PlanOptions(enable_grep=True))
    assert plan.kind == "grep"
    inner_sc = cost_sc(plan.rate_c).total_steps
    assert cost_sc(plan).total_steps == 1 + inner_sc
    inner_scl = cost_scl(plan.rate_c).total_steps
    assert cost_scl(plan).total_steps == 1 + inner_scl


def test_gpc_scl_formula():
    # stage-3 parity node with Np=2: 1 + ceil(2*(8-1)/2) = 8
    plan = classify(make_code([0, 0, 1, 1, 1, 1, 1, 1]), GEN)
    assert plan.kind == "gpc" and plan.np_sub == 2
    assert cost_scl(plan).total_steps == 8
    assert cost_sc(plan).total_steps == 3


def test_report_total_matches_breakdown():
    code = construct_code(7, 64, 0.5)
    for opts in (PlanOptions(), GEN, PlanOptions(True, True, 2)):
        for rep in (cost_sc(classify(code, opts)), cost_scl(classify(code, opts))):
            assert rep.total_steps == sum(rep.per_node.values())
    assert CostReport({"rep": 2, "split": 4}).total_steps == 6


def test_table_shape_and_labels():
    # one report per option_sweep() column, in its order: the CLI reads the
    # column labels from option_sweep()
    code = construct_code(6, 32, 0.5)
    table = latency_table(code)
    assert set(table) == {"sc", "scl"}
    sweep = option_sweep()
    assert [label for label, _ in sweep] == ["base", "+grep", "+gpc", "+rgpc1", "+rgpc2", "+rgpc3"]
    for (_, opts), sc, scl in zip(sweep, table["sc"], table["scl"], strict=True):
        assert sc == cost_sc(classify(code, opts)) and scl == cost_scl(classify(code, opts))


@pytest.mark.parametrize("n,K", [(6, 16), (7, 64), (8, 200), (9, 256)])
def test_columns_monotone_and_scl_dominates(n, K):
    table = latency_table(construct_code(n, K, 0.5))
    for dec in ("sc", "scl"):
        steps = [r.total_steps for r in table[dec]]
        assert all(a >= b for a, b in zip(steps, steps[1:])), (dec, steps)
    for sc_rep, scl_rep in zip(table["sc"], table["scl"]):
        assert scl_rep.total_steps >= sc_rep.total_steps


def test_node_kind_tables_agree():
    # every node kind has an SC decoder, an SCL extension and a price
    kinds = set(latency._PRICES)
    assert set(fastsc._NODE_DECODERS) == kinds
    assert set(listdec._NODE_EXTENDERS) == kinds
    code = construct_code(8, 100, 0.5)
    for opts in (PlanOptions(), GEN, PlanOptions(True, True, 2)):
        assert {node.kind for node in classify(code, opts).walk()} <= kinds
