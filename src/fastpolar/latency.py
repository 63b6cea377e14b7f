"""Time-step cost model for plan-based SC and SCL decoding.

f/g updates cost one step each regardless of stage.  SC node prices:
Rate-0/Rate-1 1, Rep 2, SPC/G-PC/RG-PC 3, G-Rep 1 plus its Rate-C
node.  Under SCL, information bits are estimated one at a time (shared
partial-sum update and metric sorting), so a node of size 2^t costs:
Rate-1 2*2^t, Rep 1+2^t, SPC/G-PC/RG-PC 1+ceil(2*(2^t-1)/Np), which is
2*2^t-1 for SPC (Np = 1); Rate-0 and the G-Rep wrapper are unchanged.  No
resource limits are modelled, and no cost is assigned to the final CRC
check.
"""

import math
from dataclasses import dataclass

from .classify import classify, option_sweep

__all__ = ["CostReport", "cost_sc", "cost_scl", "latency_table"]


@dataclass(frozen=True)
class CostReport:
    per_node: dict  # kind -> accumulated steps

    @property
    def total_steps(self):
        return sum(self.per_node.values())


def _parity_prices(node):
    return 3, 1 + math.ceil(2 * (node.size - 1) / node.np_sub)


# node kind -> (SC steps, SCL steps) of one node; a split's two steps are
# its f and g updates, and a G-Rep's Rate-C child is priced as a node of
# its own
_PRICES = {
    "rate0": lambda node: (1, 1),
    "rate1": lambda node: (1, 2 * node.size),
    "rep": lambda node: (2, 1 + node.size),
    "grep": lambda node: (1, 1),
    **dict.fromkeys(("spc", "gpc", "rgpc"), _parity_prices),
    "split": lambda node: (2, 2),
}


def _report(plan, col):
    per_node = {}
    for node in plan.walk():
        per_node[node.kind] = per_node.get(node.kind, 0) + _PRICES[node.kind](node)[col]
    return CostReport(per_node)


def cost_sc(plan):
    """Total SC decoding time steps for a plan."""
    return _report(plan, 0)


def cost_scl(plan):
    """Total SCL decoding time steps for a plan."""
    return _report(plan, 1)


def latency_table(code):
    """{"sc": [CostReport, ...], "scl": [...]}: one report per node-set
    column of ``option_sweep()``, in its order."""
    table = {"sc": [], "scl": []}
    for _, opts in option_sweep():
        plan = classify(code, opts)
        table["sc"].append(cost_sc(plan))
        table["scl"].append(cost_scl(plan))
    return table
