"""Decode-tree pruning: turn a frozen-flag vector into a plan of special nodes.

Matching is top-down at every node with a fixed precedence: Rate-0,
Rate-1, G-Rep (smallest Rate-C), G-PC, RG-PC (within the AF budget), Rep,
SPC, otherwise split and recurse.  The node sets are the paper's ladder,
each rung adding to the one before: base, +G-Rep, +G-PC, +RG-PC with an
AF budget of 1 to 3.  The parity kinds share one block size
Np: SPC has Np = 1, and G-PC and RG-PC take the largest power of two in
the leading frozen run, RG-PC ignoring the frozen (AF) bits after it.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = ["PlanOptions", "DecodePlan", "classify", "leaves_only_plan", "plan_stats",
           "option_sweep"]


@dataclass(frozen=True)
class PlanOptions:
    enable_grep: bool = False
    enable_gpc: bool = False
    max_af: int = 0

    def __post_init__(self):
        if not 0 <= self.max_af <= 3:
            raise ValueError("max_af must be in 0..3")
        if self.enable_gpc and not self.enable_grep:
            raise ValueError("enable_gpc needs enable_grep: G-PC is the rung after G-Rep")
        if self.max_af and not self.enable_gpc:
            raise ValueError("max_af > 0 needs enable_gpc: RG-PC is the rung after G-PC")


def option_sweep():
    """The progressive node-set columns: base, +G-Rep, +G-PC, +RG-PC(k AF)."""
    cols = [("base", PlanOptions()),
            ("+grep", PlanOptions(enable_grep=True)),
            ("+gpc", PlanOptions(enable_grep=True, enable_gpc=True))]
    for k in (1, 2, 3):
        cols.append((f"+rgpc{k}", PlanOptions(enable_grep=True, enable_gpc=True, max_af=k)))
    return cols


@dataclass(frozen=True)
class DecodePlan:
    """One node of the pruned decode tree.

    ``offset`` is the node's position in the length-N flag vector; a node
    at stage t spans ``2**stage`` bits.  Kind-specific payload:
    grep -> rate_c (sub-plan), spc/gpc/rgpc -> np_sub (parity block size,
    1 for SPC) and, for rgpc, af_positions (node-relative indices of the
    ignored frozen bits), split -> left/right.
    """

    kind: str  # rate0 | rate1 | rep | spc | grep | gpc | rgpc | split
    stage: int
    offset: int
    left: "DecodePlan | None" = None
    right: "DecodePlan | None" = None
    rate_c: "DecodePlan | None" = None
    np_sub: int = 0
    af_positions: tuple = field(default_factory=tuple)

    @property
    def size(self):
        return 1 << self.stage

    @property
    def children(self):
        """Sub-plans by field name, in decode order."""
        return {f: getattr(self, f) for f in _CHILD_FIELDS.get(self.kind, ())}

    def leaves(self):
        """The nodes that tile the block: everything except splits."""
        if self.kind == "split":
            for child in self.children.values():
                yield from child.leaves()
        else:
            yield self

    def walk(self):
        """Every node in pre-order, G-Rep Rate-C sub-plans included."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def pretty(self, indent=0):
        pad = "  " * indent
        extra = ""
        if self.kind == "grep":
            extra = f" rate_c@{self.rate_c.offset}/2^{self.rate_c.stage}"
        elif self.kind in ("gpc", "rgpc"):
            extra = f" Np={self.np_sub}"
            if self.kind == "rgpc":
                extra += f" af={list(self.af_positions)}"
        lines = [f"{pad}{self.kind} size={self.size} offset={self.offset}{extra}"]
        for child in self.children.values():
            lines += child.pretty(indent + 1)
        return lines

    def to_dict(self):
        d = {"kind": self.kind, "stage": self.stage, "offset": self.offset}
        for name, child in self.children.items():
            d[name] = child.to_dict()
        if self.kind in ("gpc", "rgpc"):
            d["np_sub"] = self.np_sub
            if self.kind == "rgpc":
                d["af_positions"] = list(self.af_positions)
        return d


_CHILD_FIELDS = {"split": ("left", "right"), "grep": ("rate_c",)}


def _match_grep(flags, stage, offset, z, opts):
    # everything left of the rightmost 2^p block frozen, p < stage
    p = ((1 << stage) - z - 1).bit_length()  # smallest 2^p covering the rest
    rc_off = (1 << stage) - (1 << p)
    rate_c = _classify(flags[rc_off:], p, offset + rc_off, opts)
    return DecodePlan("grep", stage, offset, rate_c=rate_c)


def _match_parity(flags, stage, offset, z, ones, opts):
    # Np is the largest power of two in the leading frozen run z >= 1; the
    # frozen bits after it are the AF bits, counted without building them
    np_sub = 1 << (z.bit_length() - 1)
    n_af = (1 << stage) - np_sub - ones
    if n_af == 0:
        return DecodePlan("gpc", stage, offset, np_sub=np_sub)
    if n_af > opts.max_af:
        return None
    af = tuple(int(i) for i in np.flatnonzero(flags[np_sub:] == 0) + np_sub)
    return DecodePlan("rgpc", stage, offset, np_sub=np_sub, af_positions=af)


def _classify(flags, stage, offset, opts):
    size = 1 << stage
    ones = int(flags.sum())
    if ones == 0:
        return DecodePlan("rate0", stage, offset)
    if ones == size:
        return DecodePlan("rate1", stage, offset)
    if opts.enable_grep:
        z = int(flags.argmax())  # the leading frozen run
        if z >= size // 2:
            return _match_grep(flags, stage, offset, z, opts)
        if z and opts.enable_gpc:
            node = _match_parity(flags, stage, offset, z, ones, opts)
            if node is not None:
                return node
    if ones == 1 and flags[-1]:
        return DecodePlan("rep", stage, offset)
    if ones == size - 1 and not flags[0]:
        return DecodePlan("spc", stage, offset, np_sub=1)
    half = size // 2
    return DecodePlan(
        "split", stage, offset,
        left=_classify(flags[:half], stage - 1, offset, opts),
        right=_classify(flags[half:], stage - 1, offset + half, opts),
    )


def classify(code, opts=PlanOptions()):
    """Build the pruned decode tree for a code under the given node options."""
    return _classify(code.flags, code.n, 0, opts)


def plan_stats(plan):
    """Histogram of node kinds over the whole plan (split nodes included)."""
    return dict(Counter(node.kind for node in plan.walk()))


def leaves_only_plan(code):
    """The unpruned decode tree: splits down to size-1 Rate-0/Rate-1 leaves.

    Plain SC and SCL are the plan walkers run on this plan.  Plans are
    memoised per frozen pattern, so repeated decodes pay the build once.
    """
    return _leaves_only(code.flags.tobytes())


@lru_cache(maxsize=32)
def _leaves_only(flags):
    def build(stage, offset):
        if stage == 0:
            return DecodePlan("rate1" if flags[offset] else "rate0", 0, offset)
        half = 1 << (stage - 1)
        return DecodePlan("split", stage, offset, left=build(stage - 1, offset),
                          right=build(stage - 1, offset + half))

    return build(len(flags).bit_length() - 1, 0)
