"""Decode-tree pruning: turn a frozen-flag vector into a plan of special nodes.

Matching is top-down at every node, in the order ``_classify`` tests top
to bottom: Rate-0, Rate-1, G-Rep (smallest Rate-C), G-PC, RG-PC (within
the AF budget), Rep, SPC, otherwise split and recurse.  The node sets are
the paper's ladder, each rung adding to the one before: base, +G-Rep,
+G-PC, +RG-PC with an AF budget of 1 to 3.  The parity kinds share one
block size Np: SPC has Np = 1, and G-PC and RG-PC take the largest power
of two in the leading frozen run, RG-PC ignoring the frozen (AF) bits after it.
"""

from collections import Counter
from dataclasses import astuple, dataclass, field
from functools import lru_cache

import numpy as np

from .crc import check_bool, check_integer

__all__ = ["PlanOptions", "DecodePlan", "classify", "leaves_only_plan", "plan_stats",
           "option_sweep"]


_LADDER = {"base": (False, False, 0), "+grep": (True, False, 0), "+gpc": (True, True, 0),
           **{f"+rgpc{k}": (True, True, k) for k in (1, 2, 3)}}
_LABELS = {"np_sub": "Np", "af_positions": "af"}  # payload field -> its label in pretty


@dataclass(frozen=True)
class PlanOptions:
    enable_grep: bool = False
    enable_gpc: bool = False
    max_af: int = 0

    def __post_init__(self):
        check_bool(self.enable_grep, "enable_grep")
        check_bool(self.enable_gpc, "enable_gpc")
        check_integer(self.max_af, "max_af")
        if astuple(self) not in _LADDER.values():
            raise ValueError(f"(enable_grep, enable_gpc, max_af) = {astuple(self)} is not a "
                             f"rung of the node-set ladder, one of {list(_LADDER.values())}")


def option_sweep():
    """The progressive node-set columns: base, +G-Rep, +G-PC, +RG-PC(k AF)."""
    return [(label, PlanOptions(*rung)) for label, rung in _LADDER.items()]


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
        return {f: getattr(self, f) for f in ("left", "right", "rate_c") if getattr(self, f)}

    def walk(self):
        """Every node in pre-order, G-Rep Rate-C sub-plans included."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    @property
    def payload(self):
        """Kind-specific fields as ``pretty`` and ``to_dict`` state them (not SPC's Np = 1)."""
        d = {"np_sub": self.np_sub} if self.kind in ("gpc", "rgpc") else {}
        return {**d, "af_positions": list(self.af_positions)} if self.af_positions else d

    def pretty(self, indent=0):
        extra = f" rate_c@{self.rate_c.offset}/2^{self.rate_c.stage}" if self.rate_c else ""
        extra += "".join(f" {_LABELS[name]}={v}" for name, v in self.payload.items())
        lines = [f"{'  ' * indent}{self.kind} size={self.size} offset={self.offset}{extra}"]
        for child in self.children.values():
            lines += child.pretty(indent + 1)
        return lines

    def to_dict(self):
        d = {"kind": self.kind, "stage": self.stage, "offset": self.offset}
        d.update({name: child.to_dict() for name, child in self.children.items()}, **self.payload)
        return d


def _classify(flags, stage, offset, opts):
    size = 1 << stage
    ones = int(flags.sum())
    if ones == 0:
        return DecodePlan("rate0", stage, offset)
    if ones == size:
        return DecodePlan("rate1", stage, offset)
    z = int(flags.argmax())  # the leading frozen run
    if opts.enable_grep and z >= size // 2:
        # everything left of the rightmost 2^p block frozen, p < stage
        p = (size - z - 1).bit_length()  # smallest 2^p covering the rest
        rc_off = size - (1 << p)
        return DecodePlan("grep", stage, offset,
                          rate_c=_classify(flags[rc_off:], p, offset + rc_off, opts))
    if opts.enable_gpc and z:
        # Np is the largest power of two in the leading frozen run; the
        # frozen bits after it are the AF bits, counted without building them
        np_sub = 1 << (z.bit_length() - 1)
        n_af = size - np_sub - ones
        if n_af == 0:
            return DecodePlan("gpc", stage, offset, np_sub=np_sub)
        if n_af <= opts.max_af:
            af = tuple(int(i) for i in np.flatnonzero(flags[np_sub:] == 0) + np_sub)
            return DecodePlan("rgpc", stage, offset, np_sub=np_sub, af_positions=af)
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


@lru_cache(maxsize=32)
def leaves_only_plan(code):
    """The unpruned decode tree: splits down to size-1 Rate-0/Rate-1 leaves.

    Plain SC and SCL are the plan walkers run on this plan.  Plans are
    memoised per code value, so repeated decodes pay the build once.
    """
    def build(stage, offset):
        if stage == 0:
            return DecodePlan("rate1" if code.flags[offset] else "rate0", 0, offset)
        half = 1 << (stage - 1)
        return DecodePlan("split", stage, offset, left=build(stage - 1, offset),
                          right=build(stage - 1, offset + half))

    return build(code.n, 0)
