"""Polar coding with generalized multi-node fast SC/SCL decoding."""

from .classify import DecodePlan, PlanOptions, classify, option_sweep, plan_stats
from .codec import encode, polar_transform, sc_decode
from .construction import PolarCode, construct_code, load_descriptor, save_descriptor
from .crc import CRC8, CRC16, CrcSpec, crc_attach, crc_check
from .fastsc import fast_ssc_decode
from .fastscl import fast_scl_decode
from .latency import CostReport, cost_sc, cost_scl, latency_table
from .listdec import scl_decode
from .sim import SimConfig, SimResult, awgn_bpsk_llrs, run_bler

__version__ = "0.1.0"
