"""The breakers of ``benchmarks/selftest.py`` must still change the output.

The benchmark's self-test installs a broken node kernel on a module
attribute and expects the fast decoder's output to change.  That works only
while the decoders look those names up per call, so these tests install the
same two breakers with ``monkeypatch`` and decode noisy +G-PC frames.
"""

import numpy as np

from fastpolar import fastsc, fastscl
from fastpolar.classify import PlanOptions, classify
from fastpolar.codec import polar_transform
from fastpolar.construction import construct_code
from fastpolar.crc import CRC16
from fastpolar.fastsc import fast_ssc_decode_batch
from fastpolar.fastscl import fast_scl_decode_batch
from fastpolar.sim import awgn_bpsk_llrs

CODE = construct_code(8, 128, 0.5)
PLAN = classify(CODE, PlanOptions(enable_grep=True, enable_gpc=True))


def noisy_llrs():
    """16 random codewords through the channel at sigma 0.8."""
    rng = np.random.default_rng(11)
    u = np.zeros((16, CODE.N), dtype=np.uint8)
    u[:, CODE.info_indices] = rng.integers(0, 2, (16, CODE.K))
    return awgn_bpsk_llrs(polar_transform(u), 0.8, rng)


def test_hard_decision_wagner_changes_fastssc_output(monkeypatch):
    llrs = noisy_llrs()
    assert any(node.kind in ("spc", "gpc") for node in PLAN.walk())
    good, _ = fast_ssc_decode_batch(llrs, PLAN)
    monkeypatch.setattr(fastsc, "wagner_decode",
                        lambda alpha: (np.asarray(alpha) < 0).astype(np.uint8))
    bad, _ = fast_ssc_decode_batch(llrs, PLAN)
    assert not np.array_equal(good, bad)


def test_last_path_select_output_changes_ssclspc_output(monkeypatch):
    llrs = noisy_llrs()
    good, _ = fast_scl_decode_batch(llrs, CODE, PLAN, 8, CRC16)
    monkeypatch.setattr(fastscl, "select_output",
                        lambda u, pm, code, crc=None: (u[:, -1], pm[:, -1]))
    bad, _ = fast_scl_decode_batch(llrs, CODE, PLAN, 8, CRC16)
    assert not np.array_equal(good, bad)
