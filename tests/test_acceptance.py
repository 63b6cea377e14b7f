"""End-to-end acceptance checks.

Each test prints a single pass/fail line (visible under ``pytest -s`` or on
failure) and enforces its own wall-clock budget.
"""

import time

import numpy as np
import pytest

from fastpolar.classify import PlanOptions, classify
from fastpolar.codec import polar_transform
from fastpolar.construction import construct_code
from fastpolar.crc import CRC8, CRC16
from fastpolar.fastsc import fast_ssc_decode_batch, wagner_decode
from fastpolar.fastscl import fast_scl_decode_paths_batch
from fastpolar.latency import cost_sc, cost_scl, latency_table
from fastpolar.sim import SimConfig, awgn_bpsk_llrs, run_bler
from helpers import kron_generator, sc_descent_batch, scl_descent_paths_batch

pytestmark = pytest.mark.acceptance

GEN = PlanOptions(enable_grep=True, enable_gpc=True)
RATES = ((1, 8), (1, 4), (1, 2), (2, 3), (5, 6))
SIZES = (128, 256, 512, 1024)

# published six-column step counts (base, +grep, +gpc, then three relaxed
# budgets) for the SC and SCL models, by (N, numerator, denominator)
REFERENCE_STEPS = {
    (128, 1, 8): ((31, 28, 28, 26, 22, 17), (51, 47, 47, 42, 34, 33)),
    (128, 1, 4): ((61, 60, 54, 54, 42, 42), (98, 96, 96, 78, 66, 66)),
    (128, 1, 2): ((82, 80, 80, 80, 49, 39), (176, 172, 172, 172, 113, 103)),
    (128, 2, 3): ((52, 51, 51, 50, 40, 35), (200, 198, 198, 192, 170, 137)),
    (128, 5, 6): ((55, 54, 42, 34, 25, 20), (247, 245, 175, 142, 129, 124)),
    (256, 1, 8): ((116, 114, 114, 104, 96, 78), (127, 125, 124, 114, 106, 96)),
    (256, 1, 4): ((142, 140, 140, 140, 120, 115), (187, 184, 184, 184, 156, 151)),
    (256, 1, 2): ((113, 111, 108, 107, 85, 75), (323, 317, 312, 307, 269, 235)),
    (256, 2, 3): ((115, 114, 105, 100, 75, 57), (408, 402, 370, 355, 318, 285)),
    (256, 5, 6): ((79, 75, 72, 72, 64, 45), (476, 468, 455, 455, 440, 358)),
    (512, 1, 8): ((116, 109, 109, 107, 92, 82), (194, 188, 182, 176, 156, 134)),
    (512, 1, 4): ((232, 220, 211, 211, 155, 140), (394, 382, 342, 342, 342, 252)),
    (512, 1, 2): ((238, 231, 231, 224, 163, 131), (650, 641, 641, 624, 515, 477)),
    (512, 2, 3): ((202, 193, 190, 185, 151, 121), (805, 797, 785, 771, 707, 617)),
    (512, 5, 6): ((136, 125, 116, 113, 86, 78), (940, 925, 891, 881, 831, 793)),
    (1024, 1, 8): ((250, 240, 240, 238, 185, 160), (398, 386, 386, 380, 309, 276)),
    (1024, 1, 4): ((353, 344, 344, 344, 269, 224), (712, 702, 697, 697, 589, 496)),
    (1024, 1, 2): ((420, 405, 405, 401, 311, 256), (1274, 1251, 1251, 1241, 1091, 936)),
    (1024, 2, 3): ((344, 335, 334, 334, 254, 211), (1444, 1432, 1422, 1397, 1280, 1174)),
    (1024, 5, 6): ((232, 224, 215, 202, 173, 141), (1477, 1470, 1431, 1350, 1305, 1195)),
}


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_frames(code, count, sigma, rng):
    u = np.zeros((count, code.N), np.uint8)
    u[:, code.info_indices] = rng.integers(0, 2, (count, code.K), dtype=np.uint8)
    return awgn_bpsk_llrs(polar_transform(u), sigma, rng)


def test_criterion_1_encoder_matches_generator_matrix():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    bad = 0
    for n in range(1, 7):
        G = kron_generator(n)
        u = rng.integers(0, 2, (1000, 1 << n), dtype=np.uint8)
        ref = (u @ G) % 2
        bad += int((polar_transform(u) != ref).any(axis=1).sum())
    dt = time.perf_counter() - t0
    report("criterion 1 encoder vs generator matrix", bad == 0 and dt < 10.0,
           f"{bad} mismatched vectors over N=2..64, {dt:.1f}s (limit 10s)")


def test_criterion_2_fast_sc_bit_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    bad = 0
    for N in SIZES:
        n = int(np.log2(N))
        for num, den in RATES:
            code = construct_code(n, round(N * num / den), 0.5)
            llrs = random_frames(code, 10_000, 0.9, rng)
            u_sc, _ = sc_descent_batch(llrs, code)
            u_f, _ = fast_ssc_decode_batch(llrs, classify(code, GEN))
            bad += int((u_sc != u_f).any(axis=1).sum())
    dt = time.perf_counter() - t0
    report("criterion 2 fast SC exactness", bad == 0 and dt < 300.0,
           f"{bad} mismatched frames over 20 codes x 10^4 frames, {dt:.0f}s (limit 300s)")


def test_criterion_3_fast_scl_matches_descent():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    bad_bits = 0
    worst_pm = 0.0
    for N in (128, 256):
        n = int(np.log2(N))
        code = construct_code(n, N // 2, 0.5)
        plan = classify(code, GEN)
        for L in (2, 4, 8):
            llrs = random_frames(code, 1000, 0.9, rng)
            u_r, pm_r = scl_descent_paths_batch(llrs, code, L)
            u_f, pm_f = fast_scl_decode_paths_batch(llrs, plan, L)
            for b in range(1000):
                ref = sorted((float(p), tuple(int(x) for x in row))
                             for p, row in zip(pm_r[b], u_r[b]))
                got = sorted((float(p), tuple(int(x) for x in row))
                             for p, row in zip(pm_f[b], u_f[b]))
                for (pr, br), (pf, bf) in zip(ref, got):
                    bad_bits += br != bf
                    worst_pm = max(worst_pm, abs(pr - pf) / max(abs(pr), 1.0))
    dt = time.perf_counter() - t0
    report("criterion 3 fast SCL exactness",
           bad_bits == 0 and worst_pm < 1e-9 and dt < 300.0,
           f"{bad_bits} path mismatches, worst rel PM err {worst_pm:.2e}, "
           f"{dt:.0f}s (limit 300s)")


def test_criterion_4_wagner_is_ml():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    bad = 0
    for length in range(2, 17):
        words = ((np.arange(1 << length)[:, None] >> np.arange(length)) & 1).astype(np.int8)
        words = words[words.sum(axis=1) % 2 == 0]
        signs = 1.0 - 2.0 * words
        alphas = rng.normal(size=(1000, length)) * 2
        ml = words[np.argmax(signs @ alphas.T, axis=0)]
        got = wagner_decode(alphas.T).T
        bad += int((got != ml).any(axis=1).sum())
        if length <= 8:
            mags = np.linspace(1.0, 2.0, length)
            pat = ((np.arange(1 << length)[:, None] >> np.arange(length)) & 1)
            alphas = mags * (1.0 - 2.0 * pat)
            ml = words[np.argmax(signs @ alphas.T, axis=0)]
            bad += int((wagner_decode(alphas.T).T != ml).any(axis=1).sum())
    dt = time.perf_counter() - t0
    report("criterion 4 Wagner = ML", bad == 0 and dt < 60.0,
           f"{bad} ML mismatches, {dt:.1f}s (limit 60s)")


def test_criterion_5_hand_counts():
    code = construct_code(3, 4, 0.5)  # frozen {0,1,2,4}
    base = classify(code, PlanOptions())
    sc = cost_sc(base).total_steps
    scl = cost_scl(base).total_steps
    relaxed = classify(code, PlanOptions(True, True, 2))
    ok = (sc == 7 and scl == 14 and relaxed.kind == "rgpc"
          and relaxed.np_sub == 2 and relaxed.af_positions == (2, 4))
    report("criterion 5 hand counts", ok,
           f"SC={sc} (want 7), SCL={scl} (want 14), whole-code node="
           f"{relaxed.kind} Np={relaxed.np_sub} af={relaxed.af_positions}")


def test_criterion_6_latency_matrix():
    t0 = time.perf_counter()
    rows = {}
    for (N, num, den), ref in REFERENCE_STEPS.items():
        code = construct_code(int(np.log2(N)), round(N * num / den), 0.5)
        table = latency_table(code)
        rows[(N, num, den)] = (
            tuple(r.total_steps for r in table["sc"]),
            tuple(r.total_steps for r in table["scl"]), ref)

    hard_ok = True
    within = total = 0
    best_gain = {"sc": 0.0, "scl": 0.0}
    print("\n  (N, R)        dec  got -> published (cell-by-cell % diff)")
    for key, (sc, scl, ref) in sorted(rows.items()):
        N, num, den = key
        for dec, got, pub in (("sc", sc, ref[0]), ("scl", scl, ref[1])):
            if any(a < b for a, b in zip(got, got[1:])):
                hard_ok = False
            diffs = []
            for g, p in zip(got, pub):
                total += 1
                rel = (g - p) / p
                within += abs(rel) <= 0.15
                diffs.append(f"{100 * rel:+.0f}%")
            best_gain[dec] = max(best_gain[dec], (got[0] - got[2]) / got[0])
            print(f"  ({N:4d}, {num}/{den})  {dec:3s}  {got} -> {pub}  [{' '.join(diffs)}]")
        if any(s <= c for s, c in zip(scl, sc)):
            hard_ok = False
    frac = within / total
    dt = time.perf_counter() - t0
    soft_ok = frac >= 0.70 and best_gain["sc"] >= 0.20 and best_gain["scl"] >= 0.25
    report("criterion 6 latency matrix", hard_ok and soft_ok and dt < 60.0,
           f"hard(monotone+SCL>SC)={hard_ok}, {within}/{total} cells within 15% "
           f"({100 * frac:.1f}%, need 70%), best SC gain {100 * best_gain['sc']:.1f}% "
           f"(need 20%), best SCL gain {100 * best_gain['scl']:.1f}% (need 25%), "
           f"{dt:.1f}s (limit 60s)")


def _counters(result):
    return [(p.frames, p.frame_errors, p.bit_errors) for p in result.points]


def test_criterion_7_no_loss():
    t0 = time.perf_counter()
    code = construct_code(10, 512, 0.5)
    shared = dict(code=code, snr_db=(2.0,), min_errors=10**9, max_frames=10_000,
                  seed=7, batch=2000)
    sweeps = [dict(), dict(enable_grep=True), dict(enable_grep=True, enable_gpc=True)]
    diffs = []

    ref = _counters(run_bler(SimConfig(decoder="sc", **shared)))
    for opts in sweeps:
        got = _counters(run_bler(SimConfig(decoder="fastssc", **shared, **opts)))
        if got != ref:
            diffs.append(("fastssc", opts, got, ref))

    ref = _counters(run_bler(SimConfig(decoder="scl", list_size=4, **shared)))
    for opts in sweeps:
        got = _counters(run_bler(SimConfig(decoder="ssclspc", list_size=4,
                                           **shared, **opts)))
        if got != ref:
            diffs.append(("ssclspc", opts, got, ref))
    dt = time.perf_counter() - t0
    report("criterion 7 no-loss counters", not diffs and dt < 600.0,
           f"{len(diffs)} differing counter sets over 6 comparisons "
           f"(10^4 frames each), {dt:.0f}s (limit 600s)" +
           (f"; first diff: {diffs[0]}" if diffs else ""))


def _af_sweep(**kw):
    points = []
    for af in (0, 1, 2, 3):
        cfg = SimConfig(enable_grep=True, enable_gpc=True, max_af=af,
                        min_errors=60, max_frames=60_000, seed=1, batch=4000, **kw)
        points.append(run_bler(cfg).points[0])
    return points


def test_criterion_8_relaxation_degrades_gracefully():
    t0 = time.perf_counter()
    runs = {
        ("sc", 256): _af_sweep(code=construct_code(8, 32, 0.5),
                               decoder="fastssc", snr_db=(4.0,)),
        ("scl", 256): _af_sweep(code=construct_code(8, 40, 0.5), decoder="ssclspc",
                                list_size=4, crc=CRC8, snr_db=(4.0,)),
        ("sc", 1024): _af_sweep(code=construct_code(10, 512, 0.5),
                                decoder="fastssc", snr_db=(3.5,)),
        ("scl", 1024): _af_sweep(code=construct_code(10, 528, 0.5), decoder="ssclspc",
                                 list_size=4, crc=CRC16, snr_db=(2.5,)),
    }
    monotone_ok = True
    for key, pts in runs.items():
        for a, b in zip(pts, pts[1:]):
            if b.bler < a.bler and b.bler_ci_hi < a.bler_ci_lo:
                monotone_ok = False
    ratios = {k: pts[3].bler / pts[0].bler for k, pts in runs.items()}
    resilience_ok = (ratios[("scl", 256)] < ratios[("sc", 256)]
                     and ratios[("scl", 1024)] < ratios[("sc", 1024)])
    dt = time.perf_counter() - t0
    detail = ", ".join(f"{d}{N}: x{ratios[(d, N)]:.2f}" for d, N in runs)
    report("criterion 8 relaxed-node degradation",
           monotone_ok and resilience_ok and dt < 1800.0,
           f"BLER inflation at max budget [{detail}], monotone={monotone_ok}, "
           f"list more resilient={resilience_ok}, {dt:.0f}s (limit 1800s)")


def test_criterion_9_determinism():
    cfg = dict(code=construct_code(8, 128, 0.5), decoder="ssclspc", list_size=4,
               enable_grep=True, enable_gpc=True, crc=CRC8, snr_db=(1.0, 2.0),
               min_errors=30, max_frames=5000, seed=11)
    a = run_bler(SimConfig(batch=4000, **cfg)).to_csv()
    b = run_bler(SimConfig(batch=4000, **cfg)).to_csv()
    c = run_bler(SimConfig(batch=313, **cfg)).to_csv()
    ok = a.encode() == b.encode() == c.encode()
    report("criterion 9 determinism", ok,
           "CSV byte-identical across reruns and batch sizes" if ok
           else "CSV output differs between runs")
