"""Self-test of the benchmark itself, at tiny sizes (well under a minute).

    python3 benchmarks/selftest.py

For every workload, shrunk to N=64 and a handful of frames, it checks that
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    is reported as a finite number,
  * the traced run decodes exactly what the untraced run decodes,
  * another seed changes the frames but not the check outcome,
  * a deliberately broken fast decoder is caught by the check,
and prints the tracing overhead as traced / untraced call time.  Exits
non-zero on the first failed expectation.
"""

import dataclasses
import math
import sys

import run

TINY = {"bler": {"n": 6, "K": 32, "batch": 16, "frames_per_point": 16},
        "frame": {"n": 6, "K": 32, "pool": 8}}
SECONDS = 0.3


def _hard_decision_wagner(alpha):
    # drops Wagner's parity repair, so G-PC nodes stop matching descent SC
    return (run.np.asarray(alpha) < 0).astype(run.np.uint8)


def _last_path(u, pm, code, crc=None):
    return u[:, -1], pm[:, -1]


BREAKERS = {"sc": (run.fp.fastsc, "wagner_decode", _hard_decision_wagner),
            "scl": (run.fp.fastscl, "select_output", _last_path)}


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_workload(w):
    plain, rep = run.run_workload(w, 1, SECONDS, 0)
    traced, rep_t = run.run_workload(w, 1, SECONDS, 1)
    other, rep_2 = run.run_workload(w, 2, SECONDS, 0)
    for result, names in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        got = result["metrics"]
        expect(set(got) == set(names), f"{w.name}: metrics {sorted(set(names) ^ set(got))}")
        expect(all(math.isfinite(v["value"]) for v in got.values()),
               f"{w.name}: non-finite metric")
    expect(plain["correct"] and traced["correct"] and other["correct"],
           f"{w.name}: check failed on an unmodified decoder")
    expect(rep_t["absent"] == [], f"{w.name}: wrapped names absent {rep_t['absent']}")
    expect(rep_t["traced_outputs_identical"]
           and rep_t["outputs_sha256"] == rep["outputs_sha256"],
           f"{w.name}: traced outputs differ from untraced outputs")
    expect(rep_2["outputs_sha256"] != rep["outputs_sha256"],
           f"{w.name}: seed 2 decoded the same frames as seed 1")

    owner, attr, broken = BREAKERS[w.family]
    original = getattr(owner, attr)
    setattr(owner, attr, broken)
    try:
        bad, rep_bad = run.run_workload(w, 1, SECONDS, 0)
    finally:
        setattr(owner, attr, original)
    expect(not bad["correct"] and rep_bad["mismatch_frac"] > 0,
           f"{w.name}: a broken {w.fast} passed the check")
    return rep_t["overhead"]


def main():
    for w in run.WORKLOADS.values():
        tiny = dataclasses.replace(w, **TINY[w.mode])
        o = check_workload(tiny)
        print(f"{w.name}: ok; tracing overhead {o['ratio']:.3f} = traced "
              f"{1e3 * o['traced_call_s']:.4g} ms / untraced "
              f"{1e3 * o['untraced_call_s']:.4g} ms per call (median)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
