"""fastpolar benchmark: BLER-sweep throughput and single-frame latency.

Usage (from the repository root):

    python3 benchmarks/run.py --workload sc-bler --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

Every workload pairs an exact tree-descent decoder with the pruned decoder
that must reproduce it bit for bit, and runs both through the public API in
one closed loop (one caller thread; the next call goes only after the
previous one returns).  Untraced runs print the end-to-end metrics; with
``--trace 1`` the library's layers are wrapped by ``spans.Tracer`` and the
per-layer metrics are printed instead.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is a JSON report with the environment, sample counts and model
figures.  The exit code is non-zero when any decoded output disagrees with
its reference.  See README.md in this directory for the metric table.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# one caller thread: keep numpy's BLAS pools from competing with it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spans import SpanTable, Tracer

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPS = 9
MAX_SPANS = 300_000  # a traced loop stops early here to bound its memory
NODE_KINDS = ("rate0", "rate1", "rep", "spc", "grep", "gpc", "rgpc", "split")
DECODERS = ("sc", "fastssc", "scl", "ssclspc")
# span name of each decoder's batch entry point -> decoder label
DECODER_SPANS = {"codec.sc_decode_batch": "sc", "fastsc.fast_ssc_decode_batch": "fastssc",
                 "listdec.scl_decode_batch": "scl",
                 "fastscl.fast_scl_decode_batch": "ssclspc"}


@dataclass(frozen=True)
class Workload:
    """One code, one exact/fast decoder pair, one closed loop.

    ``mode`` "bler" times whole ``run_bler`` sweeps with ``frames_per_point``
    frames at every SNR (min_errors out of reach, so the work is fixed);
    "frame" times one-frame decode calls over a pool of ``pool`` frames.
    """

    name: str
    mode: str
    family: str  # "sc": sc vs fastssc; "scl": scl vs ssclspc
    n: int
    K: int
    snr_db: tuple
    list_size: int = 1
    crc: str = "none"
    batch: int = 1
    frames_per_point: int = 0
    pool: int = 0

    @property
    def frames_per_call(self):
        return 1 if self.mode == "frame" else self.frames_per_point * len(self.snr_db)

    @property
    def exact(self):
        return self.family

    @property
    def fast(self):
        return "fastssc" if self.family == "sc" else "ssclspc"


WORKLOADS = {w.name: w for w in (
    Workload("sc-bler", "bler", "sc", 10, 512, (1.0, 2.0, 3.0),
             batch=256, frames_per_point=256),
    Workload("cascl-bler", "bler", "scl", 10, 512, (1.0, 1.5, 2.0), list_size=8,
             crc="crc16", batch=16, frames_per_point=16),
    Workload("frame-latency-sc", "frame", "sc", 8, 128, (2.0,), pool=256),
    Workload("frame-latency-scl", "frame", "scl", 8, 128, (2.0,), list_size=8,
             crc="crc16", pool=256),
)}

END_TO_END = {"setup_s": "s", "frames_per_pace.exact": "frames/pace",
              "frames_per_pace.fast": "frames/pace"}

PER_LAYER = {
    "sim.gen_us_per_frame": "us", "sim.gen_share": "ratio",
    "codec.encode_calls_per_frame": "count",
    **{f"codec.fg_calls_per_decode.{d}": "count" for d in DECODERS},
    "codec.fg_us_per_frame": "us", "codec.sc_decode_us_per_frame": "us",
    "crc.attach_us_per_frame": "us", "crc.check_us_per_frame": "us",
    "fastsc.decode_us_per_frame": "us", "fastsc.self_us_per_frame": "us",
    **{f"fastsc.node_us_per_frame.{k}": "us" for k in ("wagner", "grep", "gpc")},
    **{f"fastsc.node_calls_per_decode.{k}": "count" for k in ("wagner", "grep", "gpc")},
    "fastscl.decode_us_per_frame": "us", "fastscl.self_us_per_frame": "us",
    "listdec.decode_us_per_frame": "us",
    **{f"listdec.{op}_calls_per_decode.{d}": "count"
       for op in ("fork", "realign") for d in ("scl", "ssclspc")},
    **{f"listdec.{op}_us_per_frame": "us"
       for op in ("fork", "realign", "select", "bit_histories")},
    "construction.construct_s": "s", "classify.classify_s": "s",
    **{f"classify.nodes.{k}": "count" for k in NODE_KINDS},
    "latency.steps_sc": "count", "latency.steps_scl": "count",
    "latency.split_steps": "count",
}


def import_fastpolar():
    """Import the library from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fastpolar" / "__init__.py").is_file():
        raise SystemExit("benchmark: src/fastpolar not found next to benchmarks/; "
                         "run from a fastpolar source checkout")
    sys.path.insert(0, str(src))
    import fastpolar
    if Path(fastpolar.__file__).resolve().parent != src / "fastpolar":
        raise SystemExit(f"benchmark: imported fastpolar from {fastpolar.__file__}")
    return fastpolar


fp = import_fastpolar()
import numpy as np  # noqa: E402
import scipy  # noqa: E402

CRCS = {"none": None, "crc8": fp.CRC8, "crc16": fp.CRC16}
FAST_OPTIONS = fp.PlanOptions(enable_grep=True, enable_gpc=True)


class Bench:
    """Set-up state of one workload: code, fast plan and decoder calls."""

    def __init__(self, w):
        self.w = w
        self.crc = CRCS[w.crc]
        t0 = time.perf_counter()
        self.code = fp.construct_code(w.n, w.K, 0.5)
        t1 = time.perf_counter()
        self.plan = fp.classify(self.code, FAST_OPTIONS)
        t2 = time.perf_counter()
        for decoder in (w.exact, w.fast):  # warm-up decode
            self.decode_one(decoder, np.zeros(self.code.N))
        self.times = {"construct": t1 - t0, "classify": t2 - t1,
                      "setup": time.perf_counter() - t0}

    def decode_one(self, decoder, llrs):
        """Single-frame public entry point of ``decoder``; returns u_hat."""
        code, plan, L, crc = self.code, self.plan, self.w.list_size, self.crc
        if decoder == "sc":
            return fp.sc_decode(llrs, code, minsum=True)[0]
        if decoder == "fastssc":
            return fp.fast_ssc_decode(llrs, plan, minsum=True)[0]
        if decoder == "scl":
            return fp.scl_decode(llrs, code, L, crc, minsum=True)[0]
        return fp.fast_scl_decode(llrs, code, plan, L, crc, minsum=True)[0]

    def decode_ref(self, llrs):
        """Batch reference decode (exact decoder) of a (B, N) LLR array."""
        if self.w.family == "sc":
            return fp.codec.sc_decode_batch(llrs, self.code, minsum=True)[0]
        return fp.listdec.scl_decode_batch(llrs, self.code, self.w.list_size, self.crc,
                                           minsum=True)[0]

    def sim_config(self, decoder, seed):
        w = self.w
        return fp.SimConfig(
            code=self.code, decoder=decoder, enable_grep=True, enable_gpc=True,
            list_size=w.list_size, crc=self.crc, snr_db=w.snr_db,
            min_errors=w.frames_per_point + 1, max_frames=w.frames_per_point,
            seed=seed, minsum=True, batch=w.batch)

    def frame_pool(self, seed):
        """(pool, N) channel LLRs of random payloads drawn from ``seed``."""
        w, code = self.w, self.code
        nbits = w.K - (self.crc.width if self.crc else 0)
        sigma = float(np.sqrt(1.0 / (2.0 * nbits / code.N * 10 ** (w.snr_db[0] / 10))))
        rng = np.random.Generator(np.random.Philox(key=seed))
        llrs = np.empty((w.pool, code.N))
        for k in range(w.pool):
            payload = rng.integers(0, 2, nbits, dtype=np.uint8)
            u = np.zeros(code.N, dtype=np.uint8)
            u[code.info_indices] = fp.crc_attach(payload, self.crc) if self.crc else payload
            llrs[k] = fp.awgn_bpsk_llrs(fp.encode(u, code), sigma, rng)
        return llrs


def _pair_order(k, w):
    # alternate which decoder goes first so both see the same drift
    return (w.exact, w.fast) if k % 2 == 0 else (w.fast, w.exact)


class Pace:
    """Times a fixed numpy kernel, shaped like the workload, between calls.

    The kernel is the benchmark's own code, so it costs the same on every
    commit; its time tracks how fast this shared machine runs right now.
    """

    PERIOD = 0.1  # seconds between kernel samples

    def __init__(self, rows, n):
        rng = np.random.Generator(np.random.Philox(key=0))
        self.a = rng.normal(size=(rows, n))
        self.reps = max(1, min(64, (1 << 18) // (rows * n)))
        self.ends = []  # perf_counter at the end of each kernel sample
        self.secs = []

    def kernel(self):
        # whole-array f/g-style updates plus per-row loops of small calls,
        # the two kinds of work the decoders and the frame generator do
        for _ in range(self.reps):
            a = self.a
            while a.shape[-1] > 1:
                h = a.shape[-1] // 2
                lo, hi = a[..., :h], a[..., h:]
                f = np.sign(lo) * np.sign(hi) * np.minimum(np.abs(lo), np.abs(hi))
                a = hi + (1.0 - 2.0 * (f < 0)) * lo
            for row in np.tile(self.a, (3, 1)):
                bits = (row < 0).astype(np.uint8)
                np.bitwise_xor.reduce(bits[np.argsort(np.abs(row[:16]))])

    def tick(self, force=False):
        """Time the kernel if the last sample is at least PERIOD old."""
        t = time.perf_counter()
        if force or not self.ends or t - self.ends[-1] >= self.PERIOD:
            self.kernel()
            self.ends.append(time.perf_counter())
            self.secs.append(self.ends[-1] - t)

    def around(self, t0, t1):
        """Mean kernel time of the samples just before t0 and just after t1."""
        before = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        after = min(bisect.bisect_left(self.ends, t1), len(self.ends) - 1)
        return (self.secs[before] + self.secs[after]) / 2


def _room(tracer):
    return tracer is None or len(tracer.spans) < MAX_SPANS


def _paced(pace, raw):
    # raw: [(decoder, t0, t1, *outputs)] -> [(decoder, seconds, *outputs, pace)]
    pace.tick(force=True)
    return [(d, t1 - t0, *out, pace.around(t0, t1)) for d, t0, t1, *out in raw]


def loop_bler(bench, seed, seconds, pace, tracer=None):
    """Closed loop of run_bler sweeps; returns [(decoder, seconds, csv, pace)]."""
    w = bench.w
    cfgs = {d: bench.sim_config(d, seed) for d in (w.exact, w.fast)}
    calls = []
    end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < end and _room(tracer):
        for d in _pair_order(k, w):
            pace.tick()
            t0 = time.perf_counter()
            if tracer is None:
                res = fp.sim.run_bler(cfgs[d])
            else:
                res = tracer.span("sim.run_bler", fp.sim.run_bler, cfgs[d],
                                  size=w.frames_per_call)
            calls.append((d, t0, time.perf_counter(), res.to_csv()))
        k += 1
    return _paced(pace, calls)


def loop_frame(bench, llrs, seconds, pace, tracer=None):
    """Closed loop of one-frame decodes; returns [(decoder, seconds, index, u_hat, pace)]."""
    w = bench.w
    calls = []
    end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < end and _room(tracer):
        i = k % len(llrs)
        for d in _pair_order(k, w):
            pace.tick()
            t0 = time.perf_counter()
            u_hat = bench.decode_one(d, llrs[i])
            calls.append((d, t0, time.perf_counter(), i, u_hat))
        k += 1
    return _paced(pace, calls)


def check_bler(bench, calls):
    """Compare every CSV row with the first exact sweep's; returns (items, bad)."""
    w = bench.w
    ref = next(c[2] for c in calls if c[0] == w.exact).splitlines()[1:]
    items = bad = 0
    for d, _, csv, _ in calls:
        rows = csv.splitlines()[1:]
        for r, row in enumerate(rows):
            items += 1
            frames = int(row.split(",")[1])
            bad += r >= len(ref) or row != ref[r] or frames != w.frames_per_point
        bad += abs(len(rows) - len(ref)) + (len(rows) != len(w.snr_db))
    return items, bad


def check_frames(bench, llrs, calls):
    """Compare every decoded frame with the batch reference; returns (items, bad)."""
    used = 1 + max(c[2] for c in calls)
    ref = bench.decode_ref(llrs[:used])
    bad = sum(not np.array_equal(c[3], ref[c[2]]) for c in calls)
    return len(calls), bad


def throughput(bench, calls, decoder):
    """Frames per pace-kernel time at the lower quartile, and raw median frames/s.

    Other tenants slow this shared machine by up to 2x, for seconds to
    minutes at a time.  Dividing each call's time by the pace kernel timed
    next to it cancels most of that, and the quickest quarter of the calls
    is steadier than their median.
    """
    frames = bench.w.frames_per_call
    own = [c for c in calls if c[0] == decoder]
    paced = [c[1] / c[-1] for c in own]
    q1 = statistics.quantiles(paced, n=4, method="inclusive")[0] if len(paced) > 1 else paced[0]
    return frames / q1, frames / statistics.median(c[1] for c in own)


def outputs_digest(bench, calls):
    """SHA-256 of the fast decoder's outputs in input order (first call per input)."""
    h = hashlib.sha256()
    seen = set()
    for c in calls:
        key = c[2] if bench.w.mode == "frame" else 0
        if c[0] == bench.w.fast and key not in seen:
            seen.add(key)
            h.update(c[3].tobytes() if bench.w.mode == "frame" else c[2].encode())
    return h.hexdigest()


def latency_ms(calls, decoder):
    t = sorted(1e3 * c[1] for c in calls if c[0] == decoder)
    q = statistics.quantiles(t, n=10) if len(t) > 1 else t * 9
    return {"p50": statistics.median(t), "p90": q[8], "samples": len(t),
            "beyond_p90": sum(x > q[8] for x in t)}


def install_tracer(tracer):
    def frames(args):
        return len(args[0]) if np.ndim(args[0]) == 2 else 1

    tracer.wrap("sim.classify", ["fastpolar.sim:classify"])
    tracer.wrap("codec.encode", ["fastpolar.sim:encode"])
    tracer.wrap("crc.crc_attach", ["fastpolar.sim:crc_attach"])
    tracer.wrap("crc.crc_check_batch", ["fastpolar.listdec:crc_check_batch"])
    for span, mod, attr in (("codec.sc_decode_batch", "codec", "sc_decode_batch"),
                            ("fastsc.fast_ssc_decode_batch", "fastsc", "fast_ssc_decode_batch"),
                            ("listdec.scl_decode_batch", "listdec", "scl_decode_batch"),
                            ("fastscl.fast_scl_decode_batch", "fastscl",
                             "fast_scl_decode_batch")):
        tracer.wrap(span, [f"fastpolar.sim:{attr}", f"fastpolar.{mod}:{attr}"], frames)
    for step in ("f_step", "g_step"):
        tracer.wrap("codec.fg_step", [f"fastpolar.{m}:{step}"
                                      for m in ("codec", "fastsc", "fastscl", "listdec")])
    for fn in ("wagner_decode", "decode_grep_sc", "decode_gpc_sc"):
        tracer.wrap(f"fastsc.{fn}", [f"fastpolar.fastsc:{fn}"])
    for meth in ("fork", "realign", "bit_histories"):
        tracer.wrap(f"listdec.PathSet.{meth}", [f"fastpolar.listdec:PathSet.{meth}"])
    tracer.wrap("listdec.select_output", ["fastpolar.listdec:select_output",
                                          "fastpolar.fastscl:select_output"])


def layer_metrics(tracer):
    t = SpanTable(tracer.spans, DECODER_SPANS)
    us = 1e6

    def per(x, n):
        return x / n if n else 0.0

    dec_span = {d: s for s, d in DECODER_SPANS.items()}
    frames = {d: t.size(dec_span[d]) for d in DECODERS}
    calls = {d: t.count(dec_span[d]) for d in DECODERS}
    list_frames = frames["scl"] + frames["ssclspc"]
    sim_frames = t.size("sim.run_bler")
    sim_time = t.total("sim.run_bler")
    gen = sim_time - t.total("sim.classify") - sum(t.total(s) for s in DECODER_SPANS)
    m = {
        "sim.gen_us_per_frame": us * per(gen, sim_frames),
        "sim.gen_share": per(gen, sim_time),
        "codec.encode_calls_per_frame": per(t.count("codec.encode"), sim_frames),
        "codec.fg_us_per_frame": us * per(t.total("codec.fg_step"), sum(frames.values())),
        "codec.sc_decode_us_per_frame": us * per(t.total(dec_span["sc"]), frames["sc"]),
        "crc.attach_us_per_frame": us * per(t.total("crc.crc_attach"), sim_frames),
        "crc.check_us_per_frame": us * per(t.total("crc.crc_check_batch"), list_frames),
        "listdec.decode_us_per_frame": us * per(t.total(dec_span["scl"]), frames["scl"]),
    }
    for d in DECODERS:
        m[f"codec.fg_calls_per_decode.{d}"] = per(t.count("codec.fg_step", d), calls[d])
    for d, mod in (("fastssc", "fastsc"), ("ssclspc", "fastscl")):
        m[f"{mod}.decode_us_per_frame"] = us * per(t.total(dec_span[d]), frames[d])
        m[f"{mod}.self_us_per_frame"] = us * per(t.total(dec_span[d], own=True), frames[d])
    for k, fn in (("wagner", "wagner_decode"), ("grep", "decode_grep_sc"),
                  ("gpc", "decode_gpc_sc")):
        span = f"fastsc.{fn}"
        m[f"fastsc.node_us_per_frame.{k}"] = us * per(t.total(span, "fastssc"),
                                                      frames["fastssc"])
        m[f"fastsc.node_calls_per_decode.{k}"] = per(t.count(span, "fastssc"),
                                                     calls["fastssc"])
    for op in ("fork", "realign"):
        for d in ("scl", "ssclspc"):
            m[f"listdec.{op}_calls_per_decode.{d}"] = per(
                t.count(f"listdec.PathSet.{op}", d), calls[d])
    for op, span in (("fork", "listdec.PathSet.fork"), ("realign", "listdec.PathSet.realign"),
                     ("select", "listdec.select_output"),
                     ("bit_histories", "listdec.PathSet.bit_histories")):
        m[f"listdec.{op}_us_per_frame"] = us * per(t.total(span), list_frames)
    return m


def plan_model(bench):
    """The time-step model's view of the fast plan, reported beside measurements."""
    sc = fp.cost_sc(bench.plan)
    stats = fp.plan_stats(bench.plan)
    return {"latency.steps_sc": sc.total_steps,
            "latency.steps_scl": fp.cost_scl(bench.plan).total_steps,
            "latency.split_steps": sc.per_node.get("split", 0),
            **{f"classify.nodes.{k}": stats.get(k, 0) for k in NODE_KINDS}}


def environment(seed):
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fastpolar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed}


def run_workload(w, seed, seconds, trace, out_dir=None):
    """Set up, measure and check one workload; returns (result, report)."""
    pace = Pace(w.batch if w.mode == "bler" else 1, 1 << w.n)
    setups = []
    for _ in range(SETUP_REPS):
        pace.tick(force=True)
        t0 = time.perf_counter()
        setups.append((Bench(w), t0, time.perf_counter()))
    pace.tick(force=True)
    bench = setups[-1][0]
    timing = {k: statistics.median(b.times[k] for b, _, _ in setups) for k in bench.times}
    llrs = bench.frame_pool(seed) if w.mode == "frame" else None

    def loop(secs, tracer=None):
        if w.mode == "bler":
            return loop_bler(bench, seed, secs, pace, tracer)
        return loop_frame(bench, llrs, secs, pace, tracer)

    def check(calls):
        if w.mode == "bler":
            return check_bler(bench, calls)
        return check_frames(bench, llrs, calls)

    report = {"workload": asdict(w) | {"exact": w.exact, "fast": w.fast},
              "env": environment(seed), "setup_reps": SETUP_REPS,
              "model": plan_model(bench)}
    if trace:
        # a third of the time untraced, for the overhead ratio and for
        # checking that tracing leaves every output unchanged
        plain = loop(seconds / 3)
        tracer = Tracer()
        install_tracer(tracer)
        try:
            calls = loop(seconds * 2 / 3, tracer)
        finally:
            tracer.close()
        items, bad = check(plain + calls)
        if w.mode == "bler":
            same = {c[2] for c in plain} == {c[2] for c in calls}
        else:
            first = {(c[0], c[2]): c[3] for c in plain}
            same = all(np.array_equal(c[3], first[c[0], c[2]]) for c in calls
                       if (c[0], c[2]) in first)
        metrics = {**layer_metrics(tracer), **plan_model(bench),
                   "construction.construct_s": timing["construct"],
                   "classify.classify_s": timing["classify"]}
        # f/g updates the fast SC walker makes must equal the model's split
        # steps; skipped when fastssc did not run or f/g is no longer wrapped
        fg = metrics["codec.fg_calls_per_decode.fastssc"]
        model_ok = not fg or fg == metrics["latency.split_steps"]
        items += 2
        bad += (not same) + (not model_ok)
        untraced = statistics.median(c[1] for c in plain)
        traced = statistics.median(c[1] for c in calls)
        report.update(absent=tracer.absent, spans=len(tracer.spans),
                      traced_outputs_identical=same, fg_calls_match_split_steps=model_ok,
                      overhead={"untraced_call_s": untraced, "traced_call_s": traced,
                                "ratio": traced / untraced})
        if out_dir is not None:
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace-{w.name}.json")
        units = PER_LAYER
    else:
        calls = loop(seconds)
        items, bad = check(calls)
        rates = {d: throughput(bench, calls, d) for d in (w.exact, w.fast)}
        # set-up time in pace units, converted back to seconds at the run's
        # median pace, so a slow moment during set-up does not decide it
        paced_setup = statistics.median(b.times["setup"] / pace.around(t0, t1)
                                        for b, t0, t1 in setups)
        metrics = {"setup_s": paced_setup * statistics.median(pace.secs),
                   "frames_per_pace.exact": rates[w.exact][0],
                   "frames_per_pace.fast": rates[w.fast][0]}
        report["fps"] = {d: r[1] for d, r in rates.items()}
        report["setup_raw_s"] = timing["setup"]
        units = END_TO_END
    report["samples"] = {d: sum(c[0] == d for c in calls) for d in (w.exact, w.fast)}
    if w.mode == "bler":
        report["frame_budget"] = {"per_point": w.frames_per_point,
                                  "per_sweep": w.frames_per_call}
    else:
        report["frame_ms"] = {d: latency_ms(calls, d) for d in (w.exact, w.fast)}
    report["outputs_sha256"] = outputs_digest(bench, calls)
    report["pace_ms"] = statistics.median(1e3 * c[-1] for c in calls)
    report["mismatch_frac"] = bad / items
    result = {"correct": bad == 0, "attempted": items, "failed": bad,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return result, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, report = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace,
                                      ROOT / ".bench_out")
        prefix = f"{name}:" if len(names) > 1 else ""
        for k, v in result["metrics"].items():
            print(f"{name} {k} = {v['value']:.6g} {v['unit']}")
        print(f"{name} mismatch_frac = {report['mismatch_frac']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} checked items)")
        for d, fps in report.get("fps", {}).items():
            print(f"{name} fps.{d} = {fps:.6g} frames/s (median call, "
                  f"{report['samples'][d]} calls, pace kernel {report['pace_ms']:.4g} ms)")
        for d, lat in report.get("frame_ms", {}).items():
            print(f"{name} frame_ms.p50.{d} = {lat['p50']:.6g} ms, frame_ms.p90.{d} = "
                  f"{lat['p90']:.6g} ms ({lat['samples']} samples)")
        print(json.dumps({"report": report}, default=float))
        final["correct"] &= result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
