import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

# the span names each one-frame entry point must record under the benchmark's
# tracer: its own decoder's batch span, the f/g steps, the path-set ops for
# the list decoders and the fast SC node kernels for fastssc
LIST_OPS = {"listdec.PathSet.fork", "listdec.PathSet.realign"}
EXPECTED = {
    "sc": {"codec.sc_decode_batch", "codec.fg_step"},
    "fastssc": {"fastsc.fast_ssc_decode_batch", "codec.fg_step", "fastsc.wagner_decode",
                "fastsc.decode_grep_sc", "fastsc.decode_gpc_sc"},
    "scl": {"listdec.scl_decode_batch", "codec.fg_step", *LIST_OPS},
    "ssclspc": {"fastscl.fast_scl_decode_batch", "codec.fg_step", *LIST_OPS},
}


def test_frame_entry_points_record_their_spans():
    # The tracer wraps module attributes, so a single-frame entry point that
    # stops reaching its batch form through the wrapped global loses its
    # spans without any name going absent.  A subprocess, as in
    # test_bench_tracer, because the benchmark pins the BLAS thread counts.
    script = (
        "import json, run\n"
        "import numpy as np\n"
        "fp = run.fp\n"
        "code = fp.construct_code(6, 32, 0.5)\n"
        "plan = fp.classify(code, run.FAST_OPTIONS)  # holds G-Rep, G-PC and SPC nodes\n"
        "llrs = np.random.default_rng(1).normal(1.0, 1.0, code.N)\n"
        "calls = {'sc': lambda: fp.sc_decode(llrs, code),\n"
        "         'fastssc': lambda: fp.fast_ssc_decode(llrs, plan),\n"
        "         'scl': lambda: fp.scl_decode(llrs, code, 4, fp.CRC8),\n"
        "         'ssclspc': lambda: fp.fast_scl_decode(llrs, code, plan, 4, fp.CRC8)}\n"
        "tracer = run.Tracer()\n"
        "run.install_tracer(tracer)\n"
        "names = {}\n"
        "for decoder, call in calls.items():\n"
        "    start = len(tracer.spans)\n"
        "    call()\n"
        "    names[decoder] = sorted({span[0] for span in tracer.spans[start:]})\n"
        "tracer.close()\n"
        "print(json.dumps(names))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=BENCH, capture_output=True,
                         text=True, check=True, timeout=120)
    names = {d: set(v) for d, v in json.loads(out.stdout.splitlines()[-1]).items()}
    batch_spans = {span for spans in EXPECTED.values() for span in spans
                   if span.endswith("_decode_batch")}
    for decoder, expected in EXPECTED.items():
        assert expected <= names[decoder], (decoder, sorted(expected - names[decoder]))
        assert names[decoder] & batch_spans == expected & batch_spans, decoder
