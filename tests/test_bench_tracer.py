import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def test_benchmark_tracer_targets_resolve():
    # a subprocess, because importing the benchmark pins OMP_NUM_THREADS and
    # the BLAS thread counts for its whole process
    script = ("import json, run\n"
              "tracer = run.Tracer()\n"
              "run.install_tracer(tracer)\n"
              "tracer.close()\n"
              "print(json.dumps(tracer.absent))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=BENCH, capture_output=True,
                         text=True, check=True, timeout=120)
    # PathSet.bit_histories was deleted from the library long ago; that name
    # is the benchmark's own stale wrap (ROADMAP item 1), so it is the one
    # target allowed to be absent.  Any other absent name would read 0 in
    # the per-layer metrics without failing a run.
    assert json.loads(out.stdout.splitlines()[-1]) == ["listdec.PathSet.bit_histories"]
