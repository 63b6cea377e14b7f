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


def test_every_tracer_target_resolves_on_its_own():
    # Tracer.wrap lists a span as absent only when all of its targets are
    # gone, so a moved PathSet.fork, realign or entry point would hide
    # behind another target of its span; each target is wrapped alone here
    script = ("import json, run\n"
              "class Recorder:\n"
              "    targets = []\n"
              "    def wrap(self, name, targets, size=None):\n"
              "        self.targets += targets\n"
              "rec = Recorder()\n"
              "run.install_tracer(rec)\n"
              "tracer = run.Tracer()\n"
              "for target in rec.targets:\n"
              "    tracer.wrap(target, [target])\n"
              "tracer.close()\n"
              "print(json.dumps([rec.targets, tracer.absent]))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=BENCH, capture_output=True,
                         text=True, check=True, timeout=120)
    targets, absent = json.loads(out.stdout.splitlines()[-1])
    assert "fastpolar.listdec:PathSet.fork" in targets and len(targets) > 20
    # fastscl forms no f/g step since the SCL walker moved to listdec, and
    # bit_histories is the benchmark's stale wrap (ROADMAP item 1)
    assert absent == ["fastpolar.fastscl:f_step", "fastpolar.fastscl:g_step",
                      "fastpolar.listdec:PathSet.bit_histories"]
