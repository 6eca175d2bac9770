import subprocess
import sys
from pathlib import Path


def test_every_traced_name_is_callable(perfbench_tracer):
    # perfbench/tracer.py wraps these functions by name; one renamed or
    # deleted here would silently drop out of every traced benchmark run
    tracer = perfbench_tracer.Tracer().install()
    tracer.uninstall()
    assert tracer.absent == []


def test_benchmark_selftest_passes():
    # the only check that the traced spans of Graph.forward/backward and the
    # rest still sum to each stage's wall time, on tiny versions of the workloads
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
