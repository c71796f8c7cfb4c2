"""The benchmark's tracer must find every function it names in qschur, and
its self-test must pass against the library as it stands."""

import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target():
    from qschur import kernels

    spans = load_spans()
    original = kernels.gram
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert kernels.gram is not original
    finally:
        tracer.uninstall()
    assert kernels.gram is original


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
