"""The benchmark's tracer must find every function it names in qschur."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
