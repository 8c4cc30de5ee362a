"""The benchmark's tracer finds every layer it wraps.

``perfbench/tracer.py`` wraps the solver's functions by module and name and
reports a layer it cannot find as absent, which the benchmark prints as a
null metric.  Removing or renaming a traced function therefore fails here,
not in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_traced_layer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # built but never installed, so no function of the package is patched
    assert tracer.Tracer().absent == []
