"""The public names that other code reaches: the package's __all__, and the
functions the benchmark's span tracer (benchmark/tracer.py) wraps by name."""

import importlib
import importlib.util
from pathlib import Path

import cycloclass

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_export_resolves():
    for name in cycloclass.__all__:
        assert hasattr(cycloclass, name), name


def test_tracer_spans_name_existing_functions():
    tracer = _tracer()
    wrapped = {}
    for span, module, attrs in tracer.SPANS:
        mod = importlib.import_module(f"cycloclass.{module}")
        for attr in attrs:
            assert callable(getattr(mod, attr, None)), f"{span}: cycloclass.{module}.{attr}"
        wrapped[span] = getattr(mod, attrs[0])
    for span in tracer.CACHED:
        assert callable(wrapped[span].cache_info), span
