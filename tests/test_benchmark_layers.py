"""The benchmark's traced run can find every layer function it reports.

``cqtbench/tracer.py`` wraps the public plain functions of the cqtsim modules
and reads its per-layer metrics by ``<layer>.<function>`` name, so a renamed
function, or one wrapped in ``functools.cache``, breaks the traced run with a
``KeyError``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "cqtbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("cqtbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_metrics_name_public_plain_functions():
    names = {metric.rsplit(".", 1)[0]
             for metrics in load_tracer().LAYER_METRICS.values() for metric in metrics}
    assert names
    for name in sorted(names):
        layer, function = name.split(".")
        module = importlib.import_module(f"cqtsim.{layer}")
        value = getattr(module, function, None)
        assert not function.startswith("_"), name
        assert inspect.isfunction(value), name
        assert value.__module__ == module.__name__, name
