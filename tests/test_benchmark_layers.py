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


def test_counters_read_the_arguments_and_results_they_name():
    # the tracer's counters read elements.apply's state as its second
    # positional argument, fock.project's as its first and the iterations off
    # ml_reconstruct's result; each reads above 0 on a call that does work
    from cqtsim import elements, estimation, fock

    tracer = load_tracer().Tracer().install()
    try:
        out = elements.apply(((1,), elements.hwp_matrix(0.3)),
                             fock.basis_state({(1, fock.H): 1}))
        fock.project(out, lambda occ: True)
        estimation.ml_reconstruct(estimation.axial_counts(
            dict(h=60, v=40, plus=70, minus=30, r=55, l=45)))
    finally:
        tracer.remove()
    for name in ("elements.apply.terms_in", "elements.apply.terms_out",
                 "fock.project.offered", "estimation.ml_reconstruct.iterations"):
        assert tracer.metric(name) > 0, name
