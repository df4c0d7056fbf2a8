"""Per-layer timing of cqtsim from outside the program.

Every public function defined in a cqtsim module is replaced by a timing
wrapper in every module namespace that binds it.  The package binds names
with ``from .x import y``, so ``occupation`` is looked up in fock, elements,
spdc and protocol, and ``run_protocol`` in protocol and cli; a wrapper in the
defining module alone would miss those calls.  Lazy imports inside function
bodies (``from .protocol import per_term_fourfold``) read the replaced
attribute at call time and are caught too.

A wrapper's self time is its duration minus the durations of the wrapped
calls nested inside it.  A few wrappers also count work: terms into and out
of ``elements.apply``, terms offered to and kept by ``fock.project``, and ML
iterations from the returned ``MLResult``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("fock", "elements", "spdc", "protocol", "channels", "estimation", "cli")

_CLI = ("cli.main.self_ms",)
_PROTOCOL = ("protocol.run_protocol.calls", "protocol.run_protocol.self_ms",
             "protocol.analyzer_frame.calls")
_ELEMENTS = ("elements.apply.calls", "elements.apply.self_ms",
             "elements.apply.terms_in", "elements.apply.terms_out")
_FOCK = ("fock.occupation.calls", "fock.project.calls", "fock.project.ms",
         "fock.project.kept_share", "fock.to_qubit_density.ms")
_ESTIMATION = ("estimation.poisson_uncertainty.ms", "estimation.ml_reconstruct.calls",
               "estimation.ml_reconstruct.ms", "estimation.ml_reconstruct.iterations")
_CHANNELS = ("channels.werner_scan.ms", "channels.werner_point.calls",
             "channels.mc_avg_teleport_fidelity.ms", "channels.partial_trace.calls")
# The layers each workload exercises; a layer a workload bypasses would read 0.
LAYER_METRICS = {
    "protocol_grid": _CLI + _PROTOCOL
    + ("spdc.four_mode_source.ms", "spdc.coincidence_sectors.ms")
    + _ELEMENTS + _FOCK + ("estimation.poisson_uncertainty.ms",),
    "ratio_fit": _CLI + _PROTOCOL
    + ("spdc.fit_source_ratio.ms", "spdc.heralded_fraction.calls",
       "spdc.four_mode_source.ms", "spdc.coincidence_sectors.ms")
    + _ELEMENTS + _FOCK,
    "qubit_analysis": _CLI + _ESTIMATION + _CHANNELS,
}


def _apply_counts(args, result, counts):
    counts["elements.apply.terms_in"] += len(args[1].terms)
    counts["elements.apply.terms_out"] += len(result.terms)


def _project_counts(args, result, counts):
    counts["fock.project.offered"] += len(args[0].terms)
    counts["fock.project.kept"] += 0 if result[0] is None else len(result[0].terms)


def _ml_counts(args, result, counts):
    counts["estimation.ml_reconstruct.iterations"] += result.iterations


COUNTERS = {"elements.apply": _apply_counts, "fock.project": _project_counts,
            "estimation.ml_reconstruct": _ml_counts}
COUNT_KEYS = ("elements.apply.terms_in", "elements.apply.terms_out", "fock.project.offered",
              "fock.project.kept", "estimation.ml_reconstruct.iterations")


class Tracer:
    """Wrappers installed over the cqtsim modules; ``remove`` puts them back."""

    def __init__(self):
        self.calls: dict = {}
        self.total_s: dict = {}
        self.self_s: dict = {}
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s
        counter = COUNTERS.get(name)
        counts = self.counts
        calls[name] = total_s[name] = self_s[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - nested
            if counter is not None:
                counter(args, result, counts)
            return result

        return wrapper

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"cqtsim.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        namespaces = list(modules.values()) + [importlib.import_module("cqtsim")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def remove(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def metric(self, name: str) -> float:
        """Raw total of ``<layer>.<function>.<stat>`` over everything traced."""
        fn, stat = name.rsplit(".", 1)
        if stat == "calls":
            return self.calls[fn]
        if stat == "ms":
            return 1e3 * self.total_s[fn]
        if stat == "self_ms":
            return 1e3 * self.self_s[fn]
        if stat == "kept_share":
            return self.counts[f"{fn}.kept"] / max(self.counts[f"{fn}.offered"], 1)
        return self.counts[name]
