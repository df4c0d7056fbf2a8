"""Linear-optical simulation of controlled quantum teleportation.

Builds the four-photon experiment from the emission source up: Fock-level
states, optical elements as local matrices applied to them, the GHZ
preparation and singlet projection, the controller's allow/deny measurement,
qubit-level channel analysis (GHZ mixtures and noisy channels), and the
statistical layer (count-ratio fidelities, maximum-likelihood tomography,
background subtraction, Poisson uncertainties).  Each name below is read
from its module when used (PEP 562): ``import cqtsim`` loads no module.
"""

import importlib

_EXPORTS = {
    "channels": ("ConditionalChannel", "avg_teleport_fidelity", "condition_on_controller",
                 "make_ghz_mixture", "make_werner", "teleport_fidelity", "werner_scan"),
    "elements": ("apply",),
    "estimation": ("FidelityEstimate", "MLResult", "ProjectionCounts", "corrected_fidelity",
                   "correct_for_background", "fidelity_from_counts", "ml_reconstruct",
                   "poisson_uncertainty", "read_counts_csv", "resampled_tomography"),
    "fock": ("H", "V", "PureState", "fidelity", "project", "tensor", "to_qubit_density"),
    "protocol": ("CountRecord", "InputQubit", "ProtocolConfig", "ProtocolError",
                 "analyzer_frame", "count_rates", "emulate_mixture", "prepare_ghz",
                 "run_protocol", "singlet_projection"),
    "spdc": ("SourceParams", "fit_source_ratio", "four_mode_source", "heralded_fraction"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
