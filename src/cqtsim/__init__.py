"""Linear-optical simulation of controlled quantum teleportation.

Builds the four-photon experiment from the emission source up: Fock-level
states, optical elements as local matrices applied to them, the GHZ
preparation and singlet projection, the controller's allow/deny measurement,
qubit-level channel analysis (GHZ mixtures and noisy channels), and the
statistical layer (count-ratio fidelities, maximum-likelihood tomography,
background subtraction, Poisson uncertainties).
"""

from .channels import (ConditionalChannel, avg_teleport_fidelity, condition_on_controller,
                       make_ghz_mixture, make_werner, teleport_fidelity, werner_scan)
from .elements import apply
from .estimation import (FidelityEstimate, MLResult, ProjectionCounts,
                         corrected_fidelity, correct_for_background,
                         fidelity_from_counts, ml_reconstruct,
                         poisson_uncertainty, read_counts_csv, resampled_tomography)
from .fock import H, V, PureState, fidelity, project, tensor, to_qubit_density
from .protocol import (CountRecord, InputQubit, ProtocolConfig, ProtocolError,
                       analyzer_frame, count_rates, emulate_mixture, prepare_ghz,
                       run_protocol, singlet_projection)
from .spdc import SourceParams, fit_source_ratio, four_mode_source, heralded_fraction

__version__ = "0.1.0"
