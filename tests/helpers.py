"""Builders and checks that only the tests use, kept out of the package.

Each was a public function of ``cqtsim`` with no caller in the package, its
README or its benchmark; the tests use them as references and as builders of
small states, unchanged.  ``ideal_source_state`` and ``two_mode_spdc`` look up
``emission_orders`` in this module, so a test can swap in another emission
engine with ``monkeypatch.setattr(helpers, "emission_orders", ...)``.
"""

import numpy as np

from cqtsim.fock import H, V, PureState
from cqtsim.spdc import BACKWARD_MODES, FORWARD_MODES, emission_orders


def single_photon(spatial: int, jones: np.ndarray) -> PureState:
    """One photon in the given spatial mode with polarization ket ``jones``."""
    jones = np.asarray(jones, dtype=complex)
    if jones.shape != (2,) or not jones.any():
        raise ValueError(f"jones must be a non-zero 2-vector, got {jones.tolist()!r}")
    return PureState({(((spatial, H), 1),): jones[0], (((spatial, V), 1),): jones[1]})


def validate_density(rho: np.ndarray, herm_tol: float = 1e-12,
                     trace_tol: float = 1e-12, eig_tol: float = 1e-10) -> None:
    """Raise unless ``rho`` is a Hermitian, unit-trace, PSD matrix (up to slack)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density operator must be square")
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError("density operator trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -eig_tol:
        raise ValueError("density operator has a significantly negative eigenvalue")


def ideal_source_state() -> PureState:
    """One photon per mode: entangled forward pair, H-polarized backward pair."""
    fwd = emission_orders("phi_plus", 1, FORWARD_MODES)[1]
    bwd = emission_orders("hh", 1, BACKWARD_MODES)[1]
    return PureState({occ_f + occ_b: amp_f * amp_b for occ_f, amp_f in fwd.items()
                      for occ_b, amp_b in bwd.items()})


def two_mode_spdc(kappa: complex, truncation_order: int = 2,
                  pair: str = "hh", modes: tuple = (1, 2)) -> PureState:
    """Normalized two-mode emission: vacuum + kappa|11> + kappa^2|22> + ..."""
    if truncation_order < 1:
        raise ValueError("truncation_order must be >= 1")
    kappa = complex(kappa)
    levels = emission_orders(pair, truncation_order, modes)
    terms: dict = {}
    for n, level in enumerate(levels):
        for occ, amp in level.items():
            terms[occ] = terms.get(occ, 0.0j) + (kappa ** n) * amp
    return PureState(terms).normalized()
