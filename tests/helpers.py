"""Builders and checks that only the tests use, kept out of the package.

Each was a function of ``cqtsim`` with no caller in the package, its README
or its benchmark; the tests use them as references and as builders of small
states and elements, unchanged.  ``compose`` chains elements as substitution
maps: the tests use it as the oracle of ``protocol``'s optics matrix and of
``protocol.prepare_ghz``.
``ideal_source_state`` and ``two_mode_spdc`` look up ``emission_orders`` in
this module, so a test can swap in another emission engine with
``monkeypatch.setattr(helpers, "emission_orders", ...)``.
"""

from typing import Callable, Iterable, Sequence

import numpy as np

from cqtsim.elements import OpticalElement, phase_matrix, port_element
from cqtsim.fock import H, V, PureState, spatial_counts
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


def compose(elements: Sequence[OpticalElement]) -> OpticalElement:
    """One substitution map equal to applying ``elements`` in order.

    Exact zeros are dropped: a mode that every path absorbs maps to nothing.
    """
    mapping: dict = {}
    for el in elements:
        for m, outs in mapping.items():
            chained: dict = {}
            for k, u in outs.items():
                for j, w in el.mapping.get(k, {k: 1.0}).items():
                    chained[j] = chained.get(j, 0.0j) + u * w
            mapping[m] = chained
        for m, outs in el.mapping.items():
            mapping.setdefault(m, dict(outs))
    mapping = {m: {k: u for k, u in outs.items() if u != 0} for m, outs in mapping.items()}
    return OpticalElement(mapping)


def block_elements(blocks) -> list:
    """The blocks as sparse substitution elements, in the same order."""
    return [port_element(spatials, matrix) for spatials, matrix in blocks]


def clicks_at(spatials: Iterable[int]) -> Callable[[tuple], bool]:
    """Predicate: every listed spatial mode holds at least one photon (threshold click)."""
    spatials = tuple(spatials)

    def pred(occ: tuple) -> bool:
        counts = spatial_counts(occ)
        return all(counts.get(s, 0) >= 1 for s in spatials)

    return pred


def phase_on(phi: float, pol: str) -> np.ndarray:
    """A phase plate that multiplies the ``pol`` component by exp(i*phi):
    ``phase_matrix`` for V, the same plate with H and V swapped for H."""
    return phase_matrix(phi) if pol == V else phase_matrix(phi)[::-1, ::-1]
