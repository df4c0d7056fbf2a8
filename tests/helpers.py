"""Builders and checks that only the tests use, kept out of the package.

Each was a function of ``cqtsim`` with no caller in the package, its README
or its benchmark; the tests use them as references and as builders of small
states and elements, unchanged.  ``compose`` chains elements as substitution
maps: the tests use it as the oracle of ``protocol``'s optics matrix and of
``protocol.prepare_ghz``.  ``reference_ml_kernel`` is
``estimation._ml_kernel`` as it was before it kept each table's state
between steps, copied verbatim: the bit-for-bit oracle of the kernel.
``reference_correct_for_background`` is ``estimation.correct_for_background``
as it was before it screened 2x2 states in closed form, copied verbatim: it
diagonalises every matrix.
``ideal_source_state`` and ``two_mode_spdc`` look up ``emission_orders`` in
this module, so a test can swap in another emission engine with
``monkeypatch.setattr(helpers, "emission_orders", ...)``.
"""

import math
import warnings
from typing import Callable, Iterable, Sequence

import numpy as np

from cqtsim.elements import OpticalElement, phase_matrix, port_element
from cqtsim.estimation import NonPhysicalError, _mul2
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


def reference_ml_kernel(projectors: np.ndarray, tables: np.ndarray, tol: float,
               max_iterations: int, keep_trace: bool = False):
    """Diluted R rho R iteration on a stack of count tables.

    ``projectors`` (m, 2, 2) are shared by every table, ``tables`` (n, m)
    holds the counts.  Each table runs the fixed-point update of Rehacek,
    Hradil, Knill and Lvovsky (PRA 75, 042108): a full step is tried first
    and its weight ``alpha`` halved, down to 1e-6, until the likelihood does
    not fall by more than 1e-15.  A table stops when no step is accepted or
    when the log-likelihood changes by less than ``tol * max(1, |L|)``; it
    drops out of the arrays then, so a slow table costs only its own work.

    Returns ``(rho (n, 2, 2), converged (n,), iterations (n,), traces)``;
    ``traces`` holds each table's log-likelihood after every accepted step
    when ``keep_trace`` is set, else None.
    """
    n, m = tables.shape
    nonzero = tables > 0
    totals = tables.sum(axis=1)
    eye = np.eye(2, dtype=complex)
    # tr(p rho) = sum_ij p_ji rho_ij: one (k, 4) @ (4, m) product against the
    # transposed, flattened projectors gives every probability of every table
    columns = np.ascontiguousarray(projectors.transpose(0, 2, 1).reshape(m, 4).T)
    flat = projectors.reshape(m, 4)

    def probabilities(rho, idx):
        # counts, the usable mask and the projector probabilities per table
        probs = (rho.reshape(-1, 4) @ columns).real
        counts = tables[idx]
        usable = nonzero[idx] & (probs > 1e-300)
        return counts, usable, probs

    def loglik(rho, idx):
        counts, usable, probs = probabilities(rho, idx)
        terms = np.where(usable, counts * np.log(np.where(usable, probs, 1.0)), 0.0)
        out = terms.sum(axis=1)
        out[(nonzero[idx] & ~usable).any(axis=1)] = -math.inf
        return out

    rho_all = np.broadcast_to(eye / 2.0, (n, 2, 2)).copy()
    ll_all = loglik(rho_all, np.arange(n))
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    traces = [[float(v)] for v in ll_all] if keep_trace else None
    active = np.arange(n)
    for iteration in range(1, max_iterations + 1):
        if active.size == 0:
            break
        iterations[active] = iteration
        rho, ll = rho_all[active], ll_all[active]
        counts, usable, probs = probabilities(rho, active)
        weights = np.where(usable, counts / np.where(usable, probs, 1.0), 0.0)
        r = (weights @ flat).reshape(-1, 2, 2) / totals[active, None, None]

        alpha = np.ones(active.size)
        new_rho = np.empty_like(rho)
        new_ll = np.full(active.size, -math.inf)
        accepted = np.zeros(active.size, dtype=bool)
        pending = np.arange(active.size)
        while pending.size:
            a = alpha[pending, None, None]
            step = (1 - a) * eye + a * r[pending]
            cand = _mul2(_mul2(step, rho[pending]), step.conj().transpose(0, 2, 1))
            cand = 0.5 * (cand + cand.conj().transpose(0, 2, 1))
            cand /= np.trace(cand, axis1=1, axis2=2).real[:, None, None]
            cand_ll = loglik(cand, active[pending])
            ok = cand_ll >= ll[pending] - 1e-15
            new_rho[pending[ok]] = cand[ok]
            new_ll[pending[ok]] = cand_ll[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            alpha[pending] /= 2.0
            pending = pending[alpha[pending] > 1e-6]

        # a table with no acceptable step stops where it is, unconverged
        delta = np.abs(new_ll - ll)
        ll = np.maximum(new_ll, ll)
        done = accepted & (delta < tol * np.maximum(1.0, np.abs(ll)))
        moved = active[accepted]
        rho_all[moved] = new_rho[accepted]
        ll_all[moved] = ll[accepted]
        converged[active[done]] = True
        if keep_trace:
            for i, v in zip(moved, ll[accepted]):
                traces[i].append(float(v))
        active = active[accepted & ~done]
    return rho_all, converged, iterations, traces


def reference_correct_for_background(raw: np.ndarray, w: float) -> np.ndarray:
    """Subtract a maximally mixed admixture of weight ``w`` and renormalize.

    ``raw`` is one density matrix or a stack of them, shape (..., d, d).
    Noisy inputs can push the difference slightly outside the physical cone:
    small negative eigenvalues are clipped to zero (with a warning) in the
    matrices that have them; an eigenvalue below -1e-3 in any matrix raises
    NonPhysicalError, which counts the matrices that have one.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError("background weight must lie in [0, 1)")
    raw = np.asarray(raw, dtype=complex)
    dim = raw.shape[-1]
    out = (raw - w * np.eye(dim) / dim) / (1.0 - w)
    out = 0.5 * (out + np.swapaxes(out.conj(), -1, -2))
    eigvals, eigvecs = np.linalg.eigh(out)
    lowest = eigvals[..., 0]
    severe = lowest < -1e-3
    if np.any(severe):
        raise NonPhysicalError(int(np.sum(severe)), lowest.size, float(np.min(lowest)))
    if np.any(lowest < -1e-9):
        warnings.warn("background subtraction left slightly negative "
                      "eigenvalues; clipping to the physical cone")
    clip = lowest < 0
    if np.any(clip):
        vals = np.clip(eigvals[clip], 0.0, None)
        vecs = eigvecs[clip]
        fixed = (vecs * vals[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
        fixed /= np.trace(fixed, axis1=-2, axis2=-1).real[..., None, None]
        out[clip] = fixed
    return out
