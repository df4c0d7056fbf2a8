"""Builders and checks that only the tests use, kept out of the package.

Each was a function of ``cqtsim`` with no caller in the package, its README
or its benchmark; the tests use them as references and as builders of small
states and elements, unchanged.  ``compose`` chains elements as substitution
maps: the tests use it as the oracle of ``protocol``'s optics matrix and of
``protocol.prepare_ghz``.  ``reference_ml_kernel`` is
``estimation._ml_kernel`` as it was before it kept each table's state
between steps, copied verbatim with the (n, 2, 2) ``_mul2`` it called: the
bit-for-bit oracle of the kernel, which now holds its states as (2, 2, n)
stacks.
``reference_poisson_tomography`` is ``estimation.poisson_uncertainty`` on a
``ProjectionCounts`` as it was before the observed table joined its resamples
in one kernel run, copied verbatim with ``reference_ml_kernel`` as its kernel
(the count-pair branch is left out): the oracle of
``estimation.resampled_tomography``'s estimate.
``reference_correct_for_background`` is ``estimation.correct_for_background``
as it was before it screened 2x2 states in closed form, copied verbatim: it
diagonalises every matrix.
``reference_undesired_shares`` and ``reference_fit_source_ratio`` are
``spdc._undesired_shares`` and ``spdc.fit_source_ratio`` as they were before
the zoom kept its bracket in Python floats and the shares skipped the
operations that cannot change a bit, copied verbatim: the bit-for-bit oracle
of the fit.
``ideal_source_state`` and ``two_mode_spdc`` look up ``emission_orders`` in
this module, so a test can swap in another emission engine with
``monkeypatch.setattr(helpers, "emission_orders", ...)``.
``outcome_averaged`` is the channel of a receiver without the controller's
outcome, in the expression the teleportation averages' docstring gives.
"""

import math
import warnings
from typing import Callable, Iterable, Sequence

import numpy as np

from cqtsim.elements import OpticalElement, phase_matrix, port_element
from cqtsim.estimation import (ML_MAX_ITERATIONS, ML_TOL, FidelityEstimate, NonPhysicalError,
                               ProjectionCounts, _check_poisson_mean, correct_for_background)
from cqtsim.fock import H, V, PureState, spatial_counts, unit_ket
from cqtsim.spdc import (_GRID_POINTS, _ROOT_COST, BACKWARD_MODES, FORWARD_MODES,
                         RATIO_BOUNDS, REFERENCE_KAPPA, RatioFit, _local_minima,
                         emission_orders, sector_shares)

AXIAL_INPUT_NAMES = ("h", "v", "plus", "minus", "r", "l")


def outcome_averaged(branches) -> np.ndarray:
    """The controller's branches mixed with their probabilities, sum p_b rho_b / sum p_b."""
    total = sum(b.probability for b in branches)
    return sum(b.probability * b.state for b in branches) / total


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


def _mul2(a, b):
    """``a @ b`` for two stacks of 2x2 matrices, on component arrays.

    Entry (i, j) is ``a[:, i, 0] b[:, 0, j] + a[:, i, 1] b[:, 1, j]``: the
    columns of ``a`` times the rows of ``b``, all four entries at once by
    broadcasting.  numpy's stacked ``@`` costs one BLAS call per matrix;
    these three elementwise calls cover the whole stack.
    """
    return a[:, :, :1] * b[:, None, 0, :] + a[:, :, 1:] * b[:, None, 1, :]


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


def reference_poisson_tomography(data, seed: int, n_resamples: int = 10_000,
                                 background_w: float = 0.0,
                                 target=None) -> FidelityEstimate:
    """Poisson-resampled fidelity estimate.

    ``data`` is either a pair of (parallel, orthogonal) counts, in which case
    the downstream quantity is the count-ratio fidelity (optionally corrected
    for the background weight), or a ProjectionCounts whose resamples are
    pushed through the maximum-likelihood reconstruction against ``target``.
    Deterministic for a fixed seed.
    """
    if n_resamples < 100:
        raise ValueError("use at least 100 resamples")
    if seed is None:
        raise ValueError("an explicit seed is required")
    rng = np.random.default_rng(seed)

    if isinstance(data, ProjectionCounts):
        if target is None:
            raise ValueError("tomography resampling needs a target ket")
        target = unit_ket(target, "target")
        means = data.counts()
        if means.sum() <= 0:
            raise ValueError("all counts are zero")
        # every resample shares the projectors, so one check covers them all
        if not data.is_informationally_complete():
            raise ValueError("projector set is not informationally complete")
        _check_poisson_mean(means.max())
        tables = rng.poisson(means, size=(n_resamples, means.size)).astype(float)
        tables = tables[tables.sum(axis=1) > 0]
        rho, _, _, _ = reference_ml_kernel(np.array(data.projectors()), tables,
                                           ML_TOL, ML_MAX_ITERATIONS)
        if background_w:
            rho = correct_for_background(rho, background_w)
        values = np.einsum("i,nij,j->n", target.conj(), rho, target).real
        values = np.clip(values, 0.0, 1.0)

    if values.size == 0:
        raise ValueError("every resample was empty")
    return FidelityEstimate(value=float(np.mean(values)),
                            uncertainty=float(np.std(values)))


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


def reference_undesired_shares(rates: list):
    """The undesired share of each of ``rates`` (``sector_rates`` of one
    configuration each) as one function of log R, R = kappa_b/kappa_f.

    ``shares(log_r)`` returns a (configuration, point) array.  Every element
    comes from the same float operations, in the same order, as
    ``sector_shares(rates[i], REFERENCE_KAPPA, REFERENCE_KAPPA * exp(log_r))``:
    at kappa_f = REFERENCE_KAPPA the forward factor is 1.0, so sector "jjkk"
    contributes rate * x ** 2k, summed from 0 in label order.  A label that a
    configuration lacks contributes 0.0; ``sector_rates`` gives every
    configuration the same labels in the same order.
    """
    labels = list(dict.fromkeys(label for r in rates for label in r))
    coeffs = np.array([[r.get(label, 0.0) for label in labels] for r in rates])
    powers = [2 * int(label[2]) for label in labels]

    def shares(log_r: np.ndarray) -> np.ndarray:
        x = abs(REFERENCE_KAPPA * np.exp(log_r) / REFERENCE_KAPPA)
        # one power call per exponent, with an int exponent: numpy takes
        # x ** 2 as x * x, which an array of exponents would not
        x_to = {p: x ** p for p in set(powers)}
        total = undesired = 0
        for j, (label, p) in enumerate(zip(labels, powers)):
            term = coeffs[:, j, None] * x_to[p]
            total = total + term
            if label != "1111":
                undesired = undesired + term
        if not np.all(total > 0.0):
            raise ValueError("no emission term produces a four-fold coincidence")
        return undesired / total

    return shares


def reference_fit_source_ratio(targets: dict, rates: dict) -> RatioFit:
    """Least-squares fit of kappa_backward/kappa_forward to target undesired shares.

    ``targets`` maps configuration labels to target fractions (0..1);
    ``rates`` maps each of those labels to its ``sector_rates``, so the fit
    propagates nothing itself.  The cost, a rational function of the ratio
    with two basins at some settings, is scanned on a log-spaced grid over
    ``RATIO_BOUNDS``; each evaluation computes the share of every
    configuration as one stacked array, with the same bits as
    ``sector_shares``.  Each grid minimum is refined by zooming: a 21-point
    grid over the bracket of its two neighbours gives the next, down to a
    bracket of 1e-12 in log R.  Other minima whose cost also reaches zero
    (below ``_ROOT_COST``) are reported as ``other_roots``: the targets then
    cannot tell those ratios apart.  ``reachable`` gives, per label, the smallest and largest share
    over the grid and the fitted ratio; a target outside it is one that no
    ratio in ``RATIO_BOUNDS`` reaches.
    """
    labels = list(targets)
    shares = reference_undesired_shares([rates[k] for k in labels])
    goal = np.array([targets[k] for k in labels])[:, None]

    def cost(log_r: np.ndarray) -> np.ndarray:
        return sum((shares(log_r) - goal) ** 2)

    grid = np.linspace(math.log(RATIO_BOUNDS[0]), math.log(RATIO_BOUNDS[1]), _GRID_POINTS)
    grid_shares = shares(grid)
    costs = sum((grid_shares - goal) ** 2)
    best = int(np.argmin(costs))
    # a degenerate target set (shares insensitive to the ratio) leaves the
    # minimizer free: detect a flat cost and flag the fit as unconstrained
    constrained = bool(costs.max() - costs.min() > 1e-18)

    def refine(i: int) -> tuple:
        xs, zoom = grid, costs
        while True:
            lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
            if hi - lo <= 1e-12:
                return float(xs[i]), float(zoom[i])
            xs = np.linspace(lo, hi, 21)
            zoom = cost(xs)
            i = int(np.argmin(zoom))

    ratio = math.exp(refine(best)[0])
    others = [refine(i) for i in _local_minima(costs) if i != best] if constrained else []
    achieved = {k: sector_shares(rates[k], REFERENCE_KAPPA, REFERENCE_KAPPA * ratio)["undesired"]
                for k in labels}
    residuals = {k: achieved[k] - targets[k] for k in labels}
    return RatioFit(
        ratio=ratio,
        achieved=achieved,
        residuals=residuals,
        sum_squared_residual=float(sum(r ** 2 for r in residuals.values())),
        converged=True,
        constrained=constrained,
        other_roots=tuple(math.exp(x) for x, c in others if c < _ROOT_COST),
        reachable={k: (min(float(row.min()), achieved[k]), max(float(row.max()), achieved[k]))
                   for k, row in zip(labels, grid_shares)},
    )
