"""Statistical layer: count-ratio fidelities, single-qubit maximum-likelihood
tomography, the mixed-state background subtraction and Poisson-resampled
uncertainties.

The background correction implements the subtraction procedure used for the
higher-order emission terms: the receiver's raw density matrix is assumed to
contain a maximally mixed admixture of weight ``w``; removing it and
renormalizing acts on fidelities as F -> (F - w/2) / (1 - w).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import NAMED_KETS, unit_pair


@dataclass
class ProjectionCounts:
    """Measured counts behind a set of polarization projectors."""

    settings: list                      # [(jones ket (2,), count >= 0), ...]

    def __post_init__(self):
        cleaned = []
        for ket, count in self.settings:
            ket = np.asarray(ket, dtype=complex).ravel()
            if ket.shape != (2,):
                raise ValueError("projector kets must be single-qubit")
            count = float(count)
            if not math.isfinite(count):
                raise ValueError(f"counts must be finite, got {count!r}")
            if count < 0:
                raise ValueError("counts must be non-negative")
            cleaned.append((np.array(unit_pair(*ket, "projector")), count))
        # the ML iteration works with the total count, which must stay finite
        if not math.isfinite(sum(c for _, c in cleaned)):
            raise ValueError("counts must sum to a finite number")
        self.settings = cleaned

    def projectors(self) -> list:
        return [np.outer(k, k.conj()) for k, _ in self.settings]

    def counts(self) -> np.ndarray:
        return np.array([c for _, c in self.settings])

    def is_informationally_complete(self) -> bool:
        # projectors must span the 4-dimensional operator space
        vecs = [p.ravel() for p in self.projectors()]
        return np.linalg.matrix_rank(np.array(vecs), tol=1e-10) >= 4


def axial_counts(counts_by_name: dict) -> ProjectionCounts:
    """Counts over the six axial settings, keyed h/v/plus/minus/r/l."""
    settings = [(NAMED_KETS[name], counts_by_name[name]) for name in counts_by_name]
    return ProjectionCounts(settings)


@dataclass
class FidelityEstimate:
    value: float
    uncertainty: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("fidelity outside [0, 1]")
        if self.uncertainty < 0.0:
            raise ValueError("negative uncertainty")


def fidelity_from_counts(f_parallel: float, f_perp: float) -> float:
    """Fidelity as the parallel share of parallel-plus-orthogonal rates."""
    if f_parallel < 0 or f_perp < 0:
        raise ValueError("rates must be non-negative")
    total = f_parallel + f_perp
    if total <= 0:
        raise ValueError("both rates vanish")
    return f_parallel / total


# --- maximum-likelihood reconstruction ----------------------------------------

ML_TOL = 1e-10
ML_MAX_ITERATIONS = 100_000
# a table whose largest count exceeds this is beyond any measurement; it is
# divided by that count so that counts over probabilities stay finite
ML_RESCALE_ABOVE = 1e150


@dataclass
class MLResult:
    rho: np.ndarray
    converged: bool
    iterations: int
    log_likelihoods: list = field(repr=False, default_factory=list)


def _log_likelihood(rho, projectors, counts) -> float:
    out = 0.0
    for p, n in zip(projectors, counts):
        if n == 0:
            continue
        prob = float(np.real(np.trace(p @ rho)))
        if prob <= 1e-300:
            return -math.inf
        out += n * math.log(prob)
    return out


def _mul2(a, b):
    """``a @ b`` for two stacks of 2x2 matrices, on component arrays.

    Entry (i, j) is ``a[:, i, 0] b[:, 0, j] + a[:, i, 1] b[:, 1, j]``: the
    columns of ``a`` times the rows of ``b``, all four entries at once by
    broadcasting.  numpy's stacked ``@`` costs one BLAS call per matrix;
    these three elementwise calls cover the whole stack.
    """
    return a[:, :, :1] * b[:, None, 0, :] + a[:, :, 1:] * b[:, None, 1, :]


def _ml_kernel(projectors: np.ndarray, tables: np.ndarray, tol: float,
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


def ml_reconstruct(counts: ProjectionCounts, tol: float = ML_TOL,
                   max_iterations: int = ML_MAX_ITERATIONS) -> MLResult:
    """Iterative fixed-point maximum-likelihood estimate of a qubit state.

    Runs the R rho R update, falling back to diluted steps whenever a full
    step would lower the likelihood, so the likelihood trace is monotone by
    construction.  Stops when the relative log-likelihood change drops below
    ``tol``; non-convergence is flagged on the result, never raised.  A table
    with a count above ``ML_RESCALE_ABOVE`` is iterated, and its likelihoods
    reported, divided by its largest count.
    """
    if not counts.is_informationally_complete():
        raise ValueError("projector set is not informationally complete")
    ns = counts.counts()
    if np.sum(ns) <= 0:
        raise ValueError("all counts are zero")
    if ns.max() > ML_RESCALE_ABOVE:
        ns = ns / ns.max()
    rho, converged, iterations, traces = _ml_kernel(
        np.array(counts.projectors()), ns[None, :], tol, max_iterations,
        keep_trace=True)
    return MLResult(rho=rho[0], converged=bool(converged[0]),
                    iterations=int(iterations[0]), log_likelihoods=traces[0])


def ml_oracle_bloch_search(counts: ProjectionCounts) -> np.ndarray:
    """Likelihood maximization over the Bloch ball (reference; needs the ``dev`` extra)."""
    from scipy import optimize

    projectors = counts.projectors()
    ns = counts.counts()
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]

    def rho_of(r):
        out = np.eye(2, dtype=complex) / 2
        for ri, p in zip(r, paulis):
            out = out + 0.5 * ri * p.astype(complex)
        return out

    def negloglik(r):
        if np.dot(r, r) > 1.0:
            r = r / math.sqrt(np.dot(r, r))
        return -_log_likelihood(rho_of(r), projectors, ns)

    best = None
    starts = [np.zeros(3)] + [0.7 * np.eye(3)[i] * s for i in range(3) for s in (1, -1)]
    for x0 in starts:
        res = optimize.minimize(
            negloglik, x0, method="SLSQP",
            constraints=[{"type": "ineq", "fun": lambda r: 1.0 - np.dot(r, r)}],
            options={"maxiter": 2000, "ftol": 1e-14})
        if best is None or res.fun < best.fun:
            best = res
    r = best.x
    if np.dot(r, r) > 1.0:
        r = r / math.sqrt(np.dot(r, r))
    return rho_of(r)


# --- background subtraction ------------------------------------------------------

def corrected_fidelity(f_raw: float, w: float) -> float:
    """Fidelity after removing a maximally mixed admixture of weight ``w``."""
    if not 0.0 <= w < 1.0:
        raise ValueError("background weight must lie in [0, 1)")
    return (f_raw - w / 2.0) / (1.0 - w)


class NonPhysicalError(ValueError):
    """Background subtraction left states far outside the physical cone."""

    def __init__(self, n_bad: int, n_states: int, min_eigenvalue: float):
        self.n_bad, self.n_states, self.min_eigenvalue = n_bad, n_states, min_eigenvalue
        where = f" in {n_bad} of {n_states} states" if n_states > 1 else ""
        super().__init__(f"background subtraction produced a severely non-physical "
                         f"state{where} (min eigenvalue {min_eigenvalue:.2e})")


def correct_for_background(raw: np.ndarray, w: float) -> np.ndarray:
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


# --- Poisson resampling --------------------------------------------------------------

# The largest mean numpy's Generator.poisson accepts (its POISSON_LAM_MAX);
# a larger one raises "lam value too large".
POISSON_MAX_MEAN = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


def _check_poisson_mean(largest: float) -> None:
    if largest > POISSON_MAX_MEAN:
        raise ValueError(f"a count of {largest:.4g} is too large to resample: numpy's "
                         f"Poisson sampler accepts means up to {POISSON_MAX_MEAN:.4g}")


def poisson_uncertainty(data, seed: int, n_resamples: int = 10_000,
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
        target = np.asarray(target, dtype=complex).ravel()
        means = data.counts()
        if means.sum() <= 0:
            raise ValueError("all counts are zero")
        # every resample shares the projectors, so one check covers them all
        if not data.is_informationally_complete():
            raise ValueError("projector set is not informationally complete")
        _check_poisson_mean(means.max())
        tables = rng.poisson(means, size=(n_resamples, means.size)).astype(float)
        tables = tables[tables.sum(axis=1) > 0]
        rho, _, _, _ = _ml_kernel(np.array(data.projectors()), tables,
                                  ML_TOL, ML_MAX_ITERATIONS)
        if background_w:
            rho = correct_for_background(rho, background_w)
        values = np.einsum("i,nij,j->n", target.conj(), rho, target).real
        values = np.clip(values, 0.0, 1.0)
    else:
        f_par, f_perp = data
        if f_par + f_perp <= 0:
            raise ValueError("all counts are zero")
        _check_poisson_mean(max(f_par, f_perp))
        draws = rng.poisson((f_par, f_perp), size=(n_resamples, 2))
        # exact integer totals; only a run with empty resamples needs a mask
        totals = draws[:, 0] + draws[:, 1]
        if totals.all():
            values = draws[:, 0] / totals
        else:
            keep = totals > 0
            values = draws[keep, 0] / totals[keep]
        if background_w:
            values = (values - background_w / 2.0) / (1.0 - background_w)
        values = np.clip(values, 0.0, 1.0)

    if values.size == 0:
        raise ValueError("every resample was empty")
    return FidelityEstimate(value=float(np.mean(values)),
                            uncertainty=float(np.std(values)))


# --- CSV interfaces --------------------------------------------------------------------

def parse_projector(spec: str) -> np.ndarray:
    """Projector column format: a named state or 'alpha;beta' complex pair."""
    spec = spec.strip()
    if spec.lower() in NAMED_KETS:
        return NAMED_KETS[spec.lower()]
    parts = spec.split(";")
    if len(parts) != 2:
        raise ValueError(f"cannot parse projector spec {spec!r}")
    return np.array(unit_pair(complex(parts[0]), complex(parts[1]), "projector"))


def read_counts_csv(path) -> ProjectionCounts:
    """Counts table: columns ``label, projector, count`` with a header row."""
    settings = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader, None)
        if header is None:
            raise ValueError("empty counts file")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 3:
                raise ValueError(f"malformed counts row: {row}")
            settings.append((parse_projector(row[1]), float(row[2])))
    if not settings:
        raise ValueError("no counts rows found")
    return ProjectionCounts(settings)
