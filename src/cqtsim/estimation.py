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
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import parse_ket, unit_ket, unit_pair


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
    settings = [(parse_ket(name, "projector"), n) for name, n in counts_by_name.items()]
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
    if not (math.isfinite(f_parallel) and math.isfinite(f_perp)):
        raise ValueError(f"rates must be finite, got ({f_parallel!r}, {f_perp!r})")
    if f_parallel < 0 or f_perp < 0:
        raise ValueError("rates must be non-negative")
    total = f_parallel + f_perp
    if total <= 0:
        raise ValueError("both rates vanish")
    return f_parallel / total


# --- maximum-likelihood reconstruction ----------------------------------------

ML_TOL = 1e-10
ML_MAX_ITERATIONS = 100_000
# a table whose largest count lies outside [1, ML_RESCALE_ABOVE] is divided by
# that count: above, so that counts over probabilities stay finite; below, so
# that the stopping test, absolute for |L| < 1, does not scale with the counts
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
    """``a @ b`` for two stacks of 2x2 matrices held as (2, 2, n) components.

    Entry (i, j) is ``a[i, 0] b[0, j] + a[i, 1] b[1, j]``: the columns of ``a``
    times the rows of ``b``, all four entries at once by broadcasting.  The
    stack axis is innermost, so each of the three elementwise calls loops
    over the whole stack; numpy's complex ``*`` and ``+`` round the same in
    this layout as on (n, 2, 2) stacks.
    """
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _ml_kernel(projectors: np.ndarray, tables: np.ndarray, tol: float,
               max_iterations: int, keep_trace: bool = False):
    """Diluted R rho R iteration on a stack of count tables.

    ``projectors`` (m, 2, 2) are shared by every table, ``tables`` (n, m)
    holds the counts.  Each table runs the fixed-point update of Rehacek,
    Hradil, Knill and Lvovsky (PRA 75, 042108): a full step is tried first
    and its weight ``alpha`` halved, down to 1e-6, until the likelihood does
    not fall by more than 1e-15.  A table stops when no step is accepted or
    when the log-likelihood changes by less than ``tol * max(1, |L|)``.

    The running tables are packed into rows (state, likelihood, counts and
    probabilities), re-packed only when one stops.  States, steps and
    candidates are (2, 2, k) stacks, table axis innermost, so that each
    elementwise call loops over the tables; both BLAS products still take
    C-contiguous (k, 4) rows, since the product taken the other way round,
    (m, 4) @ (4, k), rounds 24 % of the probabilities differently.  The full
    step is ``r`` itself; only the diluted passes build ``alpha`` and mix in
    the identity.  When all take the full step and none stops, the
    candidates are the next state as they are; otherwise the probabilities
    are recomputed, because the BLAS product rounds differently on a
    different number of rows.  Table 0 takes both products on its own row,
    so it keeps the bits of a one-table call and the others those of a call
    without it.

    Returns ``(rho (n, 2, 2), converged (n,), iterations (n,), trace)``;
    ``trace`` holds table 0's log-likelihood after every accepted step when
    ``keep_trace`` is set, else None; no other table is traced.  A ``tol``
    that is NaN or negative or a ``max_iterations`` that is not an integer
    of at least 1 raises ValueError.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    if not (isinstance(max_iterations, numbers.Integral) and max_iterations >= 1):
        raise ValueError(f"max_iterations must be an integer of at least 1, "
                         f"got {max_iterations!r}")
    n, m = tables.shape
    eye = np.eye(2, dtype=complex)[:, :, None]
    # tr(p rho) = sum_ij p_ji rho_ij: one (k, 4) @ (4, m) product against the
    # transposed, flattened projectors gives every probability of every table
    columns = np.ascontiguousarray(projectors.transpose(0, 2, 1).reshape(m, 4).T)
    flat = projectors.reshape(m, 4)

    def product(rows, matrix, ids):
        # rows @ matrix for the tables ``ids``, table 0's row on its own:
        # numpy hands a one-row product to gemv, which rounds unlike gemm
        if len(rows) < 2 or ids[0] != 0:
            return rows @ matrix
        out = np.empty((len(rows), matrix.shape[1]), dtype=complex)
        np.matmul(rows[:1], matrix, out=out[:1])
        np.matmul(rows[1:], matrix, out=out[1:])
        return out

    def evaluate(rho, counts, nonzero, ids):
        # log-likelihoods and the probabilities, 1.0 where unusable; a masked
        # entry adds counts * log(1.0) = +0.0
        probs = product(np.ascontiguousarray(rho.reshape(4, -1).T), columns, ids).real
        usable = nonzero & (probs > 1e-300)
        safe = np.where(usable, probs, 1.0)
        out = (counts * np.log(safe)).sum(axis=1)
        bad = nonzero & ~usable
        if bad.any():
            out[bad.any(axis=1)] = -math.inf
        return out, safe

    def candidate(rho, step):
        cand = _mul2(_mul2(step, rho), step.conj().transpose(1, 0, 2))
        cand = 0.5 * (cand + cand.conj().transpose(1, 0, 2))
        cand /= cand[0, 0].real + cand[1, 1].real
        return cand

    rho_out = np.broadcast_to(eye / 2.0, (2, 2, n)).copy()
    converged, iterations = np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
    active, rho, counts = np.arange(n), rho_out.copy(), tables
    nonzero, totals = counts > 0, counts.sum(axis=1)
    ll, safe = evaluate(rho, counts, nonzero, active)
    trace = [float(v) for v in ll[:1]] if keep_trace else None
    for iteration in range(1, max_iterations + 1):
        if active.size == 0:
            break
        iterations[active] = iteration
        if safe is None:
            _, safe = evaluate(rho, counts, nonzero, active)
        # an active table's likelihood is finite, so its masked entries have
        # count 0 and weight 0 / 1.0
        r = np.divide(product(counts / safe, flat, active).T.reshape(2, 2, -1), totals,
                      order="C")
        # the full step (1 - alpha) eye + alpha r at alpha = 1 is r with its
        # zeros made +0.0, which is what + 0.0 does
        new_rho = candidate(rho, r + 0.0)
        new_ll, safe = evaluate(new_rho, counts, nonzero, active)
        accepted = new_ll >= ll - 1e-15
        if not accepted.all():
            # the rejected tables halve their step until one is accepted
            safe = None
            new_rho[:, :, ~accepted] = rho[:, :, ~accepted]
            alpha, pending = np.ones(active.size), np.flatnonzero(~accepted)
            while True:
                alpha[pending] /= 2.0
                pending = pending[alpha[pending] > 1e-6]
                if pending.size == 0:
                    break
                # take() and compress() keep a selection of tables C-contiguous;
                # an index on the last axis would put that axis outermost in memory
                a = alpha[pending]
                cand = candidate(rho.take(pending, axis=2),
                                 (1 - a) * eye + a * r.take(pending, axis=2))
                cand_ll, _ = evaluate(cand, counts[pending], nonzero[pending],
                                      active[pending])
                ok = cand_ll >= ll[pending] - 1e-15
                new_rho[:, :, pending[ok]] = cand[:, :, ok]
                new_ll[pending[ok]] = cand_ll[ok]
                accepted[pending[ok]] = True
                pending = pending[~ok]

        # a table with no acceptable step stops where it is, unconverged
        delta = np.abs(new_ll - ll)
        rho, ll = new_rho, np.maximum(new_ll, ll)
        done = accepted & (delta < tol * np.maximum(1.0, np.abs(ll)))
        converged[active[done]] = True
        if keep_trace and active[0] == 0 and accepted[0]:
            trace.append(float(ll[0]))
        stay = accepted & ~done
        if not stay.all():
            rho_out[:, :, active[~stay]] = rho[:, :, ~stay]
            active, rho, ll = active[stay], rho.compress(stay, axis=2), ll[stay]
            counts, nonzero, totals = counts[stay], nonzero[stay], totals[stay]
            safe = None
    rho_out[:, :, active] = rho
    return np.ascontiguousarray(rho_out.transpose(2, 0, 1)), converged, iterations, trace


def ml_reconstruct(counts: ProjectionCounts, tol: float = ML_TOL,
                   max_iterations: int = ML_MAX_ITERATIONS) -> MLResult:
    """Iterative fixed-point maximum-likelihood estimate of a qubit state.

    Runs the R rho R update, falling back to diluted steps whenever a full
    step would lower the likelihood, so the likelihood trace is monotone by
    construction.  Stops when the relative log-likelihood change drops below
    ``tol``; non-convergence is flagged on the result, never raised.  A table
    whose largest count is below 1 or above ``ML_RESCALE_ABOVE`` is iterated,
    and its likelihoods reported, divided by that count.  A ``tol`` that is
    NaN or negative or a ``max_iterations`` that is not an integer of at
    least 1 raises ValueError.
    """
    return _ml_fit(counts, np.empty((0, len(counts.settings))), tol, max_iterations)[0]


def _ml_fit(counts: ProjectionCounts, resamples: np.ndarray, tol, max_iterations) -> tuple:
    """``ml_reconstruct(counts)`` and the states of the ``resamples`` (k, m),
    from one kernel run with the observed table, rescaled, as table 0."""
    if not counts.is_informationally_complete():
        raise ValueError("projector set is not informationally complete")
    ns = counts.counts()
    if np.sum(ns) <= 0:
        raise ValueError("all counts are zero")
    if not 1.0 <= ns.max() <= ML_RESCALE_ABOVE:
        ns = ns / ns.max()
    rho, converged, iterations, trace = _ml_kernel(
        np.array(counts.projectors()), np.vstack([ns, resamples]), tol, max_iterations,
        keep_trace=True)
    return MLResult(rho=rho[0], converged=bool(converged[0]), iterations=int(iterations[0]),
                    log_likelihoods=trace), rho[1:]


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
    """Fidelity after removing a maximally mixed admixture of weight ``w``;
    ``f_raw`` is one raw fidelity or an array of them, each in [0, 1]."""
    if not 0.0 <= w < 1.0:
        raise ValueError("background weight must lie in [0, 1)")
    raw = np.asarray(f_raw)
    outside = ~((raw >= 0.0) & (raw <= 1.0))
    if outside.any():
        raise ValueError(f"raw fidelity f_raw must be finite and lie in [0, 1], got "
                         f"{float(raw[outside].flat[0])!r}")
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
    NonPhysicalError, which counts the matrices that have one.  A non-finite
    entry raises ValueError.

    Only a matrix with a negative eigenvalue changes.  For d = 2 the lowest
    eigenvalue has a closed form, good to a few units of double precision of
    the entries; when it exceeds 1e-9 of them in every matrix, the stack is
    returned with no eigendecomposition.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError("background weight must lie in [0, 1)")
    raw = np.asarray(raw, dtype=complex)
    if not np.isfinite(raw).all():
        raise ValueError("density matrices must be finite")
    dim = raw.shape[-1]
    out = (raw - w * np.eye(dim) / dim) / (1.0 - w)
    out = 0.5 * (out + np.swapaxes(out.conj(), -1, -2))
    if dim == 2:
        a, d, b = out[..., 0, 0].real, out[..., 1, 1].real, np.abs(out[..., 0, 1])
        # hypot, not the root of the squares, which underflow or overflow
        low = (a + d) / 2 - np.hypot((a - d) / 2, b)
        if np.all(low > 1e-9 * (np.abs(a) + np.abs(d) + b)):
            return out
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


def _check_resampling(seed, n_resamples) -> None:
    if not (isinstance(n_resamples, numbers.Integral) and n_resamples >= 100):
        raise ValueError(f"n_resamples must be an integer of at least 100, got {n_resamples!r}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be an explicit non-negative integer, got {seed!r}")


def _estimate(values: np.ndarray) -> FidelityEstimate:
    if values.size == 0:
        raise ValueError("every resample was empty")
    return FidelityEstimate(value=float(np.mean(values)),
                            uncertainty=float(np.std(values)))


def poisson_uncertainty(data, seed: int, n_resamples: int = 10_000,
                        background_w: float = 0.0) -> FidelityEstimate:
    """Poisson-resampled count-ratio fidelity of a (parallel, orthogonal)
    pair of counts ``data``, optionally corrected for the background weight;
    deterministic for a fixed seed.  A ``data`` that is not a pair of finite
    non-negative numbers or is all zero, a ``seed`` that is not a non-negative
    integer or an ``n_resamples`` that is not an integer of at least 100
    raises ValueError.
    """
    _check_resampling(seed, n_resamples)
    try:
        f_par, f_perp = data
        valid = 0 <= f_par < math.inf and 0 <= f_perp < math.inf
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"data must be a (parallel, orthogonal) pair of finite "
                         f"non-negative counts, got {data!r}")
    if f_par + f_perp <= 0:
        raise ValueError("all counts are zero")
    _check_poisson_mean(max(f_par, f_perp))
    draws = np.random.default_rng(seed).poisson((f_par, f_perp), size=(n_resamples, 2))
    # exact integer totals; only a run with empty resamples needs a mask
    totals = draws[:, 0] + draws[:, 1]
    if totals.all():
        values = draws[:, 0] / totals
    else:
        keep = totals > 0
        values = draws[keep, 0] / totals[keep]
    if background_w:
        values = corrected_fidelity(values, background_w)
    return _estimate(np.clip(values, 0.0, 1.0))


def resampled_tomography(counts: ProjectionCounts, target, seed: int, n_resamples: int,
                         background_w: float = 0.0) -> tuple:
    """The maximum-likelihood fit of ``counts`` and a Poisson-resampled
    fidelity with ``target``: ``(ml_reconstruct(counts), estimate)``.

    The nonempty of ``n_resamples`` tables drawn around ``counts`` are fitted
    in one kernel run, with the observed table as table 0, and corrected for
    ``background_w``, the observed state first.  ``seed`` and ``n_resamples``
    are checked as ``poisson_uncertainty`` checks them.
    """
    _check_resampling(seed, n_resamples)
    target = unit_ket(target, "target")
    means = counts.counts()
    _check_poisson_mean(means.max(initial=0.0))
    tables = np.random.default_rng(seed).poisson(
        means, size=(n_resamples, means.size)).astype(float)
    result, rho = _ml_fit(counts, tables[tables.sum(axis=1) > 0], ML_TOL, ML_MAX_ITERATIONS)
    if background_w:
        correct_for_background(result.rho, background_w)
        rho = correct_for_background(rho, background_w)
    values = np.einsum("i,nij,j->n", target.conj(), rho, target).real
    return result, _estimate(np.clip(values, 0.0, 1.0))


# --- CSV interfaces --------------------------------------------------------------------

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
            settings.append((parse_ket(row[1], "projector"), float(row[2])))
    if not settings:
        raise ValueError("no counts rows found")
    return ProjectionCounts(settings)
