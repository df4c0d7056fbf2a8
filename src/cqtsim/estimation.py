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
        return _spans_operators(np.array(self.projectors()))


def _spans_operators(projectors: np.ndarray) -> bool:
    """Whether projectors (m, 2, 2) span the 4-dimensional operator space."""
    return np.linalg.matrix_rank(projectors.reshape(-1, 4), tol=1e-10) >= 4


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


def _ml_kernel(projectors: np.ndarray, tables: np.ndarray, tol: float,
               max_iterations: int):
    """Maximum-likelihood states of a stack of count tables, by Newton's
    method on the Bloch vector r over the unit ball.

    ``projectors`` (m, 2, 2) are shared by every table, ``tables`` (n, m)
    holds the counts, none of them all zero.  A projector Pi_j = (w_j 1 +
    a_j.sigma) / 2 has probability p_j = (w_j + a_j.r) / 2, so the
    log-likelihood per count, L(r) = sum_j f_j log p_j with f_j = n_j / N,
    is concave and does not depend on the scale of the counts.  Each table
    starts at r = 0 and takes Newton steps -H^-1 g.  A Newton point outside
    the ball is pulled onto the sphere; there the table steps with the
    tangent part of g and the tangent Hessian H - mu 1, mu = g.r, and goes
    back inside when mu turns negative.  A step that lowers L by more than
    its rounding, 1e-14 of |L|, or gives a counted projector a probability
    of 0 or below, is halved until accepted or below 1e-6 of itself; L
    keeps the higher value.  The Hessian, never the gradient, is shifted by
    1e-12 of its trace: that keeps it invertible where no count bears on a
    direction (as in ``tests/golden/sparse.csv``) and moves no fixed point.

    A table converges when its Newton step is at most ``tol`` long, so the
    KKT conditions of the ball hold to that length in r; it takes that step
    too if the step is accepted in full.  It stops unconverged when no
    halving of its step is accepted, or after ``max_iterations`` steps.  No
    operation mixes the tables (einsum's loops, unlike a BLAS product over
    the stack, round each row alike), so each table ends with its own bits.

    Returns ``(rho (n, 2, 2), converged (n,), iterations (n,), trace)``,
    ``trace`` being table 0's L at r = 0 and after every accepted step.  A
    ``tol`` that is NaN or negative or a ``max_iterations`` that is not an
    integer of at least 1 raises ValueError.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    if not (isinstance(max_iterations, numbers.Integral) and max_iterations >= 1):
        raise ValueError(f"max_iterations must be an integer of at least 1, "
                         f"got {max_iterations!r}")
    n, m = tables.shape
    w = np.trace(projectors, axis1=1, axis2=2).real
    axes = np.stack([2 * projectors[:, 0, 1].real, -2 * projectors[:, 0, 1].imag,
                     (projectors[:, 0, 0] - projectors[:, 1, 1]).real], axis=1)
    outer = (axes[:, :, None] * axes[:, None, :]).reshape(m, 9)
    eye = np.eye(3)

    def evaluate(r, f):
        # L and the probabilities; L is -inf where a counted probability is not positive
        p = 0.5 * (w + np.einsum("kd,jd->kj", r, axes))
        live = p > 0
        ll = (f * np.log(np.where(live, p, 1.0))).sum(axis=1)
        ll[((f > 0) & ~live).any(axis=1)] = -math.inf
        return ll, p

    r, sphere = np.zeros((n, 3)), np.zeros(n, dtype=bool)
    converged, iterations = np.zeros(n, dtype=bool), np.full(n, max_iterations)
    running = np.ones(n, dtype=bool)
    f = tables / tables.sum(axis=1, keepdims=True)
    ll, p = evaluate(r, f)
    trace = [float(ll[0])]
    for iteration in range(1, max_iterations + 1):
        if not running.any():
            break
        q = np.divide(f, p, out=np.zeros_like(f), where=f > 0)
        g = 0.5 * np.einsum("kj,jd->kd", q, axes)
        h = -0.25 * np.einsum("kj,jd->kd", np.divide(q, p, out=np.zeros_like(q), where=f > 0),
                              outer).reshape(-1, 3, 3)
        hess = h + 1e-12 * np.trace(h, axis1=1, axis2=2)[:, None, None] * eye
        mu = (g * r).sum(axis=1)
        sphere &= mu >= 0
        # on the sphere, the tangent parts, and -1 along r to keep the step tangent
        grad = g - np.where(sphere, mu, 0.0)[:, None] * r
        if sphere.any():
            normal = r[sphere, :, None] * r[sphere, None, :]
            hess[sphere] = ((eye - normal) @ (hess[sphere] - mu[sphere, None, None] * eye)
                            @ (eye - normal) - normal)
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        done = np.sqrt((step * step).sum(axis=1)) <= tol

        # the full step, then halves of it for the tables that are not done
        ok, rows, t = np.zeros(n, dtype=bool), np.flatnonzero(running), 1.0
        while rows.size and t > 1e-6:
            cand = r[rows] + t * step[rows]
            norm = np.sqrt((cand * cand).sum(axis=1))
            on = sphere[rows] | (norm > 1.0)
            cand /= np.where(on, norm, 1.0)[:, None]
            cand_ll, cand_p = evaluate(cand, f[rows])
            up = cand_ll >= ll[rows] - 1e-14 * np.abs(ll[rows])
            took = rows[up]
            r[took], sphere[took], p[took], ok[took] = cand[up], on[up], cand_p[up], True
            ll[took] = np.maximum(cand_ll[up], ll[took])
            rows, t = rows[~up & ~done[rows]], t / 2.0

        if ok[0]:
            trace.append(float(ll[0]))
        stop = running & (done | ~ok)
        converged |= stop & done
        iterations[stop] = iteration
        running &= ~stop
    x, y, z = r.T
    rho = 0.5 * np.stack([1 + z, x - 1j * y, x + 1j * y, 1 - z], axis=1).reshape(n, 2, 2)
    return rho, converged, iterations, trace


def ml_reconstruct(counts: ProjectionCounts, tol: float = ML_TOL,
                   max_iterations: int = ML_MAX_ITERATIONS) -> MLResult:
    """Maximum-likelihood estimate of a qubit state over the Bloch ball, by
    Newton's method on its Bloch vector (``_ml_kernel``).  The trace of
    log-likelihoods per count never falls, and ``converged`` certifies the
    KKT conditions of the ball to ``tol`` in the Bloch vector;
    non-convergence is flagged on the result, never raised.  A ``tol`` that
    is NaN or negative or a ``max_iterations`` that is not an integer of at
    least 1 raises ValueError.
    """
    return _ml_fit(counts, np.empty((0, len(counts.settings))), tol, max_iterations)[0]


def _ml_fit(counts: ProjectionCounts, resamples: np.ndarray, tol, max_iterations) -> tuple:
    """``ml_reconstruct(counts)`` and the states of the ``resamples`` (k, m),
    from one kernel run with the observed table as table 0."""
    projectors = np.array(counts.projectors())
    if not _spans_operators(projectors):
        raise ValueError("projector set is not informationally complete")
    ns = counts.counts()
    if np.sum(ns) <= 0:
        raise ValueError("all counts are zero")
    rho, converged, iterations, trace = _ml_kernel(
        projectors, np.vstack([ns, resamples]), tol, max_iterations)
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
    entry or a matrix that is not Hermitian, within 1e-9 of its largest
    entry, raises ValueError.  A matrix of unit trace, within 1e-12, keeps
    it within 1e-10 however close ``w`` comes to 1.

    Only a matrix with a negative eigenvalue changes.  For d = 2 the lowest
    eigenvalue has a closed form, good to a few units of double precision of
    the entries; when it exceeds 1e-9 of them in every matrix, the stack is
    returned with no eigendecomposition.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError("background weight must lie in [0, 1)")
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim < 2 or raw.shape[-1] != raw.shape[-2]:
        raise ValueError(f"density matrices must have shape (..., d, d), got {raw.shape}")
    if not np.isfinite(raw).all():
        raise ValueError("density matrices must be finite")
    skew = np.abs(raw - np.swapaxes(raw.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(skew > 1e-9 * np.abs(raw).max(axis=(-2, -1), initial=0.0)):
        raise ValueError("density matrices must be Hermitian")
    dim = raw.shape[-1]
    out = (raw - w * np.eye(dim) / dim) / (1.0 - w)
    out = 0.5 * (out + np.swapaxes(out.conj(), -1, -2))
    # 1/(1 - w) amplifies the rounding of a unit trace; take it out where it shows
    t_out = np.trace(out, axis1=-2, axis2=-1).real
    drift = np.abs(t_out - 1.0) > 1e-10
    if np.any(drift):
        drift &= np.abs(np.trace(raw, axis1=-2, axis2=-1).real - 1.0) <= 1e-12
        out[drift] /= t_out[drift][..., None, None]
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
    """``np.mean`` and ``np.std`` of ``values``: their own operations and bits."""
    n = values.size
    if n == 0:
        raise ValueError("every resample was empty")
    mean = values.sum() / n
    spread = values - mean
    spread *= spread
    return FidelityEstimate(value=float(mean), uncertainty=math.sqrt(spread.sum() / n))


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
    # a ratio of counts lies in [0, 1]; only the subtraction can leave it
    if background_w:
        values = np.clip(corrected_fidelity(values, background_w), 0.0, 1.0)
    return _estimate(values)


def resampled_tomography(counts: ProjectionCounts, target, seed: int, n_resamples: int,
                         background_w: float = 0.0) -> tuple:
    """The maximum-likelihood fit of ``counts`` and a Poisson-resampled
    fidelity with ``target``: ``(ml_reconstruct(counts), estimate)``.

    The nonempty of ``n_resamples`` tables drawn around ``counts`` are fitted
    in one kernel run, with the observed table as table 0, and corrected for
    ``background_w``, the observed state first.  ``seed`` and ``n_resamples``
    are checked as ``poisson_uncertainty`` checks them.
    """
    result, _, estimate = _resampled_fit(counts, target, seed, n_resamples, background_w)
    return result, estimate


def _resampled_fit(counts, target, seed, n_resamples, background_w) -> tuple:
    """``(result, corrected, estimate)``: ``resampled_tomography``'s result
    and estimate, and the observed state corrected for ``background_w``."""
    _check_resampling(seed, n_resamples)
    target = unit_ket(target, "target")
    means = counts.counts()
    _check_poisson_mean(means.max(initial=0.0))
    tables = np.random.default_rng(seed).poisson(
        means, size=(n_resamples, means.size)).astype(float)
    result, rho = _ml_fit(counts, tables[tables.sum(axis=1) > 0], ML_TOL, ML_MAX_ITERATIONS)
    corrected = correct_for_background(result.rho, background_w)
    if background_w:
        rho = correct_for_background(rho, background_w)
    values = np.einsum("i,nij,j->n", target.conj(), rho, target).real
    return result, corrected, _estimate(np.clip(values, 0.0, 1.0))


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
