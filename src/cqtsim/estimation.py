"""Statistical layer: count-ratio fidelities, single-qubit maximum-likelihood
tomography, the mixed-state background subtraction and Poisson-resampled
uncertainties.

The background correction implements the subtraction procedure used for the
higher-order emission terms: the receiver's raw state is assumed to contain a
maximally mixed admixture of weight ``w``; removing it takes the state's
Bloch vector r to r / (1 - w), and fidelities to (F - w/2) / (1 - w).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import check_density, parse_ket, unit_ket, unit_pair


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
            # Python complex: on numpy scalars unit_pair takes twice as long
            cleaned.append((np.array(unit_pair(*ket.tolist(), "projector")), count))
        # the ML iteration works with the total count, which must stay finite
        if not math.isfinite(sum(c for _, c in cleaned)):
            raise ValueError("counts must sum to a finite number")
        self.settings = cleaned

    def projectors(self) -> np.ndarray:
        kets = np.array([k for k, _ in self.settings]).reshape(-1, 2)
        return kets[:, :, None] * kets[:, None, :].conj()

    def counts(self) -> np.ndarray:
        return np.array([c for _, c in self.settings])


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


def _bloch_vector(m: np.ndarray) -> np.ndarray:
    """The Bloch vectors r (..., 3) of Hermitian 2x2 matrices m = (tr m + r.sigma) / 2."""
    return np.stack([2 * m[..., 0, 1].real, -2 * m[..., 0, 1].imag,
                     (m[..., 0, 0] - m[..., 1, 1]).real], axis=-1)


def _bloch_rho(r: np.ndarray) -> np.ndarray:
    """The states (1 + r.sigma) / 2, (..., 2, 2), of Bloch vectors (..., 3)."""
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    return 0.5 * np.stack([1 + z, x - 1j * y, x + 1j * y, 1 - z],
                          axis=-1).reshape(*r.shape[:-1], 2, 2)


def _newton_steps(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-H^-1 g by L D L^T per negative definite H, (n, 6) entries 00, 11, 22, 01, 02, 12."""
    h00, h11, h22, h01, h02, h12 = hess.T
    g0, g1, g2 = grad.T
    l10, l20 = h01 / h00, h02 / h00
    d1, e12 = h11 - l10 * h01, h12 - l20 * h01
    l21, y1 = e12 / d1, g1 - l10 * g0
    x2 = (g2 - l20 * g0 - l21 * y1) / (h22 - l20 * h02 - l21 * e12)
    x1 = y1 / d1 - l21 * x2
    return -np.stack([g0 / h00 - l10 * x1 - l20 * x2, x1, x2], axis=1)


def _ml_kernel(projectors: np.ndarray, tables: np.ndarray):
    """Maximum-likelihood states of a stack of count tables, by Newton's
    method on the Bloch vector r over the unit ball.

    ``projectors`` (m, 2, 2) are shared by every table, ``tables`` (n, m)
    holds the counts, none of them all zero.  A projector Pi_j = (w_j 1 +
    a_j.sigma) / 2 has probability p_j = (w_j + a_j.r) / 2, so the
    log-likelihood per count, L(r) = sum_j f_j log p_j with f_j = n_j / N,
    is concave and does not depend on the scale of the counts.  Each table
    starts at r = 0 and takes Newton steps -H^-1 g (H = L D L^T in closed
    form, no LAPACK).  A Newton point outside the ball is pulled onto the
    sphere; there the table steps with the tangent part of g and the tangent
    Hessian H - mu 1, mu = g.r, and goes back inside when mu turns negative.
    A step that lowers L by more than its rounding, 1e-14 of |L|, or gives a
    counted projector a probability of 0 or below, is halved until accepted
    or below 1e-6 of itself; L keeps the higher value.  The Hessian, not the
    gradient, is shifted by 1e-12 of its trace; that moves no fixed point and
    keeps H invertible where no count bears on a direction (golden sparse.csv).

    A table converges when its Newton step is at most ``ML_TOL`` long, so
    the KKT conditions of the ball hold to that length in r; it takes that
    step too if the step is accepted in full.  It stops unconverged when no
    halving of its step is accepted, or after ``ML_MAX_ITERATIONS`` steps.  No
    operation mixes the tables (einsum's loops, unlike a BLAS product over
    the stack, round each row alike), so each table ends with its own bits.

    Returns ``(r (n, 3), converged (n,), iterations (n,), trace)``, r the
    Bloch vectors, ``trace`` table 0's L at r = 0 and after every accepted step.
    """
    n, _ = tables.shape
    w = np.trace(projectors, axis1=1, axis2=2).real
    axes = _bloch_vector(projectors)
    # entries 00, 11, 22, 01, 02, 12 of a_j a_j^T, C-ordered by take: einsum sums by layout
    outer = axes.take([0, 1, 2, 0, 0, 1], axis=1) * axes.take([0, 1, 2, 1, 2, 2], axis=1)
    eye = np.eye(3)

    def evaluate(p, f):
        # L at the probabilities p; -inf where a counted probability is not positive
        live = p > 0
        if live.all():
            return (f * np.log(p)).sum(axis=1)
        ll = (f * np.log(np.where(live, p, 1.0))).sum(axis=1)
        ll[((f > 0) & ~live).any(axis=1)] = -math.inf
        return ll

    r, sphere = np.zeros((n, 3)), np.zeros(n, dtype=bool)
    converged, iterations = np.zeros(n, dtype=bool), np.full(n, ML_MAX_ITERATIONS)
    running = np.ones(n, dtype=bool)
    f = tables / tables.sum(axis=1, keepdims=True)
    masked = not (f > 0).all()  # only an uncounted probability can vanish
    p = np.tile(0.5 * (w + 0.0), (n, 1))  # at r = 0, as einsum's sum of zeros is +0.0
    ll = evaluate(p, f)
    trace = [float(ll[0])]
    for iteration in range(1, ML_MAX_ITERATIONS + 1):
        if not running.any():
            break
        counted_p = np.where(f > 0, p, 1.0) if masked else p
        q = f / counted_p
        g = 0.5 * np.einsum("kj,jd->kd", q, axes)
        hess = -0.25 * np.einsum("kj,jd->kd", q / counted_p, outer)
        hess[:, :3] += 1e-12 * (hess[:, 0] + hess[:, 1] + hess[:, 2])[:, None]
        if sphere.any():
            mu = (g * r).sum(axis=1)
            sphere &= mu >= 0
            # on the sphere, the tangent parts, and -1 along r to keep the step tangent
            g = g - np.where(sphere, mu, 0.0)[:, None] * r
            normal = r[sphere, :, None] * r[sphere, None, :]
            square = hess[sphere][:, [0, 3, 4, 3, 1, 5, 4, 5, 2]].reshape(-1, 3, 3)
            hess[sphere] = ((eye - normal) @ (square - mu[sphere, None, None] * eye)
                            @ (eye - normal) - normal).reshape(-1, 9)[:, [0, 4, 8, 1, 2, 5]]
        step = _newton_steps(hess, g)
        done = np.sqrt((step * step).sum(axis=1)) <= ML_TOL

        # the full step, then halves of it for the tables that are not done
        ok, rows, t = np.zeros(n, dtype=bool), np.flatnonzero(running), 1.0
        while rows.size and t > 1e-6:
            sel = slice(None) if rows.size == n else rows  # a slice gathers no row
            cand = r[sel] + t * step[sel]
            norm = np.sqrt((cand * cand).sum(axis=1))
            on = sphere[sel] | (norm > 1.0)
            cand /= np.where(on, norm, 1.0)[:, None]
            cand_p = 0.5 * (w + np.einsum("kd,jd->kj", cand, axes))
            cand_ll = evaluate(cand_p, f[sel])
            up = cand_ll >= ll[sel] - 1e-14 * np.abs(ll[sel])
            if rows.size == n and up.all():  # the whole stack: its candidates, with no copy
                r, sphere, p, ok, ll = cand, on, cand_p, up, np.maximum(cand_ll, ll)
                break
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
    return r, converged, iterations, trace


def ml_reconstruct(counts: ProjectionCounts) -> MLResult:
    """Maximum-likelihood estimate of a qubit state over the Bloch ball, by
    Newton's method on its Bloch vector (``_ml_kernel``).  The trace of
    log-likelihoods per count never falls, and ``converged`` certifies the
    KKT conditions of the ball to ``ML_TOL`` in the Bloch vector;
    non-convergence is flagged on the result, never raised.
    """
    return _ml_fit(counts, np.empty((0, len(counts.settings))))[0]


def _ml_fit(counts: ProjectionCounts, resamples: np.ndarray) -> tuple:
    """``ml_reconstruct(counts)`` and the Bloch vectors of the ``resamples``
    (k, m), from one kernel run with the observed table as table 0."""
    projectors = np.array(counts.projectors())
    # the projectors must span the 4-dimensional operator space
    if np.linalg.matrix_rank(projectors.reshape(-1, 4), tol=1e-10) < 4:
        raise ValueError("projector set is not informationally complete")
    ns = counts.counts()
    if np.sum(ns) <= 0:
        raise ValueError("all counts are zero")
    r, converged, iterations, trace = _ml_kernel(projectors, np.vstack([ns, resamples]))
    return MLResult(_bloch_rho(r[0]), bool(converged[0]), int(iterations[0]), trace), r[1:]


# --- the exact maximum of an axial table -----------------------------------------

# the + and the - columns of the Bloch axes x, y, z in a table h, v, plus, minus, r, l
_PLUS_COLUMNS, _MINUS_COLUMNS = [2, 4, 0], [3, 5, 1]


def ml_oracle_bloch_search(counts: ProjectionCounts) -> np.ndarray:
    """The exact maximum-likelihood state of counts over projectors on the
    Bloch axes, each row placed by its projector, not by its position: a
    reference for ``ml_reconstruct`` that shares none of its solver
    (``_axial_ml_bloch``).  ValueError for a projector off the axes or counts
    all zero."""
    m = _bloch_vector(np.array(counts.projectors()))
    axis = np.abs(m).argmax(axis=1)
    off = np.flatnonzero(np.abs(np.abs(m) - np.eye(3)[axis]).max(axis=1) > 1e-12)
    if off.size:
        alpha, beta = counts.settings[off[0]][0]
        raise ValueError(f"projector {off[0] + 1} ({alpha:.4g}, {beta:.4g}) lies off the "
                         "Bloch axes")
    minus = m[np.arange(len(m)), axis] < 0
    columns = np.where(minus, np.take(_MINUS_COLUMNS, axis), np.take(_PLUS_COLUMNS, axis))
    table = np.bincount(columns, weights=counts.counts(), minlength=6)
    if not table.sum() > 0:
        raise ValueError("all counts are zero")
    return _bloch_rho(_axial_ml_bloch(table[None])[0])


def _axial_ml_bloch(tables: np.ndarray) -> np.ndarray:
    """The maximum-likelihood Bloch vectors (n, 3) of axial tables (n, 6) of
    floats, none all zero.  With a_k and b_k the frequencies of axis k's +
    and - projectors, L(r) = sum_k a_k log(1 + r_k) + b_k log(1 - r_k) is
    largest at r_k = (a_k - b_k) / (a_k + b_k), 0 on an axis without counts,
    when that lies in the ball.  Otherwise the maximum is on the sphere, where
    a_k / (1 + r_k) - b_k / (1 - r_k) = mu r_k: each r_k(mu) is the one sign
    change of a_k (1 - r) - b_k (1 + r) - mu r (1 - r^2) on [-1, 1], and
    |r(mu)| falls from above 1 at mu = 0 towards 0, so mu and each r_k(mu)
    are bisected to the last bit."""
    tables = tables / tables.sum(axis=1, keepdims=True)
    a, b = tables[:, _PLUS_COLUMNS], tables[:, _MINUS_COLUMNS]
    out = np.divide(a - b, a + b, out=np.zeros_like(a), where=a + b > 0)
    outside = (out ** 2).sum(axis=1) > 1.0
    if outside.any():
        a, b = a[outside], b[outside]
        # frequencies sum to 1, so |r_k(mu)| <= |a_k - b_k| / mu: at mu = 2, |r(mu)| <= 1/2
        lo, hi = np.zeros((len(a), 1)), np.full((len(a), 1), 2.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            far = (_axis_roots(a, b, mid) ** 2).sum(axis=1, keepdims=True) > 1.0
            lo, hi = np.where(far, mid, lo), np.where(far, hi, mid)
        r = _axis_roots(a, b, hi)
        out[outside] = r / np.linalg.norm(r, axis=1, keepdims=True)
    return out


def _axis_roots(a, b, mu) -> np.ndarray:
    """r_k(mu), bisected on [-1, 1]; the function is positive at -1 (or 0 when a = 0)."""
    lo, hi = -np.ones_like(a), np.ones_like(a)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        up = a * (1 - mid) - b * (1 + mid) - mu * mid * (1 - mid) * (1 + mid) > 0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


# --- background subtraction ------------------------------------------------------

def corrected_fidelity(f_raw: float, w: float) -> float:
    """Fidelity after removing a maximally mixed admixture of weight ``w``
    from one raw fidelity ``f_raw`` in [0, 1]."""
    if not 0.0 <= w < 1.0:
        raise ValueError("background weight must lie in [0, 1)")
    if not 0.0 <= f_raw <= 1.0:
        raise ValueError(f"raw fidelity f_raw must be finite and lie in [0, 1], got "
                         f"{float(f_raw)!r}")
    return (f_raw - w / 2.0) / (1.0 - w)


class NonPhysicalError(ValueError):
    """Background subtraction left states far outside the physical cone."""

    def __init__(self, n_bad: int, n_states: int, min_eigenvalue: float):
        self.n_bad, self.n_states, self.min_eigenvalue = n_bad, n_states, min_eigenvalue
        where = f" in {n_bad} of {n_states} states" if n_states > 1 else ""
        super().__init__(f"background subtraction produced a severely non-physical "
                         f"state{where} (min eigenvalue {min_eigenvalue:.2e})")


def correct_for_background(raw: np.ndarray, w: float) -> np.ndarray:
    """Subtract a maximally mixed admixture of weight ``w`` and renormalize:
    the Bloch vector r of each state goes to r / (1 - w), lowest eigenvalue
    (1 - |r|) / 2.  ``raw`` is one state or a stack, (..., 2, 2), each finite,
    Hermitian and of unit trace within 1e-9, or ValueError.  An r that noise
    pushes outside the ball is clipped to r / |r|, with a warning if the
    eigenvalue is below -1e-9; one below -1e-3 raises NonPhysicalError, which
    counts the states that have one.  Each state is rebuilt from r, so it has
    a unit trace however close ``w`` comes to 1.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError("background weight must lie in [0, 1)")
    raw = np.asarray(raw, dtype=complex)
    if raw.shape[-2:] != (2, 2):
        raise ValueError(f"density matrices must have shape (..., 2, 2), got {raw.shape}")
    check_density(raw, "density matrices")
    return _corrected(raw, w)


def _corrected(rho: np.ndarray, w: float) -> np.ndarray:
    """``correct_for_background`` unchecked, for a fitted state and a ``w`` in [0, 1)."""
    return _bloch_rho(_subtract_background(_bloch_vector(rho), w))


def _fidelities(r: np.ndarray, target: np.ndarray) -> np.ndarray:
    """(1 + r.t) / 2, clipped to [0, 1], of Bloch vectors r (n, 3) with the
    unit ket ``target``, of Bloch vector t."""
    t = _bloch_vector(np.outer(target, target.conj()))
    return np.clip((1.0 + np.einsum("nd,d->n", r, t)) / 2, 0.0, 1.0)


def _subtract_background(r: np.ndarray, w: float) -> np.ndarray:
    """``correct_for_background`` on Bloch vectors r (..., 3), for a ``w`` in [0, 1)."""
    r = r / (1.0 - w)
    length = np.hypot(np.hypot(r[..., 0], r[..., 1]), r[..., 2])
    lowest = (1.0 - length) / 2
    severe = lowest < -1e-3
    if severe.any():
        raise NonPhysicalError(int(np.sum(severe)), lowest.size, float(np.min(lowest)))
    if (lowest < -1e-9).any():
        warnings.warn("background subtraction left slightly negative "
                      "eigenvalues; clipping to the physical cone")
    return r / np.maximum(length, 1.0)[..., None]


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
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
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


def poisson_uncertainty(data, seed: int, n_resamples: int = 10_000) -> FidelityEstimate:
    """Poisson-resampled count-ratio fidelity of a (parallel, orthogonal)
    pair of counts ``data``; deterministic for a fixed seed.  A ``data`` that
    is not a pair of finite non-negative numbers or is all zero, a ``seed``
    that is not a non-negative integer or an ``n_resamples`` that is not an
    integer of at least 100 raises ValueError.

    numpy's sampler draws nothing for a mean of 0, so with one count 0 every
    nonempty resample has the ratio 1 (or 0 for f_par 0): a positive first draw
    of the other count returns it with spread 0, the full draw's bits.
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
    if not (f_par and f_perp) and np.random.default_rng(seed).poisson(f_par or f_perp):
        return FidelityEstimate(float(f_par > 0), 0.0)
    draws = np.random.default_rng(seed).poisson((f_par, f_perp), size=(n_resamples, 2))
    # exact integer totals; only a run with empty resamples needs a mask
    totals = draws[:, 0] + draws[:, 1]
    if totals.all():
        values = draws[:, 0] / totals
    else:
        keep = totals > 0
        values = draws[keep, 0] / totals[keep]
    return _estimate(values)


def resampled_tomography(counts: ProjectionCounts, target, seed: int, n_resamples: int,
                         background_w: float = 0.0) -> tuple:
    """The maximum-likelihood fit of ``counts`` and a Poisson-resampled
    fidelity with ``target``: ``(ml_reconstruct(counts), corrected,
    estimate)``, ``corrected`` being the fitted state corrected for
    ``background_w`` (``correct_for_background``).

    The nonempty of ``n_resamples`` tables drawn around ``counts`` are fitted
    in one kernel run, with the observed table as table 0, and corrected for
    ``background_w``; the resamples stay Bloch vectors r, of fidelity
    (1 + r.t) / 2 with a target of Bloch vector t.  ``seed`` and ``n_resamples``
    are checked as ``poisson_uncertainty`` checks them.  The observed table's
    errors come first, then the resampling stage's, marked ``resampling = True``:
    a count past the sampler's limit (no draw; it precedes a bad ``background_w``),
    a NonPhysicalError of the resamples, or every resample empty.
    """
    _check_resampling(seed, n_resamples)
    target = unit_ket(target, "target")
    means = counts.counts()
    large = means.max(initial=0.0) > POISSON_MAX_MEAN
    tables = np.empty((0, means.size)) if large else np.random.default_rng(seed).poisson(
        means, size=(n_resamples, means.size)).astype(float)
    result, r = _ml_fit(counts, tables[tables.sum(axis=1) > 0])
    valid = 0.0 <= background_w < 1.0
    if not (valid or large):
        raise ValueError("background weight must lie in [0, 1)")
    corrected = _corrected(result.rho, background_w) if valid else None
    try:
        _check_poisson_mean(means.max(initial=0.0))
        if background_w:
            r = _subtract_background(r, background_w)
        return result, corrected, _estimate(_fidelities(r, target))
    except ValueError as exc:
        exc.resampling = True
        raise


# --- CSV interfaces --------------------------------------------------------------------

def read_counts_csv(path) -> ProjectionCounts:
    """Counts table: columns ``label, projector, count`` with a header row."""
    import csv

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
