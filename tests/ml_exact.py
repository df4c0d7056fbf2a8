"""Exact maximum-likelihood states of qubit tomography, for the tests.

A projector Pi = (w 1 + m.sigma) / 2 has probability p = (w + m.r) / 2 at
the Bloch vector r, so the log-likelihood of counts n_j over projectors
Pi_j is L(r) = sum_j n_j log p_j, concave on the Bloch ball.

For the six axial projectors h/v, plus/minus and r/l, L splits by axis:

    L(r) = sum_k a_k log(1 + r_k) + b_k log(1 - r_k) + const,

with a_k and b_k the counts of the + and the - projector of axis k.  Each
term is largest at the linear inversion r_k = (a_k - b_k) / (a_k + b_k),
taken as 0 on an axis without counts, so when that vector lies in the ball
it is the maximum (``axial_ml_bloch``).  Otherwise the maximum lies on the
sphere, where a_k / (1 + r_k) - b_k / (1 - r_k) = mu r_k for a Lagrange
multiplier mu > 0.  At a given mu each r_k(mu) is the one sign change of
a_k (1 - r) - b_k (1 + r) - mu r (1 - r^2) in [-1, 1], and |r(mu)| falls
from above 1 at mu = 0 towards 0, so mu is the root of the 1-D equation
|r(mu)|^2 = 1.  Both roots are found by bisection down to the last bit: no
optimiser and nothing of ``cqtsim``'s solver takes part.

For any complete set of projectors, ``kkt_residual`` measures how far a
state is from the maximum: the gradient of L per count inside the ball, and
on the sphere its tangent part, or the inward gradient when it points
inside.
"""

import numpy as np

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

# the + and - projector of each Bloch axis (x, y, z), as columns of an axial
# table in the order h, v, plus, minus, r, l
PLUS_COLUMNS, MINUS_COLUMNS = [2, 4, 0], [3, 5, 1]

BISECTIONS = 80


def rho_of_bloch(r) -> np.ndarray:
    """Density matrices (..., 2, 2) of Bloch vectors (..., 3)."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (np.eye(2) + np.einsum("...k,kij->...ij", r, PAULI))


def bloch_of_rho(rho) -> np.ndarray:
    return np.einsum("...ij,kji->...k", np.asarray(rho), PAULI).real


def axial_ml_bloch(tables) -> np.ndarray:
    """The maximum-likelihood Bloch vectors (n, 3) of axial count tables
    (n, 6), columns h, v, plus, minus, r, l."""
    tables = np.atleast_2d(np.asarray(tables, dtype=float))
    tables = tables / tables.sum(axis=1, keepdims=True)
    a, b = tables[:, PLUS_COLUMNS], tables[:, MINUS_COLUMNS]
    both = a + b
    out = np.divide(a - b, both, out=np.zeros_like(both), where=both > 0)
    outside = (out ** 2).sum(axis=1) > 1.0
    if outside.any():
        out[outside] = _on_sphere(a[outside], b[outside])
    return out


def _axis_roots(a, b, mu) -> np.ndarray:
    """r_k(mu): the sign change of a (1 - r) - b (1 + r) - mu r (1 - r^2)
    on [-1, 1], which is positive at -1 (or 0 there when a = 0)."""
    lo, hi = -np.ones_like(a), np.ones_like(a)
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        up = a * (1 - mid) - b * (1 + mid) - mu * mid * (1 - mid) * (1 + mid) > 0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def _on_sphere(a, b) -> np.ndarray:
    # frequencies sum to 1, so |r_k(mu)| <= |a_k - b_k| / mu and mu = 2
    # leaves |r(mu)| <= 1/2
    lo, hi = np.zeros((len(a), 1)), np.full((len(a), 1), 2.0)
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        out = (_axis_roots(a, b, mid) ** 2).sum(axis=1, keepdims=True) > 1.0
        lo, hi = np.where(out, mid, lo), np.where(out, hi, mid)
    r = _axis_roots(a, b, hi)
    return r / np.linalg.norm(r, axis=1, keepdims=True)


def projector_bloch(projectors) -> tuple:
    """``(w, m)``: the traces (k,) and Bloch vectors (k, 3) of projectors
    (k, 2, 2), Pi = (w 1 + m.sigma) / 2."""
    projectors = np.asarray(projectors)
    w = np.trace(projectors, axis1=1, axis2=2).real
    return w, bloch_of_rho(projectors)


def log_likelihood(r, projectors, counts) -> np.ndarray:
    """Sum of n_j log p_j per count at Bloch vectors r (..., 3); -inf where a
    counted projector has probability 0 or below."""
    w, m = projector_bloch(projectors)
    f = np.asarray(counts, dtype=float)
    f = f / f.sum()
    p = ((w + np.asarray(r) @ m.T) / 2)[..., f > 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (f[f > 0] * np.log(p)).sum(axis=-1)
    return np.where((p <= 0).any(axis=-1), -np.inf, out)


def kkt_residual(r, projectors, counts) -> float:
    """How far the Bloch vector r is from the KKT conditions of the ball.

    Inside, |g| for the gradient g of L per count; on the sphere (|r| within
    1e-9 of 1), the tangent part of g and, when g points inside
    (mu = g.r < 0), also -mu.
    """
    w, m = projector_bloch(projectors)
    f = np.asarray(counts, dtype=float)
    f = f / f.sum()
    r = np.asarray(r, dtype=float)
    used = f > 0
    p = (w[used] + m[used] @ r) / 2
    g = (f[used] / (2 * p)) @ m[used]
    if np.linalg.norm(r) < 1 - 1e-9:
        return float(np.linalg.norm(g))
    mu = float(g @ r)
    return max(float(np.linalg.norm(g - mu * r)), -mu)
