"""Checks of maximum-likelihood states of qubit tomography, for the tests.

A projector Pi = (w 1 + m.sigma) / 2 has probability p = (w + m.r) / 2 at
the Bloch vector r, so the log-likelihood of counts n_j over projectors
Pi_j is L(r) = sum_j n_j log p_j, concave on the Bloch ball.  The exact
maximum of an axial table is ``cqtsim.estimation.ml_oracle_bloch_search``;
these checks look at a state from outside, for any complete set of
projectors.

``kkt_residual`` measures how far a state is from the maximum: the gradient
of L per count inside the ball, and on the sphere its tangent part, or the
inward gradient when it points inside.
"""

import numpy as np

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def rho_of_bloch(r) -> np.ndarray:
    """Density matrices (..., 2, 2) of Bloch vectors (..., 3)."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (np.eye(2) + np.einsum("...k,kij->...ij", r, PAULI))


def bloch_of_rho(rho) -> np.ndarray:
    return np.einsum("...ij,kji->...k", np.asarray(rho), PAULI).real


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
