"""Optical components as local matrices, applied to sparse states by
creation-operator substitution.

Every component is written once, as a local matrix over the H and V modes
of the spatial modes it acts on (``hwp_matrix``, ``pbs_matrix``, ...), and
an element is the block ``(spatials, matrix)``.  ``protocol`` multiplies
blocks into one dense matrix, the only composition of optics in the
package.  ``apply`` rewrites a sparse state one photon at a time, with the
sqrt(n + 1) of a creation operator, which reproduces bosonic enhancement
and two-photon interference for free.

Conventions, fixed once for the whole package:

* HWP(theta)  = [[cos 2t,  sin 2t], [sin 2t, -cos 2t]]
* QWP(theta)  = R(t) @ diag(1, i) @ R(-t)          (R = real rotation)
* balanced BS picks up ``i`` on reflection
* PBS transmits H and reflects V with ``i``; an imperfection epsilon sends
  H into the reflected port with amplitude i*sqrt(epsilon)
* |R> = (|H> + i|V>)/sqrt(2)

Any self-consistent convention would do; this one makes every numeric value
in the tests reproducible.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .fock import H, PureState, V, _create, unit_pair


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def hwp_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(theta: float) -> np.ndarray:
    return rotation(theta) @ np.diag([1.0, 1.0j]).astype(complex) @ rotation(-theta)


def phase_matrix(phi: float) -> np.ndarray:
    """Birefringent phase plate: multiplies the V component by exp(i*phi)."""
    return np.diag([1.0, np.exp(1j * phi)])


def polarizer_matrix(jones_ket: np.ndarray) -> np.ndarray:
    """Projective polarizer: transmits the ``jones_ket`` component, absorbs the rest."""
    v = np.asarray(jones_ket, dtype=complex).ravel()
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not 0.0 < norm < math.inf:
        # zero, non-finite or of extreme scale: unit_pair names the fault or rescales
        v, norm = np.array(unit_pair(*v, "jones_ket")), 1.0
    v = v / norm
    return np.outer(v, v.conj())


def balanced_bs_matrix() -> np.ndarray:
    """Over (a, H), (a, V), (b, H), (b, V): ``t`` on transmission, ``r`` on reflection."""
    t = 1.0 / math.sqrt(2.0)
    r = 1.0j / math.sqrt(2.0)
    return np.array([[t, 0, r, 0], [0, t, 0, r], [r, 0, t, 0], [0, r, 0, t]], dtype=complex)


def pbs_matrix(epsilon: float = 0.0) -> np.ndarray:
    """Over (a, H), (a, V), (b, H), (b, V), with H-reflection intensity ``epsilon``.

    H transmits with sqrt(1-eps) and leaks into the reflected port with
    i*sqrt(eps); V reflects ideally with ``i``.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    t = math.sqrt(1.0 - epsilon)
    r = 1.0j * math.sqrt(epsilon)
    return np.array([[t, 0, r, 0], [0, 0, 0, 1j], [r, 0, t, 0], [0, 1j, 0, 0]], dtype=complex)


def apply(block: tuple, state: PureState) -> PureState:
    """Apply the element ``block = (spatials, matrix)`` to a sparse state.

    The modes are ordered (s1, H), (s1, V), (s2, H), ...; column q of
    ``matrix`` is the image of input mode q, so its creation operator becomes
    sum_k matrix[k, q] times that of output mode k.  Exact zeros are dropped:
    a mode whose column vanishes is absorbed and maps to nothing.  A matrix
    that is not finite or does not fit distinct integer spatial modes raises
    ``ValueError``.

    A term c * prod_m (a_m^dag)^{n_m} / sqrt(n_m!) |0> starts as the ket of
    its untouched modes, divided by sqrt(n_m!) for every substituted mode;
    then each substituted photon in turn is created as its output
    combination.  A photon sent into an occupied mode picks up the bosonic
    enhancement, and one in an absorbed mode drops its term.
    """
    spatials, matrix = block
    matrix = np.asarray(matrix, dtype=complex)
    size = 2 * len(spatials)
    if matrix.shape != (size, size) or len(set(spatials)) != len(spatials):
        raise ValueError(f"a {matrix.shape} matrix does not act on spatial modes "
                         f"{tuple(spatials)}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must be finite")
    modes = []
    for s in spatials:
        try:
            index = operator.index(s)
        except TypeError:
            raise ValueError(f"spatial index must be an integer, got {s!r}") from None
        modes += [(index, H), (index, V)]
    sub = {m: [(k, complex(u)) for k, u in zip(modes, matrix[:, q]) if u != 0]
           for q, m in enumerate(modes)}
    out: dict = {}
    for occ, amp in state.terms.items():
        affected = [(m, n) for m, n in occ if m in sub]
        for _, n in affected:
            amp /= math.sqrt(math.factorial(n))
        ket = {tuple(mn for mn in occ if mn[0] not in sub): amp}
        for m, n in affected:
            for _ in range(n):
                ket = _create(ket, sub[m])
        for key, a in ket.items():
            out[key] = out.get(key, 0.0j) + a
    return PureState(out)
