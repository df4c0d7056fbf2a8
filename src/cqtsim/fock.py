"""Sparse Fock-state machinery for polarization-encoded photonic modes.

A mode is a ``(spatial, polarization)`` pair of an integer index and 'H' or
'V', a basis state is a sparse occupation vector over modes, and a pure
state is a complex superposition of basis states, held as a plain dict keyed
by canonical occupation tuples.  ``elements.apply`` rewrites these states
one photon at a time for the stage operations ``protocol.prepare_ghz`` and
``singlet_projection`` and the tests' sparse reference engine.  ``project``
post-selects a state with any predicate on its occupation keys.

Every sparse state is built by ``PureState(...)``, which canonicalises and
checks its keys through ``occupation``, so no code outside this module needs
to know what a canonical key is.  A protocol run, its analyzer calibration
included, builds no sparse state: it propagates dense vectors.

Qubit encoding used throughout the package: |H> -> basis 0, |V> -> basis 1.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Mapping
from typing import Callable, Sequence

import numpy as np

H = "H"
V = "V"
POLARIZATIONS = (H, V)

PRUNE_THRESHOLD = 1e-15     # of a photon number's largest amplitude; squared, of emitted weight

# Single-qubit polarization kets (column vectors of length 2).
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_A = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
KET_R = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
KET_L = np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0)

NAMED_KETS = {
    "h": KET_H,
    "v": KET_V,
    "d": KET_D,
    "a": KET_A,
    "plus": KET_D,
    "minus": KET_A,
    "r": KET_R,
    "l": KET_L,
}


def unit_pair(alpha, beta, what: str) -> tuple:
    """The amplitudes ``(alpha, beta)`` scaled to unit norm, as two complex.

    Divided by the largest real or imaginary part first, so the norm neither
    overflows nor underflows however large or small the components are.
    ``what`` names the vector in the errors: a non-finite part or a zero
    vector raises ValueError.
    """
    alpha, beta = complex(alpha), complex(beta)
    parts = (alpha.real, alpha.imag, beta.real, beta.imag)
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"{what} amplitudes must be finite")
    scale = max(map(abs, parts))
    if scale == 0:
        raise ValueError(f"zero {what} vector")
    alpha, beta = alpha / scale, beta / scale
    norm = math.hypot(abs(alpha), abs(beta))
    return alpha / norm, beta / norm


def parse_ket(text: str, what: str) -> tuple:
    """The unit ket ``(alpha, beta)``, two complex, written as ``text``: a name
    of ``NAMED_KETS`` in any case, ``linear:DEG`` (DEG degrees from H) or two
    complex components ``a,b`` or ``a;b`` of any scale, whitespace around it
    ignored.  ValueError "unknown {what} state" for text of none of these
    forms, "bad {what} state" for a malformed one."""
    text = text.strip()
    lower = text.lower()
    if lower in NAMED_KETS:
        return tuple(NAMED_KETS[lower].tolist())
    linear = lower.startswith("linear:")
    if not linear and "," not in text and ";" not in text:
        raise ValueError(f"unknown {what} state {text!r}")
    try:
        if linear:
            rad = math.radians(float(text[len("linear:"):]))
            return unit_pair(math.cos(rad), math.sin(rad), what)
        alpha, beta = text.replace(";", ",").split(",")
        return unit_pair(complex(alpha), complex(beta), what)
    except ValueError:      # math.cos(inf) raises it too
        raise ValueError(f"bad {what} state {text!r}") from None


def unit_ket(psi, what: str) -> np.ndarray:
    """``psi`` as a complex (2,) array, not renormalised, so that a unit ket
    keeps its bits; ValueError naming ``what`` unless it has two finite
    components of unit norm within 1e-12."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if (psi.size != 2 or not np.isfinite(psi).all()
            or not abs(abs(psi[0]) ** 2 + abs(psi[1]) ** 2 - 1.0) <= 1e-12):
        raise ValueError(f"{what} must be a unit ket of two finite components, "
                         f"got {psi.tolist()!r}")
    return psi


# Two-outcome polarization bases: (jones ket, outcome label) pairs.
NAMED_BASES = {
    "hv": ((KET_H, "H"), (KET_V, "V")),
    "pm": ((KET_D, "+"), (KET_A, "-")),
    "rl": ((KET_R, "R"), (KET_L, "L")),
}


class ModeOverlapError(ValueError):
    """Tensor factors share a (spatial, polarization) mode."""


class SectorError(ValueError):
    """State lies outside the photon-number sector an operation expects."""


def basis_pairs(basis: str) -> tuple:
    """``(jones_ket, label)`` pairs of the named basis "hv", "pm" or "rl"."""
    if isinstance(basis, str) and basis.lower() in NAMED_BASES:
        return NAMED_BASES[basis.lower()]
    raise ValueError(f"unknown basis {basis!r}")


def occupation(counts) -> tuple:
    """Canonical occupation key: sorted ((spatial, pol), n) pairs, zeros dropped.

    Every mode is validated: an integer spatial index and 'H' or 'V'.
    """
    if isinstance(counts, Mapping):
        counts = counts.items()
    merged: dict = {}
    for m, n in counts:
        spatial, pol = m
        if pol not in POLARIZATIONS:
            raise ValueError(f"polarization must be 'H' or 'V', got {pol!r}")
        try:
            key = (operator.index(spatial), pol)
        except TypeError:
            raise ValueError(f"spatial index must be an integer, got {spatial!r}") from None
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"photon count must be an integer, got {n!r}") from None
        if n < 0:
            raise ValueError("photon counts must be non-negative")
        if n:
            merged[key] = merged.get(key, 0) + n
    return tuple(sorted(merged.items()))


def _create(ket: dict, targets) -> dict:
    """Apply sum_j u_j b_j^dag to a ket held as {canonical key: amplitude}.

    ``targets`` is a sequence of ``(mode, u_j)`` pairs.  Each key has its
    mode raised at its sorted position, so the result keeps canonical keys,
    and the amplitude gains sqrt(n + 1) for the n photons already in the mode
    (bosonic enhancement).  No targets (an absorbed photon) give the zero ket.
    """
    out: dict = {}
    for key, amp in ket.items():
        for m, u in targets:
            i = bisect_left(key, (m,))
            n = key[i][1] if i < len(key) and key[i][0] == m else 0
            raised = key[:i] + ((m, n + 1),) + key[i + (n > 0):]
            out[raised] = out.get(raised, 0.0j) + amp * u * math.sqrt(n + 1)
    return out


def total_photons(occ: tuple) -> int:
    return sum(n for _, n in occ)


def spatial_counts(occ: tuple) -> dict:
    out: dict = {}
    for (spatial, _), n in occ:
        out[spatial] = out.get(spatial, 0) + n
    return out


class PureState:
    """Sparse pure photonic state: canonical occupation tuple -> amplitude.

    ``PureState(terms)`` canonicalises every key through ``occupation``, so a
    key may be any mode -> count mapping or pair list, and terms whose keys
    coincide add up.  It drops amplitudes below ``prune`` times the largest
    one of their photon number as rounding residue, so a weak term survives at
    any overall scale and beside a stronger vacuum; ``prune=0`` drops exact
    zeros only.  No photon number is capped: the elements are passive, so
    applying one never adds photons.
    """

    def __init__(self, terms: Mapping, prune: float = PRUNE_THRESHOLD):
        data: dict = {}
        try:
            for occ, amp in terms.items():
                key = occupation(occ)
                data[key] = data.get(key, 0.0j) + complex(amp)
            sizes = list(map(abs, data.values()))
        except OverflowError:   # an int amplitude or a modulus past the float range
            raise ValueError("amplitudes must be finite") from None
        if not math.isfinite(sum(sizes)):  # a NaN or inf modulus carries into the sum
            raise ValueError("amplitudes must be finite")
        numbers, top = list(map(total_photons, data)), {}  # top: largest per photon number
        for n, s in zip(numbers, sizes):
            top[n] = max(top.get(n, 0.0), s)
        self.terms = {k: a for (k, a), n, s in zip(data.items(), numbers, sizes)
                      if s > prune * top[n]}

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        bits = ", ".join(f"{occ}: {amp:.4g}" for occ, amp in sorted(self.terms.items()))
        return f"PureState({{{bits}}})"

    def items(self):
        return self.terms.items()

    def amplitude(self, occ) -> complex:
        return self.terms.get(occupation(occ), 0.0j)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.terms.values()))

    def normalized(self) -> "PureState":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return PureState({k: a / n for k, a in self.terms.items()}, prune=0.0)

    def modes(self) -> set:
        out: set = set()
        for occ in self.terms:
            out.update(m for m, _ in occ)
        return out


def basis_state(counts) -> PureState:
    """Single Fock basis ket with unit amplitude, e.g. basis_state({(1, H): 1})."""
    return PureState({occupation(counts): 1.0})


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    if len(b.terms) < len(a.terms):
        return complex(np.conj(overlap(b, a)))
    return sum(np.conj(amp) * b.terms.get(occ, 0.0j) for occ, amp in a.terms.items())


def tensor(a: PureState, b: PureState) -> PureState:
    """Compose states on disjoint mode sets, keeping every product term."""
    if a.modes() & b.modes():
        raise ModeOverlapError(f"overlapping modes: {sorted(a.modes() & b.modes())}")
    out: dict = {}
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            out[occ_a + occ_b] = amp_a * amp_b
    return PureState(out)


def project(state: PureState, predicate: Callable[[tuple], bool],
            empty_tol: float = 1e-14):
    """Project onto the terms selected by ``predicate``.

    Returns ``(renormalized_state, probability)`` where the probability is the
    pre-renormalization weight of the kept terms.  An (almost) empty projection
    returns ``(None, probability)``; whether that is an error is the caller's
    call.
    """
    kept = {occ: amp for occ, amp in state.terms.items() if predicate(occ)}
    prob = float(sum(abs(a) ** 2 for a in kept.values()))
    if prob < empty_tol:
        return None, prob
    scale = 1.0 / math.sqrt(prob)
    return PureState({k: a * scale for k, a in kept.items()}), prob


def to_qubit_density(state: PureState, spatials: Sequence[int]) -> np.ndarray:
    """Map the one-photon-per-listed-mode sector to an n-qubit density operator.

    Every listed spatial mode must carry exactly one photon in every term
    (post-select first).  Unlisted modes are traced out.  The result is
    trace-normalized.
    """
    spatials = list(spatials)
    n = len(spatials)
    dim = 2 ** n
    vectors: dict = {}
    for occ, amp in state.terms.items():
        counts = spatial_counts(occ)
        idx = 0
        env = []
        for (spatial, pol), cnt in occ:
            if spatial not in spatials:
                env.append(((spatial, pol), cnt))
        for s in spatials:
            if counts.get(s, 0) != 1:
                raise SectorError(
                    f"spatial mode {s} carries {counts.get(s, 0)} photons in a term; "
                    "post-select the one-photon sector first")
        for s in spatials:
            bit = 1 if ((s, V), 1) in occ else 0
            idx = (idx << 1) | bit
        key = tuple(env)
        if key not in vectors:
            vectors[key] = np.zeros(dim, dtype=complex)
        vectors[key][idx] += amp
    rho = np.zeros((dim, dim), dtype=complex)
    for vec in vectors.values():
        rho += np.outer(vec, vec.conj())
    tr = float(np.real(np.trace(rho)))
    if tr <= 0.0:
        raise ValueError("state has zero weight on the requested qubit sector")
    return rho / tr


def check_density(rho: np.ndarray, what: str) -> None:
    """ValueError naming ``what`` unless each matrix of the complex array
    ``rho`` (..., d, d) is finite, and Hermitian and of unit trace within 1e-9."""
    if not np.isfinite(rho).all():
        raise ValueError(f"{what} must be finite")
    if (np.abs(rho - rho.conj().swapaxes(-1, -2)) > 1e-9).any():
        raise ValueError(f"{what} must be Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    wrong = trace[np.abs(trace - 1.0) > 1e-9]
    if wrong.size:
        raise ValueError(f"{what} must have unit trace, got {float(wrong[0].real)!r}")


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a unit ket with ``rho``, which must be a finite,
    Hermitian 2x2 matrix of unit trace, each within 1e-9, or ValueError."""
    rho = np.asarray(rho, dtype=complex)
    psi = unit_ket(psi, "psi")
    if rho.shape != (2, 2):
        raise ValueError(f"dimension mismatch: rho {rho.shape}, psi {psi.shape}")
    check_density(rho, "rho")
    val = complex(psi.conj() @ rho @ psi)
    if abs(val.imag) > 1e-12:
        raise ValueError(f"fidelity has non-negligible imaginary part {val.imag:g}")
    return float(val.real)
