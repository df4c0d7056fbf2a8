"""Sparse Fock-state machinery for polarization-encoded photonic modes.

A mode is a ``(spatial, polarization)`` pair, a basis state is a sparse
occupation vector over modes, and a pure state is a complex superposition
of basis states, held as a plain dict keyed by canonical occupation tuples.
The stage operations, the public API and the tests' oracles for the dense
engine work on these states, which take any modes and stay small.

The emission sectors of a protocol run are propagated instead as dense
photon-number vectors over a fixed list of modes (``_number_basis``): one
complex amplitude per occupation with N photons in all, C(N + 7, 7) of them
over eight modes.  ``_create_pairs`` applies a quadratic form of creation
operators to such a vector in one ``np.bincount``; its index tables are
built with numpy on first use, once per photon number.

Every sparse state is built by ``PureState(...)``, which canonicalises its
keys through ``occupation``, so no code outside this module needs to know
what a canonical key is.  A protocol run, its analyzer calibration included,
builds no sparse state.

Qubit encoding used throughout the package: |H> -> basis 0, |V> -> basis 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left
from collections.abc import Mapping
from typing import Callable, Iterable, Sequence

import numpy as np

H = "H"
V = "V"
POLARIZATIONS = (H, V)

DEFAULT_N_MAX = 4
PRUNE_THRESHOLD = 1e-15     # relative to a state's largest amplitude

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


def mode(spatial: int, pol: str) -> tuple:
    """Validated mode ``(spatial, pol)``: an integer index and 'H' or 'V'."""
    if pol not in POLARIZATIONS:
        raise ValueError(f"polarization must be 'H' or 'V', got {pol!r}")
    try:
        return (operator.index(spatial), pol)
    except TypeError:
        raise ValueError(f"spatial index must be an integer, got {spatial!r}") from None


def occupation(counts) -> tuple:
    """Canonical occupation key: sorted ((spatial, pol), n) pairs, zeros dropped."""
    if isinstance(counts, Mapping):
        counts = counts.items()
    merged: dict = {}
    for m, n in counts:
        spatial, pol = m
        key = mode(spatial, pol)
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


_COUNT_BITS = 4     # bits per mode in an occupation code: up to 15 photons


@functools.cache
def _number_basis(n: int, n_modes: int) -> tuple:
    """``(occupations, codes)`` of every way to put ``n`` photons in ``n_modes`` modes.

    Stars and bars: each choice of ``n_modes - 1`` bar positions among
    ``n + n_modes - 1`` slots gives the counts as the gaps between bars.  Row
    i of ``occupations`` holds the counts of basis state i, and ``codes[i]``
    packs them into one integer, ``_COUNT_BITS`` per mode with the first mode
    most significant.  Combinations come in lexicographic order, so the codes
    come sorted and ``np.searchsorted(codes, code)`` finds a state's index.
    """
    if n >= 1 << _COUNT_BITS:
        raise SectorError(f"{n} photons exceed the {_COUNT_BITS}-bit mode counts")
    slots = n + n_modes - 1
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(slots), n_modes - 1)), dtype=np.int8)
    bars = bars.reshape(-1, n_modes - 1)
    edges = np.column_stack([np.full(len(bars), -1, dtype=np.int8), bars,
                             np.full(len(bars), slots, dtype=np.int8)])
    occupations = edges[:, 1:] - edges[:, :-1] - np.int8(1)
    return occupations, occupations @ _mode_units(n_modes)


def _mode_units(n_modes: int) -> np.ndarray:
    """The code of one photon in each mode."""
    return 1 << (_COUNT_BITS * np.arange(n_modes - 1, -1, -1))


@functools.cache
def _pair_table(n: int, n_modes: int) -> tuple:
    """Index table of the pairs b_k^dag b_l^dag, k <= l, from ``n`` to ``n + 2`` photons.

    Returns ``(k, l, slots, coef, size)``.  Source state s and pair p send
    ``coef[s, p]`` times the amplitude to target state t, whose real and
    imaginary parts sit at ``slots[s, p] = (2t, 2t + 1)`` of the float view of
    a complex vector of ``size`` entries.  ``coef`` holds the bosonic factors
    sqrt(n_k + 1) sqrt(n_l + 1), or sqrt((n_k + 1)(n_k + 2)) / 2 for k = l,
    the 1/2 of the quadratic form's diagonal.
    """
    occ, codes = _number_basis(n, n_modes)
    _, out_codes = _number_basis(n + 2, n_modes)
    k, l = np.array(list(itertools.combinations_with_replacement(range(n_modes), 2))).T
    unit = _mode_units(n_modes)
    target = np.searchsorted(out_codes, codes[:, None] + (unit[k] + unit[l]))
    same = k == l
    coef = np.sqrt((occ[:, k] + 1.0) * (occ[:, l] + 1.0 + same)) * np.where(same, 0.5, 1.0)
    slots = np.stack([2 * target, 2 * target + 1], axis=-1)
    return k, l, slots.ravel(), coef, len(out_codes)


def _create_pairs(vec: np.ndarray, n: int, q: np.ndarray) -> np.ndarray:
    """Apply 1/2 sum_kl q[k, l] b_k^dag b_l^dag to an ``n``-photon vector.

    ``vec`` is indexed by ``_number_basis(n, len(q))`` and ``q`` is symmetric;
    the result is indexed by the basis of ``n + 2`` photons.
    """
    k, l, slots, coef, size = _pair_table(n, len(q))
    terms = vec[:, None] * q[k, l]
    terms *= coef
    return np.bincount(slots, terms.view(np.float64).ravel(),
                       minlength=2 * size).view(complex)


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
    one as rounding residue and raises ``SectorError`` for a term above
    ``n_max`` photons.  The cut is relative, so a weak term survives at any
    overall scale of the state; ``prune=0`` drops exact zeros only.
    """

    def __init__(self, terms: Mapping, n_max: int = DEFAULT_N_MAX,
                 prune: float = PRUNE_THRESHOLD):
        data: dict = {}
        for occ, amp in terms.items():
            key = occupation(occ)
            data[key] = data.get(key, 0.0j) + complex(amp)
        self.n_max = int(n_max)
        cut = prune * max(map(abs, data.values()), default=0.0)
        self.terms = {k: a for k, a in data.items() if abs(a) > cut}
        for key in self.terms:
            if total_photons(key) > self.n_max:
                raise SectorError(
                    f"term with {total_photons(key)} photons exceeds n_max={self.n_max}")

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
        return PureState({k: a / n for k, a in self.terms.items()}, self.n_max, prune=0.0)

    def modes(self) -> set:
        out: set = set()
        for occ in self.terms:
            out.update(m for m, _ in occ)
        return out


def vacuum(n_max: int = DEFAULT_N_MAX) -> PureState:
    return PureState({(): 1.0}, n_max=n_max)


def basis_state(counts, n_max: int = DEFAULT_N_MAX) -> PureState:
    """Single Fock basis ket with unit amplitude, e.g. basis_state({(1, H): 1})."""
    return PureState({occupation(counts): 1.0}, n_max)


def single_photon(spatial: int, jones: np.ndarray, n_max: int = DEFAULT_N_MAX) -> PureState:
    """One photon in the given spatial mode with polarization ket ``jones``."""
    jones = np.asarray(jones, dtype=complex)
    if jones.shape != (2,) or not jones.any():
        raise ValueError(f"jones must be a non-zero 2-vector, got {jones.tolist()!r}")
    return PureState({(((spatial, H), 1),): jones[0], (((spatial, V), 1),): jones[1]}, n_max)


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    if len(b.terms) < len(a.terms):
        return complex(np.conj(overlap(b, a)))
    return sum(np.conj(amp) * b.terms.get(occ, 0.0j) for occ, amp in a.terms.items())


def tensor(a: PureState, b: PureState, n_max: int | None = None) -> PureState:
    """Compose states on disjoint mode sets; an explicit ``n_max`` drops terms above it."""
    if a.modes() & b.modes():
        raise ModeOverlapError(f"overlapping modes: {sorted(a.modes() & b.modes())}")
    if n_max is None:
        n_max = a.n_max + b.n_max
    out: dict = {}
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            if total_photons(occ_a) + total_photons(occ_b) > n_max:
                continue
            out[occ_a + occ_b] = amp_a * amp_b
    return PureState(out, n_max)


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
    return PureState({k: a * scale for k, a in kept.items()}, state.n_max), prob


def clicks_at(spatials: Iterable[int]) -> Callable[[tuple], bool]:
    """Predicate: every listed spatial mode holds at least one photon (threshold click)."""
    spatials = tuple(spatials)

    def pred(occ: tuple) -> bool:
        counts = spatial_counts(occ)
        return all(counts.get(s, 0) >= 1 for s in spatials)

    return pred


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


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a density operator with a pure target."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex).ravel()
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: rho {rho.shape}, psi {psi.shape}")
    val = complex(psi.conj() @ rho @ psi)
    if abs(val.imag) > 1e-12:
        raise ValueError(f"fidelity has non-negligible imaginary part {val.imag:g}")
    return float(val.real)


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
