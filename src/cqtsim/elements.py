"""Optical components modeled as substitution rules on photon creation operators.

Each element maps the creation operator of every input mode to a linear
combination over output modes, and ``compose`` multiplies such maps, so a
whole setup is one element.  Applying an element expands every term of a
state multinomially (which reproduces bosonic enhancement and two-photon
interference for free) and recollects amplitudes.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fock import (H, PureState, SectorError, V, basis_pairs, occupation,
                   spatial_counts)


@dataclass
class OpticalElement:
    """A named creation-operator substitution: mode -> {mode: amplitude}."""

    kind: str
    mapping: dict
    params: dict = field(default_factory=dict)


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def hwp_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(theta: float) -> np.ndarray:
    return rotation(theta) @ np.diag([1.0, 1.0j]).astype(complex) @ rotation(-theta)


def _jones_mapping(spatial: int, jones: np.ndarray) -> dict:
    # a_dag on input basis q picks up column q of the Jones matrix.
    jones = np.asarray(jones, dtype=complex)
    return {
        (spatial, H): {(spatial, H): jones[0, 0], (spatial, V): jones[1, 0]},
        (spatial, V): {(spatial, H): jones[0, 1], (spatial, V): jones[1, 1]},
    }


def jones_element(spatial: int, jones: np.ndarray, kind: str = "Jones",
                  **params) -> OpticalElement:
    """Arbitrary 2x2 polarization action on one spatial mode."""
    return OpticalElement(kind, _jones_mapping(spatial, jones),
                          {"spatial": spatial, **params})


def hwp(spatial: int, theta: float) -> OpticalElement:
    return jones_element(spatial, hwp_matrix(theta), "HWP", theta=theta)


def qwp(spatial: int, theta: float) -> OpticalElement:
    return jones_element(spatial, qwp_matrix(theta), "QWP", theta=theta)


def phase_plate(spatial: int, phi: float, pol: str = V) -> OpticalElement:
    """Birefringent phase: multiplies the chosen polarization by exp(i*phi)."""
    j = np.eye(2, dtype=complex)
    j[1 if pol == V else 0, 1 if pol == V else 0] = np.exp(1j * phi)
    return jones_element(spatial, j, "PhasePlate", phi=phi, pol=pol)


def polarizer(spatial: int, jones_ket: np.ndarray) -> OpticalElement:
    """Projective polarizer: transmits the ``jones_ket`` component, absorbs the rest."""
    v = np.asarray(jones_ket, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return jones_element(spatial, np.outer(v, v.conj()), "Polarizer", ket=v)


def balanced_bs(port_a: int, port_b: int) -> OpticalElement:
    """50/50 beam splitter, polarization preserving, ``i`` on reflection."""
    t = 1.0 / math.sqrt(2.0)
    r = 1.0j / math.sqrt(2.0)
    mapping = {}
    for p in (H, V):
        mapping[(port_a, p)] = {(port_a, p): t, (port_b, p): r}
        mapping[(port_b, p)] = {(port_a, p): r, (port_b, p): t}
    return OpticalElement("BalancedBS", mapping, {"ports": (port_a, port_b)})


def pbs(port_a: int, port_b: int, epsilon: float = 0.0) -> OpticalElement:
    """Polarizing beam splitter with H-reflection intensity ``epsilon``.

    H transmits with sqrt(1-eps) and leaks into the reflected port with
    i*sqrt(eps); V reflects ideally with ``i``.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    t = math.sqrt(1.0 - epsilon)
    r = 1.0j * math.sqrt(epsilon)
    mapping = {
        (port_a, H): {(port_a, H): t, (port_b, H): r},
        (port_b, H): {(port_b, H): t, (port_a, H): r},
        (port_a, V): {(port_b, V): 1.0j},
        (port_b, V): {(port_a, V): 1.0j},
    }
    return OpticalElement("PBS", mapping, {"ports": (port_a, port_b), "epsilon": epsilon})


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
    return OpticalElement("Composite", mapping)


def _compositions(n: int, k: int):
    """All ways to split n photons over k output slots (none when k = 0 < n)."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _expand_power(targets: Sequence, n: int):
    """Expansion of (sum_j u_j b_j)^n: yields (coefficient, {mode: count})."""
    modes = [m for m, _ in targets]
    amps = [u for _, u in targets]
    for comp in _compositions(n, len(modes)):
        coef = math.factorial(n)
        for k in comp:
            coef /= math.factorial(k)
        term = complex(coef)
        for k, u in zip(comp, amps):
            if k:
                term *= u ** k
        if term == 0:
            continue
        yield term, {m: k for m, k in zip(modes, comp) if k}


def apply(element: OpticalElement, state: PureState) -> PureState:
    """Apply an element to a state by creation-operator substitution.

    A term c * prod_m (a_m^dag)^{n_m} / sqrt(n_m!) |0> has every substituted
    operator replaced by its output combination; the resulting polynomial is
    expanded multinomially and re-expressed in normalized Fock kets.  Output
    modes of an element are always a subset of its input modes, so they never
    collide with untouched modes of the state.  A photon in a mode that maps
    to no output is absorbed, and its term drops out.
    """
    sub = element.mapping
    out: dict = {}
    for occ, amp in state.terms.items():
        affected = [(m, n) for m, n in occ if m in sub]
        base = {m: n for m, n in occ if m not in sub}
        prefactor = amp
        for _, n in affected:
            prefactor /= math.sqrt(math.factorial(n))
        expansions = [(prefactor, {})]
        for m, n in affected:
            targets = list(sub[m].items())
            new_exp = []
            for coef, outs in expansions:
                for term_coef, add in _expand_power(targets, n):
                    merged = dict(outs)
                    for om, k in add.items():
                        merged[om] = merged.get(om, 0) + k
                    new_exp.append((coef * term_coef, merged))
            expansions = new_exp
        for coef, outs in expansions:
            factor = coef
            for k in outs.values():
                factor *= math.sqrt(math.factorial(k))
            merged = dict(base)
            merged.update(outs)
            key = occupation(merged)
            out[key] = out.get(key, 0.0j) + factor
    return PureState(out, n_max=state.n_max)


def measure_polarization(state: PureState, spatial: int, basis) -> list:
    """Von Neumann polarization measurement on a one-photon spatial mode.

    ``basis`` is one of the named bases ("hv", "pm", "rl") or a sequence of
    ``(jones_ket, label)`` pairs.  Returns ``[(label, probability,
    conditional_state_without_the_mode), ...]``; the conditional is ``None``
    when the outcome never occurs.
    """
    occupied_somewhere = False
    results = []
    for ket, label in basis_pairs(basis):
        cond: dict = {}
        for occ, amp in state.terms.items():
            cnt = spatial_counts(occ).get(spatial, 0)
            if cnt == 0:
                continue
            if cnt > 1:
                raise SectorError(
                    f"mode {spatial} carries {cnt} photons; measurement defined on the "
                    "one-photon sector only")
            occupied_somewhere = True
            if ((spatial, H), 1) in occ:
                comp = np.conj(ket[0])
            else:
                comp = np.conj(ket[1])
            if comp == 0:
                continue
            rest = occupation([(m, n) for m, n in occ if m[0] != spatial])
            cond[rest] = cond.get(rest, 0.0j) + amp * comp
        prob = float(sum(abs(a) ** 2 for a in cond.values()))
        if prob < 1e-14:
            results.append((label, prob, None))
        else:
            scale = 1.0 / math.sqrt(prob)
            results.append(
                (label, prob,
                 PureState({k: a * scale for k, a in cond.items()}, n_max=state.n_max)))
    if not occupied_somewhere:
        raise SectorError(f"mode {spatial} is unoccupied in every term")
    return results
