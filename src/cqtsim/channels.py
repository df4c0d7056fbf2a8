"""Qubit-register analysis of teleportation channels.

Everything here works on dense numpy density operators with the fixed
ordering (qubit 1, qubit 2, qubit 3): qubit 1 sits with the sender, qubit 2
with the receiver and qubit 3 with the controller.  |H> maps to basis 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import KET_D, KET_H, KET_R, basis_pairs

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_SQ2 = math.sqrt(2.0)


def ket_outer(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep`` (indices into dims)."""
    dims = list(dims)
    keep = sorted(keep)
    n = len(dims)
    rho = np.asarray(rho).reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for offset, i in enumerate(traced):
        axis = i - offset
        rho = np.trace(rho, axis1=axis, axis2=axis + rho.ndim // 2)
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return rho.reshape(d, d)


def ghz_ket(variant: int = 1) -> np.ndarray:
    """variant 1: (|HHH>+|VVV>)/sqrt2; variant 2: (|HHV>+|VVH>)/sqrt2."""
    out = np.zeros(8, dtype=complex)
    if variant == 1:
        out[0b000] = out[0b111] = 1 / _SQ2
    elif variant == 2:
        out[0b001] = out[0b110] = 1 / _SQ2
    else:
        raise ValueError("variant must be 1 or 2")
    return out


def chi_ket(sign: int) -> np.ndarray:
    """(|HH> + sign|VV>)/sqrt2 on qubits 1,2 times (sign|H> + |V>)/sqrt2 on qubit 3."""
    pair = np.zeros(4, dtype=complex)
    pair[0b00] = 1 / _SQ2
    pair[0b11] = sign / _SQ2
    third = np.array([sign, 1.0], dtype=complex) / _SQ2
    return np.kron(pair, third)


def make_ghz_mixture(p: float) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return (1 - p) * ket_outer(ghz_ket(1)) + p * ket_outer(ghz_ket(2))


def make_werner(q: float) -> np.ndarray:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    return q * ket_outer(ghz_ket(1)) + (1 - q) * np.eye(8, dtype=complex) / 8.0


@dataclass
class ConditionalChannel:
    outcome: str
    probability: float
    state: np.ndarray       # 4x4 on qubits 1, 2


def condition_on_controller(channel: np.ndarray, basis="pm", outcome=None):
    """Measure qubit 3 and return the renormalized two-qubit conditional(s).

    ``basis`` names one of the bases "hv", "pm" or "rl", and ``outcome`` one
    of its labels ("H", "V", "+", "-", "R", "L").  With ``outcome`` given,
    returns a single ConditionalChannel; otherwise one per basis outcome.
    """
    rho = np.asarray(channel, dtype=complex).reshape((2,) * 6)
    results = []
    for ket, label in basis_pairs(basis):
        if outcome is not None and label != outcome:
            continue
        sub = np.einsum("c,abcdef,f->abde", ket.conj(), rho, ket).reshape(4, 4)
        prob = float(np.real(np.trace(sub)))
        if prob < 1e-14:
            if outcome is not None:
                raise ValueError(f"controller outcome {label!r} has zero probability")
            results.append(ConditionalChannel(label, prob, np.zeros((4, 4), dtype=complex)))
            continue
        results.append(ConditionalChannel(label, prob, sub / prob))
    if outcome is not None:
        return results[0]
    return results


# --- teleportation over a two-qubit resource --------------------------------

def bell_kets() -> dict:
    phi_p = np.array([1, 0, 0, 1], dtype=complex) / _SQ2
    phi_m = np.array([1, 0, 0, -1], dtype=complex) / _SQ2
    psi_p = np.array([0, 1, 1, 0], dtype=complex) / _SQ2
    psi_m = np.array([0, 1, -1, 0], dtype=complex) / _SQ2
    return {"phi+": phi_p, "phi-": phi_m, "psi+": psi_p, "psi-": psi_m}


def fully_entangled_fraction(rho: np.ndarray) -> float:
    """Largest overlap with the four standard Bell states."""
    rho = np.asarray(rho, dtype=complex)
    return max(float(np.real(b.conj() @ rho @ b)) for b in bell_kets().values())


_BELL_LABELS = tuple(bell_kets())
# Bell kets as (outcome, input qubit, qubit 1)
_BELL = np.array(list(bell_kets().values())).reshape(4, 2, 2)


def _teleport_branches(channel: np.ndarray, psis: np.ndarray):
    """Bell-outcome probabilities (n, 4) and receiver states (n, 4, 2, 2).

    The sender measures (input, qubit 1) in the Bell basis, outcomes in the
    order of ``bell_kets``; ``psis`` (n, 2) are the input kets.  A branch
    with probability below 1e-14 keeps its unnormalized state.
    """
    rho = np.asarray(channel, dtype=complex).reshape(2, 2, 2, 2)
    # <bell_k| on (input, qubit 1) applied to |psi> on the input
    u = np.einsum("kac,na->nkc", _BELL.conj(), psis)
    sub = np.einsum("nkc,cedf,nkd->nkef", u, rho, u.conj())
    probs = np.einsum("nkee->nk", sub).real
    states = sub / np.where(probs > 1e-14, probs, 1.0)[..., None, None]
    return probs, states


@functools.cache
def standard_corrections() -> dict:
    """Pauli frame that inverts teleportation over the (|HH>+|VV>)/sqrt2 channel."""
    channel = ket_outer(bell_kets()["phi+"])
    probes = np.array([KET_H, KET_D, KET_R])
    _, states = _teleport_branches(channel, probes)
    out = {}
    for k, label in enumerate(_BELL_LABELS):
        for name, pauli in PAULIS.items():
            if all(abs(float(np.real(probe.conj() @ pauli @ state @ pauli.conj().T @ probe))
                       - 1.0) <= 1e-10
                   for probe, state in zip(probes, states[:, k])):
                out[label] = pauli
                break
        else:
            raise RuntimeError(f"no Pauli inverts outcome {label}")
    return out


def teleport_fidelity(channel: np.ndarray, psi: np.ndarray) -> float:
    """Fidelity of teleporting ``psi`` with the ``standard_corrections`` Pauli frame."""
    corrections = standard_corrections()
    psi = np.asarray(psi, dtype=complex).ravel()
    probs, states = _teleport_branches(channel, psi[None, :])
    total = 0.0
    for label, prob, state in zip(_BELL_LABELS, probs[0], states[0]):
        if prob < 1e-14:
            continue
        c = corrections[label]
        # Python floats throughout: the CLI prints repr() of the result
        total += float(prob) * float(np.real(psi.conj() @ c @ state @ c.conj().T @ psi))
    return total


def _branches(channel, strategy: str):
    """``(branches, total probability)`` that ``strategy`` averages over; without
    the controller's information, one branch holding their weighted mixture."""
    if isinstance(channel, np.ndarray):
        branches = [ConditionalChannel("", 1.0, channel)]
    else:
        branches = list(channel)
    total_p = sum(b.probability for b in branches)
    if strategy == "with_feedforward":
        return branches, total_p
    if strategy == "without_controller_info":
        mixed = sum(b.probability * b.state for b in branches) / total_p
        return [ConditionalChannel("", 1.0, mixed)], 1.0
    raise ValueError(f"unknown strategy {strategy!r}")


def avg_teleport_fidelity(channel, strategy: str = "with_feedforward") -> float:
    """Bloch-sphere average teleportation fidelity with Pauli-frame corrections.

    ``channel`` is either a two-qubit density operator or a list of
    ConditionalChannel objects (the controller's outcome branches).  With
    feed-forward the receiver picks the Pauli frame per controller outcome;
    without the controller's information the receiver teleports over the
    outcome-averaged channel.  Uses the closed form (2 f + 1)/3 with f the
    channel's maximally-entangled-state overlap.
    """
    branches, total_p = _branches(channel, strategy)
    return sum(
        b.probability * (2 * fully_entangled_fraction(b.state) + 1) / 3.0
        for b in branches) / total_p


def mc_avg_teleport_fidelity(channel, n_samples: int, seed: int,
                             strategy: str = "with_feedforward") -> float:
    """Monte-Carlo cross-check of avg_teleport_fidelity over Haar inputs.

    Picks, per Bell outcome, the Pauli that maximizes the sample-averaged
    fidelity, matching the closed-form protocol.
    """
    branches, total_p = _branches(channel, strategy)
    rng = np.random.default_rng(seed)
    # per sample: two real parts, then two imaginary parts
    draws = rng.normal(size=(n_samples, 2, 2))
    psis = draws[:, 0] + 1j * draws[:, 1]
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)

    paulis = np.array(list(PAULIS.values()))
    # P^dagger |psi> for every Pauli P: (n, pauli, 2)
    rotated = np.einsum("pji,nj->npi", paulis.conj(), psis)
    grand = 0.0
    for b in branches:
        probs, states = _teleport_branches(b.state, psis)
        fids = np.einsum("npi,nkij,npj->nkp", rotated.conj(), states, rotated).real
        # summed over samples per (outcome, Pauli); then the best Pauli per outcome
        acc = np.einsum("nk,nkp->kp", probs, fids)
        best = float(acc.max(axis=1).sum()) / n_samples
        grand += b.probability * best
    return grand / total_p


# --- scans and baselines -----------------------------------------------------

@dataclass
class WernerScanResult:
    rows: list            # (q, F_allowed, F_denied)
    threshold_q: float    # where F_allowed crosses 2/3


def werner_point(q: float) -> tuple:
    """(F_allowed, F_denied) for the Werner channel of weight q.

    F_allowed: controller measures +/- and shares the outcome; Bloch average
    with feed-forward.  F_denied: controller measures H/V; fidelity of
    teleporting |+> over the H-conditioned channel with the standard frame.
    """
    rho = make_werner(q)
    allowed = avg_teleport_fidelity(condition_on_controller(rho, "pm"),
                                    "with_feedforward")
    denied_channel = condition_on_controller(rho, "hv", outcome="H").state
    denied = teleport_fidelity(denied_channel, KET_D)
    return allowed, denied


def werner_scan(q_grid: Sequence[float]) -> WernerScanResult:
    """``werner_point`` rows over ``q_grid``; each +/- branch has fully entangled
    fraction (1 + 3q)/4, so F_allowed = (1 + q)/2 crosses 2/3 at q = 1/3."""
    q_grid = list(q_grid)
    if not q_grid:
        raise ValueError("empty q grid")
    rows = [(float(q), *werner_point(q)) for q in q_grid]
    return WernerScanResult(rows=rows, threshold_q=1.0 / 3.0)


def classical_control_baseline(knowledge: str, input_ket: np.ndarray | None = None) -> float:
    """Teleportation through an even phi+/phi- mixture with/without the which-state bit.

    With the bit shared the receiver compensates exactly (fidelity 1); with it
    withheld he teleports through the mixture in the phi+ frame.  ``input_ket``
    gives a single-state fidelity, otherwise the Bloch average is returned.
    """
    if knowledge == "shared":
        return 1.0
    if knowledge != "withheld":
        raise ValueError("knowledge must be 'shared' or 'withheld'")
    bells = bell_kets()
    mixed = 0.5 * ket_outer(bells["phi+"]) + 0.5 * ket_outer(bells["phi-"])
    if input_ket is None:
        return avg_teleport_fidelity(mixed, "with_feedforward")
    return teleport_fidelity(mixed, input_ket)


def conditional_teleport_output(channel: np.ndarray, input_ket: np.ndarray,
                                controller_basis, controller_outcome: str):
    """Receiver state after controller projection and the psi- sender projection.

    Qubit-level reference computation mirroring the photonic pipeline: qubit 3
    is measured first, then (qubit 1, input) are projected onto the singlet.
    Returns ``(rho_receiver, joint_probability)``.
    """
    cond = condition_on_controller(channel, controller_basis, outcome=controller_outcome)
    input_ket = np.asarray(input_ket, dtype=complex).ravel()
    probs, states = _teleport_branches(cond.state, input_ket[None, :])
    psi_m = _BELL_LABELS.index("psi-")
    branch_prob = float(probs[0, psi_m])
    if branch_prob <= 1e-14:
        raise ValueError("singlet projection never succeeds for this branch")
    return states[0, psi_m], cond.probability * branch_prob
