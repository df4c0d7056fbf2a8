"""Qubit-register analysis of teleportation channels.

Everything here works on dense numpy density operators with the fixed
ordering (qubit 1, qubit 2, qubit 3): qubit 1 sits with the sender, qubit 2
with the receiver and qubit 3 with the controller.  |H> maps to basis 0.

The algebra runs in private kernels over stacks of channels: conditioning
on the controller (``_condition``), the Bell overlaps (``_entangled_fractions``)
and the Pauli-frame fidelity (``_frame_fidelities``).  The public functions
on one channel are the n = 1 case of the same kernels, and ``werner_scan``
computes all its rows in one pass through them, so a row of the scan is
bit-identical to ``werner_point`` at the same q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import KET_D, KET_H, basis_pairs

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
    return _werner_channels([q])[0]


def _werner_channels(q_grid) -> np.ndarray:
    """Werner channels (n, 8, 8); the first weight outside [0, 1] is named."""
    qs = np.asarray(q_grid, dtype=float)
    outside = np.flatnonzero(~((qs >= 0.0) & (qs <= 1.0)))
    if outside.size:
        raise ValueError(f"q={q_grid[outside[0]]} outside [0, 1]")
    qs = qs[:, None, None]
    return qs * ket_outer(ghz_ket(1)) + (1 - qs) * np.eye(8, dtype=complex) / 8.0


@dataclass
class ConditionalChannel:
    outcome: str
    probability: float
    state: np.ndarray       # 4x4 on qubits 1, 2


def _condition(channels: np.ndarray, kets) -> tuple:
    """Measure qubit 3 of a stack of channels (n, 8, 8) onto each of ``kets``.

    Returns probabilities (n, k) and renormalized conditionals (n, k, 4, 4) on
    qubits 1, 2; a conditional of probability below 1e-14 is zero.
    """
    n = len(channels)
    rho = channels.reshape((n,) + (2,) * 6)
    sub = np.stack([np.einsum("c,nabcdef,f->nabde", ket.conj(), rho, ket)
                    for ket in kets], axis=1).reshape(n, len(kets), 4, 4)
    probs = np.trace(sub, axis1=2, axis2=3).real
    tiny = probs < 1e-14
    states = np.where(tiny[..., None, None], 0j,
                      sub / np.where(tiny, 1.0, probs)[..., None, None])
    return probs, states


def condition_on_controller(channel: np.ndarray, basis="pm", outcome=None):
    """Measure qubit 3 and return the renormalized two-qubit conditional(s).

    ``basis`` names one of the bases "hv", "pm" or "rl", and ``outcome`` one
    of its labels ("H", "V", "+", "-", "R", "L").  With ``outcome`` given,
    returns a single ConditionalChannel; otherwise one per basis outcome.
    """
    pairs = [(ket, label) for ket, label in basis_pairs(basis)
             if outcome is None or label == outcome]
    if not pairs:
        raise ValueError(f"{outcome!r} is not an outcome of basis {basis!r}")
    probs, states = _condition(np.asarray(channel, dtype=complex)[None],
                               [ket for ket, _ in pairs])
    results = [ConditionalChannel(label, float(prob), state)
               for (_, label), prob, state in zip(pairs, probs[0], states[0])]
    if outcome is not None:
        if results[0].probability < 1e-14:
            raise ValueError(f"controller outcome {outcome!r} has zero probability")
        return results[0]
    return results


# --- teleportation over a two-qubit resource --------------------------------

def bell_kets() -> dict:
    phi_p = np.array([1, 0, 0, 1], dtype=complex) / _SQ2
    phi_m = np.array([1, 0, 0, -1], dtype=complex) / _SQ2
    psi_p = np.array([0, 1, 1, 0], dtype=complex) / _SQ2
    psi_m = np.array([0, 1, -1, 0], dtype=complex) / _SQ2
    return {"phi+": phi_p, "phi-": phi_m, "psi+": psi_p, "psi-": psi_m}


_BELL_LABELS = tuple(bell_kets())
# Bell kets as (outcome, input qubit, qubit 1)
_BELL = np.array(list(bell_kets().values())).reshape(4, 2, 2)

# Stacked products below keep a singleton row or column, (1, d) @ (d, d) and
# (1, d) @ (d, 1) per matrix, so that numpy's matmul makes for each matrix the
# BLAS gemv and dot calls of the one-matrix ``b.conj() @ rho @ b``: a row of a
# stack is then bit-identical to one channel.  An einsum, one product over the
# flattened stack or an elementwise sum rounds differently (BLAS fuses
# multiply-adds), and one ulp changes the printed scan at rounding ties.


def _entangled_fractions(rhos: np.ndarray) -> np.ndarray:
    """Largest overlap with the four Bell states, for a stack (n, 4, 4)."""
    bras = _BELL.reshape(4, 1, 1, 4).conj()
    kets = _BELL.reshape(4, 1, 4, 1)
    return ((bras @ rhos) @ kets)[..., 0, 0].real.max(axis=0)


def _teleport_branches(channel: np.ndarray, psis: np.ndarray):
    """Bell-outcome probabilities (..., n, 4) and receiver states (..., n, 4, 2, 2).

    The sender measures (input, qubit 1) in the Bell basis, outcomes in the
    order of ``bell_kets``; ``psis`` (n, 2) are the input kets and
    ``channel`` is one two-qubit channel (4, 4) or a stack (..., 4, 4).  A
    branch with probability below 1e-14 keeps its unnormalized state.
    """
    channel = np.asarray(channel, dtype=complex)
    rho = channel.reshape(channel.shape[:-2] + (2, 2, 2, 2))
    # <bell_k| on (input, qubit 1) applied to |psi> on the input
    u = np.einsum("kac,na->nkc", _BELL.conj(), psis)
    sub = np.einsum("nkc,...cedf,nkd->...nkef", u, rho, u.conj())
    probs = np.einsum("...nkee->...nk", sub).real
    states = sub / np.where(probs > 1e-14, probs, 1.0)[..., None, None]
    return probs, states


# Pauli frame that inverts teleportation over the (|HH>+|VV>)/sqrt2 channel,
# one correction per Bell outcome
STANDARD_CORRECTIONS = {"phi+": PAULI_I, "phi-": PAULI_Z, "psi+": PAULI_X, "psi-": PAULI_Y}


def _frame_fidelities(channels: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Fidelity of teleporting ``psi`` with the ``STANDARD_CORRECTIONS`` Pauli
    frame over each channel of a stack (m, 4, 4)."""
    probs, states = _teleport_branches(channels, psi[None, :])
    total = np.zeros(len(channels))
    for k, label in enumerate(_BELL_LABELS):
        c = STANDARD_CORRECTIONS[label]
        # psi^dag c state c^dag psi, one (1, 2) row per channel (see above)
        fids = ((psi.conj() @ c)[None, :] @ states[:, 0, k] @ c.conj().T
                @ psi[:, None])[:, 0, 0].real
        prob = probs[:, 0, k]
        total = total + np.where(prob < 1e-14, 0.0, prob * fids)
    return total


def teleport_fidelity(channel: np.ndarray, psi: np.ndarray) -> float:
    """Fidelity of teleporting ``psi`` with the ``STANDARD_CORRECTIONS`` Pauli frame."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return float(_frame_fidelities(np.asarray(channel, dtype=complex)[None], psi)[0])


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
    probs = np.array([[b.probability for b in branches]])
    states = np.array([[b.state for b in branches]], dtype=complex)
    return float(_feedforward_sums(probs, states)[0]) / total_p


def _feedforward_sums(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Probability-weighted (2 f + 1)/3 summed over the branches of each row:
    ``probs`` (n, b) and conditional states (n, b, 4, 4); divide by the total."""
    n, b = probs.shape
    fractions = _entangled_fractions(states.reshape(n * b, 4, 4)).reshape(n, b)
    # sum() over the branch columns adds them in order, as for one channel
    return sum((probs * (2 * fractions + 1) / 3.0).T)


def mc_avg_teleport_fidelity(channel, n_samples: int, seed: int,
                             strategy: str = "with_feedforward") -> float:
    """Monte-Carlo cross-check of avg_teleport_fidelity over Haar inputs.

    Picks, per Bell outcome, the Pauli that maximizes the sample-averaged
    fidelity, matching the closed-form protocol.
    """
    if not n_samples >= 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
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


# --- scans and the qubit-level reference ------------------------------------

@dataclass
class WernerScanResult:
    rows: list            # (q, F_allowed, F_denied)
    threshold_q: float    # where F_allowed crosses 2/3


def _werner_rows(q_grid) -> tuple:
    """F_allowed and F_denied (n,) over ``q_grid`` in one pass of the kernels."""
    channels = _werner_channels(q_grid)
    probs, states = _condition(channels, [ket for ket, _ in basis_pairs("pm")])
    allowed = _feedforward_sums(probs, states) / sum(probs.T)
    _, denied_channels = _condition(channels, [KET_H])
    return allowed, _frame_fidelities(denied_channels[:, 0], KET_D)


def werner_point(q: float) -> tuple:
    """(F_allowed, F_denied) for the Werner channel of weight q.

    F_allowed: controller measures +/- and shares the outcome; Bloch average
    with feed-forward.  F_denied: controller measures H/V; fidelity of
    teleporting |+> over the H-conditioned channel with the standard frame.
    One row of ``werner_scan``.
    """
    allowed, denied = _werner_rows([q])
    return float(allowed[0]), float(denied[0])


def werner_scan(q_grid: Sequence[float]) -> WernerScanResult:
    """``werner_point`` rows over ``q_grid``, computed as one stack; each +/-
    branch has fully entangled fraction (1 + 3q)/4, so F_allowed = (1 + q)/2
    crosses 2/3 at q = 1/3."""
    q_grid = list(q_grid)
    if not q_grid:
        raise ValueError("empty q grid")
    allowed, denied = _werner_rows(q_grid)
    rows = list(zip(map(float, q_grid), allowed.tolist(), denied.tolist()))
    return WernerScanResult(rows=rows, threshold_q=1.0 / 3.0)


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
