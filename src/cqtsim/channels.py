"""Qubit-register analysis of teleportation channels.

Everything here works on dense numpy density operators with the fixed
ordering (qubit 1, qubit 2, qubit 3): qubit 1 sits with the sender, qubit 2
with the receiver and qubit 3 with the controller.  |H> maps to basis 0.

The public functions take one channel; only the scan takes a stack.
``werner_scan`` forms no conditional state: each row is a function of twelve
linear functionals Tr[rho M] of its channel (``_scan_rows``), the
controller's branch probabilities, the Bell overlaps of the +/- branches and
the frame sum of the H branch, one gemv per channel.  ``werner_point`` is its
one-row case, so a row of the scan is bit-identical to ``werner_point`` at
the same q.

Teleportation fidelities are one quadratic form <v|rho|v> per Bell outcome
(see ``_sender_kets``); no receiver state is formed or normalized for them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import KET_D, KET_H, basis_pairs, unit_ket

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
    if not all(0 <= i < n for i in keep) or len(set(keep)) < len(keep):
        raise ValueError(f"keep must list distinct subsystems of 0..{n - 1}, got {keep!r}")
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


def make_ghz_mixture(p: float) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return (1 - p) * ket_outer(ghz_ket(1)) + p * ket_outer(ghz_ket(2))


# both Werner terms are real: real products and one cast give the complex products' bytes
_GHZ1, _MIXED8 = ket_outer(ghz_ket(1)).real.copy(), np.eye(8) / 8.0


def make_werner(q: float) -> np.ndarray:
    return _werner_channels([q])[0]


def _werner_channels(q_grid) -> np.ndarray:
    """Werner channels (n, 8, 8) of a flat sequence of real weights; the first
    weight that is not a real number, or lies outside [0, 1], is named."""
    try:
        qs = np.asarray(q_grid)
    except ValueError:      # a ragged sequence
        qs = np.asarray(q_grid, dtype=object)
    if qs.ndim != 1 or qs.dtype.kind not in "biuf":
        bad = [q for q in q_grid if not isinstance(q, numbers.Real)]
        if bad:
            raise ValueError(f"q={bad[0]!r} is not a real number")
    qs = qs.astype(float)
    outside = np.flatnonzero(~((qs >= 0.0) & (qs <= 1.0)))
    if outside.size:
        raise ValueError(f"q={q_grid[outside[0]]} outside [0, 1]")
    qs = qs[:, None, None]
    return (qs * _GHZ1 + (1 - qs) * _MIXED8).astype(complex)


@dataclass
class ConditionalChannel:
    outcome: str
    probability: float
    state: np.ndarray       # 4x4 on qubits 1, 2


def _operator(channel, d: int, what: str = "channel") -> np.ndarray:
    channel = np.asarray(channel, dtype=complex)
    if channel.shape != (d, d):
        raise ValueError(f"{what} must have shape ({d}, {d}), got {channel.shape}")
    if not np.isfinite(channel).all():
        raise ValueError(f"{what} must be finite")
    return channel


def condition_on_controller(channel: np.ndarray, basis="pm", outcome=None):
    """Measure qubit 3 and return the renormalized two-qubit conditional(s).

    ``basis`` names one of the bases "hv", "pm" or "rl", and ``outcome`` one
    of its labels ("H", "V", "+", "-", "R", "L").  With ``outcome`` given,
    returns a single ConditionalChannel; otherwise one per basis outcome.  A
    conditional of probability below 1e-14 is the zero state.
    """
    pairs = [(ket, label) for ket, label in basis_pairs(basis)
             if outcome is None or label == outcome]
    if not pairs:
        raise ValueError(f"{outcome!r} is not an outcome of basis {basis!r}")
    rho = _operator(channel, 8).reshape((2,) * 6)
    results = []
    for ket, label in pairs:
        sub = np.einsum("c,abcdef,f->abde", ket.conj(), rho, ket).reshape(4, 4)
        prob = float(np.trace(sub).real)
        state = sub / prob if prob >= 1e-14 else np.zeros((4, 4), dtype=complex)
        results.append(ConditionalChannel(label, prob, state))
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


# Teleporting |psi> over a two-qubit channel rho: the sender projects (input,
# qubit 1) onto the Bell ket B_k, read as a 2x2 matrix (input, qubit 1).  Its
# qubit-1 ket s_k = B_k^T conj(psi) leaves the receiver the unnormalized state
# sigma_k = (s_k (x) 1)^dag rho (s_k (x) 1), of trace the branch probability,
# and the fidelity of the corrected state C sigma_k C^dag to psi, times that
# probability, is <v|rho|v> with v = s_k (x) C^dag psi: linear in rho.  Every
# correction here is a Pauli, its own dagger.

def _sender_kets(psis: np.ndarray) -> np.ndarray:
    """s_k = B_k^T conj(psi) (4, n, 2) for the input kets ``psis`` (n, 2)."""
    # two broadcast products added to 0 in einsum's order: its bits, signed zeros too
    conj = psis.conj()[:, :, None]
    return 0.0 + _BELL[:, None, 0] * conj[:, 0] + _BELL[:, None, 1] * conj[:, 1]


# Pauli frame that inverts teleportation over the (|HH>+|VV>)/sqrt2 channel,
# one correction per Bell outcome
STANDARD_CORRECTIONS = {"phi+": PAULI_I, "phi-": PAULI_Z, "psi+": PAULI_X, "psi-": PAULI_Y}
_CORRECTIONS = np.array([STANDARD_CORRECTIONS[label] for label in _BELL_LABELS])


def _frame_kets(psi: np.ndarray) -> np.ndarray:
    """v_k = s_k (x) C_k^dag psi (4, 4) of the ``STANDARD_CORRECTIONS`` frame."""
    return np.einsum("kc,ke->kce", _sender_kets(psi[None])[:, 0], _CORRECTIONS @ psi).reshape(4, 4)


def teleport_fidelity(channel: np.ndarray, psi: np.ndarray) -> float:
    """Fidelity of teleporting the unit ket ``psi`` with the ``STANDARD_CORRECTIONS``
    Pauli frame over ``channel``, a finite (4, 4) operator of unit trace:
    sum_k <v_k|rho|v_k>."""
    if any(isinstance(b, ConditionalChannel) for b in (
            channel if isinstance(channel, (list, tuple)) else [channel])):
        raise ValueError("teleport_fidelity takes one (4, 4) channel, not controller branches")
    v = _frame_kets(unit_ket(psi, "psi"))
    (branch,), _ = _branches(np.asarray(channel, dtype=complex))
    return float(np.einsum("ki,ij,kj->", v.conj(), branch.state, v).real)


def _branches(channel):
    """``(branches, total probability)``: a list or tuple of ConditionalChannel
    is used as given, and anything else is a two-qubit channel, one branch of
    probability 1.

    ValueError for an empty list, a list that mixes ConditionalChannel with
    other entries, a channel or branch state that is not a finite 4x4
    operator, a probability that is not finite or lies below -1e-14, a total
    below 1e-14, and a state whose trace is not 1 within 1e-9 in a branch of
    probability at least 1e-14.  A branch below that keeps the zero state
    ``condition_on_controller`` gives it; its probability may be a rounding
    residue just below 0.
    """
    listed = isinstance(channel, (list, tuple)) and (
        not channel or any(isinstance(b, ConditionalChannel) for b in channel))
    if listed and not all(isinstance(b, ConditionalChannel) for b in channel):
        raise ValueError("a branch list must hold ConditionalChannel entries only")
    branches = list(channel) if listed else [
        ConditionalChannel("", 1.0, np.asarray(channel, dtype=complex))]
    if not branches:
        raise ValueError("no branches to average over")
    for b in branches:
        what = f"branch {b.outcome!r} state" if listed else "channel"
        _operator(b.state, 4, what)
        if not (math.isfinite(b.probability) and b.probability >= -1e-14):
            raise ValueError(f"branch probabilities must be finite and non-negative, "
                             f"got {b.probability!r}")
        trace = np.trace(b.state)
        if b.probability >= 1e-14 and not abs(trace.real - 1.0) <= 1e-9:
            raise ValueError(f"{what} trace must be 1 within 1e-9, got {trace!r}")
    total = sum(b.probability for b in branches)
    if not total >= 1e-14:
        raise ValueError(f"branch probabilities must total at least 1e-14, got {total!r}")
    return branches, total


def avg_teleport_fidelity(channel) -> float:
    """Bloch-sphere average teleportation fidelity with Pauli-frame corrections.

    ``channel`` is either a two-qubit density operator or a list of
    ConditionalChannel objects.  Given the controller's outcome branches, the
    receiver picks the Pauli frame per outcome (feed-forward); a receiver
    without the outcome teleports over the outcome-averaged channel
    ``sum(b.probability * b.state for b in branches) / total``, passed as one
    operator.  Uses the closed form (2 f + 1)/3 with f the channel's
    maximally-entangled-state overlap, max_k <B_k|rho|B_k>.
    """
    branches, total_p = _branches(channel)
    total = 0.0
    for b in branches:
        fraction = max(float((bell.conj() @ b.state @ bell).real) for bell in _BELL.reshape(4, 4))
        total += b.probability * (2 * fraction + 1) / 3.0
    return total / total_p


# 1 (x) P on (qubit 1, qubit 2), for the Paulis P in ``PAULIS`` order
_LOCAL_PAULIS = np.array([np.kron(PAULI_I, p) for p in PAULIS.values()])


def mc_avg_teleport_fidelity(channel, n_samples: int, seed: int) -> float:
    """Monte-Carlo cross-check of avg_teleport_fidelity over Haar inputs, on
    the same ``channel`` argument.

    Picks, per Bell outcome, the Pauli that maximizes the sample-averaged
    fidelity, matching the closed-form protocol.
    """
    if n_samples is True or not (isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer of at least 1, got {n_samples!r}")
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be an explicit non-negative integer, got {seed!r}")
    branches, total_p = _branches(channel)
    rng = np.random.default_rng(seed)
    # per sample: two real parts, then two imaginary parts
    draws = rng.normal(size=(n_samples, 2, 2))
    psis = draws[:, 0] + 1j * draws[:, 1]
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)

    # M_kp = sum_n v v^dag, v = s_k (x) P^dag psi_n, is (1 (x) P) N_k (1 (x) P)
    # with N_k = sum_n u u^dag, u = s_k (x) psi_n: one matmul over the outcomes
    u = np.einsum("knc,ne->knce", _sender_kets(psis), psis).reshape(4, n_samples, 4)
    moments = _LOCAL_PAULIS @ (u.transpose(0, 2, 1) @ u.conj())[:, None] @ _LOCAL_PAULIS
    grand = 0.0
    for b in branches:
        # Tr[rho M_kp], summed over the samples per (outcome, Pauli); then the
        # best Pauli per outcome
        acc = np.einsum("ij,kpji->kp", b.state, moments).real
        best = float(acc.max(axis=1).sum()) / n_samples
        grand += b.probability * best
    return grand / total_p


# --- scans and the qubit-level reference ------------------------------------

@dataclass
class WernerScanResult:
    rows: list            # (q, F_allowed, F_denied)
    threshold_q: float    # where F_allowed crosses 2/3


# A scan row takes twelve traces Tr[rho M] of its channel, each M Hermitian:
# for + and - (``basis_pairs("pm")`` order) the probability p_b (M = 1 (x) |b><b|)
# and the Bell overlaps o_bj (|B_j><B_j| (x) |b><b|), then H's probability p_H
# and frame sum of teleporting |+> (sum_k |v_k><v_k| (x) |H><H|).  Tr[rho M]
# is the dot product of the two real views, so the table holds M's as columns.
_FRAME_D = _frame_kets(KET_D)
_SCAN_TERMS = np.array([np.eye(4), *map(ket_outer, bell_kets().values())] * 2
                       + [np.eye(4), _FRAME_D.T @ _FRAME_D.conj()])
_SCAN_CONTROLLER = np.repeat([ket_outer(ket) for ket, _ in basis_pairs("pm")]
                             + [ket_outer(KET_H)], [5, 5, 2], axis=0)
_SCAN_FUNCTIONALS = np.ascontiguousarray(
    (_SCAN_TERMS[:, :, None, :, None] * _SCAN_CONTROLLER[:, None, :, None, :])
    .reshape(12, 64).view(float).T)


def _scan_rows(channels: np.ndarray) -> tuple:
    """F_allowed and F_denied (n,) of a stack of channels (n, 8, 8), each row
    from its channel's twelve traces: F_allowed = sum_b (2 max_j o_bj + p_b)/3
    / sum_b p_b and F_denied = frame sum / p_H; no conditional state is formed.
    Each channel is a singleton row, (1, 64) @ (64, 12): one BLAS gemv per row,
    so a row keeps its channel's bits (a product over the flattened stack fuses
    multiply-adds differently, and one ulp moves the printed scan at ties)."""
    n = len(channels)
    traces = (channels.reshape(n, 1, 64).view(float) @ _SCAN_FUNCTIONALS)[:, 0]
    branches = traces[:, :10].reshape(n, 2, 5)
    probs = branches[:, :, 0]
    allowed = (2 * branches[:, :, 1:].max(axis=2) + probs) / 3
    return ((allowed[:, 0] + allowed[:, 1]) / (probs[:, 0] + probs[:, 1]),
            traces[:, 11] / traces[:, 10])


def werner_point(q: float) -> tuple:
    """(F_allowed, F_denied) for the Werner channel of weight q.

    F_allowed: controller measures +/- and shares the outcome; Bloch average
    with feed-forward.  F_denied: controller measures H/V; fidelity of
    teleporting |+> over the H-conditioned channel with the standard frame.
    One row of ``werner_scan``.
    """
    allowed, denied = _scan_rows(_werner_channels([q]))
    return float(allowed[0]), float(denied[0])


def werner_scan(q_grid: Sequence[float]) -> WernerScanResult:
    """``werner_point`` rows over ``q_grid``, computed as one stack; each +/-
    branch has fully entangled fraction (1 + 3q)/4, so F_allowed = (1 + q)/2
    crosses 2/3 at q = 1/3."""
    q_grid = list(q_grid)
    if not q_grid:
        raise ValueError("empty q grid")
    allowed, denied = _scan_rows(_werner_channels(q_grid))
    rows = list(zip(map(float, q_grid), allowed.tolist(), denied.tolist()))
    return WernerScanResult(rows=rows, threshold_q=1.0 / 3.0)


def conditional_teleport_output(channel: np.ndarray, input_ket: np.ndarray,
                                controller_basis, controller_outcome: str):
    """Receiver state after controller projection and the psi- sender projection.

    Qubit-level reference computation mirroring the photonic pipeline: qubit 3
    is measured first, then (qubit 1, input) are projected onto the singlet.
    Returns ``(rho_receiver, joint_probability)``.
    """
    input_ket = unit_ket(input_ket, "input_ket")
    cond = condition_on_controller(channel, controller_basis, outcome=controller_outcome)
    s = _sender_kets(input_ket[None])[_BELL_LABELS.index("psi-"), 0]
    sigma = np.einsum("c,cedf,d->ef", s.conj(), cond.state.reshape(2, 2, 2, 2), s)
    branch_prob = float(np.trace(sigma).real)
    if branch_prob <= 1e-14:
        raise ValueError("singlet projection never succeeds for this branch")
    return sigma / branch_prob, cond.probability * branch_prob
