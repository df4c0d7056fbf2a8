"""Reference values the benchmark checks cqtsim's outputs against.

Everything here is computed from first principles with numpy and imports
nothing from cqtsim, except the likelihood search used for a tomography
table whose linear inversion falls outside the Bloch ball.

Qubit order is (q1, q2, q3) for the photons in spatial modes 1, 2, 3; the
input photon (mode 4) is kept as a separate factor.  |H> is basis state 0.
"""

from __future__ import annotations

import math

import numpy as np

SQ2 = math.sqrt(2.0)

KETS = {
    "h": np.array([1, 0], dtype=complex),
    "v": np.array([0, 1], dtype=complex),
    "plus": np.array([1, 1], dtype=complex) / SQ2,
    "minus": np.array([1, -1], dtype=complex) / SQ2,
    "r": np.array([1, 1j], dtype=complex) / SQ2,
    "l": np.array([1, -1j], dtype=complex) / SQ2,
}
AXES = (("plus", "minus"), ("r", "l"), ("h", "v"))     # Bloch x, y, z
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / SQ2   # on (input, sender)

# (sender resource, receiver, controller) as indices into (q1, q2, q3)
ROLES = {"standard": (0, 1, 2), "swapped": (1, 2, 0)}


# --- ideal-photon teleportation -------------------------------------------------

def channel_ket(channel: str) -> np.ndarray:
    """Three-photon state behind the source, as a (2, 2, 2) amplitude array.

    g1 is the GHZ state and g2 the GHZ state with the sender's photon flipped
    (a half-wave plate at pi/4 swaps the polarization entering the fusion
    splitter).  Both carry norm^2 1/2: two photons fused on a polarizing
    splitter leave one per output port only when their polarizations agree,
    which for a circular photon and half of a maximally entangled pair
    happens half the time.  The reference run has no fusion: an entangled
    pair on (q1, q2) and an H trigger photon in q3.
    """
    psi = np.zeros((2, 2, 2), dtype=complex)
    if channel == "g1":
        psi[0, 0, 0] = psi[1, 1, 1] = 0.5
    elif channel == "g2":
        psi[1, 0, 0] = psi[0, 1, 1] = 0.5
    elif channel == "reference":
        psi[0, 0, 0] = psi[1, 1, 0] = 1 / SQ2
    else:
        raise ValueError(f"no ideal channel {channel!r}")
    return psi


def _controller_ket(action: str, controller: int):
    if action == "none":
        return None
    if action == "deny":
        return KETS["h"]
    return KETS["r"] if controller == 2 else KETS["plus"]


def receiver_amplitudes(channel: str, action: str, roles: str,
                        psi_in: np.ndarray) -> np.ndarray:
    """Unnormalized receiver ket after the controller and singlet post-selections.

    Its squared norm is the four-fold success probability of the ideal run.
    """
    sender, receiver, controller = ROLES[roles]
    state = channel_ket(channel)
    ctrl = _controller_ket(action, controller)
    if ctrl is not None:
        state = np.tensordot(state, ctrl.conj(), axes=([controller], [0]))
    else:
        state = state.sum(axis=controller)   # trigger photon: H in every term
    remaining = [q for q in range(3) if q != controller]
    state = np.moveaxis(state, remaining.index(sender), 0)   # (sender, receiver)
    joint = np.einsum("i,sr->isr", psi_in, state)            # (input, sender, receiver)
    return np.einsum("is,isr->r", SINGLET.reshape(2, 2).conj(), joint)


def analyzer_frame(channel: str, roles: str) -> np.ndarray:
    """Unitary taking the input ket to the receiver's state in the allowed run."""
    action = "none" if channel == "reference" else "allow"
    cols = [receiver_amplitudes(channel, action, roles, KETS[k]) for k in ("h", "v")]
    w = np.column_stack(cols)
    return w / np.linalg.norm(cols[0])


def ideal_rates(channel: str, action: str, roles: str, alpha: complex,
                beta: complex, mix_p: float = 0.5) -> dict:
    """f_parallel, f_perp, success and fidelity of a run with ideal photons."""
    if channel == "mix":
        g1 = ideal_rates("g1", action, roles, alpha, beta)
        g2 = ideal_rates("g2", action, roles, alpha, beta)
        out = {k: (1 - mix_p) * g1[k] + mix_p * g2[k]
               for k in ("f_parallel", "f_perp", "success_probability")}
    else:
        psi = np.array([alpha, beta], dtype=complex)
        psi = psi / np.linalg.norm(psi)
        perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
        frame = analyzer_frame(channel, roles)
        r = receiver_amplitudes(channel, action, roles, psi)
        out = {"f_parallel": abs(np.vdot(frame @ psi, r)) ** 2,
               "f_perp": abs(np.vdot(frame @ perp, r)) ** 2,
               "success_probability": float(np.vdot(r, r).real)}
    out["fidelity"] = out["f_parallel"] / (out["f_parallel"] + out["f_perp"])
    return out


# --- noisy-channel scan and Bloch averages ------------------------------------------

def werner_row(q: float) -> tuple:
    """(F_allowed, F_denied) on the Werner channel: (1+q)/2 and 1/2."""
    return (1 + q) / 2, 0.5


WERNER_THRESHOLD_Q = 1.0 / 3.0   # (1+q)/2 = 2/3


def avg_fidelity_closed_form(kind: str, param: float) -> float:
    """Bloch-average fidelity with feed-forward, controller measuring +/-.

    Werner(q): each controller branch is q|Bell><Bell| + (1-q)/4, giving
    (1+q)/2.  GHZ mixture (1-p) GHZ + p GHZ': a + outcome leaves both GHZ
    and GHZ' in phi+ and a - outcome both in phi-, so the controller's
    outcome restores fidelity 1 for every p, the biseparable p = 1/2 too.
    """
    if kind == "werner":
        return (1 + param) / 2
    if kind == "ghz_mixture":
        return 1.0
    raise ValueError(f"unknown channel kind {kind!r}")


# On both channels above every sample's fidelity equals the average.  For a
# Bell-diagonal branch a sample's fidelity is sum_k w_k |<psi|P_k|psi>|^2, and
# over Haar inputs |<psi|P|psi>|^2 has variance 4/45, so its standard
# deviation stays below 0.3; five standard errors bound the Monte-Carlo mean.
MC_SAMPLE_SD = 0.3


def mc_tolerance(n_samples: int) -> float:
    return 5.0 * MC_SAMPLE_SD / math.sqrt(n_samples) + 1e-12


# --- tomography ----------------------------------------------------------------

def bloch_from_counts(counts: dict) -> np.ndarray:
    """Axial linear inversion: one Bloch component per pair of opposite projectors."""
    return np.array([(counts[a] - counts[b]) / (counts[a] + counts[b]) for a, b in AXES])


def rho_from_bloch(r) -> np.ndarray:
    return 0.5 * (np.eye(2, dtype=complex) + sum(ri * p for ri, p in zip(r, PAULI)))


def tomography_expectation(counts: dict, target: np.ndarray, weight: float) -> dict:
    """Point estimate of ``cqtsim tomo`` on a six-projector axial table.

    The likelihood separates into one binomial per axis, so wherever the
    linear inversion lies inside the Bloch ball it is the maximum-likelihood
    state.  Elsewhere the reference is cqtsim's direct search over the ball.
    """
    r = bloch_from_counts(counts)
    if np.dot(r, r) < 1.0:
        rho = rho_from_bloch(r)
    else:
        from cqtsim.estimation import axial_counts, ml_oracle_bloch_search
        rho = ml_oracle_bloch_search(axial_counts(counts))
    corrected = (rho - weight * np.eye(2) / 2) / (1 - weight)
    t = np.asarray(target, dtype=complex)
    t = t / np.linalg.norm(t)
    return {"rho": rho,
            "raw_fidelity": float(np.vdot(t, rho @ t).real),
            "corrected_fidelity": float(np.vdot(t, corrected @ t).real)}
