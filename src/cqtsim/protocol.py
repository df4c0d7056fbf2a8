"""Assembly of the full linear-optical controlled-teleportation experiment.

Standard wiring: a forward pair (modes 1, 2) and a backward pair (modes 3, 4)
leave the source; mode 3 is rotated to circular and overlapped with mode 2 on
a polarizing beam splitter whose outputs go to the receiver (mode 2) and the
controller (mode 3); the sender encodes the input qubit on mode 4 and
overlaps modes 1 and 4 on a balanced fiber beam splitter, post-selecting on
anti-bunching; the controller either passes a circular polarizer (allow) or a
horizontal one (deny); the receiver analyzes his photon behind a polarizer.
Four-fold coincidence of threshold detectors on the two fiber-BS outputs, the
controller arm and the receiver arm defines an event.

Phase bookkeeping, fixed by direct expansion under the package conventions:
the PBS post-selected three-photon state of the g1 run is
(|HHH> - |VVV>)/sqrt2; quarter-wave phases diag(1, i) on modes 1 and 3
compensate it to exactly (|HHH> + |VVV>)/sqrt2 and simultaneously bring the
g2 run (half-wave plate at pi/4 in mode 2, receiver analyzer rotated by pi/4)
to the bit-flipped GHZ state in the receiver's analyzer frame.

Emission terms with different photon-number signatures are propagated as
incoherent alternatives; their four-fold probabilities add.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import PAULI_X, bell_kets, ghz_ket
from .elements import (OpticalElement, apply, balanced_bs, compose, hwp,
                       jones_element, pbs, phase_plate, polarizer, qwp)
from .estimation import fidelity_from_counts
from .fock import (DEFAULT_N_MAX, H, V, KET_A, KET_D, KET_H, KET_R, KET_V, NAMED_KETS,
                   PureState, _renormalized, clicks_at, project, spatial_counts,
                   to_qubit_density)
from .spdc import (BACKWARD_MODES, FORWARD_MODES, SourceParams, coincidence_sectors,
                   emission_orders, four_mode_source)

_SQ2 = math.sqrt(2.0)

INPUT_MODE = 4

# Circular preparation for the controller-arm photon: maps |H> to |R> exactly.
R_PREP = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / _SQ2

COMPENSATION_PHASE = math.pi / 2.0   # diag(1, i) plates on modes 1 and 3


class ProtocolError(RuntimeError):
    """The configured pipeline cannot produce any successful event."""


@dataclass(frozen=True)
class Wiring:
    sender_resource: int
    receiver: int
    controller: int


WIRINGS = {
    "standard": Wiring(sender_resource=1, receiver=2, controller=3),
    # network operation: the mode-2 party teleports to the mode-3 party under
    # the mode-1 party's control, chaining the GHZ and singlet post-selections
    "swapped": Wiring(sender_resource=2, receiver=3, controller=1),
}


@dataclass(frozen=True)
class InputQubit:
    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"input amplitudes are not normalized: |a|^2+|b|^2={norm}")

    @classmethod
    def from_name(cls, name: str) -> "InputQubit":
        ket = NAMED_KETS.get(name.lower())
        if ket is None:
            raise ValueError(f"unknown input state {name!r}")
        return cls(complex(ket[0]), complex(ket[1]))

    @classmethod
    def from_components(cls, alpha, beta) -> "InputQubit":
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if norm == 0:
            raise ValueError("zero input vector")
        return cls(complex(alpha) / norm, complex(beta) / norm)

    def ket(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def orthogonal_ket(self) -> np.ndarray:
        return np.array([-np.conj(self.beta), np.conj(self.alpha)], dtype=complex)


AXIAL_INPUT_NAMES = ("h", "v", "plus", "minus", "r", "l")


@dataclass(frozen=True)
class ProtocolConfig:
    channel: str = "g1"                 # g1 | g2 | reference
    action: str = "allow"               # allow | deny | none
    input: InputQubit = field(default_factory=lambda: InputQubit.from_name("plus"))
    source: SourceParams | None = None  # None -> one ideal photon per mode
    pbs_epsilon: float = 0.0
    roles: str = "standard"

    def __post_init__(self):
        if self.channel not in ("g1", "g2", "reference"):
            raise ValueError(f"unknown channel variant {self.channel!r}")
        if self.action not in ("allow", "deny", "none"):
            raise ValueError(f"unknown controller action {self.action!r}")
        if self.channel == "reference" and self.action != "none":
            raise ValueError("the uncontrolled reference run leaves the third "
                             "photon as a trigger; action must be 'none'")
        if self.roles not in WIRINGS:
            raise ValueError(f"unknown role assignment {self.roles!r}")
        if self.roles != "standard" and self.channel != "g1":
            raise ValueError("role swapping is implemented for the g1 channel")
        if not 0.0 <= self.pbs_epsilon <= 1.0:
            raise ValueError("pbs_epsilon must lie in [0, 1]")

    def settings_key(self) -> tuple:
        src = self.source.key() if self.source is not None else None
        return (self.action, complex(self.input.alpha), complex(self.input.beta),
                float(self.pbs_epsilon), self.roles, src)


@dataclass
class CountRecord:
    """Coincidence rates for the two receiver analyzer settings."""

    f_parallel: float
    f_perp: float
    success_probability: float
    per_term: dict
    channel: str
    settings: tuple

    def fidelity(self) -> float:
        return fidelity_from_counts(self.f_parallel, self.f_perp)


# --- input encoding -----------------------------------------------------------

def encoding_plate_angles(alpha: complex, beta: complex) -> tuple:
    """Half- and quarter-wave plate angles preparing alpha|H> + beta|V> from |H>.

    Closed form: the QWP axis bisects the target's equatorial azimuth on the
    Poincare sphere; the preceding HWP supplies the linear state whose
    latitude the QWP rotates onto the target.  QWP(q) HWP(h) |H> equals the
    target up to a global phase.
    """
    alpha, beta = complex(alpha), complex(beta)
    s1 = abs(alpha) ** 2 - abs(beta) ** 2
    s2 = 2.0 * (np.conj(alpha) * beta).real
    q = 0.5 * math.atan2(s2, s1)
    a = math.cos(q) * alpha + math.sin(q) * beta
    b = -math.sin(q) * alpha + math.cos(q) * beta
    if abs(a) < 1e-12:
        delta = math.pi / 2.0
    else:
        ratio = b / a
        if abs(ratio.real) > 1e-9:
            raise ProtocolError("quarter-wave axis solve failed")
        delta = math.atan(ratio.imag)
    return (q + delta) / 2.0, q


def encoder_plates(input_q: InputQubit) -> list:
    theta_h, theta_q = encoding_plate_angles(input_q.alpha, input_q.beta)
    return [hwp(INPUT_MODE, theta_h), qwp(INPUT_MODE, theta_q)]


def _encoder_exact(input_q: InputQubit) -> OpticalElement:
    # phase-free unitary taking |H> to the input ket; used for calibration
    u = np.array([[input_q.alpha, -np.conj(input_q.beta)],
                  [input_q.beta, np.conj(input_q.alpha)]], dtype=complex)
    return jones_element(INPUT_MODE, u, "Encoder")


# --- stations ------------------------------------------------------------------

def ideal_source_state() -> PureState:
    """One photon per mode: entangled forward pair, H-polarized backward pair."""
    fwd = emission_orders("phi_plus", 1, FORWARD_MODES)[1]
    bwd = emission_orders("hh", 1, BACKWARD_MODES)[1]
    return PureState._canonical({occ_f + occ_b: amp_f * amp_b
                                 for occ_f, amp_f in fwd.items()
                                 for occ_b, amp_b in bwd.items()}, DEFAULT_N_MAX)


def _ghz_elements(channel: str, pbs_epsilon: float) -> list:
    """GHZ preparation on the polarizing splitter, then the compensation plates."""
    els = [hwp(2, math.pi / 4.0)] if channel == "g2" else []
    if channel != "reference":
        els.append(pbs(2, 3, pbs_epsilon))
    # else: uncontrolled reference run; mode 2 goes straight to the receiver
    # and mode 3 straight to the controller's detector as a trigger
    return els + [phase_plate(1, COMPENSATION_PHASE), phase_plate(3, COMPENSATION_PHASE)]


def _station_elements(config: ProtocolConfig, exact_encoder: bool = False) -> list:
    wiring = WIRINGS[config.roles]
    els = []
    if config.channel != "reference":
        # circular photon in mode 3, to be overlapped with mode 2
        els.append(jones_element(3, R_PREP, "CircularPrep"))
    els.extend(_ghz_elements(config.channel, config.pbs_epsilon))
    if exact_encoder:
        els.append(_encoder_exact(config.input))
    else:
        els.extend(encoder_plates(config.input))
    els.append(balanced_bs(wiring.sender_resource, INPUT_MODE))
    return els


def _controller_element(config: ProtocolConfig):
    wiring = WIRINGS[config.roles]
    if config.action == "none":
        return None
    if config.action == "deny":
        return polarizer(wiring.controller, KET_H)
    ket = KET_R if wiring.controller == 3 else KET_D
    return polarizer(wiring.controller, ket)


def _setup_map(config: ProtocolConfig, exact_encoder: bool = False) -> OpticalElement:
    """The stations, then the controller's polarizer, as one substitution map."""
    els = _station_elements(config, exact_encoder)
    ctrl = _controller_element(config)
    return compose(els if ctrl is None else els + [ctrl])


def _detector_spatials(config: ProtocolConfig) -> list:
    wiring = WIRINGS[config.roles]
    return [wiring.sender_resource, INPUT_MODE, wiring.controller, wiring.receiver]


def _sectors(config: ProtocolConfig) -> dict:
    if config.source is None:
        return {"1111": ideal_source_state()}
    return coincidence_sectors(four_mode_source(config.source))


# --- analyzer frame calibration -------------------------------------------------

def analyzer_frame(channel: str, roles: str = "standard") -> np.ndarray:
    """Unitary W mapping the encoded input ket to the receiver's ideal state.

    Calibrated once per (channel, roles) by propagating ideal single photons
    with basis-probe inputs through the lossless pipeline and reading the
    receiver amplitudes off a fixed detection pattern; the experiment's
    analogue is aligning the analyzer on known input states.  The receiver's
    parallel setting projects onto W |psi>.
    """
    return _calibrated_frame(channel, roles)


@functools.cache
def _calibrated_frame(channel: str, roles: str) -> np.ndarray:
    wiring = WIRINGS[roles]
    action = "none" if channel == "reference" else "allow"

    def receiver_ket(input_q: InputQubit) -> np.ndarray:
        cfg = ProtocolConfig(channel=channel, action=action, input=input_q,
                             source=None, pbs_epsilon=0.0, roles=roles)
        state = apply(_setup_map(cfg, exact_encoder=True), ideal_source_state())
        env = {(wiring.sender_resource, H): 1, (INPUT_MODE, V): 1,
               (wiring.controller, H): 1}
        return np.array([
            state.amplitude({**env, (wiring.receiver, H): 1}),
            state.amplitude({**env, (wiring.receiver, V): 1}),
        ])

    col_h = receiver_ket(InputQubit.from_name("h"))
    col_v = receiver_ket(InputQubit.from_name("v"))
    w = np.column_stack([col_h, col_v])
    gram = w.conj().T @ w
    scale = math.sqrt(float(np.real(gram[0, 0])))
    if scale < 1e-12 or abs(gram[0, 1]) > 1e-12 * scale ** 2 \
            or abs(gram[0, 0] - gram[1, 1]) > 1e-12:
        raise ProtocolError("analyzer calibration produced a non-unitary frame")
    w = w / scale
    for name in ("r", "plus"):
        probe = InputQubit.from_name(name)
        got = receiver_ket(probe)
        got = got / np.linalg.norm(got)
        expect = w @ probe.ket()
        if abs(abs(np.vdot(expect, got)) - 1.0) > 1e-10:
            raise ProtocolError("analyzer calibration failed cross-check")
    return w


# --- main pipeline ----------------------------------------------------------------

def run_protocol(config: ProtocolConfig):
    """Propagate every coincidence-capable emission term through the setup.

    Returns ``(CountRecord, rho_receiver)``.  Each sector is propagated once
    through the composed setup, whose analyzer rotation takes the calibrated
    images of the input ket and of its orthogonal complement to H and V, so
    ``f_parallel`` / ``f_perp`` are the four-fold probabilities with no V / no
    H photon at the receiver.  His conditional density operator is reported
    in his analyzer frame (for g2 including the pi/4 analyzer rotation), over
    events where his arm carries exactly one photon, which at the default
    emission truncation is every four-fold event.
    """
    wiring = WIRINGS[config.roles]
    frame = analyzer_frame(config.channel, config.roles)
    analyzer = np.array([frame @ config.input.ket(),
                         frame @ config.input.orthogonal_ket()]).conj()
    optics = compose([_setup_map(config), jones_element(wiring.receiver, analyzer)])
    detectors = _detector_spatials(config)
    receiver_h, receiver_v = (wiring.receiver, H), (wiring.receiver, V)

    f_par = f_perp = success = 0.0
    per_term: dict = {}
    rho_acc = np.zeros((2, 2), dtype=complex)
    rho_weight = 0.0

    sectors = _sectors(config)
    # four-fold rates scale as kappa^4 or faster, so "no coincidence" is judged
    # against the emitted weight of the sectors (1 for the ideal source)
    empty_tol = 1e-14 * sum(sector.norm_sq() for sector in sectors.values())
    for label, sector in sectors.items():
        state = apply(optics, sector)
        # one pass classifies each term: a four-fold click, the receiver's
        # polarizations, and one receiver photon for the conditional state
        clicked, par, perp, kept = [], [], [], {}
        for occ, amp in state.terms.items():
            counts = spatial_counts(occ)
            if not all(s in counts for s in detectors):
                continue
            p = abs(amp) ** 2
            clicked.append(p)
            modes = [m for m, _ in occ]
            if receiver_v not in modes:
                par.append(p)
            if receiver_h not in modes:
                perp.append(p)
            if counts[wiring.receiver] == 1:
                kept[occ] = amp
        success += sum(clicked)
        p_par = sum(par)
        p_perp = sum(perp)
        f_par += p_par
        f_perp += p_perp
        per_term[label] = p_par + p_perp
        cond, p_cond = _renormalized(kept, state.n_max, empty_tol)
        if cond is not None:
            rho_acc += p_cond * to_qubit_density(cond, [wiring.receiver])
            rho_weight += p_cond

    if not success > empty_tol:
        raise ProtocolError("no configuration of the source terms produces a "
                            "four-fold coincidence")
    if rho_weight <= 0.0:
        raise ProtocolError("every coincidence leaves more than one photon at "
                            "the receiver; no qubit state to report")
    # back from the analyzer's (parallel, orthogonal) basis to H/V
    rho = analyzer.conj().T @ (rho_acc / rho_weight) @ analyzer
    if config.channel == "g2":
        rho = PAULI_X @ rho @ PAULI_X
    record = CountRecord(f_parallel=f_par, f_perp=f_perp,
                         success_probability=success, per_term=per_term,
                         channel=config.channel, settings=config.settings_key())
    return record, rho


# --- standalone stage operations -----------------------------------------------

def prepare_ghz(source_state: PureState, pbs_epsilon: float = 0.0,
                g2: bool = False):
    """Overlap modes 2 and 3 on the PBS and post-select one photon per output.

    ``source_state`` must already carry the circular preparation on mode 3.
    Returns ``(state, success_probability)`` with the compensation phases
    applied, so the ideal output is exactly (|HHH>+|VVV>)/sqrt2.
    """
    out = apply(compose(_ghz_elements("g2" if g2 else "g1", pbs_epsilon)), source_state)

    def one_each(occ):
        counts = spatial_counts(occ)
        return counts.get(2, 0) == 1 and counts.get(3, 0) == 1

    state, prob = project(out, one_each)
    if state is None:
        raise ProtocolError("GHZ post-selection never succeeds")
    return state, prob


def singlet_projection(state: PureState, mode_a: int = 1, mode_b: int = INPUT_MODE):
    """Balanced-BS overlap of two modes, post-selected on anti-bunching.

    Returns ``(conditional_state, probability)``; the conditional is ``None``
    when anti-bunching never occurs (bunching-only inputs).
    """
    out = apply(balanced_bs(mode_a, mode_b), state)
    return project(out, clicks_at([mode_a, mode_b]))


def emulate_mixture(record_g1: CountRecord, record_g2: CountRecord, p: float) -> CountRecord:
    """Convex combination of two runs' rates, emulating a mixed channel.

    With p = 1/2 this reproduces summing the coincidence counts of the two
    GHZ runs (up to the irrelevant overall factor 2).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if record_g1.settings != record_g2.settings:
        raise ValueError("records were taken with different input/action settings")
    labels = set(record_g1.per_term) | set(record_g2.per_term)
    per_term = {k: (1 - p) * record_g1.per_term.get(k, 0.0)
                + p * record_g2.per_term.get(k, 0.0) for k in labels}
    return CountRecord(
        f_parallel=(1 - p) * record_g1.f_parallel + p * record_g2.f_parallel,
        f_perp=(1 - p) * record_g1.f_perp + p * record_g2.f_perp,
        success_probability=(1 - p) * record_g1.success_probability
        + p * record_g2.success_probability,
        per_term=per_term,
        channel=f"mixture(p={p:g})",
        settings=record_g1.settings,
    )


# --- feed-forward correction ------------------------------------------------------

_BELL_FROM_PAULI = {0: "psi-", 1: "phi-", 2: "phi+", 3: "psi+"}
# (P_k x I)|psi-> up to phase: I->psi-, X->phi-, Y->phi+, Z->psi+


def bob_correction(bell_outcome=0, charlie_outcome: str = "+") -> np.ndarray:
    """Unitary the receiver applies to undo the GHZ teleportation frame.

    ``bell_outcome`` indexes the sender's Bell result as the Pauli k in the
    (I, X, Y, Z) ordering, the measured state being (P_k x I)|psi->; the
    default k = 0 is the singlet itself, the only outcome the anti-bunching
    measurement post-selects.  A Bell label ("psi-", ...) is accepted too.
    ``charlie_outcome`` is "+" or "-".  Derived by solving the conceptual
    protocol on the exact GHZ channel; satisfies F = 1 for every input on
    the ideal channel.
    """
    if isinstance(bell_outcome, str):
        bell_label = bell_outcome
        if bell_label not in bell_kets():
            raise ValueError(f"unknown Bell outcome {bell_label!r}")
    else:
        bell_label = _BELL_FROM_PAULI[int(bell_outcome) % 4]
    if charlie_outcome not in ("+", "-"):
        raise ValueError("charlie_outcome must be '+' or '-'")
    return _correction(bell_label, charlie_outcome)


@functools.cache
def _correction(bell_label: str, charlie_outcome: str) -> np.ndarray:
    charlie_ket = KET_D if charlie_outcome == "+" else KET_A
    bell = bell_kets()[bell_label].reshape(2, 2)

    ghz = ghz_ket(1).reshape(2, 2, 2)

    def receiver_ket(psi):
        total = np.einsum("abg,c->abgc", ghz, psi)
        return np.einsum("ac,g,abgc->b", bell.conj(), charlie_ket.conj(), total)

    w = np.column_stack([receiver_ket(KET_H), receiver_ket(KET_V)])
    w = w / math.sqrt(float(np.real((w.conj().T @ w)[0, 0])))
    return w.conj().T
