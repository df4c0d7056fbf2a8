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

The optics are described once, as a list of ``(spatial modes, local
matrix)`` blocks (``_station_blocks``): the circular preparation, the g2
half-wave plate, the PBS, the compensation plates, the encoder, the fiber
beam splitter and the controller's polarizer.  ``run_protocol`` multiplies
them, and the receiver's analyzer rotation, into one 8x8 matrix L over the
modes 1H ... 4V, starting from the identity and replacing the rows of each
block's modes by the block times those rows.  It then propagates the
emission as dense photon-number vectors: each pair-creation operator
1/2 a^T Lambda a becomes the quadratic form L Lambda L^T on the output
modes, and a sector of j forward and k backward pairs is j + k such pair
creations on vacuum.  A dense vector holds one complex amplitude per
occupation of the eight modes with N photons in all, C(N + 7, 7) of them
(``_number_basis``, whose occupation codes no other module reads), and
``_create_pairs`` applies a quadratic form of creation operators to it in
one ``np.bincount``; its index tables are built with numpy on first use,
once per photon number.  The analyzer calibration propagates the ideal
source, sector (1, 1), through the same blocks and reads two amplitudes off
it, so a run builds no sparse state.  The stage operations ``prepare_ghz``
and ``singlet_projection`` apply the same blocks to the sparse states of
``fock`` as elements made with ``elements.port_element``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import PAULI_X
from .elements import (apply, balanced_bs_matrix, hwp_matrix, pbs_matrix, phase_matrix,
                       polarizer_matrix, port_element)
from .estimation import fidelity_from_counts
from .fock import (H, V, KET_D, KET_H, KET_R, NAMED_KETS, PRUNE_THRESHOLD,
                   PureState, SectorError, project, spatial_counts, unit_pair)
from .spdc import BACKWARD_MODES, FORWARD_MODES, PAIR_KINDS, SourceParams

_SQ2 = math.sqrt(2.0)

INPUT_MODE = 4

# Circular preparation for the controller-arm photon: maps |H> to |R> exactly.
R_PREP = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / _SQ2

COMPENSATION_PHASE = math.pi / 2.0   # diag(1, i) plates on modes 1 and 3

# the blocks that no setting changes
_G2_HWP = hwp_matrix(math.pi / 4.0)
_COMPENSATION = phase_matrix(COMPENSATION_PHASE)
_FIBER_BS = balanced_bs_matrix()
# the controller's polarizer: H on deny; on allow R in mode 3 and + in mode 1
_DENY_POLARIZER = polarizer_matrix(KET_H)
_ALLOW_POLARIZER = {3: polarizer_matrix(KET_R), 1: polarizer_matrix(KET_D)}


class ProtocolError(RuntimeError):
    """The configured pipeline cannot produce any successful event."""


class NoCoincidenceError(ProtocolError):
    """No term of the configured emission clicks all four detectors."""


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
        return cls(*unit_pair(alpha, beta, "input"))

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


@dataclass
class CountRecord:
    """Coincidence rates for the two receiver analyzer settings."""

    f_parallel: float
    f_perp: float
    success_probability: float
    per_term: dict

    def fidelity(self) -> float:
        return fidelity_from_counts(self.f_parallel, self.f_perp)


# --- stations ------------------------------------------------------------------

def _encoder_exact(input_q: InputQubit) -> np.ndarray:
    # phase-free unitary taking |H> to the input ket
    return np.column_stack([input_q.ket(), input_q.orthogonal_ket()])


def _ghz_blocks(channel: str, pbs_epsilon: float) -> list:
    """GHZ preparation on the polarizing splitter, then the compensation plates."""
    blocks = [((2,), _G2_HWP)] if channel == "g2" else []
    if channel != "reference":
        blocks.append(((2, 3), pbs_matrix(pbs_epsilon)))
    # else: uncontrolled reference run; mode 2 goes straight to the receiver
    # and mode 3 straight to the controller's detector as a trigger
    return blocks + [((1,), _COMPENSATION), ((3,), _COMPENSATION)]


def _station_blocks(config: ProtocolConfig) -> list:
    """The optics of one run, in order, as ``(spatial modes, local matrix)`` blocks.

    A block's matrix acts on the H and V modes of its spatial modes, ordered
    (s1, H), (s1, V), (s2, H), ... as in ``elements.port_element``.  The
    encoder ``_encoder_exact`` takes the input mode's H, which no earlier block
    touches, to the input ket; the controller's polarizer comes last unless
    the action is "none".
    """
    wiring = WIRINGS[config.roles]
    # circular photon in mode 3, to be overlapped with mode 2
    blocks = [] if config.channel == "reference" else [((3,), R_PREP)]
    blocks += _ghz_blocks(config.channel, config.pbs_epsilon)
    blocks.append(((INPUT_MODE,), _encoder_exact(config.input)))
    blocks.append(((wiring.sender_resource, INPUT_MODE), _FIBER_BS))
    if config.action == "deny":
        blocks.append(((wiring.controller,), _DENY_POLARIZER))
    elif config.action == "allow":
        blocks.append(((wiring.controller,), _ALLOW_POLARIZER[wiring.controller]))
    return blocks


def _detector_spatials(config: ProtocolConfig) -> list:
    wiring = WIRINGS[config.roles]
    return [wiring.sender_resource, INPUT_MODE, wiring.controller, wiring.receiver]


# --- analyzer frame calibration -------------------------------------------------

def analyzer_frame(channel: str, roles: str = "standard") -> np.ndarray:
    """Unitary W mapping the encoded input ket to the receiver's ideal state.

    Calibrated once per (channel, roles) by propagating ideal single photons
    (the dense sector (1, 1)) with basis-probe inputs through the lossless
    pipeline and reading the receiver amplitudes off a fixed detection
    pattern; the experiment's analogue is aligning the analyzer on known
    input states.  The receiver's parallel setting projects onto W |psi>.
    """
    return _calibrated_frame(channel, roles)


@functools.cache
def _calibrated_frame(channel: str, roles: str) -> np.ndarray:
    wiring = WIRINGS[roles]
    action = "none" if channel == "reference" else "allow"
    # the detection pattern: sender H, input-mode V, controller H, and the
    # receiver's photon in H or in V, as indices into the 4-photon basis
    unit = dict(zip(_DENSE_MODES, _UNITS))
    env = unit[(wiring.sender_resource, H)] + unit[(INPUT_MODE, V)] + unit[(wiring.controller, H)]
    pattern = np.searchsorted(_number_basis(4)[1],
                              [env + unit[(wiring.receiver, pol)] for pol in (H, V)])

    def receiver_ket(input_q: InputQubit) -> np.ndarray:
        cfg = ProtocolConfig(channel=channel, action=action, input=input_q,
                             source=None, pbs_epsilon=0.0, roles=roles)
        lin = _optics_matrix(_station_blocks(cfg))
        state = _emitted(lin @ _LAMBDA_FORWARD @ lin.T, lin @ _LAMBDA_BACKWARD @ lin.T,
                         {(1, 1)})[(1, 1)]
        return state[pattern]

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


# --- dense propagation ----------------------------------------------------------

# the modes of the dense engine, in the order of its vectors and matrices
_DENSE_MODES = tuple((spatial, pol) for spatial in (1, 2, 3, 4) for pol in (H, V))
_MODE_INDEX = {m: i for i, m in enumerate(_DENSE_MODES)}


_COUNT_BITS = 4     # bits per mode in an occupation code: up to 15 photons
# the code of one photon in each mode, the first mode most significant
_UNITS = 1 << (_COUNT_BITS * np.arange(len(_DENSE_MODES) - 1, -1, -1))


@functools.cache
def _number_basis(n: int) -> tuple:
    """``(occupations, codes)`` of every way to put ``n`` photons in the dense modes.

    Stars and bars: each choice of ``n_modes - 1`` bar positions among
    ``n + n_modes - 1`` slots gives the counts as the gaps between bars.  Row
    i of ``occupations`` holds the counts of basis state i, and ``codes[i]``
    packs them into one integer, ``_COUNT_BITS`` per mode with the first mode
    most significant.  Combinations come in lexicographic order, so the codes
    come sorted and ``np.searchsorted(codes, code)`` finds a state's index.
    """
    if n >= 1 << _COUNT_BITS:
        raise SectorError(f"{n} photons exceed the {_COUNT_BITS}-bit mode counts")
    n_modes = len(_DENSE_MODES)
    slots = n + n_modes - 1
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(slots), n_modes - 1)), dtype=np.int8)
    bars = bars.reshape(-1, n_modes - 1)
    edges = np.column_stack([np.full(len(bars), -1, dtype=np.int8), bars,
                             np.full(len(bars), slots, dtype=np.int8)])
    occupations = edges[:, 1:] - edges[:, :-1] - np.int8(1)
    return occupations, occupations @ _UNITS


@functools.cache
def _pair_table(n: int) -> tuple:
    """Index table of the pairs b_k^dag b_l^dag, k <= l, from ``n`` to ``n + 2`` photons.

    Returns ``(k, l, slots, coef, size)``.  Source state s and pair p send
    ``coef[s, p]`` times the amplitude to target state t, whose real and
    imaginary parts sit at ``slots[s, p] = (2t, 2t + 1)`` of the float view of
    a complex vector of ``size`` entries.  ``coef`` holds the bosonic factors
    sqrt(n_k + 1) sqrt(n_l + 1), or sqrt((n_k + 1)(n_k + 2)) / 2 for k = l,
    the 1/2 of the quadratic form's diagonal.
    """
    occ, codes = _number_basis(n)
    _, out_codes = _number_basis(n + 2)
    k, l = np.array(list(itertools.combinations_with_replacement(
        range(len(_DENSE_MODES)), 2))).T
    target = np.searchsorted(out_codes, codes[:, None] + (_UNITS[k] + _UNITS[l]))
    same = k == l
    coef = np.sqrt((occ[:, k] + 1.0) * (occ[:, l] + 1.0 + same)) * np.where(same, 0.5, 1.0)
    slots = np.stack([2 * target, 2 * target + 1], axis=-1)
    return k, l, slots.ravel(), coef, len(out_codes)


def _create_pairs(vec: np.ndarray, n: int, q: np.ndarray) -> np.ndarray:
    """Apply 1/2 sum_kl q[k, l] b_k^dag b_l^dag to an ``n``-photon vector.

    ``vec`` is indexed by ``_number_basis(n)`` and ``q`` is symmetric; the
    result is indexed by the basis of ``n + 2`` photons.
    """
    k, l, slots, coef, size = _pair_table(n)
    terms = vec[:, None] * q[k, l]
    terms *= coef
    return np.bincount(slots, terms.view(np.float64).ravel(),
                       minlength=2 * size).view(complex)


def _pair_matrix(pair_kind: str, modes: tuple) -> np.ndarray:
    """Symmetric Lambda whose 1/2 a^T Lambda a is the pair-creation operator."""
    lam = np.zeros((len(_DENSE_MODES),) * 2, dtype=complex)
    for (p_s, p_i), u in PAIR_KINDS[pair_kind].items():
        a, b = _MODE_INDEX[(modes[0], p_s)], _MODE_INDEX[(modes[1], p_i)]
        lam[a, b] = lam[b, a] = u
    return lam


_LAMBDA_FORWARD = _pair_matrix("phi_plus", FORWARD_MODES)
_LAMBDA_BACKWARD = _pair_matrix("hh", BACKWARD_MODES)


@functools.cache
def _block_rows(spatials: tuple):
    """The rows of L that a block on ``spatials`` acts on, as a slice if contiguous."""
    rows = [_MODE_INDEX[(s, pol)] for s in spatials for pol in (H, V)]
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows)


def _optics_matrix(blocks) -> np.ndarray:
    """Matrix L of the blocks applied in order: a_m^dag becomes sum_k L[k, m] b_k^dag."""
    lin = np.eye(len(_DENSE_MODES), dtype=complex)
    for spatials, block in blocks:
        rows = _block_rows(spatials)
        lin[rows] = block @ lin[rows]
    return lin


def _emitted(q_forward: np.ndarray, q_backward: np.ndarray, sectors) -> dict:
    """(A^dag)^j (B^dag)^k |0> / (j! k!) for each (j, k) in ``sectors``.

    A^dag and B^dag are the quadratic forms ``q_forward`` and ``q_backward``;
    the sectors that share k share the B^dag steps.  Each vector is indexed
    by the basis of 2(j + k) photons.
    """
    out = {}
    backward = np.ones(1, dtype=complex)
    for k in range(max((kk for _, kk in sectors), default=-1) + 1):
        if k:
            backward = _create_pairs(backward, 2 * k - 2, q_backward) / k
        vec = backward
        for j in range(max((jj for jj, kk in sectors if kk == k), default=-1) + 1):
            if j:
                vec = _create_pairs(vec, 2 * (j + k - 1), q_forward) / j
            if (j, k) in sectors:
                out[(j, k)] = vec
    return out


@functools.cache
def _emitted_norms(order: int) -> dict:
    """Squared norm of each sector (j, k), j + k <= order, at unit strengths."""
    sectors = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]
    return {jk: float((np.abs(vec) ** 2).sum())
            for jk, vec in _emitted(_LAMBDA_FORWARD, _LAMBDA_BACKWARD, sectors).items()}


def _sector_weights(source: SourceParams | None) -> dict:
    """``(amplitude, squared norm)`` of each coincidence-capable sector (j, k).

    The amplitude is the sector's weight in the normalized emitted state and
    the norm that of its unit-strength vector.  Sectors with fewer than four
    photons can never click four-fold and are left out; the normalization
    runs over every term up to the truncation order.  The ideal source is
    sector (1, 1) with unit weight.
    """
    if source is None:
        return {(1, 1): (1.0, _emitted_norms(2)[(1, 1)])}
    norms = _emitted_norms(source.truncation_order)
    kf, kb = source.kappa_forward, source.kappa_backward
    total = sum(abs(kf) ** (2 * j) * abs(kb) ** (2 * k) * n for (j, k), n in norms.items())
    scale = 1.0 / math.sqrt(total)
    return {(j, k): (kf ** j * kb ** k * scale, n)
            for (j, k), n in norms.items() if j + k >= 2}


@functools.cache
def _tally_indices(n: int, detectors: tuple, receiver: int) -> tuple:
    """Index arrays into the ``n``-photon basis for the four-fold tally.

    Returns ``(clicked, parallel, perpendicular, h_one, v_one)``: the states
    where every detector's spatial mode holds a photon; those among them with
    no receiver V, and with no receiver H photon; and the clicked states with
    one receiver photon in H, each paired with the state that moves that
    photon to V.
    """
    occ, codes = _number_basis(n)
    at = [_MODE_INDEX[(receiver, pol)] for pol in (H, V)]
    spatial = occ.reshape(len(occ), -1, 2).sum(axis=2)     # column s - 1: spatial mode s
    clicked = np.all(spatial[:, [s - 1 for s in detectors]] >= 1, axis=1)
    h_one = clicked & (occ[:, at[0]] == 1) & (occ[:, at[1]] == 0)
    unit = _UNITS[at]
    v_one = np.searchsorted(codes, codes[h_one] - unit[0] + unit[1])
    return (np.flatnonzero(clicked), np.flatnonzero(clicked & (occ[:, at[1]] == 0)),
            np.flatnonzero(clicked & (occ[:, at[0]] == 0)), np.flatnonzero(h_one), v_one)


# --- main pipeline ----------------------------------------------------------------

def run_protocol(config: ProtocolConfig):
    """Propagate every coincidence-capable emission term through the setup.

    Returns ``(CountRecord, rho_receiver)``.  The sector of j forward and k
    backward pairs, labelled by its spatial signature "jjkk", leaves the
    optics matrix L as kf^j kb^k (A'^dag)^j (B'^dag)^k |0> / (j! k!), a dense
    photon-number vector (see the module docstring).  The analyzer rotation
    takes the calibrated images of the input ket and of its orthogonal
    complement to H and V, so ``f_parallel`` / ``f_perp`` are the four-fold
    probabilities with no V / no H photon at the receiver.  His conditional
    density operator is reported in his analyzer frame (for g2 including the
    pi/4 analyzer rotation), over events where his arm carries exactly one
    photon, which at the default emission truncation is every four-fold
    event.
    """
    wiring = WIRINGS[config.roles]
    frame = analyzer_frame(config.channel, config.roles)
    analyzer = np.array([frame @ config.input.ket(),
                         frame @ config.input.orthogonal_ket()]).conj()
    lin = _optics_matrix(_station_blocks(config) + [((wiring.receiver,), analyzer)])
    weights = _sector_weights(config.source)
    sectors = _emitted(lin @ _LAMBDA_FORWARD @ lin.T, lin @ _LAMBDA_BACKWARD @ lin.T,
                       weights)
    detectors = tuple(_detector_spatials(config))
    # four-fold rates scale as kappa^4 or faster, so "no coincidence" is judged
    # against the emitted weight of the sectors (1 for the ideal source)
    empty_tol = 1e-14 * sum(abs(w) ** 2 * n for w, n in weights.values())

    f_par = f_perp = success = 0.0
    per_term: dict = {}
    rho_acc = np.zeros((2, 2), dtype=complex)
    rho_weight = 0.0
    for label, (j, k) in sorted((f"{j}{j}{k}{k}", (j, k)) for j, k in weights):
        state = weights[(j, k)][0] * sectors[(j, k)]
        # the relative cut of the sparse states drops rounding residue
        absolute = np.abs(state)
        dropped = absolute <= PRUNE_THRESHOLD * absolute.max()
        state[dropped] = absolute[dropped] = 0.0
        prob = absolute ** 2
        clicked, par, perp, h_one, v_one = _tally_indices(2 * (j + k), detectors,
                                                           wiring.receiver)
        success += float(prob[clicked].sum())
        p_par = float(prob[par].sum())
        p_perp = float(prob[perp].sum())
        f_par += p_par
        f_perp += p_perp
        per_term[label] = p_par + p_perp
        kept = np.stack([state[h_one], state[v_one]])
        block = kept @ kept.conj().T
        p_cond = float(block.trace().real)
        if p_cond >= empty_tol:
            rho_acc += block
            rho_weight += p_cond

    if not success > empty_tol:
        raise NoCoincidenceError(
            f"channel {config.channel}, action {config.action}, input ({config.input.alpha:.4g}, "
            f"{config.input.beta:.4g}), roles {config.roles}: cannot produce a four-fold "
            "coincidence; no configuration of the source terms clicks all four detectors")
    if rho_weight <= 0.0:
        raise ProtocolError("every coincidence leaves more than one photon at "
                            "the receiver; no qubit state to report")
    # back from the analyzer's (parallel, orthogonal) basis to H/V
    rho = analyzer.conj().T @ (rho_acc / rho_weight) @ analyzer
    if config.channel == "g2":
        rho = PAULI_X @ rho @ PAULI_X
    record = CountRecord(f_parallel=f_par, f_perp=f_perp,
                         success_probability=success, per_term=per_term)
    return record, rho


# --- standalone stage operations -----------------------------------------------

def prepare_ghz(source_state: PureState, pbs_epsilon: float = 0.0,
                g2: bool = False):
    """Overlap modes 2 and 3 on the PBS and post-select one photon per output.

    ``source_state`` must already carry the circular preparation on mode 3.
    Returns ``(state, success_probability)`` with the compensation phases
    applied, so the ideal output is exactly (|HHH>+|VVV>)/sqrt2.  Its blocks
    are multiplied into L as a run's are, and L's block on modes 1 to 3 is
    applied as one element.
    """
    lin = _optics_matrix(_ghz_blocks("g2" if g2 else "g1", pbs_epsilon))
    rows = _block_rows((1, 2, 3))
    out = apply(port_element((1, 2, 3), lin[rows][:, rows]), source_state)

    def one_each(occ):
        counts = spatial_counts(occ)
        return counts.get(2, 0) == 1 and counts.get(3, 0) == 1

    state, prob = project(out, one_each)
    if state is None:
        raise ProtocolError("GHZ post-selection never succeeds")
    return state, prob


def singlet_projection(state: PureState):
    """Balanced-BS overlap of modes 1 and ``INPUT_MODE``, post-selected on
    anti-bunching: a click in each of the two.

    Returns ``(conditional_state, probability)``; the conditional is ``None``
    when anti-bunching never occurs (bunching-only inputs).
    """
    out = apply(port_element((1, INPUT_MODE), _FIBER_BS), state)

    def anti_bunched(occ):
        counts = spatial_counts(occ)
        return counts.get(1, 0) >= 1 and counts.get(INPUT_MODE, 0) >= 1

    return project(out, anti_bunched)


def emulate_mixture(config: ProtocolConfig, p: float) -> CountRecord:
    """Rates of the mixed channel: the g1 run of ``config`` weighted 1 - p, its g2 run p.

    With p = 1/2 this reproduces summing the coincidence counts of the two
    GHZ runs (up to the irrelevant overall factor 2).  A half that cannot
    coincide adds no events; its ``NoCoincidenceError`` is raised only when
    the mixture has none either, the g1 half's first.
    """
    if config.channel != "g1":
        raise ValueError(f"a mixture takes the g1 configuration, not {config.channel!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    halves, empty = [], []
    for channel in ("g1", "g2"):
        try:
            halves.append(run_protocol(replace(config, channel=channel))[0])
        except NoCoincidenceError as exc:
            empty.append(exc)
            halves.append(CountRecord(0.0, 0.0, 0.0, {}))
    g1, g2 = halves
    record = CountRecord(
        f_parallel=(1 - p) * g1.f_parallel + p * g2.f_parallel,
        f_perp=(1 - p) * g1.f_perp + p * g2.f_perp,
        success_probability=(1 - p) * g1.success_probability + p * g2.success_probability,
        per_term={k: (1 - p) * g1.per_term.get(k, 0.0) + p * g2.per_term.get(k, 0.0)
                  for k in sorted(set(g1.per_term) | set(g2.per_term))},
    )
    if not record.success_probability > 0.0:
        raise empty[0]
    return record
