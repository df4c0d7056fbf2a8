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
beam splitter and the controller's polarizer.  A run multiplies them, and
the receiver's analyzer rotation, into one 8x8 matrix L over the modes
1H ... 4V, the product of the blocks embedded in the identity, those that
no setting changes embedded once (``_EMBEDDED``).  It then propagates
the emission as dense photon-number vectors: each pair-creation operator
1/2 a^T Lambda a becomes the quadratic form L Lambda L^T on the output
modes, and a sector of j forward and k backward pairs is j + k such pair
creations on vacuum.  A dense vector holds one complex amplitude per
occupation of the eight modes with N photons in all, C(N + 7, 7) of them
(``_number_basis``), and ``_create_pairs`` applies a quadratic form of
creation operators to it in one ``np.bincount``, with index tables built
on first use.  Only a photon in each detector's mode clicks, so a run's
last pair creations, those to the most photons, add up only the terms that
reach such an occupation (16 of 330 at four photons, 344 of 1,716 at six);
the prune still cuts against the whole vector.  The engine has a leading
configuration axis: runs that share the source and the roles go through it
as one stack of L, of forms and of vectors, and every row keeps the bits of
a stack of its own.  The analyzer calibration propagates the ideal source,
sector (1, 1), through the same blocks for its four probe inputs in one
stack and reads two amplitudes off each, so a run builds no sparse state.

``count_rates`` returns the four-fold rates of a run and ``run_protocol``
those rates with the receiver's conditional state.  Both take them from one
private propagation and tally, ``_tally``, which takes a list of
configurations and forms no receiver block; ``emulate_mixture`` passes its
g1 and g2 halves to one ``_tally`` and ``spdc.sector_rates`` every
configuration it is given (``fit-spdc``'s three).  The tally takes the
sectors of one photon number as one (sectors, rows, states) array; each sum
runs over its contiguous last axis, gathered with ``take``, with the bits of
the row's own ``.sum()``, and rows add them in label order.  ``run_protocol``
alone forms the receiver's 2x2 blocks, raises ``ProtocolError`` when every
coincidence leaves him more than one photon, and rotates their sum out of his
analyzer frame.

The stage operations ``prepare_ghz`` and ``singlet_projection`` hand the
same kind of block to ``elements.apply``, which applies it to a sparse
state of ``fock``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .elements import (apply, balanced_bs_matrix, hwp_matrix, pbs_matrix, phase_matrix,
                       polarizer_matrix)
from .estimation import fidelity_from_counts
from .fock import (H, V, KET_D, KET_H, KET_R, PRUNE_THRESHOLD, PureState, SectorError,
                   parse_ket, project, spatial_counts, unit_ket)
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
        unit_ket((self.alpha, self.beta), "input")

    @classmethod
    def from_name(cls, text: str) -> "InputQubit":
        """The input written as ``text`` in the whole grammar of ``fock.parse_ket``:
        a named state, ``linear:DEG`` or ``a,b`` / ``a;b``."""
        return cls(*parse_ket(text, "input"))

    def ket(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def orthogonal_ket(self) -> np.ndarray:
        return np.array([-np.conj(self.beta), np.conj(self.alpha)], dtype=complex)


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
        if not isinstance(self.input, InputQubit):
            raise ValueError(f"input must be an InputQubit, got {self.input!r}")
        if not (self.source is None or isinstance(self.source, SourceParams)):
            raise ValueError(f"source must be None or a SourceParams, got {self.source!r}")


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

def _encoder_exact(q: InputQubit) -> np.ndarray:
    # phase-free unitary taking |H> to the input ket: columns ket, orthogonal_ket
    return np.array([[q.alpha, -q.beta.conjugate()], [q.beta, q.alpha.conjugate()]], dtype=complex)


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
    (s1, H), (s1, V), (s2, H), ... as in ``elements.apply``.  The
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
    if roles not in WIRINGS:
        raise ValueError(f"unknown role assignment {roles!r}")
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

    cfgs = [ProtocolConfig(channel=channel, action=action, input=InputQubit.from_name(name),
                           source=None, pbs_epsilon=0.0, roles=roles)
            for name in ("h", "v", "r", "plus")]
    lin = np.array([_optics_matrix(_station_blocks(cfg)) for cfg in cfgs])
    col_h, col_v, *probes = _emitted(lin, {(1, 1)})[(1, 1)][:, pattern]
    w = np.column_stack([col_h, col_v])
    gram = w.conj().T @ w
    scale = math.sqrt(float(np.real(gram[0, 0])))
    if scale < 1e-12 or abs(gram[0, 1]) > 1e-12 * scale ** 2 \
            or abs(gram[0, 0] - gram[1, 1]) > 1e-12:
        raise ProtocolError("analyzer calibration produced a non-unitary frame")
    w = w / scale
    for cfg, got in zip(cfgs[2:], probes):
        got = got / np.linalg.norm(got)
        expect = w @ cfg.input.ket()
        if abs(abs(np.vdot(expect, got)) - 1.0) > 1e-10:
            raise ProtocolError("analyzer calibration failed cross-check")
    return w


# --- dense propagation ----------------------------------------------------------

# the modes of the dense engine, in the order of its vectors and matrices
_DENSE_MODES = tuple((spatial, pol) for spatial in (1, 2, 3, 4) for pol in (H, V))
_MODE_INDEX = {m: i for i, m in enumerate(_DENSE_MODES)}
_EYE = np.eye(len(_DENSE_MODES), dtype=complex)
_EYE.flags.writeable = False     # ``_optics_matrix`` starts from it, and returns it for []


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
def _clicked(n: int, detectors: tuple) -> np.ndarray:
    """The ``n``-photon states with a photon in each spatial mode of ``detectors``."""
    occ = _number_basis(n)[0]
    spatial = occ.reshape(len(occ), -1, 2).sum(axis=2)     # column s - 1: spatial mode s
    return np.flatnonzero(np.all(spatial[:, [s - 1 for s in detectors]] >= 1, axis=1))


@functools.cache
def _pair_table(n: int, rows: int, detectors: tuple = ()) -> tuple:
    """Index table of the pairs b_k^dag b_l^dag, k <= l, from ``n`` to ``n + 2`` photons.

    Returns ``(sources, pairs, slots, coef, size)`` for a stack of ``rows``
    vectors whose targets are the ``size`` states ``_clicked(n + 2,
    detectors)``, numbered in basis order.  Term i sends ``coef[i]`` times
    the amplitude of source state ``sources[i]`` times entry ``pairs[i]`` =
    8k + l of an 8x8 matrix to target t, whose real and imaginary parts sit
    at ``slots[r, i] = (2t, 2t + 1)`` of the float view of row r of a
    complex (rows, ``size``) stack.  The terms come in (source, pair) order
    with those to other targets left out, so a target sums the same terms in
    the same order for any ``detectors``.  ``coef`` holds the bosonic factors
    sqrt(n_k + 1) sqrt(n_l + 1), or sqrt((n_k + 1)(n_k + 2)) / 2 for k = l,
    the 1/2 of the quadratic form's diagonal.
    """
    occ, codes = _number_basis(n)
    k, l = np.array(list(itertools.combinations_with_replacement(
        range(len(_DENSE_MODES)), 2))).T
    target = np.searchsorted(_number_basis(n + 2)[1], codes[:, None] + (_UNITS[k] + _UNITS[l]))
    same = k == l
    coef = np.sqrt((occ[:, k] + 1.0) * (occ[:, l] + 1.0 + same)) * np.where(same, 0.5, 1.0)
    kept = _clicked(n + 2, detectors)
    sources, p = np.nonzero(np.isin(target, kept))
    target = np.searchsorted(kept, target[sources, p]) + len(kept) * np.arange(rows)[:, None]
    slots = (2 * target[..., None] + [0, 1]).ravel()
    return sources, (k * len(_DENSE_MODES) + l)[p], slots, coef[sources, p], len(kept)


def _create_pairs(vecs: np.ndarray, n: int, q: np.ndarray, detectors: tuple = ()) -> np.ndarray:
    """Apply 1/2 sum_kl q[r, k, l] b_k^dag b_l^dag to row r of ``n``-photon vectors.

    Each row of the stack ``vecs`` is indexed by ``_number_basis(n)``, and
    each ``q[r]`` is symmetric; the result holds the amplitudes of the
    states ``_clicked(n + 2, detectors)``, the whole basis of ``n + 2``
    photons for ``()``.  One ``np.bincount`` serves every row, and each bin
    adds its terms in the order of a row of its own.
    """
    rows = len(vecs)
    sources, pairs, slots, coef, size = _pair_table(n, rows, detectors)
    terms = vecs.take(sources, axis=1) * q.reshape(rows, -1).take(pairs, axis=1)
    terms *= coef
    return np.bincount(slots, terms.view(np.float64).ravel(),
                       minlength=2 * size * rows).view(complex).reshape(rows, size)


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
def _block_slots(spatials: tuple) -> np.ndarray:
    """Flat indices into L of the square block on the H and V modes of ``spatials``."""
    rows = np.array([_MODE_INDEX[(s, pol)] for s in spatials for pol in (H, V)])
    return rows[:, None] * len(_DENSE_MODES) + rows


def _embedded(spatials: tuple, block: np.ndarray) -> np.ndarray:
    """The 8x8 identity with ``block`` on the H and V modes of ``spatials``."""
    lin = _EYE.copy()
    lin.put(_block_slots(spatials), block)
    return lin


# the blocks that no setting changes, embedded once, by spatials and identity
_EMBEDDED = {(spatials, id(block)): _embedded(spatials, block) for spatials, block in (
    ((3,), R_PREP), ((2,), _G2_HWP), ((1,), _COMPENSATION), ((3,), _COMPENSATION),
    ((1, 4), _FIBER_BS), ((2, 4), _FIBER_BS), ((1,), _DENY_POLARIZER), ((3,), _DENY_POLARIZER),
    ((1,), _ALLOW_POLARIZER[1]), ((3,), _ALLOW_POLARIZER[3]))}


def _optics_matrix(blocks) -> np.ndarray:
    """Matrix L of the blocks applied in order: a_m^dag becomes sum_k L[k, m] b_k^dag;
    the product of the blocks embedded in the identity, the last leftmost."""
    lin = _EYE
    for spatials, block in blocks:
        step = _EMBEDDED.get((spatials, id(block)))
        lin = (_embedded(spatials, block) if step is None else step).dot(lin)
    return lin


def _emitted(lin: np.ndarray, sectors, detectors: tuple = ()) -> dict:
    """(A^dag)^j (B^dag)^k |0> / (j! k!) for each (j, k) in ``sectors``, behind
    each optics matrix L of the (c, 8, 8) stack ``lin``.

    A^dag and B^dag leave L as the quadratic forms L Lambda L^T, formed for
    the whole stack at once; the sectors that share k share the B^dag steps.
    Each value is a (c, size) stack of vectors, one row per L, indexed by
    the basis of 2(j + k) photons.  With ``detectors``, the sectors of the
    most photons hold only the states ``_clicked`` by those spatial modes:
    their last pair creation adds up only the terms that reach such a
    state, each with the bits of the whole vector's amplitude.
    """
    lin_t = lin.transpose(0, 2, 1)
    q_forward, q_backward = lin @ _LAMBDA_FORWARD @ lin_t, lin @ _LAMBDA_BACKWARD @ lin_t
    top = 2 * max((j + k for j, k in sectors), default=0)
    out = {}
    backward = np.ones((len(lin), 1), dtype=complex)
    for k in range(max((kk for _, kk in sectors), default=-1) + 1):
        if k:   # x / 1 is x, so only k > 1 divides
            backward = _create_pairs(backward, 2 * k - 2, q_backward,
                                     detectors if 2 * k == top else ())
            if k > 1:
                backward /= k
        vec = backward
        for j in range(max((jj for jj, kk in sectors if kk == k), default=-1) + 1):
            if j:
                vec = _create_pairs(vec, 2 * (j + k - 1), q_forward,
                                    detectors if 2 * (j + k) == top else ())
                if j > 1:
                    vec /= j
            if (j, k) in sectors:
                out[(j, k)] = vec
    return out


@functools.cache
def _emitted_norms(order: int) -> dict:
    """Squared norm of each sector (j, k), j + k <= order, at unit strengths."""
    sectors = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]
    return {jk: float((np.abs(vec[0]) ** 2).sum())
            for jk, vec in _emitted(np.eye(len(_DENSE_MODES))[None], sectors).items()}


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
    clicked = _clicked(n, detectors)
    h, v = occ[clicked][:, at].T
    h_one = clicked[(h == 1) & (v == 0)]
    unit = _UNITS[at]
    v_one = np.searchsorted(codes, codes[h_one] - unit[0] + unit[1])
    return clicked, clicked[v == 0], clicked[h == 0], h_one, v_one


# --- main pipeline ----------------------------------------------------------------

def _receiver_block(state: np.ndarray, h_one: np.ndarray, v_one: np.ndarray) -> np.ndarray:
    """The receiver's unnormalized 2x2 block of a sector in his analyzer basis."""
    kept = np.stack([state[h_one], state[v_one]])
    return kept @ kept.conj().T


def _tally(configs) -> list:
    """Propagate runs that share ``source`` and ``roles`` as one stack and tally each.

    Returns, per configuration, ``(record, analyzer, empty_tol, receiver)`` or
    its ``NoCoincidenceError``.  ``analyzer`` holds the rows of the receiver's
    analyzer rotation, ``empty_tol`` the weight below which a probability
    counts as no event, and ``receiver`` per sector in label order
    ``(state, h_one, v_one)`` for ``run_protocol``'s ``_receiver_block``, the
    state over the clicked occupations and the indices into it.  The rows
    and the sectors of a photon number share each step up to the sums, and
    each row keeps the bits of a stack of its own.
    """
    wiring = WIRINGS[configs[0].roles]
    analyzers, lins = [], []
    for config in configs:
        frame = analyzer_frame(config.channel, config.roles)
        analyzers.append(np.array([frame @ config.input.ket(),
                                   frame @ config.input.orthogonal_ket()]).conj())
        lins.append(_optics_matrix(_station_blocks(config)
                                   + [((wiring.receiver,), analyzers[-1])]))
    weights = _sector_weights(configs[0].source)
    detectors = tuple(_detector_spatials(configs[0]))
    sectors = _emitted(np.array(lins), weights, detectors)
    top = max((j + k for j, k in weights), default=0)
    # four-fold rates scale as kappa^4 or faster, so "no coincidence" is judged
    # against the emitted weight of the sectors (1 for the ideal source)
    empty_tol = 1e-14 * sum(abs(w) ** 2 * n for w, n in weights.values())

    labelled, tallied = sorted((f"{j}{j}{k}{k}", (j, k)) for j, k in weights), {}
    for n in {j + k for j, k in weights}:
        layer = [jk for jk in weights if sum(jk) == n]
        clicked, *indices = _tally_indices(2 * n, detectors, wiring.receiver)
        par, perp, h_one, v_one = (clicked.searchsorted(at) for at in indices)
        # weight times amplitude, in that order: numpy's complex product fuses a multiply-add
        states = np.array([sectors[jk] for jk in layer])
        np.multiply(np.array([weights[jk][0] for jk in layer])[:, None, None], states, out=states)
        # the relative cut of the sparse states drops rounding residue, against
        # the largest amplitude of the whole sector
        absolute = np.abs(states)
        dropped = absolute <= PRUNE_THRESHOLD * absolute.max(axis=-1, keepdims=True)
        if n < top:
            states, absolute, dropped = (a.take(clicked, axis=-1)
                                         for a in (states, absolute, dropped))
        else:
            # a top sector holds its clicked states alone.  L is a contraction, so
            # no amplitude of the whole sector exceeds |weight| sqrt(norm) (1e-9 for
            # rounding); a row keeping one within the cut of that needs the whole
            bound = np.array([PRUNE_THRESHOLD * abs(weight) * math.sqrt(norm) * (1.0 + 1e-9)
                              for weight, norm in map(weights.get, layer)])[:, None, None]
            unsure = (absolute <= bound) > dropped
            for i, r in np.argwhere(unsure.any(axis=-1)) if unsure.any() else ():
                jk = layer[i]
                whole = np.abs(weights[jk][0] * _emitted(np.array(lins[r:r + 1]), {jk})[jk])
                dropped[i, r] = absolute[i, r] <= PRUNE_THRESHOLD * whole.max()
        states[dropped] = absolute[dropped] = 0.0
        # sums over the contiguous last axis: each row's bits, as its own .sum()
        probs = absolute ** 2
        sums = [probs.sum(axis=-1)] + [probs.take(at, axis=-1).sum(axis=-1) for at in (par, perp)]
        for jk, state, *row_sums in zip(layer, states, *np.array(sums).tolist()):
            tallied[jk] = state, row_sums, h_one, v_one

    rows = []
    for r, (config, analyzer) in enumerate(zip(configs, analyzers)):
        f_par = f_perp = success = 0.0
        per_term, receiver = {}, []
        for label, jk in labelled:
            state, (total, p_par, p_perp), h_one, v_one = tallied[jk]
            success += total[r]
            f_par += p_par[r]
            f_perp += p_perp[r]
            per_term[label] = p_par[r] + p_perp[r]
            receiver.append((state[r], h_one, v_one))
        if not success > empty_tol:
            rows.append(_no_coincidence(f"channel {config.channel}", config))
        else:
            rows.append((CountRecord(f_parallel=f_par, f_perp=f_perp, success_probability=success,
                                     per_term=per_term), analyzer, empty_tol, receiver))
    return rows


def _no_coincidence(run: str, config: ProtocolConfig) -> NoCoincidenceError:
    """The error of ``run`` of ``config``, a channel or the mixture, which never coincides."""
    return NoCoincidenceError(
        f"{run}, action {config.action}, input ({config.input.alpha:.4g}, "
        f"{config.input.beta:.4g}), roles {config.roles}: cannot produce a four-fold "
        "coincidence; no configuration of the source terms clicks all four detectors")


def _raise(row):
    """A row of ``_tally``; raises it if it is an error."""
    if isinstance(row, ProtocolError):
        raise row
    return row


def count_rates(config: ProtocolConfig) -> CountRecord:
    """Propagate every coincidence-capable emission term through the setup.

    The sector of j forward and k backward pairs, labelled by its spatial
    signature "jjkk", leaves the optics matrix L as
    kf^j kb^k (A'^dag)^j (B'^dag)^k |0> / (j! k!), a dense photon-number
    vector (see the module docstring).  The analyzer rotation takes the
    calibrated images of the input ket and of its orthogonal complement to H
    and V, so ``f_parallel`` / ``f_perp`` are the four-fold probabilities with
    no V / no H photon at the receiver.  A run that clicks no four-fold
    coincidence raises ``NoCoincidenceError``, as in ``run_protocol``; any
    other run returns its rates, and no receiver state is built.
    """
    return _raise(_tally([config])[0])[0]


def run_protocol(config: ProtocolConfig):
    """``(count_rates(config), rho_receiver)``.

    The receiver's conditional density operator is reported in his analyzer
    frame (for g2 including the pi/4 analyzer rotation), over events where
    his arm carries exactly one photon, which at the default emission
    truncation is every four-fold event.  A run with no such event raises
    ``ProtocolError`` (after the ``NoCoincidenceError`` of ``count_rates``).
    """
    record, analyzer, empty_tol, receiver = _raise(_tally([config])[0])
    rho_acc = np.zeros((2, 2), dtype=complex)
    rho_weight = 0.0
    for state, h_one, v_one in receiver:
        block = _receiver_block(state, h_one, v_one)
        p_cond = float(block.trace().real)
        if p_cond >= empty_tol:
            rho_acc += block
            rho_weight += p_cond
    if not rho_weight > 0.0:
        raise ProtocolError("every coincidence leaves more than one photon at "
                            "the receiver; no qubit state to report")
    # back from the analyzer's (parallel, orthogonal) basis to H/V
    rho = analyzer.conj().T @ (rho_acc / rho_weight) @ analyzer
    if config.channel == "g2":
        from .channels import PAULI_X

        rho = PAULI_X @ rho @ PAULI_X
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
    out = apply(((1, 2, 3), lin.take(_block_slots((1, 2, 3)))), source_state)

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
    out = apply(((1, INPUT_MODE), _FIBER_BS), state)

    def anti_bunched(occ):
        counts = spatial_counts(occ)
        return counts.get(1, 0) >= 1 and counts.get(INPUT_MODE, 0) >= 1

    return project(out, anti_bunched)


def emulate_mixture(config: ProtocolConfig, p: float) -> CountRecord:
    """Rates of the mixed channel: the g1 run of ``config`` weighted 1 - p, its g2 run p.

    With p = 1/2 this reproduces summing the coincidence counts of the two
    GHZ runs (up to the irrelevant overall factor 2).  A half that cannot
    coincide adds no events; a mixture with none raises a ``NoCoincidenceError``
    of its own, naming p, the action, the input and the roles.
    """
    if config.channel != "g1":
        raise ValueError(f"a mixture takes the g1 configuration, not {config.channel!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rows = _tally([config, replace(config, channel="g2")])
    g1, g2 = (CountRecord(0.0, 0.0, 0.0, {}) if isinstance(row, ProtocolError) else row[0]
              for row in rows)
    record = CountRecord(
        f_parallel=(1 - p) * g1.f_parallel + p * g2.f_parallel,
        f_perp=(1 - p) * g1.f_perp + p * g2.f_perp,
        success_probability=(1 - p) * g1.success_probability + p * g2.success_probability,
        per_term={k: (1 - p) * g1.per_term.get(k, 0.0) + p * g2.per_term.get(k, 0.0)
                  for k in sorted(set(g1.per_term) | set(g2.per_term))},
    )
    if not record.success_probability > 0.0:
        raise _no_coincidence(f"the g1/g2 mixture at p = {p:g}", config)
    return record
