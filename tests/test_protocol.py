import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqtsim import protocol
from cqtsim.channels import conditional_teleport_output, make_ghz_mixture
from cqtsim.elements import apply, port_element
from cqtsim.fock import (H, V, PureState, SectorError, basis_state, fidelity, occupation,
                         overlap, project, spatial_counts, tensor)
from cqtsim.protocol import (AXIAL_INPUT_NAMES, INPUT_MODE, InputQubit, ProtocolConfig,
                             ProtocolError, R_PREP, analyzer_frame, emulate_mixture,
                             prepare_ghz, run_protocol, singlet_projection)
from cqtsim.spdc import SourceParams
from helpers import block_elements, compose
from test_composed_vs_sequential import RUNS

_SQ2 = math.sqrt(2.0)


def phi_pair_with_circular_third():
    pair = PureState({
        occupation({(1, H): 1, (2, H): 1}): 1 / _SQ2,
        occupation({(1, V): 1, (2, V): 1}): -1j / _SQ2,
    })
    src = tensor(pair, basis_state({(3, H): 1}))
    return apply(port_element((3,), R_PREP), src)


def ghz_fock_target():
    return PureState({
        occupation({(1, H): 1, (2, H): 1, (3, H): 1}): 1 / _SQ2,
        occupation({(1, V): 1, (2, V): 1, (3, V): 1}): 1 / _SQ2,
    })


def bell_fock(label, mode_a=1, mode_b=4):
    signs = {"phi+": (1, 1), "phi-": (1, -1)}
    if label in signs:
        s = signs[label][1]
        return PureState({
            occupation({(mode_a, H): 1, (mode_b, H): 1}): 1 / _SQ2,
            occupation({(mode_a, V): 1, (mode_b, V): 1}): s / _SQ2,
        })
    s = 1 if label == "psi+" else -1
    return PureState({
        occupation({(mode_a, H): 1, (mode_b, V): 1}): 1 / _SQ2,
        occupation({(mode_a, V): 1, (mode_b, H): 1}): s / _SQ2,
    })


# --- configuration validation -------------------------------------------------

def test_input_qubit_validation():
    with pytest.raises(ValueError):
        InputQubit(1.0, 1.0)
    iq = InputQubit.from_components(1.0, 1.0)
    assert abs(iq.alpha) == pytest.approx(1 / _SQ2)


def test_non_finite_parameters_rejected():
    with pytest.raises(ValueError):
        InputQubit(float("nan"), 1.0)
    with pytest.raises(ValueError):
        InputQubit.from_components(float("inf"), 1.0)
    for kappa in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SourceParams(kappa_forward=kappa)
        with pytest.raises(ValueError):
            SourceParams(kappa_backward=kappa)


def test_reference_forces_trigger_action():
    with pytest.raises(ValueError):
        ProtocolConfig(channel="reference", action="allow")


def test_swapped_roles_limited_to_g1():
    with pytest.raises(ValueError):
        ProtocolConfig(channel="g2", roles="swapped")


# --- encoding -------------------------------------------------------------------

@pytest.mark.parametrize("channel, action, roles", RUNS)
def test_encoder_phase_changes_no_rate(channel, action, roles, monkeypatch):
    # wave plates preparing the input ket from H differ from the phase-free
    # encoder by a global phase: a sector of k backward pairs holds k photons
    # in the input mode and gains e^{ik phi}, which no incoherent rate sees
    config = ProtocolConfig(channel=channel, action=action, roles=roles,
                            input=InputQubit.from_components(0.6, 0.8j * np.exp(0.3j)),
                            source=SourceParams(kappa_forward=0.1, kappa_backward=0.055,
                                                truncation_order=3))
    blocks = protocol._station_blocks(config)
    at = next(i for i, (spatials, matrix) in enumerate(blocks) if spatials == (INPUT_MODE,)
              and np.array_equal(matrix, protocol._encoder_exact(config.input)))
    # so the input-mode photon is still H when it reaches the encoder
    assert all(INPUT_MODE not in spatials for spatials, _ in blocks[:at])

    record, rho = run_protocol(config)      # calibrates the frame, which stays cached
    exact = protocol._encoder_exact
    monkeypatch.setattr(protocol, "_encoder_exact", lambda q: np.exp(0.7j) * exact(q))
    phased, phased_rho = run_protocol(config)
    for name in ("f_parallel", "f_perp", "success_probability"):
        assert getattr(phased, name) == pytest.approx(getattr(record, name), rel=1e-15)
    assert phased.per_term.keys() == record.per_term.keys()
    for label, rate in record.per_term.items():
        assert phased.per_term[label] == pytest.approx(rate, rel=1e-15)
    assert np.max(np.abs(phased_rho - rho)) <= 1e-15


# --- GHZ preparation -------------------------------------------------------------

def test_prepare_ghz_ideal():
    state, prob = prepare_ghz(phi_pair_with_circular_third())
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert abs(overlap(state, ghz_fock_target())) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_prepare_ghz_imperfect_pbs():
    # closed form from the creation-operator expansion: success (1-e+2e^2)/2,
    # fidelity (1-e)^2/(1-e+2e^2)
    eps = 0.05
    state, prob = prepare_ghz(phi_pair_with_circular_third(), pbs_epsilon=eps)
    assert prob == pytest.approx((1 - eps + 2 * eps ** 2) / 2, abs=1e-12)
    fid = abs(overlap(state, ghz_fock_target())) ** 2
    assert fid == pytest.approx((1 - eps) ** 2 / (1 - eps + 2 * eps ** 2), abs=1e-12)
    assert prob < 0.5
    assert fid < 1.0


def test_prepare_ghz_g2_variant_gives_flipped_state_in_analyzer_frame():
    state, prob = prepare_ghz(phi_pair_with_circular_third(), g2=True)
    assert prob == pytest.approx(0.5, abs=1e-12)
    # physical state is X on mode 2 applied to the bit-flipped GHZ state
    target = PureState({
        occupation({(1, H): 1, (2, V): 1, (3, V): 1}): 1 / _SQ2,
        occupation({(1, V): 1, (2, H): 1, (3, H): 1}): 1 / _SQ2,
    })
    assert abs(overlap(state, target)) ** 2 == pytest.approx(1.0, abs=1e-12)


def composed_prepare_ghz(source_state, pbs_epsilon, g2):
    """``prepare_ghz`` as it was: its blocks composed as substitution maps."""
    blocks = protocol._ghz_blocks("g2" if g2 else "g1", pbs_epsilon)
    out = apply(compose(block_elements(blocks)), source_state)
    return project(out, lambda occ: (spatial_counts(occ).get(2, 0),
                                     spatial_counts(occ).get(3, 0)) == (1, 1))


def random_few_photon_states(count=30, seed=20261018):
    """``count`` states of 2 to 4 photons over modes 1 to 4, up to six terms each.

    Every term has a photon in mode 2 and one in mode 3, the others anywhere,
    so most states pass the GHZ post-selection.
    """
    rng = np.random.default_rng(seed)
    modes = [(spatial, pol) for spatial in (1, 2, 3, 4) for pol in (H, V)]
    states = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        terms = {}
        for _ in range(int(rng.integers(1, 7))):
            placed = [rng.integers(2, 4), rng.integers(4, 6), *rng.integers(0, 8, size=n - 2)]
            counts = np.bincount(placed, minlength=len(modes))
            terms[occupation(zip(modes, counts.tolist()))] = complex(*rng.normal(size=2))
        states.append(PureState(terms))
    return states


GHZ_SOURCES = [phi_pair_with_circular_third()] + random_few_photon_states()


@pytest.mark.parametrize("index", range(len(GHZ_SOURCES)))
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("g2", [False, True], ids=["g1", "g2"])
def test_prepare_ghz_keeps_the_bits_of_the_composed_map(g2, eps, index):
    # the block of the optics matrix on modes 1 to 3, applied as one element,
    # gives the composed map's terms in the same order, bit for bit
    source = GHZ_SOURCES[index]
    want, want_prob = composed_prepare_ghz(source, eps, g2)
    if want is None:
        with pytest.raises(ProtocolError):
            prepare_ghz(source, pbs_epsilon=eps, g2=g2)
        return
    got, prob = prepare_ghz(source, pbs_epsilon=eps, g2=g2)
    assert list(got.terms.items()) == list(want.terms.items())
    assert prob == want_prob


# --- singlet projection ------------------------------------------------------------

def test_singlet_projection_psi_minus_antibunches():
    # oracle: creation-operator expansion keeps the full singlet in the
    # anti-bunched sector (the antisymmetric state is the only one that
    # never bunches)
    cond, prob = singlet_projection(bell_fock("psi-"))
    assert prob == pytest.approx(1.0, abs=1e-12)
    target = bell_fock("psi-")
    assert abs(overlap(cond, target)) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("label", ["psi+", "phi+", "phi-"])
def test_singlet_projection_rejects_symmetric_bells(label):
    cond, prob = singlet_projection(bell_fock(label))
    assert prob < 1e-14
    assert cond is None


def test_singlet_projection_hom_null():
    state = basis_state({(1, H): 1, (4, H): 1})
    cond, prob = singlet_projection(state)
    assert prob < 1e-14


# --- analyzer frames ------------------------------------------------------------

def test_analyzer_frames_are_unitary():
    for channel in ("g1", "g2", "reference"):
        w = analyzer_frame(channel)
        assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-12)


def test_analyzer_frame_g1_matches_derivation():
    # conditional receiver state for the circular-allowed g1 channel is
    # (beta, i*alpha): the frame [[0, 1], [i, 0]]
    w = analyzer_frame("g1")
    expected = np.array([[0, 1], [1j, 0]], dtype=complex)
    ratio = w[np.abs(expected) > 0.5] / expected[np.abs(expected) > 0.5]
    assert np.allclose(ratio, ratio[0], atol=1e-12)
    assert abs(abs(ratio[0]) - 1.0) < 1e-12


# --- dense photon-number basis -----------------------------------------------------

@pytest.mark.parametrize("n", range(11))
def test_number_basis_lists_every_occupation_once_in_code_order(n):
    occ, codes = protocol._number_basis(n)
    # C(n + 7, 7) rows: 330 at order 2 (n = 4) and 19,448 at order 5 (n = 10)
    assert occ.shape == (math.comb(n + 7, 7), 8)
    assert np.all(occ.sum(axis=1) == n)
    assert np.all(np.diff(codes) > 0)


def test_number_basis_rejects_counts_beyond_four_bits():
    with pytest.raises(SectorError, match="16 photons"):
        protocol._number_basis(16)


# --- full protocol ---------------------------------------------------------------

def test_ideal_allow_teleports_perfectly():
    rec, rho = run_protocol(ProtocolConfig(channel="g1", action="allow"))
    assert rec.fidelity() == pytest.approx(1.0, abs=1e-12)
    assert rec.f_perp == pytest.approx(0.0, abs=1e-14)
    assert rec.success_probability == pytest.approx(1 / 16, abs=1e-12)
    # the receiver's photon is pure and sits exactly on the calibrated frame
    # image of the input; his analyzer projects onto that image
    target = analyzer_frame("g1") @ InputQubit.from_name("plus").ket()
    assert fidelity(rho, target) == pytest.approx(1.0, abs=1e-12)


def test_ideal_deny_halves_fidelity():
    rec, rho = run_protocol(ProtocolConfig(channel="g1", action="deny"))
    assert rec.fidelity() == pytest.approx(0.5, abs=1e-12)


def test_reference_run_is_plain_teleportation():
    rec, rho = run_protocol(ProtocolConfig(channel="reference", action="none"))
    assert rec.fidelity() == pytest.approx(1.0, abs=1e-12)
    assert rec.success_probability == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("channel", ["g1", "g2"])
@pytest.mark.parametrize("name", AXIAL_INPUT_NAMES)
def test_allow_perfect_for_all_axial_inputs(channel, name):
    cfg = ProtocolConfig(channel=channel, action="allow", input=InputQubit.from_name(name))
    rec, _ = run_protocol(cfg)
    assert rec.fidelity() == pytest.approx(1.0, abs=1e-10)


def test_deny_output_diagonal_in_logical_basis():
    for channel in ("g1", "g2"):
        for name in ("plus", "minus", "r", "l"):
            cfg = ProtocolConfig(channel=channel, action="deny",
                                 input=InputQubit.from_name(name))
            _, rho = run_protocol(cfg)
            assert abs(rho[0, 1]) < 1e-12


def test_probability_bookkeeping_multiplies():
    # chained post-selections: GHZ preparation then the protocol conditionals;
    # joint four-fold probability equals the product of stage probabilities
    rec, _ = run_protocol(ProtocolConfig(channel="g1", action="allow"))
    # stages for the ideal allowed run: GHZ prep 1/2, anti-bunch 1/4,
    # controller circular projection 1/2
    assert rec.success_probability == pytest.approx(0.5 * 0.25 * 0.5, abs=1e-12)
    assert rec.f_parallel + rec.f_perp == pytest.approx(rec.success_probability, abs=1e-12)


def test_zero_success_configuration_raises():
    cfg = ProtocolConfig(channel="g1", action="deny", input=InputQubit.from_name("h"))
    with pytest.raises(ProtocolError):
        run_protocol(cfg)


@pytest.mark.parametrize("channel, action", [("g1", "allow"), ("g2", "deny"),
                                             ("reference", "none")])
def test_fidelity_independent_of_common_kappa_scale(channel, action):
    # at order 2 every four-fold sector holds two pairs, so scaling both
    # strengths alike scales every rate by the same kappa^4; the "no
    # coincidence" checks must not trip at weak pumping, nor may the source's
    # four-photon terms be cut against its vacuum amplitude
    fids = []
    for kappa in (0.1, 2e-4, 3e-8, 1e-12):
        cfg = ProtocolConfig(channel=channel, action=action, pbs_epsilon=0.05,
                             source=SourceParams(kappa_forward=kappa,
                                                 kappa_backward=kappa))
        rec, _ = run_protocol(cfg)
        fids.append(rec.fidelity())
    assert fids[1:] == pytest.approx([fids[0]] * 3, abs=1e-9)


@given(st.floats(min_value=0, max_value=math.pi, allow_nan=False),
       st.floats(min_value=0, max_value=2 * math.pi, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_allow_perfect_for_arbitrary_inputs(theta, phi):
    iq = InputQubit.from_components(math.cos(theta / 2),
                                    math.sin(theta / 2) * np.exp(1j * phi))
    rec, _ = run_protocol(ProtocolConfig(channel="g1", action="allow", input=iq))
    assert rec.fidelity() == pytest.approx(1.0, abs=1e-10)


@given(st.floats(min_value=0, max_value=0.3, allow_nan=False))
@settings(max_examples=15, deadline=None)
def test_rates_never_exceed_success_probability(eps):
    rec, _ = run_protocol(ProtocolConfig(channel="g1", action="allow",
                                         pbs_epsilon=eps))
    assert 0.0 <= rec.f_parallel + rec.f_perp <= rec.success_probability + 1e-12
    assert rec.f_parallel + rec.f_perp > 0


# --- mixture emulation ------------------------------------------------------------

def test_emulate_mixture_endpoints():
    cfg = ProtocolConfig(channel="g1", action="allow")
    r1, _ = run_protocol(cfg)
    r2, _ = run_protocol(ProtocolConfig(channel="g2", action="allow"))
    m0 = emulate_mixture(cfg, 0.0)
    m1 = emulate_mixture(cfg, 1.0)
    assert m0.f_parallel == pytest.approx(r1.f_parallel)
    assert m1.f_parallel == pytest.approx(r2.f_parallel)
    mhalf = emulate_mixture(cfg, 0.5)
    assert mhalf.fidelity() == pytest.approx(1.0, abs=1e-12)


def test_emulate_mixture_orders_its_labels_whatever_the_hash_seed():
    code = ("from cqtsim.protocol import ProtocolConfig, emulate_mixture\n"
            "from cqtsim.spdc import SourceParams\n"
            "cfg = ProtocolConfig(channel='g1', action='deny', source=SourceParams())\n"
            "print(list(emulate_mixture(cfg, 0.3).per_term))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    orders = set()
    for seed in ("1", "2", "3"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert out.returncode == 0, out.stderr
        orders.add(out.stdout)
    assert orders == {"['0022', '1111', '2200']\n"}


@pytest.mark.parametrize("channel, action", [("g2", "allow"), ("g2", "deny"),
                                             ("reference", "none")])
def test_emulate_mixture_takes_only_the_g1_configuration(channel, action):
    with pytest.raises(ValueError, match=f"takes the g1 configuration, not '{channel}'"):
        emulate_mixture(ProtocolConfig(channel=channel, action=action), 0.5)


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, math.inf])
def test_emulate_mixture_rejects_a_weight_outside_0_1(p):
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        emulate_mixture(ProtocolConfig(), p)


def test_emulate_mixture_adds_no_events_for_a_half_that_cannot_coincide():
    # with input h and deny, the g1 half never coincides and the g2 half does
    cfg = ProtocolConfig(channel="g1", action="deny", input=InputQubit.from_name("h"))
    g2, _ = run_protocol(ProtocolConfig(channel="g2", action="deny",
                                        input=InputQubit.from_name("h")))
    record = emulate_mixture(cfg, 1.0)
    assert (record.f_parallel, record.f_perp, record.success_probability) == (
        g2.f_parallel, g2.f_perp, g2.success_probability)
    half = emulate_mixture(cfg, 0.5)
    assert (half.f_parallel, half.f_perp, half.success_probability) == pytest.approx(
        (0.0625, 0.0, 0.0625), abs=1e-15)
    with pytest.raises(protocol.NoCoincidenceError, match="channel g1, action deny"):
        emulate_mixture(cfg, 0.0)


# --- fock pipeline vs qubit model ---------------------------------------------------

def _fock_mixture_rho(p, action, iq):
    branches = []
    for channel, weight in (("g1", 1 - p), ("g2", p)):
        if weight == 0.0:
            continue
        try:
            rec, rho = run_protocol(ProtocolConfig(channel=channel, action=action, input=iq))
            branches.append((weight * rec.success_probability, rho))
        except ProtocolError:
            continue
    if not branches:
        return None
    total = sum(w for w, _ in branches)
    return sum(w * rho for w, rho in branches) / total


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("action,basis,outcome",
                         [("allow", "rl", "R"), ("deny", "hv", "H")])
@pytest.mark.parametrize("name", AXIAL_INPUT_NAMES)
def test_fock_pipeline_matches_qubit_model(p, action, basis, outcome, name):
    iq = InputQubit.from_name(name)
    rho_fock = _fock_mixture_rho(p, action, iq)
    try:
        rho_qubit, _ = conditional_teleport_output(make_ghz_mixture(p), iq.ket(),
                                                   basis, outcome)
    except ValueError:
        rho_qubit = None
    assert (rho_fock is None) == (rho_qubit is None)
    if rho_fock is not None:
        assert np.max(np.abs(rho_fock - rho_qubit)) < 1e-10


# --- role swapping ---------------------------------------------------------------------

def test_swapped_roles_allow_and_deny():
    rec, _ = run_protocol(ProtocolConfig(channel="g1", action="allow", roles="swapped"))
    assert rec.fidelity() == pytest.approx(1.0, abs=1e-10)
    assert rec.success_probability == pytest.approx(1 / 16, abs=1e-12)
    rec, _ = run_protocol(ProtocolConfig(channel="g1", action="deny", roles="swapped"))
    assert rec.fidelity() == pytest.approx(0.5, abs=1e-10)


def test_chained_post_selections_do_not_conflict():
    # the GHZ one-photon-per-port condition is implied by the four-fold
    # pattern for the ideal source: inserting it explicitly changes nothing,
    # so the singlet and GHZ post-selections chain without conflict
    from cqtsim.elements import apply as apply_el
    from cqtsim.fock import project, spatial_counts
    from cqtsim.protocol import _detector_spatials, _station_blocks
    from helpers import block_elements, clicks_at, compose, ideal_source_state

    cfg = ProtocolConfig(channel="g1", action="allow", roles="swapped")
    sector = ideal_source_state()
    blocks = _station_blocks(cfg)
    # split the pipeline after the PBS and its compensation plates: the first
    # part prepares the GHZ state, the rest is the sender/receiver optics; the
    # controller's polarizer is the last block
    pbs_index = next(i for i, (spatials, _) in enumerate(blocks) if spatials == (2, 3))
    els = block_elements(blocks[:-1])
    prep, rest = els[:pbs_index + 3], els[pbs_index + 3:]
    ctrl, = block_elements(blocks[-1:])
    detectors = _detector_spatials(cfg)

    mid = apply_el(compose(prep), sector)
    direct = apply_el(ctrl, apply_el(compose(rest), mid))
    _, p_direct = project(direct, clicks_at(detectors))

    def ghz_ok(occ):
        counts = spatial_counts(occ)
        return counts.get(2, 0) == 1 and counts.get(3, 0) == 1

    prepared, p_prep = project(mid, ghz_ok)
    chained = apply_el(ctrl, apply_el(compose(rest), prepared))
    _, p_rest = project(chained, clicks_at(detectors))

    assert p_direct == pytest.approx(p_prep * p_rest, abs=1e-12)
    assert p_prep == pytest.approx(0.5, abs=1e-12)

    # the discarded branches (zero or two photons at the sender's GHZ output)
    # never produce a four-fold coincidence
    failed, p_fail = project(mid, lambda occ: not ghz_ok(occ))
    assert p_fail == pytest.approx(0.5, abs=1e-12)
    bad = apply_el(ctrl, apply_el(compose(rest), failed))
    _, p_bad = project(bad, clicks_at(detectors))
    assert p_bad < 1e-14
