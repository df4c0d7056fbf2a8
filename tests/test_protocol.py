import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqtsim.channels import conditional_teleport_output, make_ghz_mixture
from cqtsim.elements import apply, port_element
from cqtsim.fock import (H, V, PureState, basis_state, fidelity, occupation, overlap,
                         tensor)
from cqtsim.protocol import (AXIAL_INPUT_NAMES, InputQubit, ProtocolConfig,
                             ProtocolError, R_PREP, analyzer_frame, emulate_mixture,
                             encoding_plate_angles, prepare_ghz, run_protocol,
                             singlet_projection)
from cqtsim.spdc import SourceParams

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

@pytest.mark.parametrize("name", AXIAL_INPUT_NAMES)
def test_encoding_plates_reach_axial_states(name):
    from cqtsim.elements import hwp_matrix, qwp_matrix
    iq = InputQubit.from_name(name)
    th, tq = encoding_plate_angles(iq.alpha, iq.beta)
    out = qwp_matrix(tq) @ hwp_matrix(th) @ np.array([1, 0], dtype=complex)
    assert abs(np.vdot(iq.ket(), out)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_encoding_plates_reach_generic_state():
    from cqtsim.elements import hwp_matrix, qwp_matrix
    iq = InputQubit.from_components(0.6, 0.8j * np.exp(0.3j))
    th, tq = encoding_plate_angles(iq.alpha, iq.beta)
    out = qwp_matrix(tq) @ hwp_matrix(th) @ np.array([1, 0], dtype=complex)
    assert abs(np.vdot(iq.ket(), out)) ** 2 == pytest.approx(1.0, abs=1e-12)


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
    r1, _ = run_protocol(ProtocolConfig(channel="g1", action="allow"))
    r2, _ = run_protocol(ProtocolConfig(channel="g2", action="allow"))
    m0 = emulate_mixture(r1, r2, 0.0)
    m1 = emulate_mixture(r1, r2, 1.0)
    assert m0.f_parallel == pytest.approx(r1.f_parallel)
    assert m1.f_parallel == pytest.approx(r2.f_parallel)
    mhalf = emulate_mixture(r1, r2, 0.5)
    assert mhalf.fidelity() == pytest.approx(1.0, abs=1e-12)


def test_emulate_mixture_rejects_mismatched_settings():
    r1, _ = run_protocol(ProtocolConfig(channel="g1", action="allow"))
    r2, _ = run_protocol(ProtocolConfig(channel="g2", action="deny"))
    with pytest.raises(ValueError):
        emulate_mixture(r1, r2, 0.5)


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
    from cqtsim.elements import compose
    from cqtsim.fock import clicks_at, project, spatial_counts
    from cqtsim.protocol import (_detector_spatials, _elements, _station_blocks,
                                 ideal_source_state)

    cfg = ProtocolConfig(channel="g1", action="allow", roles="swapped")
    sector = ideal_source_state()
    blocks = _station_blocks(cfg)
    # split the pipeline after the PBS and its compensation plates: the first
    # part prepares the GHZ state, the rest is the sender/receiver optics; the
    # controller's polarizer is the last block
    pbs_index = next(i for i, (spatials, _) in enumerate(blocks) if spatials == (2, 3))
    els = _elements(blocks[:-1])
    prep, rest = els[:pbs_index + 3], els[pbs_index + 3:]
    ctrl, = _elements(blocks[-1:])
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
