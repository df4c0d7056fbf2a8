import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqtsim.elements import (OpticalElement, apply, balanced_bs, compose, hwp,
                             hwp_matrix, measure_polarization, pbs,
                             phase_plate, polarizer, qwp, qwp_matrix)
from cqtsim.fock import (H, V, KET_D, KET_H, KET_L, KET_R, KET_V,
                         PureState, SectorError, basis_state, occupation,
                         overlap, project, single_photon, spatial_counts)


def two_photons(mode_a, mode_b, amp=1.0):
    return PureState({occupation({mode_a: 1, mode_b: 1}): amp})


# --- convention anchors -----------------------------------------------------

def test_hwp_22p5_makes_plus():
    out = apply(hwp(1, math.pi / 8), single_photon(1, KET_H))
    assert abs(overlap(out, single_photon(1, KET_D))) == pytest.approx(1.0, abs=1e-12)


def test_hwp_45_swaps_h_v():
    out = apply(hwp(1, math.pi / 4), single_photon(1, KET_H))
    assert out.amplitude({(1, V): 1}) == pytest.approx(1.0)


def test_qwp_at_minus45_makes_r():
    out = apply(qwp(1, -math.pi / 4), single_photon(1, KET_H))
    assert abs(overlap(out, single_photon(1, KET_R))) == pytest.approx(1.0, abs=1e-12)


def test_ideal_pbs_routing():
    el = pbs(1, 2, epsilon=0.0)
    out_h = apply(el, single_photon(1, KET_H))
    assert out_h.amplitude({(1, H): 1}) == pytest.approx(1.0)
    out_v = apply(el, single_photon(1, KET_V))
    assert abs(out_v.amplitude({(2, V): 1})) == pytest.approx(1.0)
    assert spatial_counts(next(iter(out_v.terms))) == {2: 1}


def test_pbs_epsilon_one_fully_reflects_h():
    out = apply(pbs(1, 2, epsilon=1.0), single_photon(1, KET_H))
    assert abs(out.amplitude({(2, H): 1})) == pytest.approx(1.0)


def test_pbs_epsilon_reflected_port_probability():
    out = apply(pbs(1, 2, 0.05), single_photon(1, KET_H))
    _, p_reflected = project(out, lambda occ: spatial_counts(occ).get(2, 0) == 1)
    assert p_reflected == pytest.approx(0.05, abs=1e-12)


def test_pbs_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        pbs(1, 2, epsilon=1.5)


# --- two-photon interference ------------------------------------------------

def test_hom_no_coincidence():
    # oracle: expand (a+ib)(b+ia)/2 -> i(a^2 + b^2)/2, coincidence cancels
    state = two_photons((1, H), (2, H))
    out = apply(balanced_bs(1, 2), state)
    _, p_coinc = project(out, lambda occ: spatial_counts(occ).get(1, 0) == 1
                         and spatial_counts(occ).get(2, 0) == 1)
    assert p_coinc < 1e-14
    assert abs(out.amplitude({(1, H): 2})) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out.amplitude({(2, H): 2})) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_distinguishable_polarizations_do_coincide():
    state = two_photons((1, H), (2, V))
    out = apply(balanced_bs(1, 2), state)
    _, p_coinc = project(out, lambda occ: spatial_counts(occ).get(1, 0) == 1
                         and spatial_counts(occ).get(2, 0) == 1)
    assert p_coinc == pytest.approx(0.5, abs=1e-12)


def test_same_port_pair_splits_half_the_time():
    state = basis_state({(1, H): 1, (1, V): 1})
    out = apply(balanced_bs(1, 2), state)
    _, p_split = project(out, lambda occ: spatial_counts(occ).get(1, 0) == 1
                         and spatial_counts(occ).get(2, 0) == 1)
    assert p_split == pytest.approx(0.5, abs=1e-12)


# --- invariants ---------------------------------------------------------------

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


@given(ANGLES)
@settings(max_examples=40, deadline=None)
def test_hwp_is_involution(theta):
    m = hwp_matrix(theta)
    assert np.allclose(m @ m, np.eye(2), atol=1e-12)


@given(ANGLES)
@settings(max_examples=40, deadline=None)
def test_waveplates_are_unitary(theta):
    for m in (hwp_matrix(theta), qwp_matrix(theta)):
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


@given(ANGLES, st.floats(min_value=0, max_value=1, allow_nan=False),
       st.floats(min_value=0, max_value=2 * math.pi, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_lossless_elements_preserve_norm(theta, eps, phi):
    state = PureState({
        occupation({(1, H): 1, (2, V): 1}): 0.6,
        occupation({(1, V): 2}): 0.48,
        occupation({(2, H): 1}): 0.64j,
    })
    for el in (hwp(1, theta), qwp(2, theta), balanced_bs(1, 2),
               pbs(1, 2, eps), phase_plate(1, phi)):
        out = apply(el, state)
        assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)


@given(ANGLES)
@settings(max_examples=25, deadline=None)
def test_unitary_elements_preserve_overlaps(theta):
    a = single_photon(1, KET_D)
    b = single_photon(1, KET_R)
    el = qwp(1, theta)
    assert overlap(apply(el, a), apply(el, b)) == pytest.approx(overlap(a, b), abs=1e-12)


@given(st.floats(min_value=0, max_value=1, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_pbs_conserves_photon_number(eps):
    state = PureState({
        occupation({(1, H): 2, (2, V): 1}): 1 / math.sqrt(2),
        occupation({(1, V): 1, (2, H): 2}): 1 / math.sqrt(2),
    })
    out = apply(pbs(1, 2, eps), state)
    for occ in out.terms:
        assert sum(spatial_counts(occ).values()) == 3


def test_polarizer_is_projective():
    s = single_photon(1, KET_D)
    out = apply(polarizer(1, KET_H), s)
    assert out.norm_sq() == pytest.approx(0.5, abs=1e-12)
    out2 = apply(polarizer(1, KET_H), out)
    assert out2.norm_sq() == pytest.approx(out.norm_sq(), abs=1e-12)


# --- polarization measurement ------------------------------------------------

def test_measure_plus_in_pm_basis():
    res = measure_polarization(single_photon(1, KET_D), 1, "pm")
    probs = {label: p for label, p, _ in res}
    assert probs["+"] == pytest.approx(1.0, abs=1e-12)
    assert probs["-"] < 1e-14


def test_measure_h_in_pm_basis():
    res = measure_polarization(single_photon(1, KET_H), 1, "pm")
    probs = {label: p for label, p, _ in res}
    assert probs["+"] == pytest.approx(0.5)
    assert probs["-"] == pytest.approx(0.5)


def ghz_fock():
    s = 1.0 / math.sqrt(2.0)
    return PureState({
        occupation({(1, H): 1, (2, H): 1, (3, H): 1}): s,
        occupation({(1, V): 1, (2, V): 1, (3, V): 1}): s,
    })


def test_measure_ghz_mode3_hv():
    res = measure_polarization(ghz_fock(), 3, "hv")
    for label, p, cond in res:
        assert p == pytest.approx(0.5, abs=1e-12)
        expect = {(1, H): 1, (2, H): 1} if label == "H" else {(1, V): 1, (2, V): 1}
        assert abs(cond.amplitude(expect)) == pytest.approx(1.0, abs=1e-12)


def test_measure_ghz_mode3_pm_gives_real_bell_states():
    # decomposition anchor: +/- outcomes leave (|HH> +/- |VV>)/sqrt(2)
    res = measure_polarization(ghz_fock(), 3, "pm")
    for label, p, cond in res:
        assert p == pytest.approx(0.5, abs=1e-12)
        sign = 1.0 if label == "+" else -1.0
        target = PureState({
            occupation({(1, H): 1, (2, H): 1}): 1 / math.sqrt(2),
            occupation({(1, V): 1, (2, V): 1}): sign / math.sqrt(2),
        })
        assert abs(overlap(cond, target)) == pytest.approx(1.0, abs=1e-12)


def test_measure_outcome_probabilities_complete():
    res = measure_polarization(single_photon(2, KET_L), 2, "rl")
    assert sum(p for _, p, _ in res) == pytest.approx(1.0, abs=1e-10)


def test_measure_unoccupied_mode_raises():
    with pytest.raises(SectorError):
        measure_polarization(single_photon(1, KET_H), 2, "hv")


def test_measure_multiphoton_sector_raises():
    with pytest.raises(SectorError):
        measure_polarization(basis_state({(1, H): 2}), 1, "hv")


def test_compose_two_hwps():
    s = single_photon(1, KET_H)
    out = apply(compose([hwp(1, math.pi / 8), hwp(1, math.pi / 8)]), s)
    assert abs(overlap(out, s)) == pytest.approx(1.0, abs=1e-12)


# --- composition ---------------------------------------------------------------

MODES = st.sampled_from([1, 2, 3])
PORTS = st.lists(MODES, min_size=2, max_size=2, unique=True)
KETS = st.tuples(st.complex_numbers(max_magnitude=1, allow_nan=False),
                 st.complex_numbers(max_magnitude=1, allow_nan=False)).filter(
    lambda k: abs(k[0]) + abs(k[1]) > 0.1)
ELEMENTS = st.one_of(
    st.builds(hwp, MODES, ANGLES),
    st.builds(qwp, MODES, ANGLES),
    st.builds(phase_plate, MODES, ANGLES, st.sampled_from([H, V])),
    st.builds(lambda m, k: polarizer(m, np.array(k)), MODES, KETS),
    PORTS.map(lambda p: balanced_bs(*p)),
    st.builds(lambda p, eps: pbs(p[0], p[1], eps), PORTS,
              st.floats(min_value=0, max_value=1, allow_nan=False)),
)
MODE_COUNTS = st.dictionaries(st.tuples(MODES, st.sampled_from([H, V])),
                              st.integers(1, 2), min_size=0, max_size=3)
STATES = st.lists(st.tuples(MODE_COUNTS, KETS.map(lambda k: k[0])),
                  min_size=1, max_size=4).map(
    lambda terms: PureState({occupation(c): a for c, a in terms}, n_max=6))


@given(st.lists(ELEMENTS, min_size=0, max_size=6), STATES)
@settings(max_examples=80, deadline=None)
def test_composed_map_equals_element_by_element(els, state):
    composed = apply(compose(els), state)
    sequential = state
    for el in els:
        sequential = apply(el, sequential)
    for occ in set(composed.terms) | set(sequential.terms):
        assert abs(composed.terms.get(occ, 0) - sequential.terms.get(occ, 0)) < 1e-12


def test_photon_in_a_mode_with_no_output_is_absorbed():
    absorber = OpticalElement("Absorber", {(1, H): {}})
    assert apply(absorber, basis_state({(1, H): 1})).terms == {}
    mixed = PureState({occupation({(1, H): 1}): 0.6, occupation({(2, V): 2}): 0.8})
    out = apply(absorber, mixed)
    assert out.terms == {occupation({(2, V): 2}): 0.8}


def test_photon_sent_into_an_occupied_untouched_mode_bunches():
    merge = OpticalElement("Merge", {(1, H): {(2, H): 1.0}})
    out = apply(merge, basis_state({(1, H): 1, (2, H): 1}))
    assert out.terms.keys() == {occupation({(2, H): 2})}
    assert out.terms[occupation({(2, H): 2})] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_compose_drops_modes_every_path_absorbs():
    # crossed polarizers absorb both polarizations of mode 1
    crossed = compose([polarizer(1, KET_H), polarizer(1, KET_V)])
    assert crossed.mapping == {(1, H): {}, (1, V): {}}
    assert apply(crossed, single_photon(1, KET_D)).terms == {}
