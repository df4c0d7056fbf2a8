import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqtsim.elements import (apply, balanced_bs_matrix, hwp_matrix, pbs_matrix,
                             phase_matrix, polarizer_matrix, qwp_matrix)
from cqtsim.fock import (H, V, KET_D, KET_H, KET_R, KET_V, PureState, basis_state,
                         occupation, overlap, project, spatial_counts, total_photons)
from cqtsim.spdc import coincidence_sectors, signature_label

from helpers import (apply_map, assert_same_bits, block_maps, clicks_at, compose, phase_on,
                     single_photon, substitution_map)
from test_ket_step_vs_multinomial import STATES as MULTINOMIAL_STATES


def two_photons(mode_a, mode_b, amp=1.0):
    return PureState({occupation({mode_a: 1, mode_b: 1}): amp})


# --- convention anchors -----------------------------------------------------

def test_hwp_22p5_makes_plus():
    out = apply(((1,), hwp_matrix(math.pi / 8)), single_photon(1, KET_H))
    assert abs(overlap(out, single_photon(1, KET_D))) == pytest.approx(1.0, abs=1e-12)


def test_hwp_45_swaps_h_v():
    out = apply(((1,), hwp_matrix(math.pi / 4)), single_photon(1, KET_H))
    assert out.amplitude({(1, V): 1}) == pytest.approx(1.0)


def test_qwp_at_minus45_makes_r():
    out = apply(((1,), qwp_matrix(-math.pi / 4)), single_photon(1, KET_H))
    assert abs(overlap(out, single_photon(1, KET_R))) == pytest.approx(1.0, abs=1e-12)


def test_ideal_pbs_routing():
    el = ((1, 2), pbs_matrix(epsilon=0.0))
    out_h = apply(el, single_photon(1, KET_H))
    assert out_h.amplitude({(1, H): 1}) == pytest.approx(1.0)
    out_v = apply(el, single_photon(1, KET_V))
    assert abs(out_v.amplitude({(2, V): 1})) == pytest.approx(1.0)
    assert spatial_counts(next(iter(out_v.terms))) == {2: 1}


def test_pbs_epsilon_one_fully_reflects_h():
    out = apply(((1, 2), pbs_matrix(epsilon=1.0)), single_photon(1, KET_H))
    assert abs(out.amplitude({(2, H): 1})) == pytest.approx(1.0)


def test_pbs_epsilon_reflected_port_probability():
    out = apply(((1, 2), pbs_matrix(0.05)), single_photon(1, KET_H))
    _, p_reflected = project(out, lambda occ: spatial_counts(occ).get(2, 0) == 1)
    assert p_reflected == pytest.approx(0.05, abs=1e-12)


def test_pbs_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        pbs_matrix(epsilon=1.5)


# --- two-photon interference ------------------------------------------------

def test_hom_no_coincidence():
    # oracle: expand (a+ib)(b+ia)/2 -> i(a^2 + b^2)/2, coincidence cancels
    state = two_photons((1, H), (2, H))
    out = apply(((1, 2), balanced_bs_matrix()), state)
    _, p_coinc = project(out, lambda occ: spatial_counts(occ).get(1, 0) == 1
                         and spatial_counts(occ).get(2, 0) == 1)
    assert p_coinc < 1e-14
    assert abs(out.amplitude({(1, H): 2})) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out.amplitude({(2, H): 2})) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_distinguishable_polarizations_do_coincide():
    state = two_photons((1, H), (2, V))
    out = apply(((1, 2), balanced_bs_matrix()), state)
    _, p_coinc = project(out, lambda occ: spatial_counts(occ).get(1, 0) == 1
                         and spatial_counts(occ).get(2, 0) == 1)
    assert p_coinc == pytest.approx(0.5, abs=1e-12)


def test_same_port_pair_splits_half_the_time():
    state = basis_state({(1, H): 1, (1, V): 1})
    out = apply(((1, 2), balanced_bs_matrix()), state)
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
    for spatials, m in (((1,), hwp_matrix(theta)), ((2,), qwp_matrix(theta)),
                        ((1, 2), balanced_bs_matrix()), ((1, 2), pbs_matrix(eps)),
                        ((1,), phase_matrix(phi))):
        out = apply((spatials, m), state)
        assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)


@given(ANGLES)
@settings(max_examples=25, deadline=None)
def test_unitary_elements_preserve_overlaps(theta):
    a = single_photon(1, KET_D)
    b = single_photon(1, KET_R)
    el = ((1,), qwp_matrix(theta))
    assert overlap(apply(el, a), apply(el, b)) == pytest.approx(overlap(a, b), abs=1e-12)


@given(st.floats(min_value=0, max_value=1, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_pbs_conserves_photon_number(eps):
    state = PureState({
        occupation({(1, H): 2, (2, V): 1}): 1 / math.sqrt(2),
        occupation({(1, V): 1, (2, H): 2}): 1 / math.sqrt(2),
    })
    out = apply(((1, 2), pbs_matrix(eps)), state)
    for occ in out.terms:
        assert sum(spatial_counts(occ).values()) == 3


def test_polarizer_is_projective():
    s = single_photon(1, KET_D)
    el = ((1,), polarizer_matrix(KET_H))
    out = apply(el, s)
    assert out.norm_sq() == pytest.approx(0.5, abs=1e-12)
    out2 = apply(el, out)
    assert out2.norm_sq() == pytest.approx(out.norm_sq(), abs=1e-12)


@pytest.mark.parametrize("ket, message", [([0, 0], "zero jones_ket vector"),
                                          ([math.inf, 0], "jones_ket amplitudes must be finite"),
                                          ([math.nan, 1], "jones_ket amplitudes must be finite")])
def test_polarizer_rejects_a_ket_it_cannot_normalise(ket, message):
    with pytest.raises(ValueError, match=message):
        polarizer_matrix(ket)


@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_polarizer_of_an_extreme_scale_ket_is_the_unit_ket_projector(scale):
    assert np.max(np.abs(polarizer_matrix([scale, 1j * scale])
                         - polarizer_matrix(KET_R))) <= 1e-15


def test_compose_two_hwps():
    s = single_photon(1, KET_H)
    hwp = ((1,), hwp_matrix(math.pi / 8))
    out = apply_map(compose(block_maps([hwp, hwp])), s)
    assert abs(overlap(out, s)) == pytest.approx(1.0, abs=1e-12)


# --- composition ---------------------------------------------------------------

MODES = st.sampled_from([1, 2, 3])
PORTS = st.lists(MODES, min_size=2, max_size=2, unique=True)
KETS = st.tuples(st.complex_numbers(max_magnitude=1, allow_nan=False),
                 st.complex_numbers(max_magnitude=1, allow_nan=False)).filter(
    lambda k: abs(k[0]) + abs(k[1]) > 0.1)
ELEMENTS = st.one_of(
    st.builds(lambda m, t: ((m,), hwp_matrix(t)), MODES, ANGLES),
    st.builds(lambda m, t: ((m,), qwp_matrix(t)), MODES, ANGLES),
    st.builds(lambda m, phi, pol: ((m,), phase_on(phi, pol)),
              MODES, ANGLES, st.sampled_from([H, V])),
    st.builds(lambda m, k: ((m,), polarizer_matrix(np.array(k))), MODES, KETS),
    PORTS.map(lambda p: (p, balanced_bs_matrix())),
    st.builds(lambda p, eps: (p, pbs_matrix(eps)), PORTS,
              st.floats(min_value=0, max_value=1, allow_nan=False)),
)
MODE_COUNTS = st.dictionaries(st.tuples(MODES, st.sampled_from([H, V])),
                              st.integers(1, 2), min_size=0, max_size=3)
STATES = st.lists(st.tuples(MODE_COUNTS, KETS.map(lambda k: k[0])),
                  min_size=1, max_size=4).map(
    lambda terms: PureState({occupation(c): a for c, a in terms}))


@given(st.lists(ELEMENTS, min_size=0, max_size=6), STATES)
@settings(max_examples=80, deadline=None)
def test_composed_map_equals_element_by_element(els, state):
    composed = apply_map(compose(block_maps(els)), state)
    sequential = state
    for el in els:
        sequential = apply(el, sequential)
    for occ in set(composed.terms) | set(sequential.terms):
        assert abs(composed.terms.get(occ, 0) - sequential.terms.get(occ, 0)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_rejects_a_non_finite_matrix(bad):
    matrix = hwp_matrix(0.3)
    matrix[1, 0] = bad
    with pytest.raises(ValueError, match="matrix must be finite"):
        apply(((1,), matrix), basis_state({(1, H): 1}))


def test_photon_in_a_mode_with_no_output_is_absorbed():
    absorber = ((1,), np.diag([0.0, 1.0]))
    assert apply(absorber, basis_state({(1, H): 1})).terms == {}
    mixed = PureState({occupation({(1, H): 1}): 0.6, occupation({(2, V): 2}): 0.8})
    out = apply(absorber, mixed)
    assert out.terms == {occupation({(2, V): 2}): 0.8}


def test_photon_merged_into_an_occupied_mode_bunches():
    # (1, H) goes to (2, H); every other mode stays where it is
    merge = ((1, 2), np.array([[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]))
    out = apply(merge, basis_state({(1, H): 1, (2, H): 1}))
    assert out.terms.keys() == {occupation({(2, H): 2})}
    assert out.terms[occupation({(2, H): 2})] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_compose_drops_modes_every_path_absorbs():
    # crossed polarizers absorb both polarizations of mode 1
    crossed = compose(block_maps([((1,), polarizer_matrix(KET_H)),
                                   ((1,), polarizer_matrix(KET_V))]))
    assert crossed == {(1, H): {}, (1, V): {}}
    assert apply_map(crossed, single_photon(1, KET_D)).terms == {}


# --- apply checks the block and keeps the bits of the substitution map -------------

@pytest.mark.parametrize("spatials, size, shown", [
    ((1.5,), 2, "1.5"), ((1, "two"), 4, "'two'"), ((None,), 2, "None")],
    ids=["float-index", "string-index", "none-index"])
def test_apply_rejects_a_spatial_mode_that_is_not_an_integer(spatials, size, shown):
    with pytest.raises(ValueError, match=f"^spatial index must be an integer, got {shown}$"):
        apply((spatials, np.eye(size)), basis_state({(1, H): 1}))


def test_substitution_map_drops_exact_zeros_so_absorbed_modes_map_to_nothing():
    assert substitution_map((1,), polarizer_matrix(KET_H)) == {
        (1, H): {(1, H): 1.0}, (1, V): {}}
    assert substitution_map((1, 2), pbs_matrix(0.0))[(1, H)] == {(1, H): 1.0}


@pytest.mark.parametrize("spatials, size", [((1,), 4), ((1, 2), 2), ((1, 1), 4)],
                         ids=["too-large", "too-small", "repeated-mode"])
def test_apply_rejects_a_matrix_that_does_not_fit_its_modes(spatials, size):
    with pytest.raises(ValueError, match="does not act on spatial modes"):
        apply((spatials, np.eye(size)), basis_state({(1, H): 1}))


def test_apply_takes_integer_like_spatial_modes():
    state = PureState({occupation({(1, H): 1, (2, V): 1}): 0.6,
                       occupation({(1, V): 2}): 0.8})
    got = apply(((np.int64(1), 2), pbs_matrix(0.05)), state)
    assert_same_bits(got, apply(((1, 2), pbs_matrix(0.05)), state))
    assert_canonical(got)


@given(ELEMENTS, st.one_of(STATES, MULTINOMIAL_STATES))
@settings(max_examples=300, deadline=None)
def test_apply_keeps_the_bits_of_the_substitution_map(block, state):
    # over both files' states: up to six photons a term, three in one mode
    assert_same_bits(apply(block, state), apply_map(substitution_map(*block), state))


def assert_canonical(state):
    for occ in state.terms:
        assert occ == occupation(occ)
        assert all(type(spatial) is int and type(n) is int for (spatial, _), n in occ)


@given(st.lists(ELEMENTS, min_size=0, max_size=6), STATES, MODES)
@settings(max_examples=80, deadline=None)
def test_derived_states_keep_keys_canonical(els, state, spatial):
    # the states apply, project, normalized and coincidence_sectors hand on
    # hold keys that occupation leaves as they are
    out = apply_map(compose(block_maps(els)), state)
    assert_canonical(out)
    for el in els:
        state = apply(el, state)
        assert_canonical(state)
    kept, _ = project(out, clicks_at([spatial]))
    if kept is not None:
        assert_canonical(kept)
    if out.norm_sq() > 0.0:
        assert_canonical(out.normalized())
    for sector in coincidence_sectors(out).values():
        assert_canonical(sector)
    # the sectors below four photons, which coincidence_sectors drops, grouped
    # as it groups the others
    below: dict = {}
    for occ, amp in out.terms.items():
        if total_photons(occ) < 4:
            below.setdefault(signature_label(occ), {})[occ] = amp
    for terms in below.values():
        assert_canonical(PureState(terms))
