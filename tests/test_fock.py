import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqtsim.fock import (H, V, KET_D, KET_H, KET_R, NAMED_KETS, PRUNE_THRESHOLD,
                         ModeOverlapError, PureState, SectorError, basis_state, fidelity,
                         occupation, overlap, parse_ket, project, to_qubit_density,
                         total_photons, tensor, unit_pair)

from helpers import clicks_at, single_photon, validate_density


def ghz_fock():
    """(|H1 H2 H3> + |V1 V2 V3>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return PureState({
        occupation({(1, H): 1, (2, H): 1, (3, H): 1}): s,
        occupation({(1, V): 1, (2, V): 1, (3, V): 1}): s,
    })


def test_occupation_canonical_form():
    occ = occupation({(2, V): 1, (1, H): 2, (3, H): 0})
    assert occ == (((1, H), 2), ((2, V), 1))
    assert total_photons(occ) == 3


def test_occupation_rejects_non_integer_modes_and_counts():
    with pytest.raises(ValueError, match="spatial index"):
        occupation({(1.5, H): 1})
    with pytest.raises(ValueError, match="photon count"):
        occupation({(1, H): 1.7})
    with pytest.raises(ValueError, match="spatial index"):
        basis_state({(2.9, V): 1})
    with pytest.raises(ValueError, match="spatial index"):
        PureState({(((1.5, H), 1),): 1.0})
    with pytest.raises(ValueError, match="polarization must be 'H' or 'V', got 'D'$"):
        occupation({(1, "D"): 1})
    with pytest.raises(ValueError, match="polarization must be 'H' or 'V', got 'Q'$"):
        basis_state({(2, "Q"): 1})
    assert occupation({(np.int64(1), H): np.int64(2)}) == (((1, H), 2),)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1, float("nan"))])
def test_pure_state_rejects_a_non_finite_amplitude(bad):
    # in either position: a NaN largest amplitude would make the prune keep nothing
    one, two = occupation({(1, H): 1}), occupation({(2, V): 1})
    for terms in ({one: bad, two: 1.0}, {one: 1.0, two: bad}):
        for prune in (PRUNE_THRESHOLD, 0.0):
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                PureState(terms, prune=prune)


@pytest.mark.parametrize("amp", [complex(1.7e308, 1.7e308), 10 ** 400])
def test_pure_state_rejects_an_amplitude_whose_modulus_overflows(amp):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        PureState({occupation({(1, H): 1}): amp})


@pytest.mark.parametrize("scale", [1e-300, 3e-160, 1.0, 1e200, 1e308])
def test_unit_pair_does_not_depend_on_scale(scale):
    alpha, beta = unit_pair(0.6 * scale, -0.8j * scale, "test")
    assert abs(alpha - 0.6) <= 1e-15 and abs(beta + 0.8j) <= 1e-15
    assert unit_pair(scale, scale, "test") == unit_pair(1.0, 1.0, "test")


@pytest.mark.parametrize("alpha, beta, message", [
    (math.inf, 1.0, "test amplitudes must be finite"),
    (1.0, complex(0.0, math.nan), "test amplitudes must be finite"),
    (0.0, -0.0, "zero test vector"),
])
def test_unit_pair_rejects_non_finite_and_zero_pairs(alpha, beta, message):
    with pytest.raises(ValueError, match=message):
        unit_pair(alpha, beta, "test")


_RAD30 = math.radians(30.0)
PARSED_KETS = [
    *((f"{pad}{spell(name)}{pad}", tuple(map(complex, ket)))
      for name, ket in NAMED_KETS.items()
      for spell, pad in ((str.lower, ""), (str.upper, " "), (str.title, "\t"))),
    ("linear:30", unit_pair(math.cos(_RAD30), math.sin(_RAD30), "t")),
    (" LINEAR:30 ", unit_pair(math.cos(_RAD30), math.sin(_RAD30), "t")),
    ("0.6,0.8j", unit_pair(0.6, 0.8j, "t")),
    ("0.6;0.8j", unit_pair(0.6, 0.8j, "t")),
    (" -0.6 ; 0.8 ", unit_pair(-0.6, 0.8, "t")),
    ("1e200,1e200", unit_pair(1.0, 1.0, "t")),
    ("1e200;0", (1 + 0j, 0j)),
    ("3e-160;4e-160", unit_pair(3e-160, 4e-160, "t")),
    ("1e308;-1e308j", unit_pair(1.0, -1j, "t")),
]


@pytest.mark.parametrize("text, ket", PARSED_KETS, ids=[repr(t) for t, _ in PARSED_KETS])
def test_parse_ket_reads_every_form_of_the_grammar(text, ket):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsed = parse_ket(text, "t")
    assert parsed == ket
    assert all(type(x) is complex for x in parsed)


@pytest.mark.parametrize("text, message", [
    ("x", "unknown target state 'x'"),
    ("  junk-spec ", "unknown target state 'junk-spec'"),
    ("", "unknown target state ''"),
    ("x;y", "bad target state 'x;y'"),
    ("1,2,3", "bad target state '1,2,3'"),
    ("1;2,3", "bad target state '1;2,3'"),
    ("0.6,", "bad target state '0.6,'"),
    ("0,0", "bad target state '0,0'"),
    ("0;-0", "bad target state '0;-0'"),
    ("inf;1", "bad target state 'inf;1'"),
    ("1;nanj", "bad target state '1;nanj'"),
    ("-inf;0", "bad target state '-inf;0'"),
    ("0;0", "bad target state '0;0'"),
    ("1e400,1", "bad target state '1e400,1'"),
    ("linear:x", "bad target state 'linear:x'"),
    ("linear:", "bad target state 'linear:'"),
    ("linear:inf", "bad target state 'linear:inf'"),
    ("linear:nan", "bad target state 'linear:nan'"),
    ("linear:30,40", "bad target state 'linear:30,40'"),
])
def test_parse_ket_names_the_fault(text, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_ket(text, "target")


@pytest.mark.parametrize("jones", [[0.6, 0.8, 5.0], [0, 0], [[0.6], [0.8]], [1.0]])
def test_single_photon_rejects_a_jones_vector_that_is_not_a_nonzero_pair(jones):
    with pytest.raises(ValueError, match="non-zero 2-vector"):
        single_photon(1, jones)


def test_zero_counts_absent_and_prune():
    s = PureState({occupation({(1, H): 1}): 1.0, occupation({(2, H): 1}): 1e-16})
    assert len(s) == 1


def test_tensor_vacuum_identity():
    out = tensor(PureState({(): 1.0}), PureState({(): 1.0}))
    assert out.terms == PureState({(): 1.0}).terms


def test_tensor_two_single_photons():
    a = basis_state({(1, H): 1})
    b = basis_state({(3, H): 1})
    out = tensor(a, b)
    assert len(out) == 1
    assert out.amplitude({(1, H): 1, (3, H): 1}) == pytest.approx(1.0)


def test_tensor_rejects_overlap():
    a = basis_state({(1, H): 1})
    with pytest.raises(ModeOverlapError):
        tensor(a, a)


def test_tensor_default_cap_keeps_every_product_term():
    a = single_photon(1, KET_H)
    b = basis_state({(2, H): 4})
    out = tensor(a, b)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-14)
    assert out.amplitude({(1, H): 1, (2, H): 4}) == pytest.approx(1.0)


def _exact_terms(state):
    """Terms with each amplitude's repr, so a signed zero or one ulp shows."""
    return {key: repr(amp) for key, amp in state.terms.items()}


def test_builders_match_the_public_constructor():
    jones = np.array([0.6 - 0.0j, -0.8j])
    a = single_photon(1, jones)
    b = PureState({occupation({(2, H): 1}): 0.3, occupation({(2, V): 2}): -0.0 + 0.7j})
    cases = [
        (lambda: basis_state({(2, V): 1, (1, H): 2}),
         PureState({occupation({(2, V): 1, (1, H): 2}): 1.0})),
        (lambda: single_photon(1, jones),
         PureState({occupation({(1, H): 1}): jones[0],
                    occupation({(1, V): 1}): jones[1]})),
        (lambda: tensor(a, b),
         PureState({occupation(list(ka) + list(kb)): va * vb
                    for ka, va in a.items() for kb, vb in b.items()})),
    ]
    for build, public in cases:
        state = build()
        assert _exact_terms(state) == _exact_terms(public)
        assert all(type(amp) is complex for amp in state.terms.values())


def test_project_all_terms_is_identity():
    s = single_photon(1, KET_D)
    out, prob = project(s, lambda occ: True)
    assert prob == pytest.approx(1.0)
    assert out.terms.keys() == s.terms.keys()


def test_project_plus_onto_h():
    s = single_photon(1, KET_D)
    out, prob = project(s, lambda occ: ((1, H), 1) in occ)
    assert prob == pytest.approx(0.5)
    assert out.amplitude({(1, H): 1}) == pytest.approx(1.0)


def test_project_empty_signals_none():
    s = single_photon(1, KET_H)
    out, prob = project(s, lambda occ: False)
    assert out is None
    assert prob == 0.0


def test_projection_completeness():
    s = ghz_fock()
    pred = clicks_at([1])
    _, p1 = project(s, pred)
    _, p2 = project(s, lambda occ: not pred(occ))
    assert p1 + p2 == pytest.approx(1.0, abs=1e-10)


def test_to_qubit_density_single_photon():
    rho = to_qubit_density(single_photon(1, KET_H), [1])
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_to_qubit_density_singlet_projector():
    s = PureState({
        occupation({(1, H): 1, (4, V): 1}): 1 / math.sqrt(2),
        occupation({(1, V): 1, (4, H): 1}): -1 / math.sqrt(2),
    })
    rho = to_qubit_density(s, [1, 4])
    psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert np.allclose(rho, np.outer(psi, psi.conj()))
    validate_density(rho)


def test_to_qubit_density_ghz_traces_out_mode3():
    # oracle: partial trace of the GHZ projector by hand gives an equal
    # classical mixture of |HH><HH| and |VV><VV|
    rho = to_qubit_density(ghz_fock(), [1, 2])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.5
    expected[3, 3] = 0.5
    assert np.allclose(rho, expected, atol=1e-14)
    validate_density(rho)


def test_to_qubit_density_rejects_wrong_sector():
    s = basis_state({(1, H): 2})
    with pytest.raises(SectorError):
        to_qubit_density(s, [1])


def test_fidelity_trivial_cases():
    plus = KET_D
    assert fidelity(np.outer(plus, plus.conj()), plus) == pytest.approx(1.0)
    assert fidelity(np.eye(2) / 2, KET_R) == pytest.approx(0.5)
    assert fidelity(np.diag([1.0, 0.0]), plus) == pytest.approx(0.5)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.eye(2) / 2, np.array([1, 0, 0, 0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity(np.eye(4) / 4, KET_H)


@pytest.mark.parametrize("psi", [[0, 0], [3, 4], [math.nan, 1], [1, math.inf], [1]])
def test_fidelity_rejects_a_target_that_is_not_a_unit_ket(psi):
    with pytest.raises(ValueError, match="psi must be a unit ket of two finite components"):
        fidelity(np.eye(2) / 2, psi)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fidelity_rejects_a_non_finite_state(bad):
    with pytest.raises(ValueError, match="rho must be finite"):
        fidelity(np.array([[0.5, bad], [0.0, 0.5]]), KET_H)


@pytest.mark.parametrize("rho, message", [
    (np.eye(2), r"rho must have unit trace, got 2\.0$"),
    (np.diag([1.0, 2e-9]), r"rho must have unit trace, got 1\.000000002$"),
    ([[0.5, 0.5j], [0.5j, 0.5]], "rho must be Hermitian$"),
    ([[0.5, 0.5], [0.5 + 2e-9, 0.5]], "rho must be Hermitian$"),
    ([[0.5 + 2e-9j, 0.0], [0.0, 0.5]], "rho must be Hermitian$"),
    # Hermitian within 1e-9, but <H|rho|H> keeps an imaginary part
    ([[0.5 + 5e-10j, 0.0], [0.0, 0.5]], "non-negligible imaginary part 5e-10$")],
    ids=["identity", "trace-over", "skew", "skew-over", "complex-diagonal",
         "imaginary-part"])
def test_fidelity_rejects_a_matrix_that_is_not_a_density_matrix(rho, message):
    # the identity has trace 2: taken as a state it reads fidelity 1.0 with
    # |H>, where I/2 reads 0.5
    with pytest.raises(ValueError, match=message):
        fidelity(rho, KET_H)


def test_fidelity_takes_a_density_matrix_within_1e_9():
    rho = np.array([[0.7 + 5e-10, 0.2 - 0.1j], [0.2 + 0.1j + 5e-10, 0.3]])
    assert fidelity(rho, KET_H) == 0.7 + 5e-10


def test_fidelity_takes_a_unit_target_as_given():
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    for psi in (KET_D, KET_R, np.array([0.6, 0.8j]), KET_D * (1 + 4e-13)):
        assert fidelity(rho, psi) == float(complex(psi.conj() @ rho @ psi).real)


@st.composite
def sparse_states(draw):
    n_terms = draw(st.integers(min_value=1, max_value=5))
    terms = {}
    for _ in range(n_terms):
        n_modes = draw(st.integers(min_value=1, max_value=3))
        occ = {}
        for _ in range(n_modes):
            spatial = draw(st.integers(min_value=1, max_value=4))
            pol = draw(st.sampled_from([H, V]))
            occ[(spatial, pol)] = draw(st.integers(min_value=1, max_value=2))
        if total_photons(occupation(occ)) > 4:
            continue
        re = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        im = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        if abs(complex(re, im)) < 1e-3:
            continue
        terms[occupation(occ)] = complex(re, im)
    if not terms:
        terms[occupation({(1, H): 1})] = 1.0
    return PureState(terms)


@given(sparse_states())
@settings(max_examples=60, deadline=None)
def test_normalize_property(state):
    assert abs(state.normalized().norm_sq() - 1.0) < 1e-12


@given(sparse_states())
@settings(max_examples=30, deadline=None)
def test_tensor_associative(state):
    a = state
    b = basis_state({(7, H): 1})
    c = basis_state({(8, V): 1})
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert set(left.terms) == set(right.terms)
    for occ, amp in left.terms.items():
        assert abs(amp - right.terms[occ]) < 1e-14


def test_overlap_hermitian():
    a = single_photon(1, KET_D)
    b = single_photon(1, KET_R)
    assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)))
