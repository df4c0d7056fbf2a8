import re

import numpy as np
import pytest

from cqtsim.channels import (STANDARD_CORRECTIONS, ConditionalChannel, avg_teleport_fidelity,
                             bell_kets, conditional_teleport_output,
                             condition_on_controller,
                             ghz_ket, ket_outer, make_ghz_mixture, make_werner,
                             mc_avg_teleport_fidelity, partial_trace, teleport_fidelity,
                             werner_point, werner_scan)
from cqtsim.fock import KET_D, KET_H, KET_R, KET_V

from helpers import chi_ket, outcome_averaged, validate_density


def test_ghz_mixture_at_zero_is_pure_ghz():
    rho = make_ghz_mixture(0.0)
    assert np.allclose(rho, ket_outer(ghz_ket(1)))
    validate_density(rho)


def test_werner_at_zero_is_fully_mixed():
    rho = make_werner(0.0)
    assert np.allclose(rho, np.eye(8) / 8)


def test_spec_validation():
    for make, name in ((make_ghz_mixture, "p"), (make_werner, "q")):
        for weight in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match=rf"{name}={weight} outside \[0, 1\]"):
                make(weight)
        validate_density(make(0.0))
        validate_density(make(1.0))


def test_biseparable_decomposition_identity():
    # rho(1/2) written as an even mixture of the two product chi states
    rho = make_ghz_mixture(0.5)
    mix = 0.5 * (ket_outer(chi_ket(+1)) + ket_outer(chi_ket(-1)))
    assert np.max(np.abs(rho - mix)) < 1e-14


def test_condition_ghz_on_plus_gives_phi_plus():
    cond = condition_on_controller(ket_outer(ghz_ket(1)), "pm", outcome="+")
    assert cond.probability == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(cond.state, ket_outer(bell_kets()["phi+"]), atol=1e-12)


def test_condition_ghz_on_h_gives_product():
    cond = condition_on_controller(ket_outer(ghz_ket(1)), "hv", outcome="H")
    assert cond.probability == pytest.approx(0.5, abs=1e-12)
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    assert np.allclose(cond.state, hh, atol=1e-12)


def test_condition_mixture_half_on_plus_still_phi_plus():
    # classical correlation suffices: the chi mixture conditions to phi+ exactly
    cond = condition_on_controller(make_ghz_mixture(0.5), "pm", outcome="+")
    assert np.allclose(cond.state, ket_outer(bell_kets()["phi+"]), atol=1e-12)


def test_outcome_completeness():
    for basis in ("pm", "hv", "rl"):
        conds = condition_on_controller(make_werner(0.7), basis)
        assert sum(c.probability for c in conds) == pytest.approx(1.0, abs=1e-10)


def test_standard_corrections_invert_phi_plus():
    assert set(STANDARD_CORRECTIONS) == {"phi+", "phi-", "psi+", "psi-"}
    channel = ket_outer(bell_kets()["phi+"])
    for psi in (KET_H, KET_V, KET_D, KET_R):
        assert teleport_fidelity(channel, psi) == pytest.approx(1.0, abs=1e-12)


def test_avg_fidelity_trivial_channels():
    assert avg_teleport_fidelity(ket_outer(bell_kets()["phi+"])) == pytest.approx(1.0)
    assert avg_teleport_fidelity(np.eye(4, dtype=complex) / 4) == pytest.approx(0.5)


def test_avg_fidelity_werner_closed_form_and_mc():
    # oracle: conditioning the Werner state on +/- leaves q*phi+ + (1-q)I/4,
    # whose singlet fraction (1+3q)/4 gives the (1+q)/2 average via (2f+1)/3;
    # cross-checked by Monte Carlo over Haar inputs
    q = 0.62
    conds = condition_on_controller(make_werner(q), "pm")
    closed = avg_teleport_fidelity(conds)
    assert closed == pytest.approx((1 + q) / 2, abs=1e-12)
    mc = mc_avg_teleport_fidelity(conds, n_samples=20000, seed=7)
    assert mc == pytest.approx(closed, abs=1.5e-2)


@pytest.mark.parametrize("n_samples", [0, -3, 2.5, True])
def test_mc_average_needs_a_sample(n_samples):
    with pytest.raises(ValueError, match="^n_samples must be an integer of at least 1, got "):
        mc_avg_teleport_fidelity(condition_on_controller(make_werner(0.5), "pm"),
                                 n_samples=n_samples, seed=1)


@pytest.mark.parametrize("seed", [1.5, None, -1])
def test_mc_average_needs_an_explicit_seed(seed):
    with pytest.raises(ValueError, match="^seed must be an explicit non-negative integer, got "):
        mc_avg_teleport_fidelity(condition_on_controller(make_werner(0.5), "pm"),
                                 n_samples=10, seed=seed)


@pytest.mark.parametrize("psi", [[3, 4], [0, 0], [np.nan, 1], [1, 0, 0]])
def test_teleport_fidelity_rejects_a_ket_that_is_not_unit(psi):
    with pytest.raises(ValueError, match="psi must be a unit ket of two finite components"):
        teleport_fidelity(ket_outer(bell_kets()["phi+"]), psi)


def test_teleport_fidelity_rejects_a_channel_that_is_not_a_state():
    channel = ket_outer(bell_kets()["phi+"])
    with pytest.raises(ValueError, match="channel trace must be 1 within 1e-9"):
        teleport_fidelity(2 * channel, KET_D)
    for bad in (np.nan, np.inf):
        broken = channel.copy()
        broken[0, 3] = bad
        with pytest.raises(ValueError, match="channel must be finite"):
            teleport_fidelity(broken, KET_D)
    assert teleport_fidelity(channel * (1 + 1e-10), KET_D) == pytest.approx(1.0, abs=1e-9)


EACH_AVERAGE = pytest.mark.parametrize("average", [
    lambda channel: mc_avg_teleport_fidelity(channel, n_samples=10, seed=1),
    avg_teleport_fidelity], ids=["mc", "closed_form"])


@EACH_AVERAGE
def test_averages_reject_a_non_finite_branch_state(average):
    conds = condition_on_controller(make_werner(0.5), "pm")
    conds[1].state = np.full((4, 4), np.nan)
    for channel, message in ((conds, "branch '-' state must be finite"),
                             (np.full((4, 4), np.inf), "channel must be finite")):
        with pytest.raises(ValueError, match=message):
            average(channel)


@pytest.mark.parametrize("call, d", [
    (lambda op: condition_on_controller(op, "pm"), 8),
    (lambda op: condition_on_controller(op, "pm", "+"), 8),
    (lambda op: teleport_fidelity(op, KET_D), 4),
    (avg_teleport_fidelity, 4),
    (lambda op: mc_avg_teleport_fidelity(op, n_samples=10, seed=1), 4),
], ids=["condition", "condition_outcome", "teleport", "closed_form", "mc"])
def test_qubit_operators_name_the_shape_they_need(call, d):
    # the other qubit operator (4x4 where 8x8 is needed, and back), a flat
    # operator and a non-square one
    other = 12 - d
    for op in (np.eye(other) / other, np.full(d * d, 1.0 / d), np.ones((d, 3))):
        message = f"channel must have shape ({d}, {d}), got {op.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(op)


@EACH_AVERAGE
def test_averages_name_a_branch_state_of_the_wrong_shape(average):
    conds = condition_on_controller(make_werner(0.5), "pm")
    conds[0].state = np.eye(2) / 2
    with pytest.raises(ValueError, match=r"^branch '\+' state must have shape \(4, 4\), got "):
        average(conds)


@EACH_AVERAGE
@pytest.mark.parametrize("channel", [np.eye(4) / 4, ket_outer(bell_kets()["phi+"]),
                                     0.7 * ket_outer(bell_kets()["psi-"]) + 0.3 * np.eye(4) / 4],
                         ids=["mixed", "bell", "werner"])
def test_averages_take_a_channel_written_as_nested_lists(average, channel):
    assert average(channel.tolist()) == average(channel)
    assert average(tuple(map(tuple, channel))) == average(channel)


@EACH_AVERAGE
def test_averages_reject_a_branch_list_with_other_entries(average):
    conds = condition_on_controller(make_werner(0.5), "pm")
    for mixed in ([conds[0], conds[1].state], (np.eye(4) / 4, *conds), [conds[0], None]):
        with pytest.raises(ValueError, match="^a branch list must hold ConditionalChannel "
                                             "entries only$"):
            average(mixed)


@EACH_AVERAGE
def test_averages_reject_a_bare_channel_that_is_not_a_state(average):
    channel = ket_outer(bell_kets()["phi+"])
    for scale in (2.0, 0.5, 1 + 2e-9):
        with pytest.raises(ValueError, match="channel trace must be 1 within 1e-9"):
            average(scale * channel)
    assert average(channel * (1 + 1e-10)) == pytest.approx(1.0, abs=1e-9)


@EACH_AVERAGE
def test_averages_take_a_zero_probability_branch_as_given(average):
    # |HHH> never gives the controller V: that branch has a zero state, which
    # a branch list may hold, and adds nothing
    conds = condition_on_controller(ket_outer(np.eye(8)[0]), "hv")
    assert conds[1].probability == 0.0 and not conds[1].state.any()
    assert average(conds) == average(conds[0].state)


def _branch(probability, state=None):
    return ConditionalChannel("+", probability,
                              ket_outer(bell_kets()["phi+"]) if state is None else state)


@EACH_AVERAGE
@pytest.mark.parametrize("branches, message", [
    ([], "no branches to average over"),
    ([_branch(np.nan)], "branch probabilities must be finite and non-negative, got nan"),
    ([_branch(np.inf)], "branch probabilities must be finite and non-negative, got inf"),
    ([_branch(-0.5), _branch(1.5)], "must be finite and non-negative, got -0.5"),
    ([_branch(0.0, np.zeros((4, 4)))], "branch probabilities must total at least 1e-14"),
    ([_branch(0.5), _branch(0.5, 2 * ket_outer(bell_kets()["psi-"]))],
     r"branch '\+' state trace must be 1 within 1e-9"),
], ids=["empty", "nan", "inf", "negative", "zero_total", "trace_2"])
def test_averages_reject_a_branch_list_that_is_not_a_distribution(average, branches,
                                                                  message):
    with pytest.raises(ValueError, match=message):
        average(branches)


@EACH_AVERAGE
def test_averages_keep_a_rounding_branch_just_below_zero(average):
    # a branch of probability below 1e-14, even a rounding residue below 0,
    # keeps its zero state; the list's value is that of its other branch
    conds = condition_on_controller(ket_outer(np.eye(8)[0]), "hv")
    conds[1].probability = -1e-17
    assert average(conds) == average(conds[0].state)


@pytest.mark.parametrize("outcome", [None, "+"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_conditioning_rejects_a_non_finite_channel(bad, outcome):
    channel = make_werner(0.5)
    channel[2, 5] = bad
    with pytest.raises(ValueError, match="channel must be finite"):
        condition_on_controller(channel, "pm", outcome)


def test_feedforward_vs_withheld_on_biseparable():
    conds = condition_on_controller(make_ghz_mixture(0.5), "pm")
    assert avg_teleport_fidelity(conds) == pytest.approx(1.0, abs=1e-12)
    # without the controller's outcome the channel collapses to a classically
    # correlated mixture, pinning the average at the classical limit
    assert avg_teleport_fidelity(outcome_averaged(conds)) == pytest.approx(
        2.0 / 3.0, abs=1e-12)


def test_werner_scan_values():
    res = werner_scan([0.0, 1.0 / 3.0, 3.0 / 7.0, 1.0])
    f_allowed = [row[1] for row in res.rows]
    assert f_allowed[0] == pytest.approx(0.5, abs=1e-12)
    assert f_allowed[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert f_allowed[2] == pytest.approx(5.0 / 7.0, abs=1e-12)
    assert f_allowed[3] == pytest.approx(1.0, abs=1e-12)
    assert res.threshold_q == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_werner_allowed_monotone():
    grid = np.linspace(0, 1, 21)
    vals = [werner_point(q)[0] for q in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_werner_denied_is_half():
    for q in (0.0, 0.5, 1.0):
        assert werner_point(q)[1] == pytest.approx(0.5, abs=1e-12)


def test_werner_scan_rejects_bad_grid():
    with pytest.raises(ValueError):
        werner_scan([])
    with pytest.raises(ValueError):
        werner_scan([1.2])


# a Werner weight is one real number: each of these names the weight it got
def test_werner_point_rejects_a_complex_weight():
    with pytest.raises(ValueError, match=r"^q=\(0\.5\+0j\) is not a real number$"):
        werner_point(0.5 + 0j)


def test_werner_scan_rejects_a_nested_grid():
    with pytest.raises(ValueError, match=r"^q=\[0\.1, 0\.2\] is not a real number$"):
        werner_scan([[0.1, 0.2]])


def test_make_werner_rejects_a_sequence_of_weights():
    with pytest.raises(ValueError, match=r"^q=\[0\.5\] is not a real number$"):
        make_werner([0.5])


def test_werner_threshold_matches_root_search():
    # oracle: a numerical root of the generic werner_point against the closed form
    from scipy.optimize import brentq

    root = brentq(lambda q: werner_point(q)[0] - 2.0 / 3.0, 1e-9, 1.0 - 1e-9, xtol=1e-12)
    assert abs(werner_scan([0.5]).threshold_q - root) < 1e-9


def test_classical_baseline():
    # the even phi+/phi- mixture left when the which-state bit is withheld
    bells = bell_kets()
    mixed = 0.5 * ket_outer(bells["phi+"]) + 0.5 * ket_outer(bells["phi-"])
    assert teleport_fidelity(mixed, KET_D) == pytest.approx(0.5, abs=1e-12)
    # both Bell states teleport the logical basis faithfully: the average,
    # not one state, defines the bound
    assert teleport_fidelity(mixed, KET_H) == pytest.approx(1.0, abs=1e-12)
    assert avg_teleport_fidelity(mixed) == pytest.approx(2 / 3, abs=1e-12)


def test_partial_trace_consistency():
    rho = ket_outer(ghz_ket(1))
    reduced = partial_trace(rho, [2, 2, 2], [0, 1])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(reduced, expected)


@pytest.mark.parametrize("keep", [[5], [-1], [0, 0]])
def test_partial_trace_rejects_a_subsystem_it_does_not_have(keep):
    with pytest.raises(ValueError, match="keep must list distinct subsystems of 0..1"):
        partial_trace(np.eye(4) / 4, [2, 2], keep)


@pytest.mark.parametrize("input_ket", [[3, 4], [0, 0], [np.nan, 1], [1, 0, 0]])
def test_conditional_teleport_output_rejects_a_ket_that_is_not_unit(input_ket):
    with pytest.raises(ValueError, match="input_ket must be a unit ket of two finite"):
        conditional_teleport_output(ket_outer(ghz_ket(1)), input_ket, "pm", "+")


def test_conditional_teleport_output_ideal():
    rho2, prob = conditional_teleport_output(ket_outer(ghz_ket(1)), KET_D, "pm", "+")
    # + outcome leaves phi+ on (1,2); singlet projection then succeeds 1/4 of
    # the time, so jointly 1/8
    assert prob == pytest.approx(1.0 / 8.0, abs=1e-12)
    validate_density(rho2)
    assert rho2.shape == (2, 2)


def test_conditional_teleport_output_denied_is_diagonal():
    rho2, _ = conditional_teleport_output(ket_outer(ghz_ket(1)), KET_D, "hv", "H")
    assert abs(rho2[0, 1]) < 1e-12
    assert rho2[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_feedforward_average_matches_photonic_pipeline(p):
    # the qubit-level Bloch average over the +/- conditionals must agree with
    # the photonic simulation of the same channel at its ideal settings
    from cqtsim.protocol import ProtocolConfig, emulate_mixture

    conds = condition_on_controller(make_ghz_mixture(p), "pm")
    qubit_avg = avg_teleport_fidelity(conds)

    fock = emulate_mixture(ProtocolConfig(channel="g1", action="allow"), p).fidelity()
    assert abs(qubit_avg - fock) < 1e-10


def test_unknown_basis_name_is_value_error():
    from cqtsim.fock import basis_pairs

    with pytest.raises(ValueError, match="unknown basis"):
        condition_on_controller(make_werner(0.5), "xy")
    with pytest.raises(ValueError, match="unknown basis"):
        basis_pairs("xy")
