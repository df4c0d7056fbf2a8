import functools
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import cqtsim
from cqtsim.fock import H, V, occupation
from cqtsim.protocol import InputQubit, ProtocolConfig, run_protocol
from cqtsim.spdc import (PAIR_KINDS, RatioFit, SourceParams, coincidence_sectors,
                         emission_orders, fit_source_ratio, four_mode_source,
                         heralded_fraction, sector_rates, sector_shares,
                         signature_label, two_mode_spdc)

_SQ2 = math.sqrt(2.0)


def fit_configs(label, eps=0.05, input_name="plus"):
    input_q = InputQubit.from_name(input_name)
    return {
        "uncontrolled": ProtocolConfig(channel="reference", action="none",
                                       input=input_q, pbs_epsilon=eps),
        "allowed": ProtocolConfig(channel="g1", action="allow", input=input_q,
                                  pbs_epsilon=eps),
        "denied": ProtocolConfig(channel="g1", action="deny", input=input_q,
                                 pbs_epsilon=eps),
    }[label]


def test_params_validation():
    with pytest.raises(ValueError):
        SourceParams(kappa_forward=0.7)
    with pytest.raises(ValueError):
        SourceParams(truncation_order=0)
    with pytest.raises(ValueError):
        SourceParams(forward_pair="nope")


def test_two_mode_vacuum_at_zero_kappa():
    state = two_mode_spdc(0.0, 2, "hh", modes=(3, 4))
    assert state.amplitude({}) == pytest.approx(1.0)
    assert len(state) == 1


def test_two_mode_amplitude_ratios():
    state = two_mode_spdc(0.1, 2, "hh", modes=(3, 4))
    a0 = state.amplitude({})
    a1 = state.amplitude({(3, H): 1, (4, H): 1})
    a2 = state.amplitude({(3, H): 2, (4, H): 2})
    assert a1 / a0 == pytest.approx(0.1)
    assert a2 / a0 == pytest.approx(0.01)


def test_entangled_single_pair_structure():
    state = two_mode_spdc(0.1, 1, "phi_plus", modes=(1, 2))
    a0 = state.amplitude({})
    hh = state.amplitude({(1, H): 1, (2, H): 1})
    vv = state.amplitude({(1, V): 1, (2, V): 1})
    assert hh / a0 == pytest.approx(0.1 / _SQ2)
    assert vv / a0 == pytest.approx(-0.1j / _SQ2)


def test_double_pair_bosonic_coefficients():
    # oracle: apply the pair-creation operator twice to vacuum and divide by 2!
    pair = PAIR_KINDS["phi_plus"]
    level2 = emission_orders("phi_plus", 2, (1, 2))[2]
    expected = {
        occupation({(1, H): 2, (2, H): 2}): 0.5,
        occupation({(1, H): 1, (1, V): 1, (2, H): 1, (2, V): 1}): -0.5j,
        occupation({(1, V): 2, (2, V): 2}): -0.5,
    }
    assert set(level2) == set(expected)
    for occ, amp in expected.items():
        assert level2[occ] == pytest.approx(amp, abs=1e-14)


def test_four_mode_term_set_matches_emission_structure():
    params = SourceParams(kappa_forward=0.1, kappa_backward=0.1)
    state = four_mode_source(params)
    signatures = {signature_label(occ) for occ in state.terms}
    assert signatures == {"0000", "0011", "1100", "1111", "2200", "0022"}


def test_four_mode_source_equals_truncated_tensor_of_passes():
    # composing the separately expanded forward and backward emissions with a
    # four-photon truncation reproduces the joint expansion term by term
    from cqtsim.fock import tensor

    kf, kb = 0.11, 0.07
    fwd = two_mode_spdc(kf, 2, "phi_plus", modes=(1, 2))
    bwd = two_mode_spdc(kb, 2, "hh", modes=(3, 4))
    combined = tensor(fwd, bwd, n_max=4).normalized()
    direct = four_mode_source(SourceParams(kappa_forward=kf, kappa_backward=kb))
    assert set(combined.terms) == set(direct.terms)
    for occ, amp in direct.terms.items():
        assert combined.terms[occ] == pytest.approx(amp, abs=1e-14)


def test_backward_off_kills_backward_terms():
    params = SourceParams(kappa_forward=0.1, kappa_backward=0.0)
    state = four_mode_source(params)
    signatures = {signature_label(occ) for occ in state.terms}
    assert signatures == {"0000", "1100", "2200"}


def test_coincidence_sectors_keep_four_photon_terms():
    kf, kb = 0.1, 0.08
    params = SourceParams(kappa_forward=kf, kappa_backward=kb)
    sectors = coincidence_sectors(four_mode_source(params))
    assert set(sectors) == {"1111", "2200", "0022"}
    # unnormalized emission weights: 1 (vacuum) + kf^2 + kb^2 + (kf kb)^2 +
    # 3/4 kf^4 (entangled double pair) + kb^4 (separable double pair)
    norm2 = 1 + kf ** 2 + kb ** 2 + (kf * kb) ** 2 + 0.75 * kf ** 4 + kb ** 4
    assert sectors["1111"].norm_sq() == pytest.approx((kf * kb) ** 2 / norm2, rel=1e-12)
    assert sectors["2200"].norm_sq() == pytest.approx(0.75 * kf ** 4 / norm2, rel=1e-12)
    assert sectors["0022"].norm_sq() == pytest.approx(kb ** 4 / norm2, rel=1e-12)


def test_heralded_fraction_depends_only_on_ratio():
    cfg = fit_configs("allowed")
    u = []
    for kf in (0.05, 0.2):
        params = SourceParams(kappa_forward=kf, kappa_backward=0.8 * kf)
        u.append(heralded_fraction(params, cfg)["undesired"])
    assert u[0] == pytest.approx(u[1], abs=1e-10)


def test_heralded_fraction_reference_run_has_no_background():
    # trigger-only reference leg: neither double-pair term can light all four
    # detectors, so the undesired share vanishes identically
    params = SourceParams(kappa_forward=0.1, kappa_backward=0.08)
    hf = heralded_fraction(params, fit_configs("uncontrolled"))
    assert hf["undesired"] == pytest.approx(0.0, abs=1e-14)
    assert hf["desired"] == pytest.approx(1.0, abs=1e-14)


def test_heralded_fraction_monotone_components():
    # the 2200 share grows as the backward pass weakens, the 0022 share as it
    # strengthens
    cfg = fit_configs("allowed")
    ratios = (0.4, 0.6, 0.8, 1.0, 1.3)
    shares_2200 = []
    shares_0022 = []
    for r in ratios:
        params = SourceParams(kappa_forward=0.1, kappa_backward=0.1 * r)
        per = heralded_fraction(params, cfg)["per_term"]
        shares_2200.append(per["2200"])
        shares_0022.append(per["0022"])
    assert all(b <= a + 1e-12 for a, b in zip(shares_2200, shares_2200[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(shares_0022, shares_0022[1:]))


def test_heralded_fraction_zero_total_raises():
    # backward pass off and an ideal PBS: the denied configuration blocks every
    # remaining term
    params = SourceParams(kappa_forward=0.1, kappa_backward=0.0)
    with pytest.raises(Exception):
        heralded_fraction(params, ProtocolConfig(channel="g1", action="deny",
                                                 pbs_epsilon=0.0))


def test_fit_round_trip():
    truth_ratio = 0.8
    targets = {}
    for label in ("uncontrolled", "allowed", "denied"):
        params = SourceParams(kappa_forward=0.1, kappa_backward=0.1 * truth_ratio)
        targets[label] = heralded_fraction(params, fit_configs(label))["undesired"]
    fit = fit_source_ratio(targets, fit_configs)
    assert isinstance(fit, RatioFit)
    assert fit.ratio == pytest.approx(truth_ratio, abs=1e-3)
    assert fit.sum_squared_residual < 1e-12


def test_fit_reports_residuals_for_reference_targets():
    targets = {"uncontrolled": 0.130, "allowed": 0.554, "denied": 0.301}
    fit = fit_source_ratio(targets, fit_configs)
    assert fit.converged
    assert fit.constrained
    assert set(fit.residuals) == set(targets)
    assert fit.sum_squared_residual >= 0.0


def test_fit_flags_unconstrained_targets():
    # the trigger-only reference run blocks both double-pair terms, so its
    # share is ratio-independent and a zero target leaves the fit degenerate
    fit = fit_source_ratio({"uncontrolled": 0.0}, fit_configs)
    assert not fit.constrained
    assert fit.sum_squared_residual == pytest.approx(0.0, abs=1e-18)


# (kappa_f, kappa_b) with ratios 0.01 to 4; fewer at order 3, where a
# propagation costs about ten times as much
FACTORISATION_STRENGTHS = {2: ((0.1, 0.001), (0.05, 0.015), (0.08, 0.08), (0.1, 0.4)),
                           3: ((0.1, 0.001), (0.08, 0.08), (0.1, 0.4))}


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("config", [
    fit_configs("uncontrolled"), fit_configs("allowed"), fit_configs("denied"),
    ProtocolConfig(channel="g2", action="allow", input=InputQubit.from_name("r"),
                   pbs_epsilon=0.03),
], ids=["uncontrolled", "allowed", "denied", "g2"])
def test_factorised_shares_match_direct_propagation(config, order):
    # oracle: propagate the emission at the actual strengths and normalize the
    # per-sector rates; at order 3 the shares depend on the strengths, not
    # only on their ratio
    for kf, kb in FACTORISATION_STRENGTHS[order]:
        params = SourceParams(kappa_forward=kf, kappa_backward=kb, truncation_order=order)
        record, _ = run_protocol(replace(config, source=params))
        total = sum(record.per_term.values())
        got = heralded_fraction(params, config)["per_term"]
        assert set(got) == set(record.per_term)
        for label, rate in record.per_term.items():
            assert got[label] == pytest.approx(rate / total, abs=1e-12)


FIT_RATIOS = (0.05, 0.067, 0.09, 0.12, 0.17, 0.23, 0.3, 0.41, 0.55, 0.75, 1.0, 1.3,
              1.7, 2.0, 2.9, 4.0)


@pytest.mark.parametrize("eps", [0.001, 0.025, 0.05, 0.1])
def test_fit_round_trip_over_whole_ratio_range(eps):
    """Round trips over inputs plus/minus/r/l and ratios in [0.05, 4].

    The cost has a second, non-zero local minimum at some settings (near
    R = 0.13 for R = 2 at eps 0.05; above R = 0.3 for R = 0.067 and 0.09 at
    eps 0.001), so only a search of the whole range recovers R.  Each input
    gets four of the sixteen ratios, so every ratio is fitted once per eps.

    Input h is left out: its denied share is always 1 and its uncontrolled
    share always 0, so only the allowed share constrains the fit, and that
    has two exact roots (at eps 0.001, R = 4 and R = 0.1769 both give a cost
    below 1e-21).
    """
    for i, name in enumerate(("plus", "minus", "r", "l")):
        factory = functools.partial(fit_configs, eps=eps, input_name=name)
        rates = {label: sector_rates(SourceParams(), factory(label))
                 for label in ("uncontrolled", "allowed", "denied")}
        for ratio in FIT_RATIOS[i::4]:
            targets = {label: sector_shares(r, 0.1, 0.1 * ratio)["undesired"]
                       for label, r in rates.items()}
            fit = fit_source_ratio(targets, factory)
            assert fit.converged and fit.constrained and fit.other_roots == ()
            assert fit.ratio == pytest.approx(ratio, abs=5e-7)
            assert fit.sum_squared_residual < 1e-12


@pytest.mark.parametrize("eps", [0.001, 0.05])
def test_fit_names_the_second_exact_root(eps):
    # with input h only the allowed share constrains the ratio, and it has
    # two exact roots: the fit reports one and names the other
    factory = functools.partial(fit_configs, eps=eps, input_name="h")
    params = SourceParams(kappa_forward=0.05, kappa_backward=0.2)
    targets = {label: heralded_fraction(params, factory(label))["undesired"]
               for label in ("uncontrolled", "allowed", "denied")}
    fit = fit_source_ratio(targets, factory)
    assert len(fit.other_roots) == 1
    assert sorted([fit.ratio, *fit.other_roots])[1] == pytest.approx(4.0, abs=5e-7)
    other = fit_source_ratio({"allowed": targets["allowed"]}, factory,
                             bounds=(fit.other_roots[0] / 1.5, fit.other_roots[0] * 1.5))
    assert other.sum_squared_residual < 1e-12


def test_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cqtsim.__file__)))
    code = "import sys, cqtsim; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"
