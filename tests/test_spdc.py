import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cqtsim
from cqtsim.fock import H, V, occupation
from cqtsim.protocol import InputQubit, NoCoincidenceError, ProtocolConfig, run_protocol
from cqtsim.spdc import (_LOG_GRID, _POLISH_STEPS, _ROOT_COST, PAIR_KINDS, RATIO_BOUNDS,
                         _local_minima, _share_terms,
                         REFERENCE_KAPPA, RatioFit, SourceParams, coincidence_sectors,
                         emission_orders, fit_source_ratio, four_mode_source,
                         heralded_fraction, sector_rates, sector_shares,
                         signature_label, stack_rates)

from helpers import reference_sector_shares, two_mode_spdc

GRID_POINTS = len(_LOG_GRID)

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


def fit_rates(eps=0.05, input_name="plus"):
    return sector_rates(SourceParams(), {label: fit_configs(label, eps, input_name)
                                         for label in ("uncontrolled", "allowed", "denied")})


@pytest.mark.parametrize("configs", [{}, {"g1": ProtocolConfig(),
                                          "swapped": ProtocolConfig(roles="swapped")}],
                         ids=["empty", "mixed_roles"])
def test_sector_rates_needs_configurations_that_share_their_roles(configs):
    with pytest.raises(ValueError, match="one or more configurations with the same roles"):
        sector_rates(SourceParams(), configs)


def test_sector_rates_names_the_first_configuration_that_cannot_coincide():
    configs = {label: fit_configs(label, 1.0) for label in ("uncontrolled", "allowed", "denied")}
    with pytest.raises(NoCoincidenceError) as exc:
        sector_rates(SourceParams(), configs)
    assert exc.value.label == "allowed"


def test_params_validation():
    with pytest.raises(ValueError):
        SourceParams(kappa_forward=0.7)
    with pytest.raises(ValueError):
        SourceParams(truncation_order=0)
    with pytest.raises(ValueError, match="truncation_order must be an integer >= 1, got 2.5"):
        SourceParams(truncation_order=2.5)
    with pytest.raises(ValueError, match="kappa_forward"):
        SourceParams(kappa_forward=1e-78, kappa_backward=0.0)


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
    from cqtsim.fock import PureState, tensor, total_photons

    kf, kb = 0.11, 0.07
    fwd = two_mode_spdc(kf, 2, "phi_plus", modes=(1, 2))
    bwd = two_mode_spdc(kb, 2, "hh", modes=(3, 4))
    # the oracle keeps the product terms of at most four photons itself
    product = tensor(fwd, bwd)
    combined = PureState({occ: amp for occ, amp in product.items()
                          if total_photons(occ) <= 4}).normalized()
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
    fit = fit_source_ratio(targets, fit_rates())
    assert isinstance(fit, RatioFit)
    assert fit.ratio == pytest.approx(truth_ratio, abs=1e-3)
    assert fit.sum_squared_residual < 1e-12


def test_fit_reports_residuals_for_reference_targets():
    targets = {"uncontrolled": 0.130, "allowed": 0.554, "denied": 0.301}
    fit = fit_source_ratio(targets, fit_rates())
    assert fit.converged
    assert fit.constrained
    assert set(fit.residuals) == set(targets)
    assert fit.sum_squared_residual >= 0.0


def test_fit_flags_unconstrained_targets():
    # the trigger-only reference run blocks both double-pair terms, so its
    # share is ratio-independent and a zero target leaves the fit degenerate
    fit = fit_source_ratio({"uncontrolled": 0.0}, fit_rates())
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
        rates = fit_rates(eps, name)
        for ratio in FIT_RATIOS[i::4]:
            targets = {label: sector_shares(r, 0.1, 0.1 * ratio)["undesired"]
                       for label, r in rates.items()}
            fit = fit_source_ratio(targets, rates)
            assert fit.converged and fit.constrained and fit.other_roots == ()
            assert fit.ratio == pytest.approx(ratio, abs=5e-7)
            assert fit.sum_squared_residual < 1e-12


@pytest.mark.parametrize("eps", [0.001, 0.05])
def test_fit_names_the_second_exact_root(eps):
    # with input h only the allowed share constrains the ratio, and it has
    # two exact roots: the fit reports one and names the other
    params = SourceParams(kappa_forward=0.05, kappa_backward=0.2)
    targets = {label: heralded_fraction(params, fit_configs(label, eps, "h"))["undesired"]
               for label in ("uncontrolled", "allowed", "denied")}
    rates = fit_rates(eps, "h")
    fit = fit_source_ratio(targets, rates)
    assert len(fit.other_roots) == 1
    assert sorted([fit.ratio, *fit.other_roots])[1] == pytest.approx(4.0, abs=5e-7)
    other = sector_shares(rates["allowed"], REFERENCE_KAPPA,
                          REFERENCE_KAPPA * fit.other_roots[0])["undesired"]
    assert (other - targets["allowed"]) ** 2 < 1e-12


def brent_fit_source_ratio(targets: dict, rates: dict, bounds=RATIO_BOUNDS) -> RatioFit:
    """Oracle: the grid scan refined by scipy's bounded Brent search, as the fit
    was before its zoom refinement (scipy comes from the ``dev`` extra)."""
    from scipy import optimize

    labels = list(targets)

    def undesired(ratio: float) -> dict:
        kb = REFERENCE_KAPPA * ratio
        return {k: sector_shares(rates[k], REFERENCE_KAPPA, kb)["undesired"] for k in labels}

    def cost(log_r: float) -> float:
        achieved = undesired(math.exp(log_r))
        return sum((achieved[k] - targets[k]) ** 2 for k in labels)

    grid = np.linspace(math.log(bounds[0]), math.log(bounds[1]), GRID_POINTS)
    costs = [cost(x) for x in grid]
    best = int(np.argmin(costs))
    # a degenerate target set (shares insensitive to the ratio) leaves the
    # minimizer free: detect a flat cost and flag the fit as unconstrained
    constrained = max(costs) - min(costs) > 1e-18

    def refine(i: int):
        return optimize.minimize_scalar(cost, bounds=(grid[max(i - 1, 0)],
                                                      grid[min(i + 1, len(grid) - 1)]),
                                        method="bounded", options={"xatol": 1e-10})

    res = refine(best)
    # one index per basin: the left end of each run of equal local minima
    minima = [i for i in range(len(grid)) if (i == 0 or costs[i] < costs[i - 1])
              and (i == len(grid) - 1 or costs[i] <= costs[i + 1])]
    others = [refine(i) for i in minima if i != best] if constrained else []
    ratio = float(math.exp(res.x))
    achieved = undesired(ratio)
    residuals = {k: achieved[k] - targets[k] for k in labels}
    return RatioFit(
        ratio=ratio,
        achieved=achieved,
        residuals=residuals,
        sum_squared_residual=float(sum(r ** 2 for r in residuals.values())),
        converged=bool(res.success),
        constrained=constrained,
        other_roots=tuple(float(math.exp(r.x)) for r in others if r.fun < _ROOT_COST),
    )


def oracle_cases():
    """(targets, rates) of the whole-range round trips, the two input-h cases
    and the bundled targets."""
    for eps in (0.001, 0.025, 0.05, 0.1):
        for i, name in enumerate(("plus", "minus", "r", "l")):
            rates = fit_rates(eps, name)
            for ratio in FIT_RATIOS[i::4]:
                yield ({label: sector_shares(r, 0.1, 0.1 * ratio)["undesired"]
                        for label, r in rates.items()}, rates)
    for eps in (0.001, 0.05):
        params = SourceParams(kappa_forward=0.05, kappa_backward=0.2)
        yield ({label: heralded_fraction(params, fit_configs(label, eps, "h"))["undesired"]
                for label in ("uncontrolled", "allowed", "denied")}, fit_rates(eps, "h"))
    yield {"uncontrolled": 0.130, "allowed": 0.554, "denied": 0.301}, fit_rates()


def test_zoom_fit_matches_the_brent_oracle():
    cases = list(oracle_cases())
    assert len(cases) == 67
    for targets, rates in cases:
        fit = fit_source_ratio(targets, rates)
        oracle = brent_fit_source_ratio(targets, rates)
        assert fit.sum_squared_residual <= oracle.sum_squared_residual * (1 + 1e-9) + 1e-30
        assert round(fit.ratio, 6) == round(oracle.ratio, 6)
        assert len(fit.other_roots) == len(oracle.other_roots)
        assert fit.converged and oracle.converged


@pytest.mark.parametrize("kappas, name", [
    ((math.inf, 0.05), "kappa_forward"), ((math.nan, 0.05), "kappa_forward"),
    ((0.1, -math.inf), "kappa_backward"), ((0.1, math.nan), "kappa_backward"),
    ((0.1, np.array([0.05, math.nan])), "kappa_backward")])
def test_sector_shares_reject_a_non_finite_strength(kappas, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        sector_shares(fit_rates()["allowed"], *kappas)


def test_sector_shares_of_an_array_match_each_scalar():
    ratios = np.exp(np.linspace(math.log(RATIO_BOUNDS[0]), math.log(RATIO_BOUNDS[1]),
                                GRID_POINTS))
    for eps in (0.001, 0.05):
        for name in ("plus", "h", "r"):
            for rates in fit_rates(eps, name).values():
                stacked = sector_shares(rates, REFERENCE_KAPPA, REFERENCE_KAPPA * ratios)
                each = [sector_shares(rates, REFERENCE_KAPPA, REFERENCE_KAPPA * float(r))
                        for r in ratios]
                for key in ("desired", "undesired"):
                    np.testing.assert_allclose(stacked[key], [e[key] for e in each],
                                               rtol=1e-12, atol=0)
                for label in rates:
                    np.testing.assert_allclose(stacked["per_term"][label],
                                               [e["per_term"][label] for e in each],
                                               rtol=1e-12, atol=0)


def stacked_undesired(rate_list: list, log_r: np.ndarray) -> np.ndarray:
    """The fit's (configuration, point) undesired shares: ``_share_terms`` on
    a (configuration, 1) column per sector, at kappa_f = REFERENCE_KAPPA."""
    sectors = dict.fromkeys(label for r in rate_list for label in r)
    terms = _share_terms({s: np.array([[r.get(s, 0.0)] for r in rate_list]) + 0.0
                          for s in sectors}, 1.0)
    _, total, undesired = terms(REFERENCE_KAPPA * np.exp(log_r) / REFERENCE_KAPPA)
    return undesired / total


def test_stacked_shares_have_the_bits_of_sector_shares():
    grid = np.linspace(math.log(RATIO_BOUNDS[0]), math.log(RATIO_BOUNDS[1]), GRID_POINTS)
    for eps in (0.0, 0.025, 0.1):
        for name in ("plus", "h", "v", "r"):
            rates = fit_rates(eps, name)
            stacked = stacked_undesired(list(rates.values()), grid)
            assert stacked.shape == (len(rates), GRID_POINTS)
            for row, r in zip(stacked, rates.values()):
                each = reference_sector_shares(r, REFERENCE_KAPPA, REFERENCE_KAPPA * np.exp(grid))
                assert np.array_equal(row, each["undesired"])


def test_stacked_shares_fill_a_missing_label_with_zero():
    rates = fit_rates()
    short = {label: rate for label, rate in rates["allowed"].items() if label != "2200"}
    grid = np.linspace(-2.0, 1.0, 7)
    stacked = stacked_undesired([rates["denied"], short], grid)
    assert np.array_equal(stacked[1], reference_sector_shares(
        short, REFERENCE_KAPPA, REFERENCE_KAPPA * np.exp(grid))["undesired"])


def test_stacked_shares_keep_a_column_per_point_without_backward_pairs():
    # no sector holds a backward pair, so no share depends on the ratio
    rates = [{"2200": 1e-6}, {"2200": 3e-6, "0000": 0.0}]
    grid = np.linspace(-2.0, 1.0, 7)
    stacked = stacked_undesired(rates, grid)
    assert stacked.shape == (2, 7)
    for row, r in zip(stacked, rates):
        each = reference_sector_shares(r, REFERENCE_KAPPA, REFERENCE_KAPPA * np.exp(grid))
        assert np.array_equal(row, each["undesired"])


def bits(value) -> tuple:
    """Type, shape, dtype and bytes: equal only for the same bits, signs of zero included."""
    array = np.asarray(value)
    return type(value), array.shape, array.dtype, array.tobytes()


def share_bits(rates, kappa_forward, kappa_backward, shares=sector_shares):
    try:
        out = shares(rates, kappa_forward, kappa_backward)
    except ValueError as error:
        return str(error)
    return (bits(out["desired"]), bits(out["undesired"]),
            [(label, bits(v)) for label, v in out["per_term"].items()])


STRENGTHS = [(0.1, 0.1), (0.05, 0.2), (0.2j, 0.03 + 0.04j), (np.float64(0.07), 0.0),
             (0.0, 0.1), (0.0, 0.0), (np.array([0.02, 0.1, 0.3]), 0.05),
             (np.array([[0.02], [0.3]]), np.array([0.01, 0.1, 0.4])),
             (0.1, REFERENCE_KAPPA * np.exp(np.linspace(math.log(RATIO_BOUNDS[0]),
                                                        math.log(RATIO_BOUNDS[1]),
                                                        GRID_POINTS)))]


def test_sector_shares_keep_every_bit_of_the_reference():
    # rates of orders 2 and 3, and rates with -0.0, a zero, no "1111", only
    # "1111" and no sector of k > 0, at scalar, complex and array strengths
    rate_sets = [r for eps, name in ((0.0, "h"), (0.05, "plus"), (0.1, "r"))
                 for r in fit_rates(eps, name).values()]
    rate_sets += sector_rates(SourceParams(truncation_order=3),
                              {label: fit_configs(label, 0.025, "l")
                               for label in ("allowed", "denied")}).values()
    rate_sets += [{"0022": -0.0, "1111": 2e-5}, {"0022": 1e-6, "1111": 0.0, "2200": -0.0},
                  {"0022": 1e-6, "2200": 3e-6}, {"1111": 1e-5}, {"1111": 2e-5, "2200": 1e-6},
                  {"2200": 3e-6}, {"2200": -0.0, "4400": 1e-7},
                  {"2200": -0.0, "0022": -0.0, "1111": 1e-5}, {}]
    for rates in rate_sets:
        for kappas in STRENGTHS:
            assert share_bits(rates, *kappas) == share_bits(rates, *kappas,
                                                            shares=reference_sector_shares)


@pytest.mark.parametrize("call", [
    lambda: sector_shares({"11": 1.0}, 0.1, 0.1),
    lambda: sector_shares({"x": 1.0}, 0.1, 0.1),
    lambda: fit_source_ratio({"a": 0.5}, {"a": {"11": 1.0, "2200": 1.0}}),
], ids=["short", "letter", "fit"])
def test_a_rate_label_that_is_not_a_sector_signature_raises(call):
    with pytest.raises(ValueError, match=r"^rate label '(11|x)' is not a sector signature"):
        call()


def listed_minima(costs) -> list:
    """The grid minima as a loop over the points: the left end of each run of
    equal local minima."""
    return [i for i in range(len(costs)) if (i == 0 or costs[i] < costs[i - 1])
            and (i == len(costs) - 1 or costs[i] <= costs[i + 1])]


@pytest.mark.parametrize("costs", [
    [3.0, 1.0, 2.0, 0.5, 4.0],              # two basins
    [1.0, 2.0, 3.0],                        # minimum at the left end
    [3.0, 2.0, 1.0],                        # minimum at the right end
    [2.0, 1.0, 1.0, 1.0, 3.0, 0.0, 0.0],    # plateaus, one at the right end
    [1.0, 1.0, 2.0, 1.0, 1.0],              # plateaus at both ends
    [5.0, 5.0, 5.0, 5.0],                   # flat
    [0.0],
])
def test_local_minima_match_the_loop_over_points(costs):
    assert _local_minima(np.array(costs)).tolist() == listed_minima(costs)


def test_local_minima_match_the_loop_over_a_rounded_random_walk():
    rng = np.random.default_rng(3)
    for _ in range(50):
        costs = np.round(np.cumsum(rng.normal(size=int(rng.integers(2, 60)))), 0)
        assert _local_minima(costs).tolist() == listed_minima(costs)


def test_fit_reports_the_reachable_shares():
    # the bundled targets lie outside what the model reaches at order 2: the
    # reference run's double pairs never click four-fold, and no ratio brings
    # the allowed or denied share down to its target
    fit = fit_source_ratio({"uncontrolled": 0.130, "allowed": 0.554, "denied": 0.301},
                           fit_rates())
    assert fit.reachable["uncontrolled"] == (0.0, 0.0)
    assert fit.reachable["allowed"][0] == pytest.approx(0.7559, abs=5e-5)
    assert fit.reachable["denied"][0] == pytest.approx(0.6694, abs=5e-5)
    for label, (lo, hi) in fit.reachable.items():
        assert lo <= fit.achieved[label] <= hi


def test_reachable_shares_contain_every_round_trip_target():
    # a share's extremum can lie between grid points, so the interval also
    # holds the share at the fitted ratio
    for eps in (0.025, 0.05):
        rates = fit_rates(eps, "h")
        for ratio in np.exp(np.linspace(math.log(0.5), math.log(1.5), 41)):
            targets = {label: sector_shares(r, 0.05, 0.05 * ratio)["undesired"]
                       for label, r in rates.items()}
            fit = fit_source_ratio(targets, rates)
            for label, (lo, hi) in fit.reachable.items():
                assert lo - 1e-9 <= targets[label] <= hi + 1e-9


def test_fit_raises_for_a_label_without_four_fold_rate():
    rates = {**fit_rates(), "dark": {"1111": 0.0, "2200": 0.0, "0022": 0.0}}
    targets = {"allowed": 0.5, "dark": 0.1}
    with pytest.raises(ValueError, match="four-fold"):
        fit_source_ratio(targets, rates)
    with pytest.raises(ValueError, match="four-fold"):
        fit_source_ratio({"dark": 0.1}, {"dark": {}})


def fit_corpus():
    """(targets, rates) of fits over the kinds of cost the polish meets.

    Orders 2 to 4, the input-h two-root case at eps 1e-3, rates with one
    sector zeroed or dropped, rates with no sector of k > 0 or only "1111",
    and bundled, synthetic, random, partial and out-of-reach targets.
    """
    rng = np.random.default_rng(24)
    rate_sets = [fit_rates(eps, name) for eps, name in
                 ((0.001, "h"), (0.05, "plus"), (0.0, "v"), (0.1, "r"), (0.025, "minus"))]
    for order in (3, 4):
        rate_sets.append(sector_rates(SourceParams(truncation_order=order),
                                      {label: fit_configs(label, 0.05, "l")
                                       for label in ("uncontrolled", "allowed", "denied")}))
    for rates in list(rate_sets):
        zeroed = {label: dict(r) for label, r in rates.items()}
        zeroed["allowed"]["2200"] = 0.0
        dropped = {label: dict(r) for label, r in rates.items()}
        del dropped["denied"]["0022"]
        rate_sets += [zeroed, dropped]
    rate_sets += [{"a": {"1111": 2e-5, "2200": 1e-6}, "b": {"1111": 1e-5, "2200": 3e-6}},
                  {"a": {"1111": 2e-5}, "b": {"1111": 1e-5}},
                  {"a": {"0022": -0.0, "1111": 2e-5}, "b": {"0022": 1e-6, "1111": 1e-5}}]
    for rates in rate_sets:
        labels = list(rates)
        ratio = float(np.exp(rng.uniform(math.log(0.002), math.log(5.0))))
        yield {label: sector_shares(r, 0.05, 0.05 * ratio)["undesired"]
               for label, r in rates.items()}, rates
        yield {label: float(rng.uniform()) for label in labels}, rates
        yield {label: float(rng.uniform()) for label in labels[1:]}, rates
        yield {label: float(rng.choice([0.0, 1.0])) for label in labels}, rates
        if "uncontrolled" in rates:
            yield {"uncontrolled": 0.130, "allowed": 0.554, "denied": 0.301}, rates
    yield from oracle_cases()


def ratio_targets(eps, input_name, ratio):
    rates = fit_rates(eps, input_name)
    return {label: sector_shares(r, 0.05, 0.05 * ratio)["undesired"]
            for label, r in rates.items()}, rates


def exact_root_targets():
    params = SourceParams(kappa_forward=0.05, kappa_backward=0.2)
    return ({label: heralded_fraction(params, fit_configs(label, 0.001, "h"))["undesired"]
             for label in ("uncontrolled", "allowed", "denied")}, fit_rates(0.001, "h"))


def both_ends_targets():
    # every share at 1: the cost falls towards both ends of the grid
    return {label: 1.0 for label in fit_rates()}, fit_rates()


def grid_costs(targets, rates):
    grid = np.linspace(math.log(RATIO_BOUNDS[0]), math.log(RATIO_BOUNDS[1]), GRID_POINTS)
    return grid, sum((sector_shares(rates[k], REFERENCE_KAPPA, REFERENCE_KAPPA * np.exp(grid))
                      ["undesired"] - target) ** 2 for k, target in targets.items())


def record_polishes(monkeypatch) -> list:
    """The list to which each later ``spdc._polish`` call appends
    (lo, x, hi, log R, steps, converged): its bracket, start and result."""
    from cqtsim import spdc

    polishes, polish = [], spdc._polish

    def recorded(polys, lo, x, hi):
        found = polish(polys, lo, x, hi)
        polishes.append((lo, x, hi, *found))
        return found

    monkeypatch.setattr(spdc, "_polish", recorded)
    return polishes


# target sets and the grid indices of their cost's local minima, the best first
BASIN_CASES = {
    "one basin": (lambda: ratio_targets(0.05, "plus", 0.3), [268]),
    "two basins": (lambda: ratio_targets(0.05, "plus", 2.0), [357, 229]),
    "minimum at index 400": (lambda: ratio_targets(0.05, "plus", 0.01), [108, 400]),
    "minima at both ends": (both_ends_targets, [0, 400]),
    "second exact root": (exact_root_targets, [243, 390]),
}


@pytest.mark.parametrize("case", BASIN_CASES)
def test_each_basin_is_polished_once_without_a_shares_call(case, monkeypatch):
    make, minima = BASIN_CASES[case]
    targets, rates = make()
    grid, costs = grid_costs(targets, rates)
    best = int(costs.argmin())
    assert [best] + [int(i) for i in _local_minima(costs) if i != best] == minima

    from cqtsim import spdc

    calls = []
    share_terms = spdc._share_terms

    def counted(rates_, forward):
        terms = share_terms(rates_, forward)
        return lambda x: calls.append(np.size(x)) or terms(x)

    monkeypatch.setattr(spdc, "_share_terms", counted)
    polishes = record_polishes(monkeypatch)
    fit = fit_source_ratio(targets, rates)
    # the grid, the other basins' polished points in one call, then the
    # achieved shares in one call at the fitted ratio
    assert calls == [GRID_POINTS] + [len(minima) - 1] * (len(minima) > 1) + [1]
    assert [x for _, x, *_ in polishes] == [grid[i] for i in minima]
    assert len(fit.other_roots) == (case == "second exact root")


def unconstrained_targets():
    # the bundled targets at --pbs-epsilon 1 --input v: no share moves with R
    return {"uncontrolled": 0.130, "allowed": 0.554, "denied": 0.301}, fit_rates(1.0, "v")


def flat_basin_targets():
    # a round trip to R = 0.002, where every share is nearly saturated: the
    # cost's curvature in log R is about 6e-9, so the slope's rounding (about
    # 2e-20) moves a Newton step by about 3e-12, past the tolerance, and the
    # steps would swing between the bracket's ends without the bisection
    return ratio_targets(0.025, "r", 0.002)


# target sets, the most steps any of their polishes may take, and the grid
# indices each polish must end on exactly, where it ends on the grid
POLISH_CASES = {
    # both basins end at the grid's ends, where the bracket is one-sided
    "minima at both ends": (lambda: [both_ends_targets()], 1, [0, 400]),
    "unconstrained": (lambda: [unconstrained_targets()], 1, [0]),
    "flat basin": (lambda: [flat_basin_targets()], 8, None),
    # a ratio_fit round trip whose fourth Newton step rounds to x itself, which
    # the slope's sign has just made the bracket's end: it has converged there
    "step onto the bracket's end": (
        lambda: [ratio_targets(0.07248353269851104, "plus", 0.40807165106357995)], 4, None),
    "fit corpus": (lambda: list(fit_corpus()), _POLISH_STEPS - 1, None),
}


@pytest.mark.parametrize("case", POLISH_CASES)
def test_every_polish_stays_in_its_bracket_under_the_cap(case, monkeypatch):
    make, most_steps, on_grid = POLISH_CASES[case]
    polishes = record_polishes(monkeypatch)
    for targets, rates in make():
        fit_source_ratio(targets, rates)
    assert polishes
    for lo, x, hi, end, steps, converged in polishes:
        assert lo <= x <= hi and lo <= end <= hi
        assert 1 <= steps <= most_steps < _POLISH_STEPS and converged
    if on_grid is not None:
        grid = grid_costs(*make()[0])[0]
        assert [end for *_, end, _, _ in polishes] == [grid[i] for i in on_grid]


def test_a_polish_cut_short_reports_an_unconverged_fit(monkeypatch, capsys):
    # one step takes no polish from its grid point to within the tolerance
    from cqtsim import cli, spdc

    monkeypatch.setattr(spdc, "_POLISH_STEPS", 1)
    assert fit_source_ratio(*ratio_targets(0.05, "plus", 0.3)).converged is False
    assert cli.main(["fit-spdc", "--synthetic-ratio", "0.8"]) == 0
    assert "# converged=False\n" in capsys.readouterr().out


def test_a_flat_basin_still_finds_its_root():
    fit = fit_source_ratio(*flat_basin_targets())
    assert fit.ratio == pytest.approx(0.002, rel=1e-11)
    assert fit.constrained and fit.other_roots == ()


FIT_ROUND_TRIP_RATIOS = np.geomspace(0.05, 4.0, 16)


@pytest.mark.parametrize("eps", [0.001, 0.025, 0.05, 0.1])
@pytest.mark.parametrize("input_name", ["plus", "minus", "r", "l"])
def test_round_trips_recover_the_ratio_to_1e_13(input_name, eps, monkeypatch):
    # 256 round trips in all: each lands in the right basin, and the polish
    # takes R back to within 1e-13 (the zoom it replaced reached 1.02e-13);
    # Newton's quadratic convergence ends every polish within 5 steps
    polishes = record_polishes(monkeypatch)
    rates = fit_rates(eps, input_name)
    for ratio in FIT_ROUND_TRIP_RATIOS:
        targets = {label: sector_shares(r, 0.05, 0.05 * ratio)["undesired"]
                   for label, r in rates.items()}
        fit = fit_source_ratio(targets, rates)
        assert abs(fit.ratio / ratio - 1) <= 1e-13, (ratio, fit.ratio)
    assert max(steps for *_, steps, _ in polishes) <= 5


def same_bits(got: dict, want: dict) -> bool:
    """Whether two label -> share mappings hold the same labels and float bits."""
    return list(got) == list(want) and all(
        type(g) is float and np.float64(g).tobytes() == np.float64(w).tobytes()
        for g, w in zip(got.values(), want.values()))


def scalar_undesired(rates: dict, kappa_forward, kappa_backward) -> dict:
    return {label: sector_shares(r, kappa_forward, kappa_backward)["undesired"]
            for label, r in rates.items()}


def synthetic_targets(rates: dict, kappa_forward, kappa_backward) -> dict:
    # fit-spdc's synthetic targets: one sector_shares call on the stacked rates
    shares = sector_shares(stack_rates(rates), kappa_forward, kappa_backward)
    return dict(zip(rates, shares["undesired"][:, 0].tolist()))


def test_stacked_targets_and_achieved_shares_have_the_bits_of_sector_shares():
    # fit-spdc's synthetic targets (``synthetic_targets``) and the fit's
    # ``achieved`` are each one stacked _share_terms call; every share keeps the
    # bits of sector_shares on its configuration alone, over the fit corpus and
    # the 256 round trips of test_round_trips_recover_the_ratio_to_1e_13
    cases = list(fit_corpus())
    for eps, input_name in itertools.product([0.001, 0.025, 0.05, 0.1],
                                             ["plus", "minus", "r", "l"]):
        rates = fit_rates(eps, input_name)
        for ratio in FIT_ROUND_TRIP_RATIOS:
            targets = synthetic_targets(rates, 0.05, 0.05 * ratio)
            assert same_bits(targets, scalar_undesired(rates, 0.05, 0.05 * ratio))
            cases.append((targets, rates))
    assert len(cases) > 256
    for targets, rates in cases:
        fit = fit_source_ratio(targets, rates)
        fitted = {label: rates[label] for label in targets}
        kb = REFERENCE_KAPPA * fit.ratio
        assert same_bits(fit.achieved, scalar_undesired(fitted, REFERENCE_KAPPA, kb))
        assert same_bits(synthetic_targets(fitted, 0.05, 0.05 * fit.ratio),
                         scalar_undesired(fitted, 0.05, 0.05 * fit.ratio))


def test_stacked_shares_sum_in_the_joint_sector_order():
    # a configuration whose sectors come in another order sums them in the
    # first one's: within rounding of sector_shares, not always its bits
    rates = fit_rates()
    rates["denied"] = dict(reversed(rates["denied"].items()))
    for ratio in FIT_ROUND_TRIP_RATIOS:
        got = synthetic_targets(rates, 0.05, 0.05 * ratio)
        want = scalar_undesired(rates, 0.05, 0.05 * ratio)
        assert same_bits({k: got[k] for k in ("uncontrolled", "allowed")},
                         {k: want[k] for k in ("uncontrolled", "allowed")})
        assert got["denied"] == pytest.approx(want["denied"], rel=4e-16, abs=0.0)


def test_the_fit_grid_is_401_points_even_in_log_ratio():
    assert np.array_equal(_LOG_GRID, np.linspace(math.log(RATIO_BOUNDS[0]),
                                                 math.log(RATIO_BOUNDS[1]), 401))


@pytest.mark.parametrize("targets, message", [
    ({"allowed": math.nan, "denied": 0.3}, "target 'allowed' must be a share in [0, 1], got nan"),
    ({"allowed": 0.5, "denied": math.inf}, "target 'denied' must be a share in [0, 1], got inf"),
    ({"allowed": 55.4, "denied": 30.1}, "target 'allowed' must be a share in [0, 1], got 55.4"),
    ({}, "the fit needs at least one target"),
    ({"allowed": 0.5, "dark": 0.1}, "target 'dark' has no sector rates"),
], ids=["nan", "inf", "percent", "empty", "no-rates"])
def test_fit_rejects_targets_it_cannot_fit(targets, message):
    with pytest.raises(ValueError) as info:
        fit_source_ratio(targets, fit_rates())
    assert str(info.value) == message


# Installed first on sys.meta_path, it makes every scipy import fail.
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
"""


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cqtsim.__file__)))
    counts = tmp_path / "counts.csv"
    counts.write_text("label,projector,count\nh,h,700\nv,v,300\nplus,plus,650\n"
                      "minus,minus,350\nr,r,520\nl,l,480\n", encoding="utf-8")
    commands = [
        ["run"],
        ["run", "--resamples", "200", "--seed", "1"],
        ["scan-werner", "--q-grid", "0:1:11"],
        ["fit-spdc"],
        ["fit-spdc", "--synthetic-ratio", "0.8"],
        ["fit-spdc", "--targets", "10,50,40"],
        ["tomo", "--counts", str(counts), "--resamples", "200", "--seed", "1"],
        ["reproduce", "table1"],
    ]
    # the benchmark's reference for a table whose linear inversion, r = (0.9,
    # 0.9, 0), leaves the Bloch ball (cqtbench/test_oracles.py)
    outside = {"plus": 9500, "minus": 500, "r": 9500, "l": 500, "h": 5000, "v": 5000}
    runs = ["import cqtsim"] + [
        f"from cqtsim.cli import main; sys.exit(main({argv!r}))" for argv in commands] + [
        "from cqtsim.estimation import axial_counts, ml_oracle_bloch_search; "
        f"ml_oracle_bloch_search(axial_counts({outside!r}))"]
    for run in runs:
        out = subprocess.run([sys.executable, "-c", BLOCK_SCIPY + run], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, (run, out.stderr)
