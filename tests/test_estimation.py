import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqtsim.estimation import (ML_TOL, POISSON_MAX_MEAN, MLResult, ProjectionCounts,
                               _estimate, _ml_kernel, axial_counts, corrected_fidelity,
                               correct_for_background, fidelity_from_counts,
                               ml_oracle_bloch_search, ml_reconstruct,
                               poisson_uncertainty, read_counts_csv, resampled_tomography)
from cqtsim.fock import KET_D, KET_H, KET_R, KET_V, NAMED_KETS, fidelity, parse_ket
from cqtsim.protocol import CountRecord

from helpers import AXIAL_INPUT_NAMES as AXIAL
from helpers import reference_poisson_uncertainty, validate_density


def exact_counts(rho, exposure=1.0):
    return axial_counts({
        name: exposure * float(np.real(NAMED_KETS[name].conj() @ rho @ NAMED_KETS[name]))
        for name in AXIAL
    })


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# --- count-ratio fidelity -------------------------------------------------------

def test_fidelity_from_counts_basics():
    assert fidelity_from_counts(10.0, 0.0) == 1.0
    assert fidelity_from_counts(5.0, 5.0) == 0.5
    assert fidelity_from_counts(83.1, 16.9) == pytest.approx(0.831)
    with pytest.raises(ValueError):
        fidelity_from_counts(0.0, 0.0)


@pytest.mark.parametrize("rates", [(math.nan, 1.0), (1.0, math.nan),
                                   (math.inf, math.inf), (math.inf, 1.0)])
def test_fidelity_from_counts_rejects_non_finite_rates(rates):
    with pytest.raises(ValueError, match="rates must be finite"):
        fidelity_from_counts(*rates)
    with pytest.raises(ValueError, match="rates must be finite"):
        CountRecord(*rates, 1.0, {}).fidelity()


@given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_fidelity_from_counts_range_and_swap(f1, f2):
    if f1 + f2 <= 0:
        return
    v = fidelity_from_counts(f1, f2)
    assert 0.0 <= v <= 1.0
    assert fidelity_from_counts(f2, f1) == pytest.approx(1.0 - v, abs=1e-12)


# --- background correction -------------------------------------------------------

def test_correction_identity_cases():
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    assert np.allclose(correct_for_background(rho, 0.0), rho)
    eye = np.eye(2, dtype=complex) / 2
    assert np.allclose(correct_for_background(eye, 0.37), eye)


@pytest.mark.parametrize("w", [1 - 1e-7, 1 - 1e-10, 1 - 1e-14])
def test_correction_keeps_a_unit_trace_as_w_nears_1(w):
    # states within (1 - w) / 2 of I/2 stay physical, and 1 / (1 - w) lifts
    # the rounding of the subtraction far past the 1e-9 that fidelity allows
    rng = np.random.default_rng(4)
    bloch = rng.normal(size=(200, 3))
    bloch *= 0.9 * (1 - w) / np.linalg.norm(bloch, axis=1)[:, None]
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    stack = 0.5 * (np.eye(2) + np.einsum("nk,kij->nij", bloch, paulis))
    out = correct_for_background(stack, w)
    assert np.abs(np.trace(out, axis1=1, axis2=2) - 1).max() <= 1e-10
    for rho in (correct_for_background(stack[0], w), *out[:3]):
        assert 0.0 <= fidelity(rho, KET_H) <= 1.0


def test_corrected_fidelity_reference_row():
    # removing a 55.4 % mixed admixture lifts 62.4 % to 77.9 % (within rounding)
    assert corrected_fidelity(0.624, 0.554) == pytest.approx(0.779, abs=1.5e-3)
    assert corrected_fidelity(0.647, 0.554) == pytest.approx(0.830, abs=1.5e-3)


@pytest.mark.parametrize("f_raw, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (2.0, "2.0"), (-0.1, "-0.1"),
    (np.array([0.5, math.nan, 3.0]), "nan"), (np.array([[0.2], [1.5]]), "1.5")])
def test_corrected_fidelity_rejects_a_raw_fidelity_outside_0_1(f_raw, shown):
    with pytest.raises(ValueError, match=f"f_raw must be finite and lie in \\[0, 1\\], "
                                         f"got {shown}$"):
        corrected_fidelity(f_raw, 0.1)


def test_corrected_fidelity_keeps_its_bits_on_the_unit_interval():
    for f_raw in (0.0, 0.624, 1.0):
        assert repr(corrected_fidelity(f_raw, 0.554)) == repr((f_raw - 0.277) / (1.0 - 0.554))
    values = np.linspace(0.0, 1.0, 11)
    assert corrected_fidelity(values, 0.3).tobytes() == ((values - 0.15) / 0.7).tobytes()


def test_correction_hard_error_on_nonphysical():
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        correct_for_background(rho, 0.9)


def test_correction_clips_small_negativity():
    w = 0.4
    rho = np.diag([1 - 0.1999, 0.1999]).astype(complex)
    with pytest.warns(UserWarning):
        out = correct_for_background(rho, w)
    validate_density(out)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_correction_rejects_a_non_finite_matrix(bad):
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="density matrices must be finite"):
            correct_for_background(rho, 0.1)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (), (4, 2, 3)])
def test_correction_names_the_shape_it_needs(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"density matrices must have shape (..., d, d), got {shape}")):
        correct_for_background(np.ones(shape), 0.1)


def test_correction_rejects_a_non_hermitian_matrix():
    # its Hermitian part is I/2, which the subtraction would return unchanged
    with pytest.raises(ValueError, match="^density matrices must be Hermitian$"):
        correct_for_background([[0.5, 0.5j], [0.5j, 0.5]], 0.1)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_correction_measures_hermiticity_per_matrix_against_its_largest_entry(scale):
    # one skewed matrix in a stack of matrices of other scales is found; a
    # skew within 1e-9 of a matrix's largest entry passes (at w = 0, which
    # takes a matrix of any trace)
    stack = np.array([np.diag([0.6, 0.4])] * 3, dtype=complex) * np.array(
        [1e-200, 1.0, 1e200])[:, None, None]
    i = [1e-200, 1.0, 1e200].index(scale)
    stack[i, 0, 1] = 0.3e-9 * scale
    correct_for_background(stack, 0.0)
    stack[i, 0, 1] = 1e-9 * scale
    with pytest.raises(ValueError, match="^density matrices must be Hermitian$"):
        correct_for_background(stack, 0.0)


def test_correction_rejects_a_stack_with_one_non_finite_matrix():
    stack = np.array([np.eye(2) / 2] * 5, dtype=complex)
    stack[3, 0, 1] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="density matrices must be finite"):
            correct_for_background(stack, 0.0)
        # the same check holds where the closed-form screen does not apply
        with pytest.raises(ValueError, match="density matrices must be finite"):
            correct_for_background(np.full((3, 3), math.inf), 0.2)


@given(st.floats(min_value=0, max_value=0.8),
       st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_correction_commutes_with_fidelity(w, mix, angle):
    # F(corrected rho) == (F(raw) - w/2) / (1 - w) for any state and target,
    # provided the subtraction stays physical
    psi0 = np.array([math.cos(angle / 2), math.sin(angle / 2)], dtype=complex)
    raw = mix * np.outer(psi0, psi0.conj()) + (1 - mix) * np.eye(2) / 2
    if mix > 1 - w / (1 - 1e-9):
        lowest = np.linalg.eigvalsh((raw - w * np.eye(2) / 2) / (1 - w)).min()
        if lowest < 0:
            return
    target = KET_R
    corrected = correct_for_background(raw, w)
    lhs = fidelity(corrected, target)
    rhs = (fidelity(raw, target) - w / 2) / (1 - w)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- maximum likelihood ----------------------------------------------------------

def test_ml_recovers_pure_state_from_exact_counts():
    rho_true = np.outer(KET_D, KET_D.conj())
    res = ml_reconstruct(exact_counts(rho_true, exposure=1000))
    assert isinstance(res, MLResult)
    assert res.converged
    assert fidelity(res.rho, KET_D) >= 0.999


def test_ml_uniform_counts_give_maximally_mixed():
    counts = axial_counts({name: 100.0 for name in AXIAL})
    res = ml_reconstruct(counts)
    assert np.allclose(res.rho, np.eye(2) / 2, atol=1e-6)


def test_ml_likelihood_monotone():
    rng = np.random.default_rng(11)
    rho = random_density(rng)
    means = exact_counts(rho, exposure=200).counts()
    noisy = rng.poisson(means).astype(float)
    counts = axial_counts({name: c for name, c in zip(AXIAL, noisy)})
    res = ml_reconstruct(counts)
    ll = res.log_likelihoods
    assert all(b >= a - 1e-12 for a, b in zip(ll, ll[1:]))


def test_ml_mixed_state_against_bloch_oracle():
    # independent oracle: direct likelihood maximization over the Bloch ball
    rho_true = 0.8 * np.outer(KET_D, KET_D.conj()) + 0.2 * np.eye(2) / 2
    counts = exact_counts(rho_true, exposure=5000)
    res = ml_reconstruct(counts, tol=1e-13)
    oracle = ml_oracle_bloch_search(counts)
    dist = 0.5 * np.abs(np.linalg.eigvalsh(res.rho - oracle)).sum()
    assert dist < 1e-6
    dist_true = 0.5 * np.abs(np.linalg.eigvalsh(res.rho - rho_true)).sum()
    assert dist_true < 1e-6


def test_bloch_oracle_scales_an_optimum_outside_the_ball_back_onto_it(monkeypatch):
    # on this pure-state table SLSQP stops just outside the Bloch ball
    # (|r|^2 - 1 about 4e-16); the oracle must return the state on the sphere
    from scipy import optimize

    ends = []
    minimize = optimize.minimize

    def recording(*args, **kwargs):
        ends.append(minimize(*args, **kwargs))
        return ends[-1]

    monkeypatch.setattr(optimize, "minimize", recording)
    rho = ml_oracle_bloch_search(axial_counts(
        {"h": 100, "v": 0, "plus": 50, "minus": 50, "r": 50, "l": 50}))
    best = min(ends, key=lambda res: res.fun)
    assert np.dot(best.x, best.x) > 1.0
    validate_density(rho, eig_tol=np.finfo(float).eps / 2)
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-6)


def test_ml_requires_informational_completeness():
    counts = ProjectionCounts([(KET_H, 10.0), (KET_D, 5.0)])
    with pytest.raises(ValueError):
        ml_reconstruct(counts)


def test_ml_non_convergence_is_flagged_not_raised():
    # the first Newton step from I/2 reaches this table's maximum, and only
    # the second, a step of rounding size, shows it
    rho_true = 0.7 * np.outer(KET_R, KET_R.conj()) + 0.3 * np.eye(2) / 2
    counts = exact_counts(rho_true, exposure=1000)
    res = ml_reconstruct(counts, max_iterations=1)
    assert not res.converged
    assert res.iterations == 1
    validate_density(res.rho)
    assert ml_reconstruct(counts, max_iterations=2).converged


# --- Poisson uncertainties ---------------------------------------------------------

def test_poisson_determinism():
    a = poisson_uncertainty((800.0, 200.0), seed=42, n_resamples=500)
    b = poisson_uncertainty((800.0, 200.0), seed=42, n_resamples=500)
    assert a == b


def test_poisson_scaling_shrinks_uncertainty():
    small = poisson_uncertainty((80.0, 20.0), seed=1, n_resamples=4000)
    large = poisson_uncertainty((8000.0, 2000.0), seed=1, n_resamples=4000)
    assert large.uncertainty == pytest.approx(small.uncertainty / 10.0, rel=0.2)


def test_poisson_balanced_counts_match_error_propagation():
    # oracle: first-order propagation of F = a/(a+b) at a = b = N gives
    # sigma = 1/(2 sqrt(2N))
    n = 4000.0
    est = poisson_uncertainty((n, n), seed=3, n_resamples=6000)
    assert est.value == pytest.approx(0.5, abs=0.01)
    assert est.uncertainty == pytest.approx(1 / (2 * math.sqrt(2 * n)), rel=0.1)


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 127, 128, 129, 10_000])
@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-3.0, 4.0), (0.999, 1.0)])
def test_estimate_keeps_the_bits_of_numpy_mean_and_std(size, low, high):
    # pairwise summation changes its blocking at 8 and 128 items; a fidelity
    # estimate's mean must lie in [0, 1], its values need not
    rng = np.random.default_rng([size, int(10 * high)])
    for _ in range(5):
        values = rng.uniform(low, high, size)
        if not 0.0 <= np.mean(values) <= 1.0:
            values -= np.mean(values) - 0.5
        kept = values.copy()
        est = _estimate(values)
        assert est.value.hex() == float(np.mean(values)).hex()
        assert est.uncertainty.hex() == float(np.std(values)).hex()
        assert np.array_equal(values, kept)


def test_estimate_of_no_values_raises():
    with pytest.raises(ValueError, match="every resample was empty"):
        _estimate(np.zeros(0))


@given(mean=st.one_of(st.just(0.0), st.floats(0.1, 1e6)), share=st.floats(0.0, 1.0),
       weight=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
       seed=st.integers(0, 2**32), n_resamples=st.sampled_from([100, 129, 1000, 10_000]))
@settings(max_examples=150, deadline=None)
def test_poisson_uncertainty_keeps_the_bits_of_the_reference(mean, share, weight, seed,
                                                             n_resamples):
    data = (mean * share, mean * (1.0 - share))
    try:
        want = reference_poisson_uncertainty(data, seed, n_resamples, weight)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            poisson_uncertainty(data, seed, n_resamples, weight)
        return
    got = poisson_uncertainty(data, seed, n_resamples, weight)
    assert (got.value.hex(), got.uncertainty.hex()) == (want.value.hex(),
                                                        want.uncertainty.hex())


def test_poisson_requires_seed_and_counts():
    with pytest.raises(ValueError):
        poisson_uncertainty((10.0, 10.0), seed=None)
    with pytest.raises(ValueError):
        poisson_uncertainty((0.0, 0.0), seed=1)


@pytest.mark.parametrize("call, name", [
    ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"seed": None}, "seed"),
    ({"n_resamples": 200.5}, "n_resamples"), ({"n_resamples": math.nan}, "n_resamples"),
    ({"n_resamples": 99}, "n_resamples"),
    ({"data": (math.nan, 10.0)}, "data"), ({"data": (10.0, math.inf)}, "data"),
    ({"data": (-1.0, 10.0)}, "data"), ({"data": (10.0, 20.0, 30.0)}, "data"),
    ({"data": (10.0,)}, "data"), ({"data": ("10", "20")}, "data"), ({"data": 10.0}, "data"),
    ({"data": axial_counts(dict(h=60, v=40, plus=70, minus=30, r=55, l=45))}, "data"),
], ids=lambda v: repr(v) if not isinstance(v, dict) else
    ",".join(f"{k}={x!r}"[:40] for k, x in v.items()))
def test_poisson_count_pair_input_contract(call, name):
    # each bad argument is named in a ValueError, not left to numpy or to
    # tuple unpacking
    args = {"data": (60.0, 40.0), "seed": 5, "n_resamples": 200, **call}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        poisson_uncertainty(**args)


@pytest.mark.parametrize("call, name", [
    ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
    ({"n_resamples": 200.5}, "n_resamples"), ({"n_resamples": math.nan}, "n_resamples")])
def test_resampled_tomography_checks_seed_and_resamples_alike(call, name):
    counts = axial_counts(dict(h=60, v=40, plus=70, minus=30, r=55, l=45))
    args = {"counts": counts, "target": KET_H, "seed": 5, "n_resamples": 200, **call}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        resampled_tomography(**args)


@pytest.mark.parametrize("weight", [1.0, 1.5, -0.5])
def test_poisson_count_pair_rejects_a_background_weight_outside_the_range(weight):
    with pytest.raises(ValueError, match="background weight must lie in"):
        poisson_uncertainty((600.0, 400.0), seed=5, n_resamples=1000, background_w=weight)


def test_poisson_count_pair_background_correction_keeps_its_bits():
    est = poisson_uncertainty((600.0, 400.0), seed=5, n_resamples=1000, background_w=0.3)
    assert repr(est) == ("FidelityEstimate(value=0.6431599639920591, "
                         "uncertainty=0.02214230430981847)")


def test_poisson_tomography_path():
    rho = 0.9 * np.outer(KET_D, KET_D.conj()) + 0.1 * np.eye(2) / 2
    counts = exact_counts(rho, exposure=500)
    _, est = resampled_tomography(counts, KET_D, seed=5, n_resamples=120)
    assert est.value == pytest.approx(fidelity(rho, KET_D), abs=0.02)
    assert est.uncertainty > 0


@pytest.mark.parametrize("target", [[0, 0], [6, 8j], [math.nan, 1], [1, 0, 0]])
def test_poisson_tomography_rejects_a_target_that_is_not_a_unit_ket(target):
    counts = exact_counts(np.eye(2) / 2, exposure=500)
    with pytest.raises(ValueError, match="target must be a unit ket.*got \\["):
        resampled_tomography(counts, target, seed=5, n_resamples=100)


def test_poisson_tomography_takes_a_unit_target_as_given():
    # within 1e-12 of unit norm the target is used as it is, not renormalised
    rho = 0.9 * np.outer(KET_D, KET_D.conj()) + 0.1 * np.eye(2) / 2
    counts = exact_counts(rho, exposure=500)
    _, est = resampled_tomography(counts, KET_D, seed=5, n_resamples=100)
    _, nudged = resampled_tomography(counts, KET_D * (1 + 4e-13), seed=5, n_resamples=100)
    assert nudged.value != est.value
    assert nudged.value == pytest.approx(est.value, rel=1e-11)


@pytest.mark.parametrize("stopping, name", [
    ({"tol": math.nan}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": -math.inf}, "tol"),
    ({"max_iterations": 0}, "max_iterations"), ({"max_iterations": -3}, "max_iterations"),
    ({"max_iterations": 2.5}, "max_iterations")])
def test_ml_rejects_a_stopping_rule_it_cannot_use(stopping, name):
    counts = axial_counts(dict(h=60, v=40, plus=70, minus=30, r=55, l=45))
    rule = {"tol": ML_TOL, "max_iterations": 50, **stopping}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ml_reconstruct(counts, **rule)
    # the kernel that the resampled tomography runs checks the same rule
    with pytest.raises(ValueError, match=f"^{name} must be"):
        _ml_kernel(np.array(counts.projectors()), counts.counts()[None], **rule)


def test_ml_takes_a_zero_tolerance():
    counts = axial_counts(dict(h=60, v=40, plus=70, minus=30, r=55, l=45))
    assert ml_reconstruct(counts, tol=0.0, max_iterations=50).iterations >= 1


# --- CSV round trip -----------------------------------------------------------------

@pytest.mark.parametrize("spec, ket", [
    ("1e200;0", [1.0, 0.0]),            # the norm overflowed to inf: "zero ket"
    ("3e-160;4e-160", [0.6, 0.8]),      # the squares underflowed: (0.6000033, ...)
    ("1e308;-1e308j", [2 ** -0.5, -1j * 2 ** -0.5]),
])
def test_projector_scale_does_not_matter(spec, ket):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.max(np.abs(np.array(parse_ket(spec, "projector")) - np.array(ket))) <= 1e-15
        counts = ProjectionCounts([(parse_ket(spec, "projector"), 1.0)])
    assert np.max(np.abs(counts.settings[0][0] - np.array(ket))) <= 1e-15


@pytest.mark.parametrize("table, message", [
    ({"x": 1}, "unknown projector state 'x'"),
    ({"h": 1, "x;y": 1}, "bad projector state 'x;y'"),
])
def test_axial_counts_rejects_a_state_it_cannot_read(table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        axial_counts(table)


@pytest.mark.parametrize("ket, unit", [([1e200, 1e200], KET_D),
                                       ([3e-160, 4e-160j], [0.6, 0.8j])])
def test_projection_counts_normalise_at_any_scale(ket, unit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (normalised, _), = ProjectionCounts([(ket, 5.0)]).settings
    assert np.max(np.abs(normalised - np.array(unit))) <= 1e-15


@pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf])
def test_projection_counts_reject_non_finite_counts(count):
    with pytest.raises(ValueError, match="counts must be finite"):
        ProjectionCounts([(KET_H, count)])
    with pytest.raises(ValueError, match="projector amplitudes must be finite"):
        ProjectionCounts([([math.inf, 1.0], 1.0)])


def test_projection_counts_reject_an_overflowing_total():
    with pytest.raises(ValueError, match="counts must sum to a finite number"):
        ProjectionCounts([(KET_H, 1e308), (KET_V, 1e308)])
    assert ProjectionCounts([(KET_H, 1e308), (KET_V, 7e307)]).counts().sum() < math.inf


@pytest.mark.parametrize("scale, tolerance", [(1e-320, 1e-3), (1e-300, 1e-15), (1e-8, 1e-15),
                                              (1e3, 1e-15), (1e150, 1e-15), (1e300, 1e-15)])
def test_ml_estimate_does_not_depend_on_the_scale_of_the_counts(scale, tolerance):
    # the solve runs on frequencies, so only their rounding follows the
    # scale; subnormal counts carry about 12 bits
    ns = np.array([3.0, 1.0, 2.0, 2.0, 1.0, 3.0])
    ref = ml_reconstruct(axial_counts(dict(zip(AXIAL, ns))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ml_reconstruct(axial_counts(dict(zip(AXIAL, scale * ns))))
    assert res.converged and ref.converged
    assert np.max(np.abs(res.rho - ref.rho)) <= tolerance


def test_poisson_rejects_means_beyond_the_sampler_limit():
    # numpy's own limit: the largest mean is drawn, the next float raises
    rng = np.random.default_rng(0)
    rng.poisson(POISSON_MAX_MEAN)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(POISSON_MAX_MEAN, math.inf))
    counts = axial_counts({"h": 1e19, "v": 10, "plus": 10, "minus": 10, "r": 10, "l": 10})
    with pytest.raises(ValueError, match="too large to resample.*9.223e\\+18"):
        resampled_tomography(counts, KET_H, seed=1, n_resamples=100)
    with pytest.raises(ValueError, match="too large to resample.*9.223e\\+18"):
        poisson_uncertainty((1e19, 1.0), seed=1, n_resamples=100)


def test_read_counts_csv(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "# cqtsim counts\n"
        "label,projector,count\n"
        "h,h,812\n"
        "v,v,190\n"
        "d,plus,502\n"
        "a,minus,505\n"
        "r,0.70710678;0.70710678j,495\n"
        "l,l,508\n",
        encoding="utf-8")
    counts = read_counts_csv(path)
    assert counts.is_informationally_complete()
    res = ml_reconstruct(counts)
    assert res.converged
