"""``resampled_tomography`` fits the observed table and its Poisson resamples
in one kernel run, against the two runs it replaced.

The observed table is table 0 of the stack.  Its state, flag, iteration
count and likelihood trace must be ``ml_reconstruct``'s, and the resample
rows what a kernel call on the resamples alone gives, bit for bit; so must
the corrected state be ``correct_for_background`` of ``ml_reconstruct``'s.  The
estimate is compared by ``repr`` with ``two_run_tomography``, which fits the
resamples in a kernel call of their own; so are its warnings and its errors.

The resamples stay Bloch vectors r, and each fidelity is (1 + r.t) / 2.
``density_matrix_tomography`` takes the route through 2x2 states instead:
each r becomes a state, is corrected by ``correct_for_background`` and gives
<t|rho|t>.  The estimates of the two routes must agree to 4e-16, and their
warnings and errors must be the same.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

import cqtsim.estimation as estimation
from cqtsim import cli
from cqtsim.estimation import (FidelityEstimate, NonPhysicalError, ProjectionCounts,
                               _bloch_rho, _bloch_vector, _ml_kernel, axial_counts,
                               correct_for_background, ml_reconstruct, read_counts_csv,
                               resampled_tomography)
from cqtsim.fock import KET_D, KET_H

from test_cli import write_counts


def sparse_table(seed):
    """4 to 8 random projector kets, each count zero with probability 1/2:
    the estimate lies near the surface of the Bloch ball."""
    rng = np.random.default_rng([29, seed])
    m = int(rng.integers(4, 9))
    kets = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    counts = rng.uniform(0, 50, size=m) * (rng.random(m) < 0.5)
    return ProjectionCounts(list(zip(kets, counts)))


TARGET = np.array([0.6, 0.8j])
# name: (counts, background weight)
FIXTURES = {
    # a qubit_analysis table: 12,000-16,000 counts per axis, Bloch length 0.45
    "axial": (axial_counts({"h": 8601, "v": 5290, "plus": 6107, "minus": 6466,
                            "r": 4178, "l": 8512}), 0.2),
    "pure": (axial_counts({"h": 1000, "v": 0, "plus": 500, "minus": 500, "r": 500,
                           "l": 500}), 0.0),
    # Bloch vector (0, 0, 0.9002) at ten times the counts: the observed state
    # and some resamples are clipped back into the physical cone, with a warning
    "clipping": (axial_counts({"h": 950100, "v": 49900, "plus": 500000, "minus": 500000,
                               "r": 500000, "l": 500000}), 0.0999),
    "zero count": (axial_counts({"h": 600, "v": 400, "plus": 0, "minus": 450, "r": 520,
                                 "l": 480}), 0.0),
    # every count below 1: many resamples are empty
    "below 1": (axial_counts({"h": 0.5, "v": 0.3, "plus": 0.4, "minus": 0.2, "r": 0.3,
                              "l": 0.3}), 0.0),
    # the observed state lies on the sphere
    "sparse": (sparse_table(279), 0.0),
}
SEEDS = (1, 29)


def run_recorded(monkeypatch, *args):
    """``resampled_tomography(*args)`` with every kernel call recorded as
    (tables, output) and every warning as its message."""
    calls, kernel = [], estimation._ml_kernel

    def recorded(projectors, tables, *rest, **options):
        out = kernel(projectors, tables, *rest, **options)
        calls.append((projectors, tables.copy(), out))
        return out

    monkeypatch.setattr(estimation, "_ml_kernel", recorded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = resampled_tomography(*args)
    monkeypatch.setattr(estimation, "_ml_kernel", kernel)
    return result, calls, [str(w.message) for w in caught]


def fit_alone(counts, tables):
    """The Bloch vectors of the states of ``tables`` over the projectors of
    ``counts``, from a kernel call of their own."""
    return _ml_kernel(np.array(counts.projectors()), tables)[0]


def resample_fits(counts, seed, n_resamples):
    """The Bloch vectors of the nonempty resamples, fitted apart from the
    observed table."""
    means = counts.counts()
    tables = np.random.default_rng(seed).poisson(
        means, size=(n_resamples, means.size)).astype(float)
    tables = tables[tables.sum(axis=1) > 0]
    if tables.size == 0:
        raise ValueError("every resample was empty")
    return fit_alone(counts, tables)


def two_run_tomography(counts, seed, n_resamples, background_w, target):
    """The resampled estimate with the resamples fitted apart from the
    observed table."""
    r = resample_fits(counts, seed, n_resamples)
    if background_w:
        correct_for_background(ml_reconstruct(counts).rho, background_w)
        r = estimation._subtract_background(r, background_w)
    values = (1.0 + np.einsum("nd,d->n", r, _bloch_vector(np.outer(target, target.conj())))) / 2
    values = np.clip(values, 0.0, 1.0)
    return FidelityEstimate(value=float(np.mean(values)), uncertainty=float(np.std(values)))


def density_matrix_tomography(counts, seed, n_resamples, background_w, target):
    """The resampled estimate from the 2x2 states of the resamples."""
    rho = _bloch_rho(resample_fits(counts, seed, n_resamples))
    if background_w:
        correct_for_background(ml_reconstruct(counts).rho, background_w)
        rho = correct_for_background(rho, background_w)
    values = np.clip(np.einsum("i,nij,j->n", target.conj(), rho, target).real, 0.0, 1.0)
    return FidelityEstimate(value=float(np.mean(values)), uncertainty=float(np.std(values)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_observed_row_is_ml_reconstruct_bit_for_bit(name, seed, monkeypatch):
    counts, weight = FIXTURES[name]
    (result, _, _), calls, _ = run_recorded(monkeypatch, counts, TARGET, seed, 300, weight)
    assert len(calls) == 1
    ref = ml_reconstruct(counts)
    assert result.rho.tobytes() == ref.rho.tobytes()
    assert (result.converged, result.iterations) == (ref.converged, ref.iterations)
    assert result.log_likelihoods == ref.log_likelihoods
    assert all(isinstance(v, float) for v in result.log_likelihoods)


@pytest.mark.parametrize("table, weight", [("axial", 0.0), ("axial", 0.2),
                                           ("nearpure-1", 0.0105), ("pure", 0.001)])
def test_corrected_state_is_the_observed_fit_corrected_bit_for_bit(table, weight):
    # nearpure-1's resamples at 0.0105 and pure's observed state at 0.001 are
    # clipped back into the physical cone
    counts = read_counts_csv(Path(__file__).parent / "golden" / f"{table}.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, corrected, _ = resampled_tomography(counts, TARGET, 3, 100, weight)
        want = correct_for_background(ml_reconstruct(counts).rho, weight)
    assert corrected.tobytes() == want.tobytes()
    assert bool(caught) == (table != "axial")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_resample_rows_match_a_kernel_call_on_the_resamples_alone(name, seed, monkeypatch):
    counts, weight = FIXTURES[name]
    _, calls, _ = run_recorded(monkeypatch, counts, TARGET, seed, 300, weight)
    (projectors, tables, (r, converged, iterations, _)), = calls
    # row 0 is the observed table, the other rows are the nonempty Poisson draws
    ns = counts.counts()
    assert tables[0].tobytes() == ns.tobytes()
    draws = np.random.default_rng(seed).poisson(ns, size=(300, ns.size)).astype(float)
    assert tables[1:].tobytes() == draws[draws.sum(axis=1) > 0].tobytes()
    ref_r, ref_conv, ref_iter, _ = _ml_kernel(projectors, tables[1:])
    assert r[1:].tobytes() == ref_r.tobytes()
    assert np.array_equal(converged[1:], ref_conv)
    assert np.array_equal(iterations[1:], ref_iter)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_estimate_matches_the_resampling_of_two_kernel_runs(name, seed, monkeypatch):
    counts, weight = FIXTURES[name]
    (_, _, est), _, caught = run_recorded(monkeypatch, counts, TARGET, seed, 300, weight)
    with warnings.catch_warnings(record=True) as ref_caught:
        warnings.simplefilter("always")
        ref = two_run_tomography(counts, seed, 300, weight, TARGET)
    assert repr(est) == repr(ref)
    assert sorted(set(caught)) == sorted({str(w.message) for w in ref_caught})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_bloch_estimate_matches_the_density_matrix_route(name, seed, monkeypatch):
    counts, weight = FIXTURES[name]
    (_, _, est), _, caught = run_recorded(monkeypatch, counts, TARGET, seed, 300, weight)
    with warnings.catch_warnings(record=True) as ref_caught:
        warnings.simplefilter("always")
        ref = density_matrix_tomography(counts, seed, 300, weight, TARGET)
    assert est.value == pytest.approx(ref.value, rel=0, abs=4e-16)
    assert est.uncertainty == pytest.approx(ref.uncertainty, rel=0, abs=4e-16)
    assert sorted(set(caught)) == sorted({str(w.message) for w in ref_caught})


def test_fixtures_reach_every_branch(monkeypatch):
    # the clipping fixture warns, the below-1 one drops empty resamples, and
    # the sparse one has its maximum on the sphere
    counts, weight = FIXTURES["clipping"]
    _, _, caught = run_recorded(monkeypatch, counts, TARGET, 1, 300, weight)
    assert any("clipping" in text for text in caught)
    _, calls, _ = run_recorded(monkeypatch, FIXTURES["below 1"][0], TARGET, 1, 300)
    assert 1 < len(calls[0][1]) < 301
    rho = ml_reconstruct(FIXTURES["sparse"][0]).rho
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("counts, weight, seed, n, error", [
    # the observed state survives a 55.4 % subtraction, two resamples do not
    ({"h": 100, "v": 100, "plus": 125, "minus": 75, "r": 100, "l": 100}, 0.554, 1, 1000,
     NonPhysicalError),
    (dict.fromkeys(["h", "v", "plus", "minus", "r", "l"], 1e-300), 0.0, 1, 200,
     ValueError),
])
def test_resample_errors_match_the_resampling_of_two_kernel_runs(counts, weight, seed, n,
                                                                  error):
    counts = axial_counts(counts)
    with pytest.raises(error) as got:
        resampled_tomography(counts, KET_D, seed, n, weight)
    for route in (two_run_tomography, density_matrix_tomography):
        with pytest.raises(error) as ref:
            route(counts, seed, n, weight, KET_D)
        assert str(got.value) == str(ref.value)


def test_observed_subtraction_fails_before_the_resamples():
    # at 80 % both the observed state and many resamples go non-physical: the
    # error is the observed state's, a NonPhysicalError of one state
    counts = axial_counts({"h": 100, "v": 100, "plus": 125, "minus": 75, "r": 100, "l": 100})
    rho = _bloch_rho(fit_alone(counts, np.random.default_rng(27).poisson(counts.counts(),
                                                                         (300, 6))))
    with pytest.raises(NonPhysicalError) as ref:
        correct_for_background(rho, 0.8)
    assert ref.value.n_states > 1
    with pytest.raises(NonPhysicalError) as got:
        resampled_tomography(counts, KET_H, 27, 300, 0.8)
    assert (got.value.n_bad, got.value.n_states) == (1, 1)


@pytest.mark.parametrize("weight, calls", [("0.2", [(3,), (300, 3)]), ("0", [(3,)])])
def test_tomo_subtracts_the_background_once(weight, calls, tmp_path, monkeypatch, capsys):
    # once from the observed state's Bloch vector, through correct_for_background,
    # and once from the stack of the resamples' Bloch vectors
    shapes, subtract = [], estimation._subtract_background

    def counted(r, w):
        shapes.append(np.shape(r))
        return subtract(r, w)

    monkeypatch.setattr(estimation, "_subtract_background", counted)
    path = tmp_path / "counts.csv"
    write_counts(path, {"h": 8601, "v": 5290, "plus": 6107, "minus": 6466, "r": 4178,
                        "l": 8512})
    assert cli.main(["tomo", "--counts", str(path), "--weight", weight, "--resamples", "300",
                     "--seed", "5"]) == 0
    assert shapes == calls
    assert "fidelity_std" in capsys.readouterr().out
