"""``ml_reconstruct`` against the exact maximum of the likelihood.

``ml_oracle_bloch_search`` gives the maximum of an axial table in closed
form, with a 1-D equation in the Lagrange multiplier when it lies on the
Bloch sphere, and ``ml_exact`` checks it from outside.  The estimate must
match it to 1e-9 in every entry of rho, far below the 1e-6 that ``tomo``
prints.  For other complete sets of projectors no closed form exists, so
the estimate must meet the KKT conditions of the ball to 1e-9, and no
point of the ball may have a higher likelihood.
"""

from pathlib import Path

import numpy as np
import pytest

from cqtsim.estimation import (ProjectionCounts, _axial_ml_bloch, axial_counts,
                               ml_oracle_bloch_search, ml_reconstruct, read_counts_csv)

from helpers import AXIAL_INPUT_NAMES as AXIAL
from ml_exact import bloch_of_rho, kkt_residual, log_likelihood, projector_bloch, rho_of_bloch

GOLDEN = Path(__file__).parent / "golden"

AXIAL_PROJECTORS = np.array(axial_counts(dict.fromkeys(AXIAL, 1.0)).projectors())
# h 464878, v 439035, plus 81422, minus 78331, r 52, l 59: the r/l axis holds
# 111 of 1.1 million counts, and its maximum has Im rho_01 = 0.031532
UNBALANCED = [464878, 439035, 81422, 78331, 52, 59]


def axial_means(bloch, per_axis):
    """Mean counts (h, v, plus, minus, r, l) of Bloch vectors (n, 3), with the
    probabilities of lengths beyond 1 clipped to [0, 1]."""
    p = np.clip((1 + bloch[:, [2, 2, 0, 0, 1, 1]] * [1, -1, 1, -1, 1, -1]) / 2, 0, 1)
    return p * np.repeat(per_axis, 2, axis=1)[:, [4, 5, 0, 1, 2, 3]]


def random_bloch(rng, n, low, high):
    bloch = rng.normal(size=(n, 3))
    return bloch * (rng.uniform(low, high, size=n) / np.linalg.norm(bloch, axis=1))[:, None]


def axial_tables(kind, rng):
    if kind == "poisson":
        # Bloch length 0 to 1.05, 10^2 to 10^6 counts, drawn per axis
        means = axial_means(random_bloch(rng, 150, 0, 1.05),
                            10 ** rng.uniform(2, 6, size=(150, 3)))
        return rng.poisson(means).astype(float)
    if kind == "near pure":
        means = axial_means(random_bloch(rng, 100, 0.98, 0.9999),
                            10 ** rng.uniform(3, 5, size=(100, 3)))
        return rng.poisson(means).astype(float)
    if kind == "pure":
        bloch = random_bloch(rng, 30, 1, 1)
        bloch[:6] = np.vstack([np.eye(3), -np.eye(3)])
        # and h, whose v count is 0, with 50 counts on each other projector
        return np.vstack([axial_means(bloch, np.full((30, 3), 1000.0)),
                          [100, 0, 50, 50, 50, 50]])
    if kind == "zero count":
        means = axial_means(random_bloch(rng, 60, 0, 0.99), np.full((60, 3), 500.0))
        tables = rng.poisson(means).astype(float)
        tables[np.arange(60), rng.integers(6, size=60)] = 0.0
        return tables
    if kind == "below 1":
        return rng.uniform(0, 1, size=(40, 6)) * 10 ** rng.uniform(-6, 0, size=(40, 1))
    if kind == "sparse":
        # tests/golden/sparse.csv, which leaves the r/l axis without counts,
        # and tables with one to three counts
        tables = np.zeros((30, 6))
        for table in tables[1:]:
            table[rng.choice(6, size=rng.integers(1, 4), replace=False)] = 1.0
        tables[0] = [1, 0, 0, 1, 0, 0]
        return tables
    if kind == "scaled":
        table = np.array([3.0, 1.0, 2.0, 2.0, 1.0, 3.0])
        return np.array([s * table for s in (1e-320, 1e-300, 1e-8, 1.0, 1e200, 1e300)])
    return np.array([UNBALANCED], dtype=float)


AXIAL_KINDS = ("poisson", "near pure", "pure", "zero count", "below 1", "sparse", "scaled",
               "unbalanced")


@pytest.mark.parametrize("kind", AXIAL_KINDS)
def test_oracle_meets_the_kkt_conditions(kind):
    # the oracle's own check: a maximum of the ball to the last bits
    tables = axial_tables(kind, np.random.default_rng([36, len(kind)]))
    tables = tables[tables.sum(axis=1) > 0]
    for table, r in zip(tables, _axial_ml_bloch(tables)):
        assert np.linalg.norm(r) <= 1 + 1e-15
        assert kkt_residual(r, AXIAL_PROJECTORS, table) <= 1e-12


@pytest.mark.parametrize("kind", AXIAL_KINDS)
def test_ml_reconstruct_is_the_exact_maximum_of_an_axial_table(kind):
    tables = axial_tables(kind, np.random.default_rng([36, len(kind)]))
    tables = tables[tables.sum(axis=1) > 0]
    exact = rho_of_bloch(_axial_ml_bloch(tables))
    for table, want in zip(tables, exact):
        res = ml_reconstruct(axial_counts(dict(zip(AXIAL, table))))
        assert res.converged
        assert np.max(np.abs(res.rho - want)) <= 1e-9, table


def test_unbalanced_table_gives_the_linear_inversion():
    r = _axial_ml_bloch(np.array([UNBALANCED], dtype=float))[0]
    assert np.linalg.norm(r) < 1
    assert rho_of_bloch(r)[0, 1].imag == pytest.approx(0.031532, abs=5e-7)


# a table with a zero count, and tables of counts far from 1
@pytest.mark.parametrize("table", ["zero", "huge", "subnormal"])
def test_the_reference_search_is_the_exact_maximum(table):
    counts = read_counts_csv(GOLDEN / f"{table}.csv")
    rho = ml_oracle_bloch_search(counts)
    projectors = np.array(counts.projectors())
    assert kkt_residual(bloch_of_rho(rho), projectors, counts.counts()) <= 1e-12
    assert np.max(np.abs(ml_reconstruct(counts).rho - rho)) <= 1e-9


@pytest.mark.parametrize("table", ["zero", "unbalanced"])
def test_the_oracle_reads_each_row_by_its_projector(table):
    counts = read_counts_csv(GOLDEN / f"{table}.csv")
    want = ml_oracle_bloch_search(counts).tobytes()
    rng = np.random.default_rng(48)
    # cqtbench's order plus, minus, r, l, h, v, then random ones
    for order in [[2, 3, 4, 5, 0, 1], *(rng.permutation(6) for _ in range(3))]:
        shuffled = ProjectionCounts([counts.settings[j] for j in order])
        assert ml_oracle_bloch_search(shuffled).tobytes() == want


@pytest.mark.parametrize("ket, name", [
    ((0.6, 0.8j), r"0\.6\+0j, 0\+0\.8j"),
    ((1.0, 1e-6), r"1\+0j, 1e-06\+0j")], ids=["tilted", "near-h"])
def test_the_oracle_names_a_projector_off_the_axes(ket, name):
    settings = axial_counts(dict.fromkeys(AXIAL, 10.0)).settings
    settings[4] = (ket, 0.0)
    with pytest.raises(ValueError, match=rf"^projector 5 \({name}\) lies off the Bloch axes"):
        ml_oracle_bloch_search(ProjectionCounts(settings))


def test_the_oracle_rejects_a_table_without_counts():
    with pytest.raises(ValueError, match="all counts are zero"):
        ml_oracle_bloch_search(axial_counts(dict.fromkeys(AXIAL, 0.0)))


def random_projector_table(rng):
    """4 to 8 random projectors, counts drawn around a random state of Bloch
    length 0 to 1, about a third of them zero."""
    m = int(rng.integers(4, 9))
    kets = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    counts = ProjectionCounts([(k, 1.0) for k in kets])
    projectors = np.array(counts.projectors())
    bloch = random_bloch(rng, 1, 0, 1)[0]
    w, m_vec = projector_bloch(projectors)
    means = 10 ** rng.uniform(1, 5) * (w + m_vec @ bloch) / 2
    table = rng.poisson(means * (rng.random(len(means)) < 0.7)).astype(float)
    if table.sum() == 0:
        table[0] = 1.0
    return ProjectionCounts(list(zip(kets, table))), projectors, table


def ball_points(rng, centre, n):
    """Points of the ball: random ones and ones around ``centre``, from 1e-2
    to 1e-7 away, pulled onto the sphere where they leave it."""
    points = random_bloch(rng, n, 0, 1)
    near = centre + random_bloch(rng, n, 1, 1) * 10 ** rng.uniform(-7, -2, size=(n, 1))
    norms = np.linalg.norm(near, axis=1, keepdims=True)
    return np.vstack([points, near / np.maximum(norms, 1.0)])


def test_ml_reconstruct_is_the_maximum_for_random_projector_sets():
    rng = np.random.default_rng(3600)
    for _ in range(40):
        counts, projectors, table = random_projector_table(rng)
        res = ml_reconstruct(counts)
        r = bloch_of_rho(res.rho)
        assert res.converged
        assert np.linalg.norm(r) <= 1 + 1e-15
        assert kkt_residual(r, projectors, table) <= 1e-9
        best = log_likelihood(r, projectors, table)
        assert log_likelihood(ball_points(rng, r, 500), projectors, table).max() <= best + 1e-12
