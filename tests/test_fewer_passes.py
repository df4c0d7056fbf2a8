"""The ML kernel's stack, the Monte-Carlo average and the Werner scan
against the code they replaced or the one-row runs they stack.

Each table of ``estimation._ml_kernel``'s stack must end where a call on
that table alone ends, bit for bit, with the same flag and iteration count;
each branch of ``channels.mc_avg_teleport_fidelity`` must add what the
average of that branch alone gives, bit for bit, and those comparisons are
of bytes or of ``float.hex``.  The Werner scan takes each row from twelve
traces of its channel and forms no conditional state: it calls none of the
public one-channel functions.  Its rows are checked against the
closed forms, which the library never evaluates: each +/- branch has
fully entangled fraction (1 + 3q)/4, so F_allowed = (1 + q)/2, and
conditioned on H the channel is q |HH><HH| + (1 - q) I/4, over either term
of which the standard frame teleports |+> with fidelity 1/2.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqtsim import channels, estimation
from cqtsim.channels import (ConditionalChannel, avg_teleport_fidelity,
                             condition_on_controller, make_ghz_mixture, make_werner,
                             mc_avg_teleport_fidelity, teleport_fidelity, werner_point,
                             werner_scan)
from cqtsim.estimation import (ProjectionCounts, _ml_kernel, axial_counts, ml_reconstruct,
                               read_counts_csv)
from cqtsim.fock import KET_D

from helpers import AXIAL_INPUT_NAMES, reference_ml_kernel

GOLDEN = Path(__file__).parent / "golden"
# the golden tables that read_counts_csv refuses: an empty file, a header alone, a count of -1
REFUSED = ("empty.csv", "header-only.csv", "negative.csv")

AXIAL_PROJECTORS = np.array(axial_counts({name: 1.0 for name in AXIAL_INPUT_NAMES})
                            .projectors())


def axial_probabilities(bloch: np.ndarray) -> np.ndarray:
    # the axial probabilities of a Bloch vector, as (h, v, plus, minus, r, l)
    return np.array([(1 + s * bloch[i]) / 2 for i in (2, 0, 1) for s in (1, -1)])


def random_projectors(rng, m: int) -> np.ndarray:
    kets = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    return np.array(ProjectionCounts([(k, 1.0) for k in kets]).projectors())


def stack_of(kind: str, rng, n: int) -> tuple:
    """``(projectors, tables)`` of ``n`` tables of one kind; every table has a
    positive count."""
    projectors = AXIAL_PROJECTORS
    if kind == "poisson":
        # a Bloch length and an exposure per table, so tables stop at different steps
        bloch = rng.normal(size=(n, 3))
        bloch *= (rng.uniform(0, 0.99, size=n) / np.linalg.norm(bloch, axis=1))[:, None]
        exposure = 10 ** rng.uniform(0, 4.3, size=n)
        means = exposure[:, None] * np.array([axial_probabilities(b) for b in bloch])
        tables = rng.poisson(means).astype(float)
    elif kind == "zeros":
        means = rng.uniform(1, 500, size=(n, 6)) * (rng.random((n, 6)) < 0.8)
        tables = rng.poisson(means).astype(float)
    elif kind == "below1":
        tables = rng.uniform(0, 1, size=(n, 6)) * 10 ** rng.uniform(-6, 0, size=(n, 1))
    elif kind == "pure":
        # the exact counts of pure states, axial ones among them (zero counts)
        bloch = rng.normal(size=(n, 3))
        bloch /= np.linalg.norm(bloch, axis=1)[:, None]
        axial = rng.random(n) < 0.3
        bloch[axial] = np.eye(3)[rng.integers(3, size=axial.sum())]
        tables = 1000 * np.array([axial_probabilities(b) for b in bloch])
        # and tables with one count: a step takes the state to that projector
        single = rng.random(n) < 0.2
        tables[single] = np.eye(6)[rng.integers(6, size=single.sum())]
    elif kind == "vanishing":
        # one count of 1 and the others below 1e-150, none zero: some
        # probabilities underflow to 0 at a count above 0
        tables = 10 ** rng.uniform(-320, -150, size=(n, 6))
        tables[np.arange(n), rng.integers(6, size=n)] = 1.0
    else:   # sparse: random projectors, half the counts zero
        projectors = random_projectors(rng, int(rng.integers(4, 9)))
        m = len(projectors)
        tables = rng.poisson(rng.uniform(0, 50, size=(n, m))
                             * (rng.random((n, m)) < 0.5)).astype(float)
    empty = tables.sum(axis=1) <= 0
    tables[empty, 0] = 1.0
    return projectors, tables


KINDS = ("poisson", "zeros", "below1", "pure", "vanishing", "sparse")


def assert_rows_run_alone(projectors, tables, tol, cap):
    """Every table of a kernel run with the stopping rule (tol, cap) ends as
    it does alone, within its cap; the trace, table 0's, never falls."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "ML_TOL", tol)
        patch.setattr(estimation, "ML_MAX_ITERATIONS", cap)
        rho, converged, iterations, trace = _ml_kernel(projectors, tables)
        alones = [_ml_kernel(projectors, table[None]) for table in tables]
    for i, alone in enumerate(alones):
        assert rho[i].tobytes() == alone[0][0].tobytes()
        assert (converged[i], iterations[i]) == (alone[1][0], alone[2][0])
        if i == 0:
            assert [v.hex() for v in trace] == [v.hex() for v in alone[3]]
    assert (iterations <= cap).all()
    assert all(b >= a for a, b in zip(trace, trace[1:]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       rule=st.sampled_from([(1e-10, 100_000), (1e-10, 3), (1e-6, 1), (1e-10, 2),
                             (1e-13, 300)]))
def test_kernel_rows_end_as_they_do_alone(kind, n, seed, rule):
    projectors, tables = stack_of(kind, np.random.default_rng(seed), n)
    assert_rows_run_alone(projectors, tables, *rule)


def test_kernel_corpus_reaches_every_path(monkeypatch):
    """A fixed corpus with and without zero counts that halves steps, ends
    on the sphere, stops tables at different steps and runs out of its cap."""
    logs, log = [0], np.log

    def counted(x, *args, **kwargs):
        logs[0] += 1
        return log(x, *args, **kwargs)

    monkeypatch.setattr(estimation.np, "log", counted)
    seen = set()
    for seed, kind in enumerate(KINDS * 2):
        rng = np.random.default_rng([36, seed])
        n = (1, 2, 57)[seed % 3]
        projectors, tables = stack_of(kind, rng, n)
        cap = 2 if seed % 5 == 3 else 2000
        monkeypatch.setattr(estimation, "ML_MAX_ITERATIONS", cap)
        logs[0] = 0
        r, converged, iterations, _ = _ml_kernel(projectors, tables)
        rho = estimation._bloch_rho(r)
        # one evaluation at r = 0 and one full step per iteration of the longest table
        if logs[0] > 1 + iterations.max():
            seen.add("halved")
        if (np.linalg.eigvalsh(rho)[:, 0] < 1e-12).any():
            seen.add("on the sphere")
        if len(set(iterations.tolist())) > 1:
            seen.add("different stops")
        if (iterations == cap).any() and not converged.all():
            seen.add("cap exhausted")
        seen.add("zero counts" if (tables == 0).any() else "no zero count")
    assert seen == {"halved", "on the sphere", "different stops", "cap exhausted",
                    "zero counts", "no zero count"}


def assert_kernel_bits(projectors, tables):
    """``_ml_kernel``'s states, flags, iteration counts and trace are those of
    its former code, which formed each Hessian as a 3x3 matrix."""
    got, want = _ml_kernel(projectors, tables), reference_ml_kernel(projectors, tables)
    for mine, theirs in zip(got[:3], want[:3]):
        assert (mine.dtype, mine.tobytes()) == (theirs.dtype, theirs.tobytes())
    assert [v.hex() for v in got[3]] == [v.hex() for v in want[3]]


@pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.glob("*.csv")
                                         if path.name not in REFUSED))
def test_kernel_keeps_the_bits_of_the_reference_on_golden_tables(name):
    # pole, zero, pure, sparse, subnormal and nearpure among them; with 300
    # Poisson resamples where the sampler takes the counts
    counts = read_counts_csv(GOLDEN / name)
    table = counts.counts()
    tables = table[None]
    if table.max() <= 1e12:
        draws = np.random.default_rng(50).poisson(table, size=(300, table.size))
        tables = np.vstack([table, draws[draws.sum(axis=1) > 0]])
    assert_kernel_bits(np.array(counts.projectors()), tables)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
def test_kernel_keeps_the_bits_of_the_reference_on_random_stacks(kind, n, seed):
    # axial stacks, and random projectors off the axes ("sparse")
    assert_kernel_bits(*stack_of(kind, np.random.default_rng(seed), n))


def test_ml_fit_builds_the_projectors_once(monkeypatch):
    calls, projectors = [], ProjectionCounts.projectors

    def counted(self):
        calls.append(1)
        return projectors(self)

    monkeypatch.setattr(ProjectionCounts, "projectors", counted)
    counts = axial_counts({"h": 600, "v": 400, "plus": 550, "minus": 450, "r": 520, "l": 480})
    ml_reconstruct(counts)
    assert len(calls) == 1
    incomplete = ProjectionCounts([(k, n) for k, n in counts.settings[:3]])
    calls.clear()
    with pytest.raises(ValueError, match="not informationally complete"):
        ml_reconstruct(incomplete)
    assert len(calls) == 1


# --- the Monte-Carlo average ---------------------------------------------------------

def random_density(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@st.composite
def mc_channels(draw):
    """The ``channel`` argument of the average: Werner and GHZ-mixture branches
    in all three bases, branches of probability 0, random two-qubit channels
    and lists of random branches."""
    kind = draw(st.sampled_from(["werner", "ghz", "controller_h", "channel", "branches"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = draw(st.sampled_from(["hv", "pm", "rl"]))
    if kind == "werner":
        return condition_on_controller(make_werner(draw(st.floats(0, 1))), basis)
    if kind == "ghz":
        return condition_on_controller(make_ghz_mixture(draw(st.floats(0, 1))), basis)
    if kind == "controller_h":
        # the controller holds |H>: its V branch has probability 0 and a zero state
        rho = np.kron(random_density(rng, 4), np.diag([1.0, 0.0]).astype(complex))
        return condition_on_controller(rho, basis)
    if kind == "channel":
        if draw(st.booleans()):
            return random_density(rng, 4)
        # any finite 4x4 operator of unit trace, not even Hermitian
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        return a / np.trace(a)
    k = draw(st.integers(1, 4))
    probs = rng.uniform(0, 1, size=k) * (rng.random(k) < 0.7)
    probs[0] = max(probs[0], 0.1)
    return [ConditionalChannel(str(i), float(p), random_density(rng, 4) if p else
                               np.zeros((4, 4), dtype=complex))
            for i, p in enumerate(probs)]


def assert_branches_average_alone(branches, n_samples, seed):
    """The average over ``branches`` adds, in order, each branch's probability
    times that branch's average alone; a branch with the zero state adds 0."""
    grand = 0.0
    for b in branches:
        alone = mc_avg_teleport_fidelity(b.state, n_samples, seed) if b.state.any() else 0.0
        grand += b.probability * alone
    want = grand / sum(b.probability for b in branches)
    assert mc_avg_teleport_fidelity(branches, n_samples, seed).hex() == want.hex()


@settings(max_examples=150, deadline=None)
@given(channel=mc_channels(), n_samples=st.integers(1, 400), seed=st.integers(0, 2**63 - 1))
def test_mc_average_adds_each_branch_alone(channel, n_samples, seed):
    if isinstance(channel, np.ndarray):
        channel = [ConditionalChannel("", 1.0, channel)]
    assert_branches_average_alone(channel, n_samples, seed)


@pytest.mark.parametrize("branches", [1, 2, 5])
def test_mc_average_of_random_branches_adds_each_branch_alone(branches):
    rng = np.random.default_rng(branches)
    probs = rng.uniform(0.1, 1, size=branches)
    assert_branches_average_alone([ConditionalChannel(str(i), float(p), random_density(rng, 4))
                                   for i, p in enumerate(probs)], 150, branches)


# --- the Werner scan -------------------------------------------------------------------

ULP = 2.0 ** -52


def assert_rows_lie_on_the_closed_form(qs):
    """Each row equals ``werner_point`` at its q and lies within 4 x 2^-52 of
    F_allowed = (1 + q)/2 and F_denied = 1/2."""
    rows = werner_scan(qs).rows
    assert rows == [(float(q), *werner_point(q)) for q in qs]
    q, allowed, denied = np.array(rows).T
    assert np.abs(allowed - (1 + q) / 2).max() <= 4 * ULP
    assert np.abs(denied - 0.5).max() <= 4 * ULP


@settings(max_examples=150, deadline=None)
@given(qs=st.lists(st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0, 1 / 3, 0.5])),
                   min_size=1, max_size=60))
def test_werner_rows_lie_on_the_closed_form(qs):
    assert_rows_lie_on_the_closed_form(qs)


@pytest.mark.parametrize("qs", [[0.0], [1.0], [0.25], [0.5, 0.5, 0.5],
                                list(np.linspace(0, 1, 10001))])
def test_werner_scan_edges_lie_on_the_closed_form(qs):
    assert_rows_lie_on_the_closed_form(qs)


def test_werner_scan_forms_no_conditional_state(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the scan formed a conditional state")

    for name in ("condition_on_controller", "avg_teleport_fidelity", "teleport_fidelity"):
        monkeypatch.setattr(channels, name, forbidden)
    assert len(werner_scan(np.linspace(0, 1, 101)).rows) == 101


def test_scan_rows_are_the_conditioned_averages_on_any_channel():
    """The twelve traces give what conditioning on the controller and the
    Bell overlaps give, on channels that are not Werner channels."""
    rng = np.random.default_rng(49)
    stack = np.array([random_density(rng, 8) for _ in range(40)]
                     + [make_ghz_mixture(p) for p in (0.0, 0.3, 1.0)])
    allowed, denied = channels._scan_rows(stack)
    for rho, got_allowed, got_denied in zip(stack, allowed, denied):
        want_allowed = avg_teleport_fidelity(condition_on_controller(rho, "pm"))
        state = condition_on_controller(rho, "hv", "H").state
        assert got_allowed == pytest.approx(want_allowed, abs=1e-14)
        assert got_denied == pytest.approx(teleport_fidelity(state, KET_D), abs=1e-14)


def test_werner_channels_keep_their_terms():
    # built from real products with one cast; the complex products give the same bytes
    qs = [*np.linspace(0, 1, 101), 1 / 3, 5e-324, 1e-320, 1 - 2**-53]
    want = [q * channels.ket_outer(channels.ghz_ket(1))
            + (1 - q) * np.eye(8, dtype=complex) / 8.0 for q in qs]
    assert channels._werner_channels(qs).tobytes() == np.array(want).tobytes()
