"""The ML kernel, the Monte-Carlo average and the Werner scan keep the bits
of the code they replaced.

``estimation._ml_kernel`` skips its mask when no probability is at most
1e-300, and its bookkeeping on the steps where every table takes the full
step and none stops; ``channels.mc_avg_teleport_fidelity`` runs the Bell branches and the Pauli fidelities of all its branches as one
stack; ``channels._werner_rows`` conditions on +, - and H in one pass, and
``channels._condition`` runs its terms with the channels innermost.  The
oracles in ``helpers`` are the code before these changes, copied verbatim;
every comparison here is of bytes or of ``float.hex``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqtsim import channels, estimation
from cqtsim.channels import (ConditionalChannel, _condition, _pauli_fidelities,
                             _teleport_branches, _werner_rows, condition_on_controller,
                             make_ghz_mixture, make_werner, mc_avg_teleport_fidelity,
                             werner_scan)
from cqtsim.estimation import ProjectionCounts, _ml_kernel, axial_counts, ml_reconstruct
from cqtsim.fock import parse_ket

from helpers import (AXIAL_INPUT_NAMES, _reference_condition,
                     reference_mc_avg_teleport_fidelity, reference_packed_ml_kernel,
                     reference_werner_rows)

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
    else:   # sparse: random projectors, half the counts zero, diluted steps
        projectors = random_projectors(rng, int(rng.integers(4, 9)))
        m = len(projectors)
        tables = rng.poisson(rng.uniform(0, 50, size=(n, m))
                             * (rng.random((n, m)) < 0.5)).astype(float)
    empty = tables.sum(axis=1) <= 0
    tables[empty, 0] = 1.0
    return projectors, tables


KINDS = ("poisson", "zeros", "below1", "pure", "vanishing", "sparse")


def assert_same_kernel_run(projectors, tables, tol, cap):
    rho, converged, iterations, trace = _ml_kernel(projectors, tables, tol, cap)
    want = reference_packed_ml_kernel(projectors, tables, tol, cap)
    assert rho.tobytes() == want[0].tobytes()
    assert np.array_equal(converged, want[1])
    assert np.array_equal(iterations, want[2])
    assert [v.hex() for v in trace] == [v.hex() for v in want[3]]
    return converged, iterations


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(KINDS),
       n=st.one_of(st.integers(1, 8), st.integers(1, 400)),
       seed=st.integers(0, 2**32 - 1),
       rule=st.sampled_from([(1e-10, 100_000), (1e-10, 3), (1e-6, 1), (0.0, 25),
                             (1e-10, 2), (1e-13, 300)]))
def test_kernel_keeps_the_bits_of_the_reference(kind, n, seed, rule):
    projectors, tables = stack_of(kind, np.random.default_rng(seed), n)
    assert_same_kernel_run(projectors, tables, *rule)


def test_kernel_corpus_reaches_every_path(monkeypatch):
    """A fixed corpus with and without zero counts that masks a vanishing
    probability at a count above 0, takes diluted steps, stops tables at
    different steps and runs out of its cap."""
    passes, mul2 = [0], estimation._mul2

    def counted(a, b):
        passes[0] += 1
        return mul2(a, b)

    monkeypatch.setattr(estimation, "_mul2", counted)
    seen = set()
    for seed, kind in enumerate(KINDS * 4):
        rng = np.random.default_rng([35, seed])
        n = (1, 2, 57, 400)[seed % 4]
        projectors, tables = stack_of(kind, rng, n)
        # tol 0 stops a table only where no step is accepted
        tol, cap = (0.0, 30) if seed % 9 == 4 else (1e-10, 4 if seed % 7 == 3 else 2000)
        passes[0] = 0
        converged, iterations = assert_same_kernel_run(projectors, tables, tol, cap)
        # two products per pass and one full pass per step of the longest table
        if passes[0] // 2 > iterations.max():
            # a vanishing probability at a count above 0 rejects the full step
            seen.add("vanishing" if kind == "vanishing" else "diluted")
        if len(set(iterations.tolist())) > 1:
            seen.add("different stops")
        if (iterations == cap).any() and not converged.all():
            seen.add("cap exhausted")
        seen.add("zero counts" if (tables == 0).any() else "no zero count")
    assert seen == {"diluted", "different stops", "cap exhausted", "zero counts",
                    "no zero count", "vanishing"}


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


@settings(max_examples=150, deadline=None)
@given(channel=mc_channels(), n_samples=st.integers(1, 400), seed=st.integers(0, 2**63 - 1))
def test_mc_average_keeps_the_bits_of_the_reference(channel, n_samples, seed):
    got = mc_avg_teleport_fidelity(channel, n_samples, seed)
    assert got.hex() == reference_mc_avg_teleport_fidelity(channel, n_samples, seed).hex()


@pytest.mark.parametrize("branches", [1, 2, 5])
def test_stacked_pauli_fidelities_are_each_branch_alone(branches):
    rng = np.random.default_rng(branches)
    states = np.array([random_density(rng, 4) for _ in range(branches)])
    psis = rng.normal(size=(150, 2)) + 1j * rng.normal(size=(150, 2))
    probs, teleported = _teleport_branches(states, psis)
    fids = _pauli_fidelities(psis, teleported)
    assert fids.shape == (branches, 150, 4, 4)
    for b in range(branches):
        alone_probs, alone = _teleport_branches(states[b], psis)
        assert probs[b].tobytes() == alone_probs.tobytes()
        alone_fids = _pauli_fidelities(psis, alone[None])[0]
        assert fids[b].tobytes() == alone_fids.tobytes()
        assert fids[b].strides == alone_fids.strides


# --- the Werner scan -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), rounded=st.booleans(),
       kets=st.lists(st.sampled_from(AXIAL_INPUT_NAMES), min_size=1, max_size=6))
def test_condition_keeps_the_bits_of_the_reference(n, seed, rounded, kets):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(n, 8, 8)) + 1j * rng.normal(size=(n, 8, 8))
    if rounded:
        # many zeros, and conditionals of probability 0
        stack = np.round(stack, 0) * (rng.random((n, 1, 1)) < 0.7)
    kets = [np.array(parse_ket(name, "ket")) for name in kets]
    kets.append(rng.normal(size=2) + 1j * rng.normal(size=2))
    probs, states = _condition(stack, kets)
    want_probs, want_states = _reference_condition(stack, kets)
    assert probs.tobytes() == want_probs.tobytes()
    assert states.tobytes() == want_states.tobytes()
    assert states.flags.c_contiguous


@settings(max_examples=150, deadline=None)
@given(qs=st.lists(st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0, 1 / 3, 0.5])),
                   min_size=1, max_size=60))
def test_werner_rows_keep_the_bits_of_the_reference(qs):
    allowed, denied = _werner_rows(qs)
    want_allowed, want_denied = reference_werner_rows(qs)
    assert allowed.tobytes() == want_allowed.tobytes()
    assert denied.tobytes() == want_denied.tobytes()
    rows = werner_scan(qs).rows
    assert rows == list(zip(qs, want_allowed.tolist(), want_denied.tolist()))


@pytest.mark.parametrize("qs", [[0.0], [1.0], [0.25], [0.5, 0.5, 0.5],
                                list(np.linspace(0, 1, 10001))])
def test_werner_scan_edges_keep_the_bits_of_the_reference(qs):
    allowed, denied = _werner_rows(qs)
    want = reference_werner_rows(qs)
    assert (allowed.tobytes(), denied.tobytes()) == (want[0].tobytes(), want[1].tobytes())


def test_werner_channels_keep_their_terms():
    qs = np.linspace(0, 1, 101)
    want = [q * channels.ket_outer(channels.ghz_ket(1))
            + (1 - q) * np.eye(8, dtype=complex) / 8.0 for q in qs]
    assert channels._werner_channels(qs).tobytes() == np.array(want).tobytes()
