"""The batched statistical and channel kernels against the scalar loops they replaced.

The oracles below are the per-resample Poisson loop, which fits each
resample with ``ml_reconstruct`` alone, the per-sample Monte-Carlo loop, the
kron/partial-trace teleportation and conditioning steps and the kron/einsum
singlet projection of ``conditional_teleport_output``, copied from the
implementation that ran one resample or one input ket at a time.  The
batched code runs the same arithmetic on whole stacks, so values must agree
to 1e-12; the channel values, which the library takes from one quadratic
form <v|rho|v> per Bell outcome, to 1e-14.  Each table of the ML kernel's stack must end as a kernel call on
that table alone ends, bit for bit, with the same flag and iteration count.

The ``rowwise_`` oracles are the conditioning, the Bell overlap and the
Bloch average as they were before ``werner_scan`` ran as one stack, copied
verbatim: one channel and one Bell ket at a time.  The library's one-channel
functions make the same einsum and BLAS calls, so these comparisons use
``==``, not a tolerance; the Bell overlap is checked through the average.  The average's oracle keeps the ``strategy`` argument the library
took before a receiver without the controller's outcome was asked about
through its channel: for ``"without_controller_info"`` the library gets
``helpers.outcome_averaged`` of the branches, the mixture the oracle forms.
Each row of ``werner_scan`` must equal ``werner_point`` at its q, bit for bit.

``float_count_pair`` is the count-pair resampling as it was before its
totals became integer sums, copied verbatim without the background branch
that left ``poisson_uncertainty``; the draws and every division are the
same, so that comparison uses ``==`` too.

``eigendecomposed_correction`` is the background subtraction done on the
matrices: subtract, diagonalise, clip negative eigenvalues to 0 and
renormalise.  The subtraction on the Bloch vector must give the same warnings
and errors, the same lowest eigenvalue to 1e-12 and every entry to
1e-14 / (1 - w).  Each matrix of a stack must end as it does alone, bit for
bit.
"""

import warnings

import numpy as np
import pytest

from cqtsim import estimation
from cqtsim.channels import (PAULI_I, PAULIS, STANDARD_CORRECTIONS, ConditionalChannel,
                             _sender_kets, avg_teleport_fidelity, bell_kets,
                             condition_on_controller, conditional_teleport_output,
                             ghz_ket, ket_outer,
                             make_ghz_mixture, make_werner, mc_avg_teleport_fidelity,
                             partial_trace, teleport_fidelity,
                             werner_point, werner_scan)
from cqtsim.estimation import (NonPhysicalError, ProjectionCounts, _ml_kernel, axial_counts,
                               correct_for_background, ml_reconstruct, poisson_uncertainty,
                               resampled_tomography)
from cqtsim.fock import (KET_A, KET_D, KET_H, KET_L, KET_R, KET_V, basis_pairs,
                         fidelity)

from helpers import AXIAL_INPUT_NAMES as AXIAL
from helpers import outcome_averaged


# --- scalar oracles: estimation ---------------------------------------------------

def scalar_poisson_tomography(data, seed, n_resamples, background_w, target):
    rng = np.random.default_rng(seed)
    target = np.asarray(target, dtype=complex).ravel()
    means = data.counts()
    values = []
    for _ in range(n_resamples):
        resampled = rng.poisson(means).astype(float)
        if resampled.sum() == 0:
            continue
        rho = ml_reconstruct(ProjectionCounts(
            [(k, c) for (k, _), c in zip(data.settings, resampled)])).rho
        if background_w:
            rho = correct_for_background(rho, background_w)
        values.append(min(max(fidelity(rho, target), 0.0), 1.0))
    values = np.array(values)
    return float(np.mean(values)), float(np.std(values))


# --- scalar oracles: channels -----------------------------------------------------

def scalar_teleport_branches(channel, psi):
    rho_tot = np.kron(ket_outer(psi), np.asarray(channel, dtype=complex))
    for label, bket in bell_kets().items():
        proj = np.kron(ket_outer(bket), PAULI_I)
        sub = partial_trace(proj @ rho_tot @ proj, [2, 2, 2], [2])
        prob = float(np.real(np.trace(sub)))
        yield label, prob, (sub / prob if prob > 1e-14 else sub)


def scalar_teleport_fidelity(channel, psi):
    total = 0.0
    for label, prob, state in scalar_teleport_branches(channel, psi):
        c = STANDARD_CORRECTIONS[label]
        total += prob * float(np.real(psi.conj() @ c @ state @ c.conj().T @ psi))
    return total


def random_qubit_ket(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def scalar_mc_avg_teleport_fidelity(channel, n_samples, seed,
                                    strategy="with_feedforward"):
    if isinstance(channel, np.ndarray):
        branches = [ConditionalChannel("", 1.0, channel)]
    else:
        branches = list(channel)
    rng = np.random.default_rng(seed)
    psis = [random_qubit_ket(rng) for _ in range(n_samples)]
    total_p = sum(b.probability for b in branches)
    if strategy == "without_controller_info":
        mixed = sum(b.probability * b.state for b in branches) / total_p
        branches = [ConditionalChannel("", 1.0, mixed)]
        total_p = 1.0
    grand = 0.0
    for b in branches:
        acc = {}
        for psi in psis:
            for label, prob, state in scalar_teleport_branches(b.state, psi):
                for name, pauli in PAULIS.items():
                    val = prob * float(np.real(
                        psi.conj() @ pauli @ state @ pauli.conj().T @ psi))
                    acc.setdefault(label, {}).setdefault(name, 0.0)
                    acc[label][name] += val
        best = sum(max(vals.values()) for vals in acc.values()) / n_samples
        grand += b.probability * best
    return grand / total_p


def scalar_conditional_teleport_output(channel, input_ket, controller_basis,
                                       controller_outcome):
    cond = condition_on_controller(channel, controller_basis, outcome=controller_outcome)
    input_ket = np.asarray(input_ket, dtype=complex).ravel()
    rho_tot = np.kron(np.asarray(cond.state, dtype=complex), ket_outer(input_ket))
    # ordering (qubit1, qubit2, input); the singlet lives on (qubit1, input)
    s = bell_kets()["psi-"].reshape(2, 2)
    t = rho_tot.reshape(2, 2, 2, 2, 2, 2)
    rho2 = np.einsum("ac,abcdef,df->be", s.conj(), t, s)
    branch_prob = float(np.real(np.trace(rho2)))
    if branch_prob < 1e-14:
        raise ValueError("singlet projection never succeeds for this branch")
    return rho2 / branch_prob, cond.probability * branch_prob


def scalar_condition(channel, ket):
    proj = np.kron(np.kron(PAULI_I, PAULI_I), ket_outer(ket))
    sub = partial_trace(proj @ channel @ proj.conj().T, [2, 2, 2], [0, 1])
    return float(np.real(np.trace(sub))), sub


# --- row-by-row oracles: channels -------------------------------------------------

def rowwise_make_werner(q: float) -> np.ndarray:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    return q * ket_outer(ghz_ket(1)) + (1 - q) * np.eye(8, dtype=complex) / 8.0


def rowwise_condition_on_controller(channel: np.ndarray, basis="pm", outcome=None):
    rho = np.asarray(channel, dtype=complex).reshape((2,) * 6)
    results = []
    for ket, label in basis_pairs(basis):
        if outcome is not None and label != outcome:
            continue
        sub = np.einsum("c,abcdef,f->abde", ket.conj(), rho, ket).reshape(4, 4)
        prob = float(np.real(np.trace(sub)))
        if prob < 1e-14:
            if outcome is not None:
                raise ValueError(f"controller outcome {label!r} has zero probability")
            results.append(ConditionalChannel(label, prob, np.zeros((4, 4), dtype=complex)))
            continue
        results.append(ConditionalChannel(label, prob, sub / prob))
    if outcome is not None:
        return results[0]
    return results


def rowwise_fully_entangled_fraction(rho: np.ndarray) -> float:
    rho = np.asarray(rho, dtype=complex)
    return max(float(np.real(b.conj() @ rho @ b)) for b in bell_kets().values())


def rowwise_branches(channel, strategy: str):
    if isinstance(channel, np.ndarray):
        branches = [ConditionalChannel("", 1.0, channel)]
    else:
        branches = list(channel)
    total_p = sum(b.probability for b in branches)
    if strategy == "with_feedforward":
        return branches, total_p
    if strategy == "without_controller_info":
        mixed = sum(b.probability * b.state for b in branches) / total_p
        return [ConditionalChannel("", 1.0, mixed)], 1.0
    raise ValueError(f"unknown strategy {strategy!r}")


def rowwise_avg_teleport_fidelity(channel, strategy: str = "with_feedforward") -> float:
    branches, total_p = rowwise_branches(channel, strategy)
    return sum(
        b.probability * (2 * rowwise_fully_entangled_fraction(b.state) + 1) / 3.0
        for b in branches) / total_p


# --- fixtures -----------------------------------------------------------------------

def seeded_tables(seed, n, exposure):
    """Axial count tables around random states, some with a zero entry."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(n):
        bloch = rng.normal(size=3)
        bloch *= rng.uniform(0.05, 0.98) / np.linalg.norm(bloch)
        means = exposure * np.repeat(0.5, 6) * (1 + np.array(
            [bloch[2], -bloch[2], bloch[0], -bloch[0], bloch[1], -bloch[1]]))
        table = rng.poisson(means).astype(float)
        if i % 5 == 0:
            table[rng.integers(6)] = 0.0
        tables.append(table)
    return np.array(tables)


def axial_projectors():
    return np.array(axial_counts({name: 1.0 for name in AXIAL}).projectors())


def sparse_projector_tables(seed):
    """4 to 8 random projector kets and 1 to 3 tables over them, each count
    zero with probability 1/2: the estimates lie near the surface of the Bloch
    ball."""
    rng = np.random.default_rng([5, seed])
    m = int(rng.integers(4, 9))
    kets = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    n = int(rng.integers(1, 4))
    means = rng.uniform(0, 50, size=(n, m)) * (rng.random((n, m)) < 0.5)
    tables = rng.poisson(means).astype(float)
    return list(kets), tables[tables.sum(axis=1) > 0]


def sparse_stacks():
    for seed in range(60):
        kets, tables = sparse_projector_tables(seed)
        if tables.size:
            yield np.array(ProjectionCounts([(k, 1.0) for k in kets]).projectors()), tables


# --- estimation ---------------------------------------------------------------------

# test_cli_boundary's HUGE table with h at 1e100: its first Newton step ends
# on the sphere, and its second halves 19 times and stops it unconverged
# (ROADMAP direction 4); and tests/golden/zero.csv, which has a zero count
POLE_1E100 = [1e100, 300.0, 650.0, 350.0, 520.0, 480.0]
ZERO_COUNT = [600.0, 400.0, 0.0, 450.0, 520.0, 480.0]


def ml_corpus(name):
    """``(projectors, tables)`` stacks: seeded axial tables at three
    exposures, random projector sets with half their counts zero, 300
    tables as qubit_analysis resamples them (12,000-16,000 counts per axis
    around a Bloch vector of length 0.45), and those 300 with
    ``POLE_1E100`` and ``ZERO_COUNT``."""
    if name.startswith("seeded"):
        exposure = int(name.split()[1])
        yield axial_projectors(), seeded_tables(exposure, 40, exposure)
    elif name == "sparse":
        yield from sparse_stacks()
    elif name == "mixed":
        projectors, tables = next(ml_corpus("benchmark"))
        yield projectors, np.vstack([tables, POLE_1E100, ZERO_COUNT])
    else:
        rng = np.random.default_rng(14)
        bloch = rng.normal(size=3)
        bloch *= 0.45 / np.linalg.norm(bloch)
        totals = rng.integers(12000, 16000, size=3)
        means = np.repeat(totals / 2.0, 2) * (1 + np.array(
            [bloch[2], -bloch[2], bloch[0], -bloch[0], bloch[1], -bloch[1]]))
        yield axial_projectors(), rng.poisson(means, size=(300, 6)).astype(float)


@pytest.mark.parametrize("corpus", ["seeded 30", "seeded 400", "seeded 5000", "sparse",
                                    "benchmark", "mixed"])
def test_kernel_rows_match_one_table_calls(corpus, monkeypatch):
    # each pass evaluates the likelihood, which takes one log
    passes, log = [], np.log

    def counted(x, *args, **kwargs):
        passes.append(len(x))
        return log(x, *args, **kwargs)

    monkeypatch.setattr(estimation.np, "log", counted)
    for projectors, tables in ml_corpus(corpus):
        passes.clear()
        r, converged, iterations, trace = _ml_kernel(projectors, tables)
        if corpus == "mixed":
            # the pole table halves its second step, which the interior tables
            # take in full: those rows are gathered; it alone does not converge
            assert len(passes) > 1 + iterations.max()
            assert converged.sum() == len(tables) - 1 and not converged[-2]
        else:
            assert converged.all()
        for i, table in enumerate(tables):
            passes.clear()
            alone = _ml_kernel(projectors, table[None])
            assert r[i].tobytes() == alone[0][0].tobytes()
            assert (converged[i], iterations[i]) == (alone[1][0], alone[2][0])
            if i == 0:
                assert trace == alone[3]
            if corpus == "mixed" and i < 300:
                # alone, an interior table takes each step in full, as a slice
                assert passes == [1] * (1 + iterations[i])


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_kernel_respects_max_iterations_per_table(cap, monkeypatch):
    # a table that converges within the cap is not cut short, the others stop at it
    tables = seeded_tables(8, 12, 1000)
    _, full_converged, full_iterations, _ = _ml_kernel(axial_projectors(), tables)
    monkeypatch.setattr(estimation, "ML_MAX_ITERATIONS", cap)
    _, converged, iterations, _ = _ml_kernel(axial_projectors(), tables)
    assert np.array_equal(iterations, np.minimum(full_iterations, cap))
    assert np.array_equal(converged, full_converged & (full_iterations <= cap))


def test_ml_reconstruct_is_the_single_table_case():
    for table in seeded_tables(21, 10, 800):
        res = ml_reconstruct(axial_counts(dict(zip(AXIAL, table))))
        r, converged, iterations, trace = _ml_kernel(axial_projectors(), table[None])
        assert res.rho.tobytes() == estimation._bloch_rho(r[0]).tobytes()
        assert (res.converged, res.iterations) == (converged[0], iterations[0])
        assert res.log_likelihoods == trace
        assert all(isinstance(v, float) for v in res.log_likelihoods)
        assert all(b >= a for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("weight", [0.0, 0.25])
def test_poisson_tomography_matches_scalar_resampling(weight):
    counts = axial_counts({"h": 1200, "v": 800, "plus": 1500, "minus": 500,
                           "r": 1100, "l": 900})
    target = np.array([0.6, 0.8j])
    _, _, est = resampled_tomography(counts, target, seed=17, n_resamples=150,
                                     background_w=weight)
    mean, std = scalar_poisson_tomography(counts, 17, 150, weight, target)
    assert est.value == pytest.approx(mean, abs=1e-12)
    assert est.uncertainty == pytest.approx(std, abs=1e-12)


def test_poisson_tomography_with_empty_resamples_matches_scalar():
    # two counts in total: a sizeable share of the resamples is empty and
    # must be dropped by both implementations
    counts = ProjectionCounts([(KET_H, 0.5), (KET_V, 0.3), (KET_D, 0.4),
                               (KET_A, 0.2), (KET_R, 0.3), (KET_L, 0.3)])
    _, _, est = resampled_tomography(counts, KET_D, seed=3, n_resamples=200)
    mean, std = scalar_poisson_tomography(counts, 3, 200, 0.0, KET_D)
    assert est.value == pytest.approx(mean, abs=1e-12)
    assert est.uncertainty == pytest.approx(std, abs=1e-12)


def float_count_pair(data, seed, n_resamples):
    rng = np.random.default_rng(seed)
    f_par, f_perp = data
    draws = rng.poisson((f_par, f_perp), size=(n_resamples, 2)).astype(float)
    totals = draws.sum(axis=1)
    keep = totals > 0
    values = draws[keep, 0] / totals[keep]
    values = np.clip(values, 0.0, 1.0)
    return float(np.mean(values)), float(np.std(values))


@pytest.mark.parametrize("seed", [1, 7, 42, 2026])
@pytest.mark.parametrize("means", [(6000.0, 4000.0), (80.0, 20.0), (0.5, 0.3),
                                   (0.02, 0.01)])
def test_count_pair_resampling_is_bit_identical(means, seed):
    rng = np.random.default_rng(seed)
    empty = int((rng.poisson(means, size=(2000, 2)).sum(axis=1) == 0).sum())
    # the two small means leave empty resamples, so the masked branch runs
    assert (empty > 0) == (sum(means) < 1.0)
    est = poisson_uncertainty(means, seed=seed, n_resamples=2000)
    assert (est.value, est.uncertainty) == float_count_pair(means, seed, 2000)


def test_count_pair_resampling_with_every_resample_empty_raises():
    with pytest.raises(ValueError, match="every resample was empty"):
        poisson_uncertainty((1e-300, 1e-300), seed=1, n_resamples=200)


def test_background_correction_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(4)
    w = 0.4
    states = []
    for _ in range(30):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        states.append(0.5 * rho / np.trace(rho).real + 0.25 * np.eye(2))
    # one state whose subtraction goes slightly negative and is clipped
    states.append(np.diag([1 - 0.1999, 0.1999]).astype(complex))
    stack = np.array(states)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        single = np.array([correct_for_background(rho, w) for rho in stack])
    with pytest.warns(UserWarning):
        batched = correct_for_background(stack, w)
    assert np.array_equal(batched, single)


def test_background_correction_counts_severe_states():
    stack = np.array([np.diag([1.0, 0.0]), np.eye(2) / 2, np.diag([0.9, 0.1])],
                     dtype=complex)
    with pytest.raises(NonPhysicalError) as info:
        correct_for_background(stack, 0.5)
    assert (info.value.n_bad, info.value.n_states) == (2, 3)
    assert info.value.min_eigenvalue == pytest.approx(-0.5)
    assert "2 of 3 states" in str(info.value)


BOUNDARY_KINDS = ("pure", "near", "mixed", "margin", "edge")


def boundary_states(rng, kind, n, d, w):
    """n random d x d states of one kind: pure, within 1e-16 to 1e-6 of pure,
    mixed, or with the lowest eigenvalue after subtracting weight ``w``
    within 1e-7 of 0 ("margin", either sign) or of 1e-9 ("edge", from
    above)."""
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    u, _ = np.linalg.qr(a)
    top = np.zeros((n, d))
    top[:, -1] = 1.0
    if kind == "pure":
        spec = top
    elif kind == "near":
        eps = 10.0 ** rng.uniform(-16, -6, size=(n, 1))
        spec = (1 - eps) * top + eps / d
    elif kind == "mixed":
        spec = rng.dirichlet(np.ones(d), size=n)
    else:
        mu = 10.0 ** rng.uniform(-10.5, -7.5, size=n)
        if kind == "margin":
            mu *= rng.choice([-1, 0, 1], size=n) * 10.0 ** rng.uniform(-6, 0, size=n)
        low = w / d + (1 - w) * mu
        spec = np.empty((n, d))
        spec[:, 0] = low
        spec[:, 1:] = (1 - low)[:, None] * rng.dirichlet(np.ones(d - 1), size=n)
    return (u * spec[:, None, :]) @ u.conj().transpose(0, 2, 1)


def boundary_case(seed):
    """Stacks of 1, 2, 7 and 300 states of one kind or of mixed kinds, at
    w = 0, 1e-9, U(0, 0.2), U(0, 0.6) and 0.44; half the single states come
    as a bare matrix."""
    rng = np.random.default_rng([23, seed])
    w = [0.0, 1e-9, rng.uniform(0, 0.2), rng.uniform(0, 0.6), 0.44][seed % 5]
    n = (1, 2, 7, 300)[(seed // 5) % 4]
    kind = (BOUNDARY_KINDS + ("any",))[(seed // 20) % 6]
    if kind == "any":
        every = np.array([boundary_states(rng, k, n, 2, w) for k in BOUNDARY_KINDS])
        stack = every[rng.integers(len(BOUNDARY_KINDS), size=n), np.arange(n)]
    else:
        stack = boundary_states(rng, kind, n, 2, w)
    return (stack[0] if n == 1 and seed % 2 else stack), w


def eigendecomposed_correction(raw, w):
    """``(states, lowest)``: each matrix less w I/2, over 1 - w, with its
    negative eigenvalues clipped to 0 and renormalised, and its lowest
    eigenvalue before the clip."""
    vals, vecs = np.linalg.eigh((raw - w * np.eye(2) / 2) / (1.0 - w))
    out = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return out / np.trace(out, axis1=-2, axis2=-1).real[..., None, None], vals[..., 0]


def test_background_correction_matches_an_eigendecomposition():
    clipping = [(UserWarning, "background subtraction left slightly negative "
                              "eigenvalues; clipping to the physical cone")]
    seen = set()
    for seed in range(720):
        stack, w = boundary_case(seed)
        want, lowest = eigendecomposed_correction(stack, w)
        severe = lowest < -1e-3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = correct_for_background(stack, w)
            except NonPhysicalError as exc:
                assert (exc.n_bad, exc.n_states) == (np.sum(severe), lowest.size), seed
                assert exc.min_eigenvalue == pytest.approx(np.min(lowest), rel=0, abs=1e-12)
                seen.add("raised")
                continue
        assert not np.any(severe), seed
        warned = [(c.category, str(c.message)) for c in caught]
        assert warned == (clipping if np.any(lowest < -1e-9) else []), seed
        assert np.abs(got - want).max() <= 1e-14 / (1 - w), seed
        seen.add("warned" if warned else "ok")
    # the corpus reaches every outcome
    assert seen == {"ok", "warned", "raised"}


# --- channels -----------------------------------------------------------------------

def library_channel(conds, strategy):
    """What the library averages over for the oracles' ``strategy``: the
    branches with feed-forward, their outcome-averaged channel without it."""
    return conds if strategy == "with_feedforward" else outcome_averaged(conds)


CHANNELS = [make_werner(0.62), make_werner(0.2), make_ghz_mixture(0.0),
            make_ghz_mixture(0.3)]


@pytest.mark.parametrize("index", range(len(CHANNELS)))
@pytest.mark.parametrize("strategy", ["with_feedforward", "without_controller_info"])
def test_mc_matches_scalar_loop(index, strategy):
    conds = condition_on_controller(CHANNELS[index], "pm")
    got = mc_avg_teleport_fidelity(library_channel(conds, strategy), n_samples=120,
                                   seed=11 + index)
    want = scalar_mc_avg_teleport_fidelity(conds, 120, 11 + index, strategy)
    assert got == pytest.approx(want, abs=1e-14)


def test_mc_on_a_two_qubit_channel_matches_scalar_loop():
    rho = 0.7 * ket_outer(bell_kets()["psi-"]) + 0.3 * np.eye(4) / 4
    got = mc_avg_teleport_fidelity(rho, n_samples=200, seed=5)
    assert got == pytest.approx(scalar_mc_avg_teleport_fidelity(rho, 200, 5), abs=1e-14)


def random_density(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a @ a.conj().T / np.trace(a @ a.conj().T).real


@pytest.mark.parametrize("kind", ["random", "HH"])
def test_quadratic_form_is_probability_times_fidelity(kind):
    """<v|rho|v> with v = s_k (x) C^dag psi is the Bell branch's probability
    times the fidelity of its state corrected by C, for every Pauli C.  On
    |HH><HH| the psi+- branches of h and the phi+- branches of v have
    probability exactly 0, and so has their form."""
    rng = np.random.default_rng(38)
    if kind == "HH":
        cases = [(ket_outer(np.kron(KET_H, KET_H)), psi) for psi in (KET_H, KET_V, KET_D)]
    else:
        cases = [(random_density(rng, 4), random_qubit_ket(rng)) for _ in range(50)]
    zeros = 0
    for channel, psi in cases:
        s = _sender_kets(psi[None])[:, 0]
        for k, (_, prob, state) in enumerate(scalar_teleport_branches(channel, psi)):
            for c in PAULIS.values():
                v = np.kron(s[k], c.conj().T @ psi)
                form = (v.conj() @ channel @ v).real
                if prob == 0.0:
                    assert form == 0.0
                    zeros += 1
                else:
                    fid = np.real(psi.conj() @ c @ state @ c.conj().T @ psi)
                    assert form == pytest.approx(prob * fid, abs=1e-14)
    assert zeros == (16 if kind == "HH" else 0)


def test_condition_on_controller_matches_kron_projector():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    channels = [a @ a.conj().T / np.trace(a @ a.conj().T).real, ket_outer(ghz_ket(2))]
    for channel in channels:
        for basis, kets in (("pm", (KET_D, KET_A)), ("hv", (KET_H, KET_V)),
                            ("rl", (KET_R, KET_L))):
            for cond, ket in zip(condition_on_controller(channel, basis), kets):
                prob, sub = scalar_condition(channel, ket)
                assert cond.probability == pytest.approx(prob, abs=1e-14)
                if prob >= 1e-14:
                    assert np.max(np.abs(cond.state - sub / prob)) <= 1e-14


@pytest.mark.parametrize("index", range(len(CHANNELS)))
@pytest.mark.parametrize("basis", ["hv", "pm", "rl"])
def test_conditional_teleport_output_matches_kron_projection(index, basis):
    rng = np.random.default_rng(30 + index)
    for label in {"hv": "HV", "pm": "+-", "rl": "RL"}[basis]:
        for _ in range(5):
            psi = random_qubit_ket(rng)
            rho2, prob = conditional_teleport_output(CHANNELS[index], psi, basis, label)
            ref_rho2, ref_prob = scalar_conditional_teleport_output(
                CHANNELS[index], psi, basis, label)
            assert prob == pytest.approx(ref_prob, abs=1e-14)
            assert np.max(np.abs(rho2 - ref_rho2)) <= 1e-14


# --- the stacked Werner scan and the one-channel functions, bit for bit -------------

def assert_rows_equal_points(q_grid):
    rows = werner_scan(q_grid).rows
    assert len(rows) == len(q_grid)
    for (q, allowed, denied), q_in in zip(rows, q_grid):
        assert type(allowed) is float and type(denied) is float
        assert (q, allowed, denied) == (float(q_in), *werner_point(q_in))


def test_werner_scan_rows_equal_points_on_every_small_grid():
    for n in range(1, 202):
        assert_rows_equal_points(list(np.linspace(0.0, 1.0, n)))


def test_werner_scan_rows_equal_points_on_the_largest_grid():
    assert_rows_equal_points(list(np.linspace(0.0, 1.0, 10001)))


def test_werner_scan_rows_equal_points_on_random_weights():
    rng = np.random.default_rng(4097)
    grid = list(rng.uniform(0.0, 1.0, 4097)) + [0.0, 1.0, 1.0 / 3.0, 3.0 / 7.0]
    assert_rows_equal_points(grid)
    for q in grid[:50]:
        rho = rowwise_make_werner(q)
        assert make_werner(q).tobytes() == rho.tobytes()
        # the denied column against the kron/partial-trace steps
        prob, sub = scalar_condition(rho, KET_H)
        assert werner_point(q)[1] == pytest.approx(
            scalar_teleport_fidelity(sub / prob, KET_D), abs=1e-14)


@pytest.mark.parametrize("bad", [1.2, -0.1, float("nan")])
def test_werner_scan_names_the_first_bad_weight_like_rowwise(bad):
    grid = [0.5, bad, 2.0]
    with pytest.raises(ValueError) as want:
        [rowwise_make_werner(q) for q in grid]
    with pytest.raises(ValueError) as got:
        werner_scan(grid)
    assert str(got.value) == str(want.value) == f"q={bad} outside [0, 1]"


WEIGHTS = np.linspace(0.0, 1.0, 9)
STRATEGIES = ("with_feedforward", "without_controller_info")


@pytest.mark.parametrize("make", [make_ghz_mixture, make_werner], ids=["ghz", "werner"])
@pytest.mark.parametrize("basis", ["hv", "pm", "rl"])
def test_channel_functions_equal_rowwise(make, basis):
    psis = [KET_D, KET_H, np.array([0.6, 0.8j])]
    for weight in WEIGHTS:
        rho = make(weight)
        conds = condition_on_controller(rho, basis)
        want = rowwise_condition_on_controller(rho, basis)
        for cond, ref in zip(conds, want):
            assert (cond.outcome, cond.probability) == (ref.outcome, ref.probability)
            assert cond.state.tobytes() == ref.state.tobytes()
            for psi in psis:
                assert teleport_fidelity(cond.state, psi) == pytest.approx(
                    scalar_teleport_fidelity(ref.state, psi), abs=1e-14)
        for strategy in STRATEGIES:
            channel = library_channel(conds, strategy)
            assert (repr(avg_teleport_fidelity(channel))
                    == repr(rowwise_avg_teleport_fidelity(want, strategy)))


def test_channel_functions_equal_rowwise_on_random_channels():
    rng = np.random.default_rng(77)
    for _ in range(40):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        for basis in ("hv", "pm", "rl"):
            conds = condition_on_controller(rho, basis)
            want = rowwise_condition_on_controller(rho, basis)
            for cond, ref in zip(conds, want):
                assert cond.probability == ref.probability
                assert cond.state.tobytes() == ref.state.tobytes()
                psi = random_qubit_ket(rng)
                assert teleport_fidelity(cond.state, psi) == pytest.approx(
                    scalar_teleport_fidelity(ref.state, psi), abs=1e-14)
            for strategy in STRATEGIES:
                assert avg_teleport_fidelity(library_channel(conds, strategy)) == \
                    rowwise_avg_teleport_fidelity(want, strategy)
        two_qubit = rho[:4, :4] / np.trace(rho[:4, :4]).real
        assert avg_teleport_fidelity(two_qubit) == rowwise_avg_teleport_fidelity(two_qubit)
        assert mc_avg_teleport_fidelity(two_qubit, 40, 3) == pytest.approx(
            scalar_mc_avg_teleport_fidelity(two_qubit, 40, 3), abs=1e-14)
