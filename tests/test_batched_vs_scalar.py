"""The batched statistical and channel kernels against the scalar loops they replaced.

The oracles below are the per-resample Poisson loop, which fits each
resample with ``ml_reconstruct`` alone, the per-sample Monte-Carlo loop, the
kron/partial-trace teleportation and conditioning steps and the kron/einsum
singlet projection of ``conditional_teleport_output``, copied from the
implementation that ran one resample or one input ket at a time.  The
batched code runs the same arithmetic on whole stacks, so values must agree
to 1e-12.  Each table of the ML kernel's stack must end as a kernel call on
that table alone ends, bit for bit, with the same flag and iteration count.

The ``rowwise_`` oracles are the channel functions as they were before
``werner_scan`` ran as one stack, copied verbatim: one channel, one Bell ket
and one Werner row at a time.  The stacked kernels make the same BLAS calls
for every row, so these comparisons use ``==``, not a tolerance.  The
averages' oracles keep the ``strategy`` argument the library took before a
receiver without the controller's outcome was asked about through its
channel: for ``"without_controller_info"`` the library gets
``helpers.outcome_averaged`` of the branches, the mixture the oracles form.

``float_count_pair`` is the count-pair resampling as it was before its
totals became integer sums, copied verbatim; the draws and every division
are the same, so that comparison uses ``==`` too.

``einsum_teleport_branches`` and ``einsum_pauli_fidelities`` are the Bell
branches and the Monte-Carlo Pauli-frame fidelities as they were before their
sums over length-2 labels were unrolled, copied verbatim: each one summed
einsum.  The unrolled terms add the same einsum products in the same order,
so those comparisons are by bytes.

``helpers.reference_correct_for_background`` is the background subtraction
as it was before its closed-form screen, copied verbatim: it diagonalises
every matrix.  A stack the screen passes is returned as the reference returns
it, so bytes, warnings and errors must agree.
"""

import warnings

import numpy as np
import pytest

from cqtsim.channels import (_BELL, _BELL_LABELS, PAULI_I, PAULIS, STANDARD_CORRECTIONS,
                             ConditionalChannel, _pauli_fidelities, _teleport_branches,
                             avg_teleport_fidelity,
                             bell_kets, condition_on_controller, conditional_teleport_output,
                             _entangled_fractions, ghz_ket, ket_outer,
                             make_ghz_mixture, make_werner, mc_avg_teleport_fidelity,
                             partial_trace, teleport_fidelity,
                             werner_point, werner_scan)
from cqtsim.estimation import (NonPhysicalError, ProjectionCounts, _ml_kernel, axial_counts,
                               correct_for_background, ml_reconstruct, poisson_uncertainty,
                               resampled_tomography)
from cqtsim.fock import (KET_A, KET_D, KET_H, KET_L, KET_R, KET_V, basis_pairs,
                         fidelity)

from helpers import AXIAL_INPUT_NAMES as AXIAL
from helpers import outcome_averaged, reference_correct_for_background


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


def rowwise_teleport_branches(channel: np.ndarray, psis: np.ndarray):
    rho = np.asarray(channel, dtype=complex).reshape(2, 2, 2, 2)
    # <bell_k| on (input, qubit 1) applied to |psi> on the input
    u = np.einsum("kac,na->nkc", _BELL.conj(), psis)
    sub = np.einsum("nkc,cedf,nkd->nkef", u, rho, u.conj())
    probs = np.einsum("nkee->nk", sub).real
    states = sub / np.where(probs > 1e-14, probs, 1.0)[..., None, None]
    return probs, states


def rowwise_teleport_fidelity(channel: np.ndarray, psi: np.ndarray) -> float:
    psi = np.asarray(psi, dtype=complex).ravel()
    probs, states = rowwise_teleport_branches(channel, psi[None, :])
    total = 0.0
    for label, prob, state in zip(_BELL_LABELS, probs[0], states[0]):
        if prob < 1e-14:
            continue
        c = STANDARD_CORRECTIONS[label]
        # Python floats throughout: the CLI prints repr() of the result
        total += float(prob) * float(np.real(psi.conj() @ c @ state @ c.conj().T @ psi))
    return total


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


def rowwise_mc_avg_teleport_fidelity(channel, n_samples: int, seed: int,
                                     strategy: str = "with_feedforward") -> float:
    branches, total_p = rowwise_branches(channel, strategy)
    rng = np.random.default_rng(seed)
    # per sample: two real parts, then two imaginary parts
    draws = rng.normal(size=(n_samples, 2, 2))
    psis = draws[:, 0] + 1j * draws[:, 1]
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)

    paulis = np.array(list(PAULIS.values()))
    # P^dagger |psi> for every Pauli P: (n, pauli, 2)
    rotated = np.einsum("pji,nj->npi", paulis.conj(), psis)
    grand = 0.0
    for b in branches:
        probs, states = rowwise_teleport_branches(b.state, psis)
        fids = np.einsum("npi,nkij,npj->nkp", rotated.conj(), states, rotated).real
        # summed over samples per (outcome, Pauli); then the best Pauli per outcome
        acc = np.einsum("nk,nkp->kp", probs, fids)
        best = float(acc.max(axis=1).sum()) / n_samples
        grand += b.probability * best
    return grand / total_p


def rowwise_werner_point(q: float) -> tuple:
    rho = rowwise_make_werner(q)
    allowed = rowwise_avg_teleport_fidelity(rowwise_condition_on_controller(rho, "pm"),
                                            "with_feedforward")
    denied_channel = rowwise_condition_on_controller(rho, "hv", outcome="H").state
    denied = rowwise_teleport_fidelity(denied_channel, KET_D)
    return allowed, denied


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

def ml_corpus(name):
    """``(projectors, tables)`` stacks: seeded axial tables at three
    exposures, random projector sets with half their counts zero, and 300
    tables as qubit_analysis resamples them (12,000-16,000 counts per axis
    around a Bloch vector of length 0.45)."""
    if name.startswith("seeded"):
        exposure = int(name.split()[1])
        yield axial_projectors(), seeded_tables(exposure, 40, exposure)
    elif name == "sparse":
        yield from sparse_stacks()
    else:
        rng = np.random.default_rng(14)
        bloch = rng.normal(size=3)
        bloch *= 0.45 / np.linalg.norm(bloch)
        totals = rng.integers(12000, 16000, size=3)
        means = np.repeat(totals / 2.0, 2) * (1 + np.array(
            [bloch[2], -bloch[2], bloch[0], -bloch[0], bloch[1], -bloch[1]]))
        yield axial_projectors(), rng.poisson(means, size=(300, 6)).astype(float)


@pytest.mark.parametrize("corpus", ["seeded 30", "seeded 400", "seeded 5000", "sparse",
                                    "benchmark"])
def test_kernel_rows_match_one_table_calls(corpus):
    for projectors, tables in ml_corpus(corpus):
        rho, converged, iterations, trace = _ml_kernel(projectors, tables, 1e-10, 100_000)
        assert converged.all()
        for i, table in enumerate(tables):
            alone = _ml_kernel(projectors, table[None], 1e-10, 100_000)
            assert rho[i].tobytes() == alone[0][0].tobytes()
            assert (converged[i], iterations[i]) == (alone[1][0], alone[2][0])
            if i == 0:
                assert trace == alone[3]


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_kernel_respects_max_iterations_per_table(cap):
    # a table that converges within the cap is not cut short, the others stop at it
    tables = seeded_tables(8, 12, 1000)
    _, converged, iterations, _ = _ml_kernel(axial_projectors(), tables, 1e-10, cap)
    _, full_converged, full_iterations, _ = _ml_kernel(axial_projectors(), tables, 1e-10,
                                                       100_000)
    assert np.array_equal(iterations, np.minimum(full_iterations, cap))
    assert np.array_equal(converged, full_converged & (full_iterations <= cap))


def test_ml_reconstruct_is_the_single_table_case():
    for table in seeded_tables(21, 10, 800):
        res = ml_reconstruct(axial_counts(dict(zip(AXIAL, table))))
        rho, converged, iterations, trace = _ml_kernel(axial_projectors(), table[None], 1e-10,
                                                       100_000)
        assert res.rho.tobytes() == rho[0].tobytes()
        assert (res.converged, res.iterations) == (converged[0], iterations[0])
        assert res.log_likelihoods == trace
        assert all(isinstance(v, float) for v in res.log_likelihoods)
        assert all(b >= a for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("weight", [0.0, 0.25])
def test_poisson_tomography_matches_scalar_resampling(weight):
    counts = axial_counts({"h": 1200, "v": 800, "plus": 1500, "minus": 500,
                           "r": 1100, "l": 900})
    target = np.array([0.6, 0.8j])
    _, est = resampled_tomography(counts, target, seed=17, n_resamples=150,
                                  background_w=weight)
    mean, std = scalar_poisson_tomography(counts, 17, 150, weight, target)
    assert est.value == pytest.approx(mean, abs=1e-12)
    assert est.uncertainty == pytest.approx(std, abs=1e-12)


def test_poisson_tomography_with_empty_resamples_matches_scalar():
    # two counts in total: a sizeable share of the resamples is empty and
    # must be dropped by both implementations
    counts = ProjectionCounts([(KET_H, 0.5), (KET_V, 0.3), (KET_D, 0.4),
                               (KET_A, 0.2), (KET_R, 0.3), (KET_L, 0.3)])
    _, est = resampled_tomography(counts, KET_D, seed=3, n_resamples=200)
    mean, std = scalar_poisson_tomography(counts, 3, 200, 0.0, KET_D)
    assert est.value == pytest.approx(mean, abs=1e-12)
    assert est.uncertainty == pytest.approx(std, abs=1e-12)


def float_count_pair(data, seed, n_resamples, background_w=0.0):
    rng = np.random.default_rng(seed)
    f_par, f_perp = data
    draws = rng.poisson((f_par, f_perp), size=(n_resamples, 2)).astype(float)
    totals = draws.sum(axis=1)
    keep = totals > 0
    values = draws[keep, 0] / totals[keep]
    if background_w:
        values = (values - background_w / 2.0) / (1.0 - background_w)
    values = np.clip(values, 0.0, 1.0)
    return float(np.mean(values)), float(np.std(values))


@pytest.mark.parametrize("seed", [1, 7, 42, 2026])
@pytest.mark.parametrize("means", [(6000.0, 4000.0), (80.0, 20.0), (0.5, 0.3),
                                   (0.02, 0.01)])
@pytest.mark.parametrize("weight", [0.0, 0.2])
def test_count_pair_resampling_is_bit_identical(means, seed, weight):
    rng = np.random.default_rng(seed)
    empty = int((rng.poisson(means, size=(2000, 2)).sum(axis=1) == 0).sum())
    # the two small means leave empty resamples, so the masked branch runs
    assert (empty > 0) == (sum(means) < 1.0)
    est = poisson_uncertainty(means, seed=seed, n_resamples=2000, background_w=weight)
    assert (est.value, est.uncertainty) == float_count_pair(means, seed, 2000, weight)


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
    within 1e-7 of 0 ("margin", either sign) or of 1e-9 ("edge", the
    screen's margin, from above)."""
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
    w = 0, 1e-9, U(0, 0.2), U(0, 0.6) and 0.44; one case in 13 is 3 x 3, and
    half the single states come as a bare matrix."""
    rng = np.random.default_rng([23, seed])
    w = [0.0, 1e-9, rng.uniform(0, 0.2), rng.uniform(0, 0.6), 0.44][seed % 5]
    n = (1, 2, 7, 300)[(seed // 5) % 4]
    d = 3 if seed % 13 == 0 else 2
    kind = (BOUNDARY_KINDS + ("any",))[(seed // 20) % 6]
    if kind == "any":
        every = np.array([boundary_states(rng, k, n, d, w) for k in BOUNDARY_KINDS])
        stack = every[rng.integers(len(BOUNDARY_KINDS), size=n), np.arange(n)]
    else:
        stack = boundary_states(rng, kind, n, d, w)
    return (stack[0] if n == 1 and seed % 2 else stack), w


def correction_outcome(correct, stack, w):
    """The bytes or the NonPhysicalError fields, and every warning given."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = correct(stack, w).tobytes()
        except NonPhysicalError as exc:
            result = (exc.n_bad, exc.n_states, exc.min_eigenvalue)
    return result, [(c.category, str(c.message)) for c in caught]


def count_eigh_calls(monkeypatch):
    calls = [0]
    eigh = np.linalg.eigh

    def counted(a):
        calls[0] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_background_screen_is_bit_identical_to_the_reference(monkeypatch):
    calls = count_eigh_calls(monkeypatch)
    n_cases, screened, seen = 720, 0, set()
    for seed in range(n_cases):
        stack, w = boundary_case(seed)
        ref = correction_outcome(reference_correct_for_background, stack, w)
        before = calls[0]
        assert correction_outcome(correct_for_background, stack, w) == ref, seed
        screened += calls[0] == before
        seen.add("raised" if isinstance(ref[0], tuple) else ("warned" if ref[1] else "ok"))
    # the corpus takes both paths and reaches every outcome
    assert 0 < screened < n_cases
    assert seen == {"ok", "warned", "raised"}


@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e150, 1e300])
def test_background_screen_matches_the_reference_at_extreme_scales(scale):
    # squares of entries near 1e-200 underflow and near 1e300 overflow; at
    # w = 0 the subtraction keeps the scale
    rng = np.random.default_rng(31)
    stacks = [boundary_states(rng, kind, 7, 2, 0.0) for kind in BOUNDARY_KINDS]
    stacks.append(np.array([[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]]))
    for stack in stacks:
        for rows in (stack, stack[1:2]):
            assert (correction_outcome(correct_for_background, scale * rows, 0.0)
                    == correction_outcome(reference_correct_for_background,
                                          scale * rows, 0.0))


def test_background_screen_diagonalises_only_near_the_boundary(monkeypatch):
    calls = count_eigh_calls(monkeypatch)
    rng = np.random.default_rng(8)
    bloch = rng.normal(size=(300, 3))
    bloch *= rng.uniform(0.1, 0.6, size=(300, 1)) / np.linalg.norm(bloch, axis=1)[:, None]
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    stack = 0.5 * (np.eye(2) + np.einsum("nk,kij->nij", bloch, paulis))
    correct_for_background(stack, 0.2)
    correct_for_background(stack[0], 0.2)
    assert calls[0] == 0
    # one state that the subtraction takes to the boundary: 0.1 - w / 2 = 0
    stack[17] = np.diag([0.9, 0.1])
    out = correct_for_background(stack, 0.2)
    assert calls[0] == 1
    assert out.tobytes() == reference_correct_for_background(stack, 0.2).tobytes()


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
    assert got == pytest.approx(want, abs=1e-12)


def test_mc_on_a_two_qubit_channel_matches_scalar_loop():
    rho = 0.7 * ket_outer(bell_kets()["psi-"]) + 0.3 * np.eye(4) / 4
    got = mc_avg_teleport_fidelity(rho, n_samples=200, seed=5)
    assert got == pytest.approx(scalar_mc_avg_teleport_fidelity(rho, 200, 5), abs=1e-12)


def einsum_teleport_branches(channel: np.ndarray, psis: np.ndarray):
    channel = np.asarray(channel, dtype=complex)
    rho = channel.reshape(channel.shape[:-2] + (2, 2, 2, 2))
    # <bell_k| on (input, qubit 1) applied to |psi> on the input
    u = np.einsum("kac,na->nkc", _BELL.conj(), psis)
    sub = np.einsum("nkc,...cedf,nkd->...nkef", u, rho, u.conj())
    probs = np.einsum("...nkee->...nk", sub).real
    states = sub / np.where(probs > 1e-14, probs, 1.0)[..., None, None]
    return probs, states


def einsum_pauli_fidelities(psis: np.ndarray, states: np.ndarray) -> np.ndarray:
    paulis = np.array(list(PAULIS.values()))
    # P^dagger |psi> for every Pauli P: (n, pauli, 2)
    rotated = np.einsum("pji,nj->npi", paulis.conj(), psis)
    return np.einsum("npi,nkij,npj->nkp", rotated.conj(), states, rotated).real


def contraction_cases():
    """Channels (single and stacks of 1, 7 and 71) and 1-64, 150 and 257
    inputs, drawn at random and rounded to one decimal (many zeros)."""
    rng = np.random.default_rng(26)
    for rounded in (False, True):
        for stack in ((), (1,), (7,), (71,)):
            for n in [*range(1, 65), 150, 257]:
                channel = (rng.normal(size=stack + (4, 4))
                           + 1j * rng.normal(size=stack + (4, 4)))
                psis = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
                if rounded:
                    channel, psis = np.round(channel, 1), np.round(psis, 1)
                yield channel, psis


def layout(a: np.ndarray) -> tuple:
    # the strides of the axes longer than 1, which are the ones numpy uses
    return tuple(st for st, size in zip(a.strides, a.shape) if size > 1)


def test_branch_contraction_keeps_the_bytes_of_einsum():
    cases = 0
    for channel, psis in contraction_cases():
        probs, states = _teleport_branches(channel, psis)
        want_probs, want_states = einsum_teleport_branches(channel, psis)
        assert probs.tobytes() == want_probs.tobytes()
        assert layout(probs) == layout(want_probs)
        assert states.tobytes() == want_states.tobytes()
        assert states.flags.c_contiguous
        cases += 1
    assert cases == 528


def test_pauli_fidelity_contraction_keeps_the_bytes_of_einsum():
    for channel, psis in contraction_cases():
        if channel.ndim == 2:
            _, states = einsum_teleport_branches(channel, psis)
            got = _pauli_fidelities(psis, states[None])[0]
            want = einsum_pauli_fidelities(psis, states)
            assert got.tobytes() == want.tobytes()
            assert layout(got) == layout(want)


def test_teleport_branches_match_kron_projection():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    channel = a @ a.conj().T
    channel /= np.trace(channel).real
    psis = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    probs, states = _teleport_branches(channel, psis)
    assert probs.shape == (6, 4) and states.shape == (6, 4, 2, 2)
    for n, psi in enumerate(psis):
        for k, (_, prob, state) in enumerate(scalar_teleport_branches(channel, psi)):
            assert probs[n, k] == pytest.approx(prob, abs=1e-14)
            assert np.max(np.abs(states[n, k] - state)) <= 1e-12


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
                    assert np.max(np.abs(cond.state - sub / prob)) <= 1e-12


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
            assert prob == pytest.approx(ref_prob, abs=1e-12)
            assert np.max(np.abs(rho2 - ref_rho2)) <= 1e-12


# --- the stacked Werner scan and the n = 1 kernels, bit for bit ----------------------

def assert_rows_equal_rowwise(q_grid):
    rows = werner_scan(q_grid).rows
    assert len(rows) == len(q_grid)
    for (q, allowed, denied), q_in in zip(rows, q_grid):
        assert type(allowed) is float and type(denied) is float
        assert (q, allowed, denied) == (float(q_in), *rowwise_werner_point(q_in))


def test_werner_scan_rows_equal_rowwise_points_on_every_small_grid():
    for n in range(1, 202):
        assert_rows_equal_rowwise(list(np.linspace(0.0, 1.0, n)))


def test_werner_scan_rows_equal_rowwise_points_on_the_largest_grid():
    assert_rows_equal_rowwise(list(np.linspace(0.0, 1.0, 10001)))


def test_werner_scan_rows_equal_rowwise_points_on_random_weights():
    rng = np.random.default_rng(4097)
    grid = list(rng.uniform(0.0, 1.0, 4097)) + [0.0, 1.0, 1.0 / 3.0, 3.0 / 7.0]
    assert_rows_equal_rowwise(grid)
    for q in grid[:50]:
        assert werner_point(q) == rowwise_werner_point(q)
        assert make_werner(q).tobytes() == rowwise_make_werner(q).tobytes()


@pytest.mark.parametrize("bad", [1.2, -0.1, float("nan")])
def test_werner_scan_names_the_first_bad_weight_like_rowwise(bad):
    grid = [0.5, bad, 2.0]
    with pytest.raises(ValueError) as want:
        [rowwise_werner_point(q) for q in grid]
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
            assert (repr(float(_entangled_fractions(cond.state[None])[0]))
                    == repr(rowwise_fully_entangled_fraction(ref.state)))
            for psi in psis:
                assert (repr(teleport_fidelity(cond.state, psi))
                        == repr(rowwise_teleport_fidelity(ref.state, psi)))
        for strategy in STRATEGIES:
            channel = library_channel(conds, strategy)
            assert (repr(avg_teleport_fidelity(channel))
                    == repr(rowwise_avg_teleport_fidelity(want, strategy)))
            assert (repr(mc_avg_teleport_fidelity(channel, 150, 11))
                    == repr(rowwise_mc_avg_teleport_fidelity(want, 150, 11, strategy)))


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
                assert teleport_fidelity(cond.state, psi) == rowwise_teleport_fidelity(
                    ref.state, psi)
            for strategy in STRATEGIES:
                assert avg_teleport_fidelity(library_channel(conds, strategy)) == \
                    rowwise_avg_teleport_fidelity(want, strategy)
        two_qubit = rho[:4, :4] / np.trace(rho[:4, :4]).real
        assert avg_teleport_fidelity(two_qubit) == rowwise_avg_teleport_fidelity(two_qubit)
        assert mc_avg_teleport_fidelity(two_qubit, 40, 3) == \
            rowwise_mc_avg_teleport_fidelity(two_qubit, 40, 3)
