"""Builders and checks that only the tests use, kept out of the package.

Each was a function of ``cqtsim`` with no caller in the package, its README
or its benchmark; the tests use them as references and as builders of small
states, unchanged.  ``substitution_map`` and ``apply_map`` are the sparse
element and ``elements.apply`` as they were before ``apply`` took the
``(spatials, matrix)`` block itself, copied verbatim on a plain dict
mode -> {mode: amplitude}: the bit-for-bit oracle of ``apply``.
``compose`` chains such maps: the tests use it as the oracle of
``protocol``'s optics matrix and of ``protocol.prepare_ghz``.
``reference_mc_avg_teleport_fidelity`` and ``reference_werner_rows`` are
``channels.mc_avg_teleport_fidelity`` and ``channels._werner_rows`` as they
were before the Monte-Carlo average took every branch in one stack, the
scan conditioned on +, - and H in one pass and ``_condition`` ran its terms
with the channels innermost, copied verbatim with the private
helpers this change touched (``_teleport_branches``, ``_pauli_fidelities``,
``_frame_fidelities``, ``_condition``, ``_werner_channels``) under a
``_reference_`` prefix: their bit-for-bit oracles.
``reference_poisson_uncertainty`` is ``estimation.poisson_uncertainty`` as it
was before it took the mean and spread in two passes and clipped only after
the background subtraction, copied verbatim with ``np.clip``, ``np.mean`` and
``np.std``: its bit-for-bit oracle.
``reference_correct_for_background`` is ``estimation.correct_for_background``
as it was before it screened 2x2 states in closed form, copied verbatim: it
diagonalises every matrix.
``reference_undesired_shares`` and ``reference_fit_source_ratio`` are
``spdc._undesired_shares`` and ``spdc.fit_source_ratio`` as they were before
the zoom kept its bracket in Python floats and the shares skipped the
operations that cannot change a bit, copied verbatim with
``reference_sector_shares`` for the fit's achieved shares: the bit-for-bit
oracle of the fit.  ``reference_sector_shares`` is ``spdc.sector_shares`` as
it was before it became the one-configuration case of ``spdc._share_terms``,
copied verbatim: the bit-for-bit oracle of the shares.
``reference_run_protocol`` is ``protocol.run_protocol`` as it was before the
rates and the receiver state were split over one private tally, copied
verbatim with the module's private names read off ``protocol`` at call time
(so a test's ``monkeypatch`` of them reaches it), and with its optics
matrix passed to ``_emitted`` as a stack of one: it tallies one configuration
alone, builds the receiver state with every run and decides that no sector
leaves the receiver one photon from the traces it adds up.
``ideal_source_state`` and ``two_mode_spdc`` look up ``emission_orders`` in
this module, so a test can swap in another emission engine with
``monkeypatch.setattr(helpers, "emission_orders", ...)``.
``outcome_averaged`` is the channel of a receiver without the controller's
outcome, in the expression the teleportation averages' docstring gives.
``chi_ket`` is the three-qubit ket that ``cqtsim.channels`` built for the
tests alone, moved here unchanged.
"""

import math
import numbers
import operator
import warnings
from typing import Callable, Iterable, Sequence

import numpy as np

from cqtsim import protocol
from cqtsim.channels import (_BELL, _BELL_LABELS, _PAULI_DAGGERS, PAULI_X, STANDARD_CORRECTIONS,
                             _branches, _feedforward_sums, _four_terms, ghz_ket,
                             ket_outer)
from cqtsim.elements import phase_matrix
from cqtsim.estimation import (FidelityEstimate, NonPhysicalError, _check_poisson_mean,
                               _check_resampling, corrected_fidelity)
from cqtsim.fock import KET_D, KET_H, H, V, PureState, _create, basis_pairs, spatial_counts
from cqtsim.spdc import (_GRID_POINTS, _ROOT_COST, BACKWARD_MODES, FORWARD_MODES,
                         RATIO_BOUNDS, REFERENCE_KAPPA, RatioFit, _local_minima,
                         emission_orders)

AXIAL_INPUT_NAMES = ("h", "v", "plus", "minus", "r", "l")


def chi_ket(sign: int) -> np.ndarray:
    """(|HH> + sign|VV>)/sqrt2 on qubits 1,2 times (sign|H> + |V>)/sqrt2 on qubit 3."""
    pair = np.zeros(4, dtype=complex)
    pair[0b00] = 1 / math.sqrt(2.0)
    pair[0b11] = sign / math.sqrt(2.0)
    third = np.array([sign, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.kron(pair, third)


def outcome_averaged(branches) -> np.ndarray:
    """The controller's branches mixed with their probabilities, sum p_b rho_b / sum p_b."""
    total = sum(b.probability for b in branches)
    return sum(b.probability * b.state for b in branches) / total


def single_photon(spatial: int, jones: np.ndarray) -> PureState:
    """One photon in the given spatial mode with polarization ket ``jones``."""
    jones = np.asarray(jones, dtype=complex)
    if jones.shape != (2,) or not jones.any():
        raise ValueError(f"jones must be a non-zero 2-vector, got {jones.tolist()!r}")
    return PureState({(((spatial, H), 1),): jones[0], (((spatial, V), 1),): jones[1]})


def validate_density(rho: np.ndarray, herm_tol: float = 1e-12,
                     trace_tol: float = 1e-12, eig_tol: float = 1e-10) -> None:
    """Raise unless ``rho`` is a Hermitian, unit-trace, PSD matrix (up to slack)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density operator must be square")
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError("density operator trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -eig_tol:
        raise ValueError("density operator has a significantly negative eigenvalue")


def ideal_source_state() -> PureState:
    """One photon per mode: entangled forward pair, H-polarized backward pair."""
    fwd = emission_orders("phi_plus", 1, FORWARD_MODES)[1]
    bwd = emission_orders("hh", 1, BACKWARD_MODES)[1]
    return PureState({occ_f + occ_b: amp_f * amp_b for occ_f, amp_f in fwd.items()
                      for occ_b, amp_b in bwd.items()})


def two_mode_spdc(kappa: complex, truncation_order: int = 2,
                  pair: str = "hh", modes: tuple = (1, 2)) -> PureState:
    """Normalized two-mode emission: vacuum + kappa|11> + kappa^2|22> + ..."""
    if truncation_order < 1:
        raise ValueError("truncation_order must be >= 1")
    kappa = complex(kappa)
    levels = emission_orders(pair, truncation_order, modes)
    terms: dict = {}
    for n, level in enumerate(levels):
        for occ, amp in level.items():
            terms[occ] = terms.get(occ, 0.0j) + (kappa ** n) * amp
    return PureState(terms).normalized()


def substitution_map(spatials, matrix) -> dict:
    """The map mode -> {mode: amplitude} of the block ``(spatials, matrix)``:
    column q of ``matrix`` is the image of mode q of (s1, H), (s1, V), ...,
    exact zeros dropped, modes and amplitudes normalised."""
    modes = [(s, p) for s in spatials for p in (H, V)]
    matrix = np.asarray(matrix, dtype=complex)
    mapping = {m: {k: u for k, u in zip(modes, matrix[:, q]) if u != 0}
               for q, m in enumerate(modes)}
    return {(operator.index(m[0]), m[1]): {(operator.index(k[0]), k[1]): complex(u)
                                           for k, u in outs.items()}
            for m, outs in mapping.items()}


def apply_map(mapping: dict, state: PureState) -> PureState:
    """Apply a substitution map to a state, one photon at a time."""
    sub = mapping
    out: dict = {}
    for occ, amp in state.terms.items():
        affected = [(m, n) for m, n in occ if m in sub]
        for _, n in affected:
            amp /= math.sqrt(math.factorial(n))
        ket = {tuple(mn for mn in occ if mn[0] not in sub): amp}
        for m, n in affected:
            for _ in range(n):
                ket = _create(ket, sub[m].items())
        for key, a in ket.items():
            out[key] = out.get(key, 0.0j) + a
    return PureState(out)


def compose(maps: Sequence[dict]) -> dict:
    """One substitution map equal to applying ``maps`` in order.

    Exact zeros are dropped: a mode that every path absorbs maps to nothing.
    """
    mapping: dict = {}
    for el in maps:
        for m, outs in mapping.items():
            chained: dict = {}
            for k, u in outs.items():
                for j, w in el.get(k, {k: 1.0}).items():
                    chained[j] = chained.get(j, 0.0j) + u * w
            mapping[m] = chained
        for m, outs in el.items():
            mapping.setdefault(m, dict(outs))
    return {m: {k: complex(u) for k, u in outs.items() if u != 0}
            for m, outs in mapping.items()}


def block_maps(blocks) -> list:
    """The ``(spatials, matrix)`` blocks as substitution maps, in the same order."""
    return [substitution_map(spatials, matrix) for spatials, matrix in blocks]


def assert_same_bits(got: PureState, want: PureState) -> None:
    """The same keys with the same amplitudes, sign of zero included, in the
    same order."""
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


def clicks_at(spatials: Iterable[int]) -> Callable[[tuple], bool]:
    """Predicate: every listed spatial mode holds at least one photon (threshold click)."""
    spatials = tuple(spatials)

    def pred(occ: tuple) -> bool:
        counts = spatial_counts(occ)
        return all(counts.get(s, 0) >= 1 for s in spatials)

    return pred


def phase_on(phi: float, pol: str) -> np.ndarray:
    """A phase plate that multiplies the ``pol`` component by exp(i*phi):
    ``phase_matrix`` for V, the same plate with H and V swapped for H."""
    return phase_matrix(phi) if pol == V else phase_matrix(phi)[::-1, ::-1]


def reference_poisson_uncertainty(data, seed: int, n_resamples: int = 10_000,
                                  background_w: float = 0.0) -> FidelityEstimate:
    _check_resampling(seed, n_resamples)
    try:
        f_par, f_perp = data
        valid = 0 <= f_par < math.inf and 0 <= f_perp < math.inf
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"data must be a (parallel, orthogonal) pair of finite "
                         f"non-negative counts, got {data!r}")
    if f_par + f_perp <= 0:
        raise ValueError("all counts are zero")
    _check_poisson_mean(max(f_par, f_perp))
    draws = np.random.default_rng(seed).poisson((f_par, f_perp), size=(n_resamples, 2))
    # exact integer totals; only a run with empty resamples needs a mask
    totals = draws[:, 0] + draws[:, 1]
    if totals.all():
        values = draws[:, 0] / totals
    else:
        keep = totals > 0
        values = draws[keep, 0] / totals[keep]
    if background_w:
        values = corrected_fidelity(values, background_w)
    values = np.clip(values, 0.0, 1.0)
    if values.size == 0:
        raise ValueError("every resample was empty")
    return FidelityEstimate(value=float(np.mean(values)),
                            uncertainty=float(np.std(values)))


def reference_correct_for_background(raw: np.ndarray, w: float) -> np.ndarray:
    """Subtract a maximally mixed admixture of weight ``w`` and renormalize.

    ``raw`` is one density matrix or a stack of them, shape (..., d, d).
    Noisy inputs can push the difference slightly outside the physical cone:
    small negative eigenvalues are clipped to zero (with a warning) in the
    matrices that have them; an eigenvalue below -1e-3 in any matrix raises
    NonPhysicalError, which counts the matrices that have one.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError("background weight must lie in [0, 1)")
    raw = np.asarray(raw, dtype=complex)
    dim = raw.shape[-1]
    out = (raw - w * np.eye(dim) / dim) / (1.0 - w)
    out = 0.5 * (out + np.swapaxes(out.conj(), -1, -2))
    eigvals, eigvecs = np.linalg.eigh(out)
    lowest = eigvals[..., 0]
    severe = lowest < -1e-3
    if np.any(severe):
        raise NonPhysicalError(int(np.sum(severe)), lowest.size, float(np.min(lowest)))
    if np.any(lowest < -1e-9):
        warnings.warn("background subtraction left slightly negative "
                      "eigenvalues; clipping to the physical cone")
    clip = lowest < 0
    if np.any(clip):
        vals = np.clip(eigvals[clip], 0.0, None)
        vecs = eigvecs[clip]
        fixed = (vecs * vals[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
        fixed /= np.trace(fixed, axis1=-2, axis2=-1).real[..., None, None]
        out[clip] = fixed
    return out


def reference_sector_shares(rates: dict, kappa_forward: complex, kappa_backward: complex) -> dict:
    """Shares at scalar or array strengths: "jjkk" scales as |kappa_f|^2j |kappa_b|^2k."""
    for name, kappa in (("kappa_forward", kappa_forward), ("kappa_backward", kappa_backward)):
        # math's test takes a tenth of numpy's time on the scalars the fit passes
        if not (math.isfinite(kappa.real) and math.isfinite(kappa.imag)
                if isinstance(kappa, numbers.Number) else np.isfinite(kappa).all()):
            raise ValueError(f"{name} must be finite, got {kappa!r}")
    forward, backward = abs(kappa_forward / REFERENCE_KAPPA), abs(kappa_backward / REFERENCE_KAPPA)
    per_term = {label: rate * forward ** (2 * int(label[0])) * backward ** (2 * int(label[2]))
                for label, rate in rates.items()}
    total = sum(per_term.values())
    if not np.all(total > 0.0):
        raise ValueError("no emission term produces a four-fold coincidence")
    undesired = sum(p for label, p in per_term.items() if label != "1111")
    return {"desired": (total - undesired) / total, "undesired": undesired / total,
            "per_term": {label: p / total for label, p in per_term.items()}}


def reference_undesired_shares(rates: list):
    """The undesired share of each of ``rates`` (``sector_rates`` of one
    configuration each) as one function of log R, R = kappa_b/kappa_f.

    ``shares(log_r)`` returns a (configuration, point) array.  Every element
    comes from the same float operations, in the same order, as
    ``sector_shares(rates[i], REFERENCE_KAPPA, REFERENCE_KAPPA * exp(log_r))``:
    at kappa_f = REFERENCE_KAPPA the forward factor is 1.0, so sector "jjkk"
    contributes rate * x ** 2k, summed from 0 in label order.  A label that a
    configuration lacks contributes 0.0; ``sector_rates`` gives every
    configuration the same labels in the same order.
    """
    labels = list(dict.fromkeys(label for r in rates for label in r))
    coeffs = np.array([[r.get(label, 0.0) for label in labels] for r in rates])
    powers = [2 * int(label[2]) for label in labels]

    def shares(log_r: np.ndarray) -> np.ndarray:
        x = abs(REFERENCE_KAPPA * np.exp(log_r) / REFERENCE_KAPPA)
        # one power call per exponent, with an int exponent: numpy takes
        # x ** 2 as x * x, which an array of exponents would not
        x_to = {p: x ** p for p in set(powers)}
        total = undesired = 0
        for j, (label, p) in enumerate(zip(labels, powers)):
            term = coeffs[:, j, None] * x_to[p]
            total = total + term
            if label != "1111":
                undesired = undesired + term
        if not np.all(total > 0.0):
            raise ValueError("no emission term produces a four-fold coincidence")
        return undesired / total

    return shares


def reference_fit_source_ratio(targets: dict, rates: dict) -> RatioFit:
    """Least-squares fit of kappa_backward/kappa_forward to target undesired shares.

    ``targets`` maps configuration labels to target fractions (0..1);
    ``rates`` maps each of those labels to its ``sector_rates``, so the fit
    propagates nothing itself.  The cost, a rational function of the ratio
    with two basins at some settings, is scanned on a log-spaced grid over
    ``RATIO_BOUNDS``; each evaluation computes the share of every
    configuration as one stacked array, with the same bits as
    ``sector_shares``.  Each grid minimum is refined by zooming: a 21-point
    grid over the bracket of its two neighbours gives the next, down to a
    bracket of 1e-12 in log R.  Other minima whose cost also reaches zero
    (below ``_ROOT_COST``) are reported as ``other_roots``: the targets then
    cannot tell those ratios apart.  ``reachable`` gives, per label, the smallest and largest share
    over the grid and the fitted ratio; a target outside it is one that no
    ratio in ``RATIO_BOUNDS`` reaches.
    """
    labels = list(targets)
    shares = reference_undesired_shares([rates[k] for k in labels])
    goal = np.array([targets[k] for k in labels])[:, None]

    def cost(log_r: np.ndarray) -> np.ndarray:
        return sum((shares(log_r) - goal) ** 2)

    grid = np.linspace(math.log(RATIO_BOUNDS[0]), math.log(RATIO_BOUNDS[1]), _GRID_POINTS)
    grid_shares = shares(grid)
    costs = sum((grid_shares - goal) ** 2)
    best = int(np.argmin(costs))
    # a degenerate target set (shares insensitive to the ratio) leaves the
    # minimizer free: detect a flat cost and flag the fit as unconstrained
    constrained = bool(costs.max() - costs.min() > 1e-18)

    def refine(i: int) -> tuple:
        xs, zoom = grid, costs
        while True:
            lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
            if hi - lo <= 1e-12:
                return float(xs[i]), float(zoom[i])
            xs = np.linspace(lo, hi, 21)
            zoom = cost(xs)
            i = int(np.argmin(zoom))

    ratio = math.exp(refine(best)[0])
    others = [refine(i) for i in _local_minima(costs) if i != best] if constrained else []
    achieved = {k: reference_sector_shares(rates[k], REFERENCE_KAPPA,
                                           REFERENCE_KAPPA * ratio)["undesired"]
                for k in labels}
    residuals = {k: achieved[k] - targets[k] for k in labels}
    return RatioFit(
        ratio=ratio,
        achieved=achieved,
        residuals=residuals,
        sum_squared_residual=float(sum(r ** 2 for r in residuals.values())),
        converged=True,
        constrained=constrained,
        other_roots=tuple(math.exp(x) for x, c in others if c < _ROOT_COST),
        reachable={k: (min(float(row.min()), achieved[k]), max(float(row.max()), achieved[k]))
                   for k, row in zip(labels, grid_shares)},
    )


def reference_run_protocol(config):
    """``(CountRecord, rho_receiver)`` of ``config``: the bit-for-bit oracle of
    ``protocol.count_rates`` and ``protocol.run_protocol``, errors included."""
    P = protocol
    wiring = P.WIRINGS[config.roles]
    frame = P.analyzer_frame(config.channel, config.roles)
    analyzer = np.array([frame @ config.input.ket(),
                         frame @ config.input.orthogonal_ket()]).conj()
    lin = P._optics_matrix(P._station_blocks(config) + [((wiring.receiver,), analyzer)])
    weights = P._sector_weights(config.source)
    # the engine on a stack of this configuration's optics matrix alone
    sectors = {jk: vec[0] for jk, vec in P._emitted(lin[None], weights).items()}
    detectors = tuple(P._detector_spatials(config))
    # four-fold rates scale as kappa^4 or faster, so "no coincidence" is judged
    # against the emitted weight of the sectors (1 for the ideal source)
    empty_tol = 1e-14 * sum(abs(w) ** 2 * n for w, n in weights.values())

    f_par = f_perp = success = 0.0
    per_term: dict = {}
    rho_acc = np.zeros((2, 2), dtype=complex)
    rho_weight = 0.0
    for label, (j, k) in sorted((f"{j}{j}{k}{k}", (j, k)) for j, k in weights):
        state = weights[(j, k)][0] * sectors[(j, k)]
        # the relative cut of the sparse states drops rounding residue
        absolute = np.abs(state)
        dropped = absolute <= P.PRUNE_THRESHOLD * absolute.max()
        state[dropped] = absolute[dropped] = 0.0
        prob = absolute ** 2
        clicked, par, perp, h_one, v_one = P._tally_indices(2 * (j + k), detectors,
                                                             wiring.receiver)
        success += float(prob[clicked].sum())
        p_par = float(prob[par].sum())
        p_perp = float(prob[perp].sum())
        f_par += p_par
        f_perp += p_perp
        per_term[label] = p_par + p_perp
        kept = np.stack([state[h_one], state[v_one]])
        block = kept @ kept.conj().T
        p_cond = float(block.trace().real)
        if p_cond >= empty_tol:
            rho_acc += block
            rho_weight += p_cond

    if not success > empty_tol:
        raise P.NoCoincidenceError(
            f"channel {config.channel}, action {config.action}, input ({config.input.alpha:.4g}, "
            f"{config.input.beta:.4g}), roles {config.roles}: cannot produce a four-fold "
            "coincidence; no configuration of the source terms clicks all four detectors")
    if rho_weight <= 0.0:
        raise P.ProtocolError("every coincidence leaves more than one photon at "
                              "the receiver; no qubit state to report")
    # back from the analyzer's (parallel, orthogonal) basis to H/V
    rho = analyzer.conj().T @ (rho_acc / rho_weight) @ analyzer
    if config.channel == "g2":
        rho = PAULI_X @ rho @ PAULI_X
    record = P.CountRecord(f_parallel=f_par, f_perp=f_perp,
                           success_probability=success, per_term=per_term)
    return record, rho


def _reference_teleport_branches(channel: np.ndarray, psis: np.ndarray):
    """Bell-outcome probabilities (..., n, 4) and receiver states (..., n, 4, 2, 2).

    The sender measures (input, qubit 1) in the Bell basis, outcomes in the
    order of ``bell_kets``; ``psis`` (n, 2) are the input kets and
    ``channel`` is one two-qubit channel (4, 4) or a stack (..., 4, 4).  A
    branch with probability below 1e-14 keeps its unnormalized state.

    ``states`` is C-contiguous: with non-contiguous states, 14 % of the BLAS
    products of ``_frame_fidelities`` round differently.  ``probs`` is the
    real part of a C-contiguous complex array.
    """
    channel = np.asarray(channel, dtype=complex)
    stack, n = channel.shape[:-2], len(psis)
    rho = channel.reshape((-1, 2, 2, 2, 2))
    # <bell_k| on (input, qubit 1) applied to |psi> on the input, as (c, k n)
    bras = _BELL.conj().transpose(1, 2, 0)
    u = sum(np.einsum("ck,n->ckn", bras[a], psis[:, a]) for a in (0, 1)).reshape(2, -1)
    sub = _four_terms("p,mef,p->mefp", u, rho.transpose(1, 3, 0, 2, 4), u.conj())
    traces = np.einsum("meep->mp", sub)
    sub /= np.where(traces.real > 1e-14, traces.real, 1.0)[:, None, None]
    probs = np.ascontiguousarray(traces.reshape(-1, 4, n).transpose(0, 2, 1)).real
    states = np.ascontiguousarray(sub.reshape(-1, 2, 2, 4, n).transpose(0, 4, 3, 1, 2))
    return probs.reshape(stack + (n, 4)), states.reshape(stack + (n, 4, 2, 2))


def _reference_pauli_fidelities(psis: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``<psi_n| P state_nk P^dagger |psi_n>`` (n, k, p) for the inputs ``psis``
    (n, 2), their branch states (n, k, 2, 2) and the Paulis P in ``PAULIS``
    order; the complex array's real view, laid out as the sums over n need."""
    # P^dagger |psi> as (pauli, component, sample)
    rotated = sum(np.einsum("pi,n->pin", _PAULI_DAGGERS[:, j], psis[:, j]) for j in (0, 1))
    fids = _four_terms("pn,kn,pn->kpn", rotated.conj().transpose(1, 0, 2),
                       states.transpose(2, 3, 1, 0), rotated.transpose(1, 0, 2))
    return np.ascontiguousarray(fids.transpose(2, 0, 1)).real


def reference_mc_avg_teleport_fidelity(channel, n_samples: int, seed: int) -> float:
    """Monte-Carlo cross-check of avg_teleport_fidelity over Haar inputs, on
    the same ``channel`` argument.

    Picks, per Bell outcome, the Pauli that maximizes the sample-averaged
    fidelity, matching the closed-form protocol.
    """
    if n_samples is True or not (isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer of at least 1, got {n_samples!r}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be an explicit non-negative integer, got {seed!r}")
    branches, total_p = _branches(channel)
    rng = np.random.default_rng(seed)
    # per sample: two real parts, then two imaginary parts
    draws = rng.normal(size=(n_samples, 2, 2))
    psis = draws[:, 0] + 1j * draws[:, 1]
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)

    grand = 0.0
    for b in branches:
        probs, states = _reference_teleport_branches(b.state, psis)
        fids = _reference_pauli_fidelities(psis, states)
        # summed over samples per (outcome, Pauli); then the best Pauli per outcome
        acc = np.einsum("nk,nkp->kp", probs, fids)
        best = float(acc.max(axis=1).sum()) / n_samples
        grand += b.probability * best
    return grand / total_p


def _reference_frame_fidelities(channels: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Fidelity of teleporting ``psi`` with the ``STANDARD_CORRECTIONS`` Pauli
    frame over each channel of a stack (m, 4, 4)."""
    probs, states = _reference_teleport_branches(channels, psi[None, :])
    total = np.zeros(len(channels))
    for k, label in enumerate(_BELL_LABELS):
        c = STANDARD_CORRECTIONS[label]
        # psi^dag c state c^dag psi, one (1, 2) row per channel (see above)
        fids = ((psi.conj() @ c)[None, :] @ states[:, 0, k] @ c.conj().T
                @ psi[:, None])[:, 0, 0].real
        prob = probs[:, 0, k]
        total = total + np.where(prob < 1e-14, 0.0, prob * fids)
    return total


def _reference_condition(channels: np.ndarray, kets) -> tuple:
    """Measure qubit 3 of a stack of channels (n, 8, 8) onto each of ``kets``.

    Returns probabilities (n, k) and renormalized conditionals (n, k, 4, 4) on
    qubits 1, 2; a conditional of probability below 1e-14 is zero.
    """
    n = len(channels)
    rho = channels.reshape((n,) + (2,) * 6)
    sub = np.stack([np.einsum("c,nabcdef,f->nabde", ket.conj(), rho, ket)
                    for ket in kets], axis=1).reshape(n, len(kets), 4, 4)
    probs = np.trace(sub, axis1=2, axis2=3).real
    tiny = probs < 1e-14
    states = np.where(tiny[..., None, None], 0j,
                      sub / np.where(tiny, 1.0, probs)[..., None, None])
    return probs, states


def _reference_werner_channels(q_grid) -> np.ndarray:
    """Werner channels (n, 8, 8); the first weight outside [0, 1] is named."""
    qs = np.asarray(q_grid, dtype=float)
    outside = np.flatnonzero(~((qs >= 0.0) & (qs <= 1.0)))
    if outside.size:
        raise ValueError(f"q={q_grid[outside[0]]} outside [0, 1]")
    qs = qs[:, None, None]
    return qs * ket_outer(ghz_ket(1)) + (1 - qs) * np.eye(8, dtype=complex) / 8.0


def reference_werner_rows(q_grid) -> tuple:
    """F_allowed and F_denied (n,) over ``q_grid`` in one pass of the kernels."""
    channels = _reference_werner_channels(q_grid)
    probs, states = _reference_condition(channels, [ket for ket, _ in basis_pairs("pm")])
    allowed = _feedforward_sums(probs, states) / sum(probs.T)
    _, denied_channels = _reference_condition(channels, [KET_H])
    return allowed, _reference_frame_fidelities(denied_channels[:, 0], KET_D)
