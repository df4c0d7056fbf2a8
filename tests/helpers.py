"""Builders and checks that only the tests use, kept out of the package.

Each was a function of ``cqtsim`` with no caller in the package, its README
or its benchmark; the tests use them as references and as builders of small
states, unchanged.  ``substitution_map`` and ``apply_map`` are the sparse
element and ``elements.apply`` as they were before ``apply`` took the
``(spatials, matrix)`` block itself, copied verbatim on a plain dict
mode -> {mode: amplitude}: the bit-for-bit oracle of ``apply``.
``compose`` chains such maps: the tests use it as the oracle of
``protocol``'s optics matrix and of ``protocol.prepare_ghz``.
``reference_poisson_uncertainty`` is ``estimation.poisson_uncertainty`` as it
was before it took the mean and spread in two passes and clipped only after
the background subtraction, copied verbatim with ``np.clip``, ``np.mean`` and
``np.std`` but without the background branch, which left with
``background_w``: its bit-for-bit oracle.
``reference_sector_shares`` is ``spdc.sector_shares`` as it was before it
became the one-configuration case of ``spdc._share_terms``, copied verbatim:
the bit-for-bit oracle of the shares.
``reference_run_protocol`` is ``protocol.run_protocol`` as it was before the
rates and the receiver state were split over one private tally, copied
verbatim with the module's private names read off ``protocol`` at call time
(so a test's ``monkeypatch`` of them reaches it), and with its optics
matrix passed to ``_emitted`` as a stack of one: it tallies one configuration
alone, builds the receiver state with every run and decides that no sector
leaves the receiver one photon from the traces it adds up.  Its cut of
rounding residue is the one part not copied verbatim: the run it copies
dropped each amplitude at most 1e-15 of its sector's largest, and it now
cuts the rates as ``_tally`` does, at 1e-30 of the emitted weight.  The old
cut disagreed with the rates' in the last digits of leaks far below the
rest of a run (an input component of 5e-10, or a PBS leak of 1e-20).
``reference_optics_matrix`` is ``protocol._optics_matrix`` as it was before
L became a product of blocks embedded in the identity: it starts from the
identity and replaces the rows of each block's modes by the block times
those rows.  It is copied verbatim with the private helper it uses
(``_block_rows``, under a ``_reference_`` prefix): the bit-for-bit oracle of
the optics matrix.
``reference_create_pairs`` is ``protocol._create_pairs`` as it was before its
index table could leave targets out and it gathered each term's amplitude,
copied verbatim with its ``_pair_table`` (under a ``_reference_`` prefix,
uncached): the bit-for-bit oracle of the whole pair creation, whose bins
add their terms in (source, pair) order.
``reference_ml_kernel`` is ``estimation._ml_kernel`` as it was before it
formed its Hessians as six entries, with ``_newton_steps`` under a
``_reference_`` prefix, copied verbatim but for the docstring: the
bit-for-bit oracle of the kernel's states, flags, iteration counts and trace.
``ideal_source_state`` and ``two_mode_spdc`` look up ``emission_orders`` in
this module, so a test can swap in another emission engine with
``monkeypatch.setattr(helpers, "emission_orders", ...)``.
``outcome_averaged`` is the channel of a receiver without the controller's
outcome, in the expression the teleportation averages' docstring gives.
``chi_ket`` is the three-qubit ket that ``cqtsim.channels`` built for the
tests alone, moved here unchanged.
"""

import functools
import itertools
import math
import numbers
import operator
from typing import Callable, Iterable, Sequence

import numpy as np

from cqtsim import protocol
from cqtsim.channels import PAULI_X
from cqtsim.elements import phase_matrix
from cqtsim.estimation import (ML_MAX_ITERATIONS, ML_TOL, FidelityEstimate, _bloch_vector,
                               _check_poisson_mean, _check_resampling)
from cqtsim.fock import H, V, PureState, _create, spatial_counts
from cqtsim.spdc import BACKWARD_MODES, FORWARD_MODES, REFERENCE_KAPPA, emission_orders

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


def reference_poisson_uncertainty(data, seed: int, n_resamples: int = 10_000) -> FidelityEstimate:
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
    values = np.clip(values, 0.0, 1.0)
    if values.size == 0:
        raise ValueError("every resample was empty")
    return FidelityEstimate(value=float(np.mean(values)),
                            uncertainty=float(np.std(values)))


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


def reference_run_protocol(config):
    """``(CountRecord, rho_receiver)`` of ``config``: the bit-for-bit oracle of
    the records of ``protocol.count_rates`` and ``protocol.run_protocol``,
    errors included.  ``count_rates`` shares its ``NoCoincidenceError`` only:
    it returns the record where the ``ProtocolError`` of a receiver with no
    single photon is raised here."""
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
    emitted = sum(abs(w) ** 2 * n for w, n in weights.values())
    empty_tol, cut = 1e-14 * emitted, P.PRUNE_THRESHOLD ** 2 * emitted

    f_par = f_perp = success = 0.0
    per_term: dict = {}
    rho_acc = np.zeros((2, 2), dtype=complex)
    rho_weight = 0.0
    for label, (j, k) in sorted((f"{j}{j}{k}{k}", (j, k)) for j, k in weights):
        state = weights[(j, k)][0] * sectors[(j, k)]
        prob = np.abs(state) ** 2
        clicked, par, perp, h_one, v_one = P._tally_indices(2 * (j + k), detectors,
                                                             wiring.receiver)
        # a rate at most the cut is rounding residue
        total, p_par, p_perp = (float(s) if s > cut else 0.0
                                for s in (prob[clicked].sum(), prob[par].sum(), prob[perp].sum()))
        success += total
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


@functools.cache
def _reference_block_rows(spatials: tuple):
    """The rows of L that a block on ``spatials`` acts on, as a slice if contiguous."""
    rows = [protocol._MODE_INDEX[(s, pol)] for s in spatials for pol in (H, V)]
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows)


def reference_optics_matrix(blocks) -> np.ndarray:
    """Matrix L of the blocks applied in order: a_m^dag becomes sum_k L[k, m] b_k^dag."""
    lin = np.eye(len(protocol._DENSE_MODES), dtype=complex)
    for spatials, block in blocks:
        rows = _reference_block_rows(spatials)
        lin[rows] = block @ lin[rows]
    return lin


def _reference_pair_table(n: int, rows: int) -> tuple:
    """Index table of the pairs b_k^dag b_l^dag, k <= l, from ``n`` to ``n + 2`` photons."""
    occ, codes = protocol._number_basis(n)
    _, out_codes = protocol._number_basis(n + 2)
    k, l = np.array(list(itertools.combinations_with_replacement(
        range(len(protocol._DENSE_MODES)), 2))).T
    target = np.searchsorted(out_codes, codes[:, None] + (protocol._UNITS[k] + protocol._UNITS[l]))
    same = k == l
    coef = np.sqrt((occ[:, k] + 1.0) * (occ[:, l] + 1.0 + same)) * np.where(same, 0.5, 1.0)
    slots = np.stack([2 * target, 2 * target + 1], axis=-1)
    slots = slots + 2 * len(out_codes) * np.arange(rows)[:, None, None, None]
    return k * len(protocol._DENSE_MODES) + l, slots.ravel(), coef, len(out_codes)


def reference_create_pairs(vecs: np.ndarray, n: int, q: np.ndarray) -> np.ndarray:
    """Apply 1/2 sum_kl q[r, k, l] b_k^dag b_l^dag to row r of ``n``-photon vectors."""
    rows = len(vecs)
    pairs, slots, coef, size = _reference_pair_table(n, rows)
    terms = vecs[:, :, None] * q.reshape(rows, -1).take(pairs, axis=1)[:, None]
    terms *= coef
    return np.bincount(slots, terms.view(np.float64).ravel(),
                       minlength=2 * size * rows).view(complex).reshape(rows, size)


def _reference_newton_steps(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-H^-1 g per row of H (n, 3, 3), negative definite: L D L^T of its upper triangle."""
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = hess.transpose(1, 2, 0)
    g0, g1, g2 = grad.T
    l10, l20 = h01 / h00, h02 / h00
    d1, e12 = h11 - l10 * h01, h12 - l20 * h01
    l21, y1 = e12 / d1, g1 - l10 * g0
    x2 = (g2 - l20 * g0 - l21 * y1) / (h22 - l20 * h02 - l21 * e12)
    x1 = y1 / d1 - l21 * x2
    return -np.stack([g0 / h00 - l10 * x1 - l20 * x2, x1, x2], axis=1)


def reference_ml_kernel(projectors: np.ndarray, tables: np.ndarray):
    """``(r, converged, iterations, trace)`` of ``estimation._ml_kernel``."""
    n, m = tables.shape
    w = np.trace(projectors, axis1=1, axis2=2).real
    axes = _bloch_vector(projectors)
    outer = (axes[:, :, None] * axes[:, None, :]).reshape(m, 9)
    eye = np.eye(3)

    def evaluate(r, f):
        # L and the probabilities; L is -inf where a counted probability is not positive
        p = 0.5 * (w + np.einsum("kd,jd->kj", r, axes))
        live = p > 0
        if live.all():
            return (f * np.log(p)).sum(axis=1), p
        ll = (f * np.log(np.where(live, p, 1.0))).sum(axis=1)
        ll[((f > 0) & ~live).any(axis=1)] = -math.inf
        return ll, p

    r, sphere = np.zeros((n, 3)), np.zeros(n, dtype=bool)
    converged, iterations = np.zeros(n, dtype=bool), np.full(n, ML_MAX_ITERATIONS)
    running = np.ones(n, dtype=bool)
    f = tables / tables.sum(axis=1, keepdims=True)
    masked = not (f > 0).all()  # only an uncounted probability can vanish
    ll, p = evaluate(r, f)
    trace = [float(ll[0])]
    for iteration in range(1, ML_MAX_ITERATIONS + 1):
        if not running.any():
            break
        counted_p = np.where(f > 0, p, 1.0) if masked else p
        q = f / counted_p
        g = 0.5 * np.einsum("kj,jd->kd", q, axes)
        h = -0.25 * np.einsum("kj,jd->kd", q / counted_p, outer).reshape(-1, 3, 3)
        hess = h + 1e-12 * np.trace(h, axis1=1, axis2=2)[:, None, None] * eye
        if sphere.any():
            mu = (g * r).sum(axis=1)
            sphere &= mu >= 0
            # on the sphere, the tangent parts, and -1 along r to keep the step tangent
            g = g - np.where(sphere, mu, 0.0)[:, None] * r
            normal = r[sphere, :, None] * r[sphere, None, :]
            hess[sphere] = ((eye - normal) @ (hess[sphere] - mu[sphere, None, None] * eye)
                            @ (eye - normal) - normal)
        step = _reference_newton_steps(hess, g)
        done = np.sqrt((step * step).sum(axis=1)) <= ML_TOL

        # the full step, then halves of it for the tables that are not done
        ok, rows, t = np.zeros(n, dtype=bool), np.flatnonzero(running), 1.0
        while rows.size and t > 1e-6:
            sel = slice(None) if rows.size == n else rows  # a slice gathers no row
            cand = r[sel] + t * step[sel]
            norm = np.sqrt((cand * cand).sum(axis=1))
            on = sphere[sel] | (norm > 1.0)
            cand /= np.where(on, norm, 1.0)[:, None]
            cand_ll, cand_p = evaluate(cand, f[sel])
            up = cand_ll >= ll[sel] - 1e-14 * np.abs(ll[sel])
            if up.all():  # and none is scattered
                r[sel], sphere[sel], p[sel], ok[sel] = cand, on, cand_p, True
                ll[sel] = np.maximum(cand_ll, ll[sel])
                break
            took = rows[up]
            r[took], sphere[took], p[took], ok[took] = cand[up], on[up], cand_p[up], True
            ll[took] = np.maximum(cand_ll[up], ll[took])
            rows, t = rows[~up & ~done[rows]], t / 2.0

        if ok[0]:
            trace.append(float(ll[0]))
        stop = running & (done | ~ok)
        converged |= stop & done
        iterations[stop] = iteration
        running &= ~stop
    return r, converged, iterations, trace
