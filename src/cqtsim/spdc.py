"""Four-photon down-conversion source with undesired double-pair terms.

The source is driven twice per pulse: a forward pass emits a polarization
entangled pair into spatial modes 1, 2 and the reflected pass emits a
separable H-polarized pair into modes 3, 4.  Expanding exp(k_f A+ + k_b B+)
on vacuum and truncating at a total pair order gives, at order 2, exactly
the six-term structure

    |0000> + k_b|0011> + k_f|1100> + k_f k_b|1111> + k_f^2|2200> + k_b^2|0022>

with the double-pair entries carrying the bosonic enhancement factors that
follow from applying the pair-creation operator twice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import H, V, PureState, _create, spatial_counts, total_photons

FORWARD_MODES = (1, 2)
BACKWARD_MODES = (3, 4)

_SQ2 = math.sqrt(2.0)
REFERENCE_KAPPA = 0.1
# below it, the four-photon terms (about max|kappa|^4 of the emission) fall under
# smallest-normal / epsilon: four-fold rates turn subnormal and the state NaN
MIN_KAPPA = (np.finfo(float).tiny / np.finfo(float).eps) ** 0.25
RATIO_BOUNDS = (1e-3, 5.0)
_LOG_GRID = np.linspace(math.log(RATIO_BOUNDS[0]), math.log(RATIO_BOUNDS[1]), 401)
# A fit cost below this is an exact root: round trips reach about 1e-19, a
# second basin that does not fit stays above 1e-4.
_ROOT_COST = 1e-12
# the polish stops at a step this short in log R, or after this many steps
_POLISH_TOLERANCE, _POLISH_STEPS = 1e-12, 64
# the sector signature "jjkk" of j forward and k backward pairs -> (j, k)
_SECTORS = {f"{j}{j}{k}{k}": (j, k) for j in range(10) for k in range(10)}

# Polarization structure of one emitted pair, as creation-operator weights.
PAIR_KINDS = {
    # (|H H> - i |V V>)/sqrt(2): entangled pair from the crystal cascade
    "phi_plus": {(H, H): 1.0 / _SQ2, (V, V): -1.0j / _SQ2},
    # separable |H H| pair collected from a single crystal
    "hh": {(H, H): 1.0},
}


@dataclass
class SourceParams:
    """Interaction strengths and truncation of the two-pass pair source."""

    kappa_forward: complex = 0.1
    kappa_backward: complex = 0.1
    truncation_order: int = 2

    def __post_init__(self):
        self.kappa_forward = complex(self.kappa_forward)
        self.kappa_backward = complex(self.kappa_backward)
        kf, kb = abs(self.kappa_forward), abs(self.kappa_backward)
        if not (kf < 0.5 and kb < 0.5):
            raise ValueError("interaction strengths must stay well below 1 "
                             "(|kappa| < 0.5)")
        if 0.0 < max(kf, kb) < MIN_KAPPA:
            raise ValueError(f"interaction strengths |kappa_forward| = {kf:.4g} and "
                             f"|kappa_backward| = {kb:.4g} are too weak for double precision: "
                             f"the stronger must be at least {MIN_KAPPA:.4g}, or both 0")
        order = self.truncation_order
        if isinstance(order, bool) or not (isinstance(order, numbers.Integral) and order >= 1):
            raise ValueError(f"truncation_order must be an integer >= 1, got {order!r}")


def emission_orders(pair_kind: str, order: int, modes: tuple) -> list:
    """Per-pair-number terms (A+)^n / n! applied to vacuum, n = 0..order."""
    pair = PAIR_KINDS[pair_kind]
    levels = [{(): 1.0 + 0.0j}]
    for n in range(1, order + 1):
        nxt: dict = {}
        for (p_s, p_i), u in pair.items():
            one = _create(levels[-1], [((modes[0], p_s), u)])
            for key, amp in _create(one, [((modes[1], p_i), 1.0)]).items():
                nxt[key] = nxt.get(key, 0.0j) + amp
        levels.append({k: a / n for k, a in nxt.items()})
    return levels


def four_mode_source(params: SourceParams) -> PureState:
    """Normalized joint state of the forward and backward passes.

    Keeps every term with total pair order j + k <= truncation_order, which
    at the default order 2 is exactly the vacuum, the two single pairs, the
    desired |1111> term and the two double-pair terms.  Nothing cancels in
    this expansion, so no term is cut: at weak pumping the four-photon terms
    lie many orders below the vacuum amplitude and must survive.
    """
    order = params.truncation_order
    fwd = emission_orders("phi_plus", order, FORWARD_MODES)
    bwd = emission_orders("hh", order, BACKWARD_MODES)
    terms: dict = {}
    for j in range(order + 1):
        for k in range(order + 1 - j):
            weight = (params.kappa_forward ** j) * (params.kappa_backward ** k)
            for occ_f, amp_f in fwd[j].items():
                for occ_b, amp_b in bwd[k].items():
                    terms[occ_f + occ_b] = weight * amp_f * amp_b
    return PureState(terms, prune=0.0).normalized()


def signature_label(occ: tuple) -> str:
    counts = spatial_counts(occ)
    return "".join(str(counts.get(s, 0)) for s in (1, 2, 3, 4))


def coincidence_sectors(state: PureState) -> dict:
    """Group terms by spatial photon signature; keep sectors that can four-fold.

    The returned states are unnormalized so that their squared amplitudes keep
    the emission weights; sectors with fewer than four photons can never
    light four detectors and are dropped.
    """
    sectors: dict = {}
    for occ, amp in state.terms.items():
        if total_photons(occ) < 4:
            continue
        label = signature_label(occ)
        sectors.setdefault(label, {})[occ] = amp
    return {label: PureState(terms) for label, terms in sorted(sectors.items())}


def sector_rates(params: SourceParams, configs: dict) -> dict:
    """Four-fold rate of each coincidence sector of each configuration, at REFERENCE_KAPPA.

    ``configs`` maps labels to configurations that share their roles; they
    are propagated together, and only the truncation order of ``params``
    counts.  Sectors are incoherent alternatives at the detection level, so
    each label maps to its rates per sector.  The error of the first
    configuration that raises one, in the mapping's order, is raised with
    its label as ``label``; an empty mapping, or one that mixes roles,
    raises ValueError.
    """
    from .protocol import _tally

    if len({config.roles for config in configs.values()}) != 1:
        raise ValueError("sector_rates takes one or more configurations with the same roles")
    ref = replace(params, kappa_forward=REFERENCE_KAPPA, kappa_backward=REFERENCE_KAPPA)
    rates = {}
    for label, row in zip(configs, _tally([replace(c, source=ref) for c in configs.values()])):
        if isinstance(row, Exception):
            row.label = label
            raise row
        rates[label] = row[0].per_term
    return rates


def _share_terms(rates: dict, forward):
    """``terms(x)``: the terms of ``rates`` at backward factor x in label order,
    their total (ValueError unless positive) and their sum but for "1111".

    ``rates`` maps sector signatures "jjkk" (ValueError for another label) to
    numbers, or to (configuration, 1) columns for a stack; "jjkk" contributes
    rate * forward ** 2j * x ** 2k, strengths in units of REFERENCE_KAPPA, the
    first product formed once.  The sums start at their first term, and x ** 0
    = 1.0 is left out where a k > 0 term gives the terms the shape of x.
    """
    columns, powers, undesired = [], [], []
    for label, rate in rates.items():
        if label not in _SECTORS:
            raise ValueError(f"rate label {label!r} is not a sector signature 'jjkk'")
        j, k = _SECTORS[label]
        columns.append(rate * forward ** (2 * j))
        powers.append(2 * k)
        undesired.append((j, k) != (1, 1))
    scaled = [p > 0 or not any(powers) for p in powers]

    def terms(x) -> tuple:
        # an int exponent: numpy takes x ** 2 as x * x
        out = [c * x ** p if s else c for c, p, s in zip(columns, powers, scaled)]
        total = sum(out[1:], out[0] if out else 0)
        positive = total > 0.0      # np.all of a bool costs more than the sums
        if not (positive.all() if isinstance(positive, np.ndarray) else positive):
            raise ValueError("no emission term produces a four-fold coincidence")
        bad = [t for t, u in zip(out, undesired) if u]
        return out, total, sum(bad[1:], bad[0]) if bad else 0

    return terms


def stack_rates(rates: dict) -> dict:
    """The ``sector_rates`` of each label of ``rates`` as one (configuration, 1) column per
    sector, in the labels' joint order, for ``sector_shares`` and the fit: a missing sector
    is 0.0, and + 0.0 makes -0.0 the +0.0 a sum from 0 gives."""
    sectors = dict.fromkeys(sector for r in rates.values() for sector in r)
    return {sector: np.array([[r.get(sector, 0.0)] for r in rates.values()]) + 0.0
            for sector in sectors}


def sector_shares(rates: dict, kappa_forward: complex, kappa_backward: complex) -> dict:
    """Shares at scalar or array strengths: "jjkk" scales as |kappa_f|^2j |kappa_b|^2k;
    the one-configuration case of ``_share_terms``."""
    for name, kappa in (("kappa_forward", kappa_forward), ("kappa_backward", kappa_backward)):
        # math's test takes a tenth of numpy's time on the scalars the fit passes
        if not (math.isfinite(kappa.real) and math.isfinite(kappa.imag)
                if isinstance(kappa, numbers.Number) else np.isfinite(kappa).all()):
            raise ValueError(f"{name} must be finite, got {kappa!r}")
    forward, backward = abs(kappa_forward / REFERENCE_KAPPA), abs(kappa_backward / REFERENCE_KAPPA)
    terms, total, undesired = _share_terms(rates, forward)(backward)
    undesired = undesired + 0.0     # a sum from 0 turns a lone -0.0 into +0.0
    return {"desired": (total - undesired) / total, "undesired": undesired / total,
            "per_term": {label: t / total for label, t in zip(rates, terms)}}


def heralded_fraction(params: SourceParams, config) -> dict:
    """Share of four-fold coincidences caused by the double-pair terms."""
    return sector_shares(sector_rates(params, {"config": config})["config"],
                         params.kappa_forward, params.kappa_backward)


@dataclass
class RatioFit:
    """Result of the one-parameter backward/forward strength fit."""

    ratio: float
    achieved: dict
    residuals: dict
    sum_squared_residual: float
    converged: bool             # whether every polish stopped within _POLISH_TOLERANCE
    constrained: bool = True    # False when the targets leave the ratio free
    other_roots: tuple = ()     # ratios in other basins that fit as exactly
    reachable: dict = field(default_factory=dict)   # label -> (min, max) share


def _local_minima(costs: np.ndarray) -> np.ndarray:
    """One index per basin: the left end of each run of equal local minima."""
    falls = np.concatenate(([True], costs[1:] < costs[:-1]))
    holds = np.concatenate((costs[:-1] <= costs[1:], [True]))
    return np.flatnonzero(falls & holds)


def _polish(polys: list, lo: float, x: float, hi: float) -> tuple:
    """``(log R, steps, converged)`` at the bottom of the cost's basin in [lo, hi], from x.

    ``polys``: per configuration its target t and p -> (a, b), its total and
    undesired rate of R^p, so T = sum a e^(pl) at l = log R, each d/dl brings a
    factor p, and s = U/T, s' = (U' - s T')/T, s'' = (U'' - 2 s' T' - s T'')/T."""
    for steps in range(1, _POLISH_STEPS + 1):
        slope = curve = 0.0     # half the cost's: sum (s - t) s', sum (s'^2 + (s - t) s'')
        for target, terms in polys:
            t0 = t1 = t2 = u0 = u1 = u2 = 0.0
            for p, (a, b) in terms.items():
                w = math.exp(p * x)
                t0, t1, t2 = t0 + a * w, t1 + p * a * w, t2 + p * p * a * w
                u0, u1, u2 = u0 + b * w, u1 + p * b * w, u2 + p * p * b * w
            s = u0 / t0
            s1 = (u1 - s * t1) / t0
            s2 = (u2 - 2.0 * s1 * t1 - s * t2) / t0
            slope += (s - target) * s1
            curve += s1 * s1 + (s - target) * s2
        lo, hi = (lo, x) if slope > 0.0 else (x, hi)     # the end the cost rises to
        # Newton (x at zero slope, NaN at curvature <= 0); a step leaving the bracket halves it
        step = x - slope / curve if curve > 0.0 else x if slope == 0.0 else math.nan
        if not (lo < step < hi or step == x):
            step = 0.5 * (lo + hi)
        if abs(step - x) <= _POLISH_TOLERANCE:     # never longer than the bracket
            return step, steps, True
        x = step
    return x, _POLISH_STEPS, False


def fit_source_ratio(targets: dict, rates: dict) -> RatioFit:
    """Least-squares fit of kappa_backward/kappa_forward to target undesired shares.

    ``targets`` maps configuration labels to target fractions (0..1);
    ``rates`` maps each of those labels to its ``sector_rates``, so the fit
    propagates nothing itself.  The cost, a rational function of the ratio
    with two basins at some settings, is scanned on a log-spaced grid over
    ``RATIO_BOUNDS``; each evaluation computes the share of every
    configuration as one stacked array in ``_share_terms``, the kernel of
    ``sector_shares``.  Each grid minimum is polished in the bracket of its
    grid neighbours by Newton steps on the cost's closed-form slope and
    curvature in log R, safeguarded by bisection (``_polish``).  Other minima
    whose cost also reaches zero (below ``_ROOT_COST``) are reported as
    ``other_roots``: the targets then cannot tell those ratios apart.
    ``reachable`` gives, per label, the smallest and largest share over the
    grid and the fitted ratio; a target outside it is one that no ratio in
    ``RATIO_BOUNDS`` reaches.  A target set that is empty, or a target that
    has no rates or is not a real number in [0, 1], or a rate label that is
    not a sector signature raises ValueError.
    """
    if not targets:
        raise ValueError("the fit needs at least one target")
    for label, target in targets.items():
        if label not in rates:
            raise ValueError(f"target {label!r} has no sector rates")
        if not (isinstance(target, numbers.Real) and 0.0 <= target <= 1.0):
            raise ValueError(f"target {label!r} must be a share in [0, 1], got {target!r}")
    labels = list(targets)
    terms = _share_terms(stack_rates({k: rates[k] for k in labels}), 1.0)

    def shares(log_r: np.ndarray) -> np.ndarray:
        _, total, undesired = terms(REFERENCE_KAPPA * np.exp(log_r) / REFERENCE_KAPPA)
        return undesired / total

    goal = np.array([targets[k] for k in labels])[:, None]

    def cost(shares_: np.ndarray) -> np.ndarray:
        squares = shares_ - goal
        squares *= squares
        return sum(squares[1:], squares[0])

    grid_shares = shares(_LOG_GRID)
    costs = cost(grid_shares)
    best = int(np.argmin(costs))
    # a degenerate target set (shares insensitive to the ratio) leaves the
    # minimizer free: detect a flat cost and flag the fit as unconstrained
    constrained = bool(costs.max() - costs.min() > 1e-18)

    # per configuration its target and p -> (a, b): its total and undesired rate of R^p
    polys = [(float(targets[k]), {}) for k in labels]
    for k, (_, poly) in zip(labels, polys):
        for (j, n), rate in ((_SECTORS[sector], float(r)) for sector, r in rates[k].items()):
            a, b = poly.get(2 * n, (0.0, 0.0))
            poly[2 * n] = a + rate, b + rate * ((j, n) != (1, 1))
    minima = [int(i) for i in _local_minima(costs) if i != best] if constrained else []
    (log_ratio, *others), _, stops = zip(*[
        _polish(polys, _LOG_GRID.item(max(i - 1, 0)), _LOG_GRID.item(i),
                _LOG_GRID.item(min(i + 1, len(_LOG_GRID) - 1))) for i in [best] + minima])
    other_costs = cost(shares(np.array(others))) if others else []
    ratio = math.exp(log_ratio)
    _, total, undesired = terms(abs(REFERENCE_KAPPA * ratio / REFERENCE_KAPPA))
    achieved = dict(zip(labels, (undesired / total)[:, 0].tolist()))
    residuals = {k: achieved[k] - targets[k] for k in labels}
    return RatioFit(
        ratio=ratio,
        achieved=achieved,
        residuals=residuals,
        sum_squared_residual=float(sum(r ** 2 for r in residuals.values())),
        converged=all(stops),
        constrained=constrained,
        other_roots=tuple(math.exp(x) for x, c in zip(others, other_costs) if c < _ROOT_COST),
        reachable={k: (min(float(row.min()), achieved[k]), max(float(row.max()), achieved[k]))
                   for k, row in zip(labels, grid_shares)},
    )
