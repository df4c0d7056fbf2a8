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
_GRID_POINTS = 401
# A fit cost below this is an exact root: round trips reach about 1e-19, a
# second basin that does not fit stays above 1e-4.
_ROOT_COST = 1e-12
_ZOOM_STEPS = np.arange(21.0)

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
        if not (isinstance(order, numbers.Integral) and order >= 1):
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


def sector_rates(params: SourceParams, config) -> dict:
    """Four-fold rate of each coincidence sector, propagated at REFERENCE_KAPPA.

    Sectors are incoherent alternatives at the detection level, so each is
    propagated on its own; only the truncation order of ``params`` counts.
    """
    from .protocol import run_protocol

    ref = replace(params, kappa_forward=REFERENCE_KAPPA, kappa_backward=REFERENCE_KAPPA)
    return run_protocol(replace(config, source=ref))[0].per_term


def sector_shares(rates: dict, kappa_forward: complex, kappa_backward: complex) -> dict:
    """Shares at scalar or array strengths: "jjkk" scales as |kappa_f|^2j |kappa_b|^2k."""
    per_term = {label: rate * abs(kappa_forward / REFERENCE_KAPPA) ** (2 * int(label[0]))
                * abs(kappa_backward / REFERENCE_KAPPA) ** (2 * int(label[2]))
                for label, rate in rates.items()}
    total = sum(per_term.values())
    if not np.all(total > 0.0):
        raise ValueError("no emission term produces a four-fold coincidence")
    undesired = sum(p for label, p in per_term.items() if label != "1111")
    return {"desired": (total - undesired) / total, "undesired": undesired / total,
            "per_term": {label: p / total for label, p in per_term.items()}}


def heralded_fraction(params: SourceParams, config) -> dict:
    """Share of four-fold coincidences caused by the double-pair terms."""
    return sector_shares(sector_rates(params, config), params.kappa_forward,
                         params.kappa_backward)


@dataclass
class RatioFit:
    """Result of the one-parameter backward/forward strength fit."""

    ratio: float
    achieved: dict
    residuals: dict
    sum_squared_residual: float
    converged: bool             # always True: the zoom always reaches its tolerance
    constrained: bool = True    # False when the targets leave the ratio free
    other_roots: tuple = ()     # ratios in other basins that fit as exactly
    reachable: dict = field(default_factory=dict)   # label -> (min, max) share


def _undesired_shares(rates: list):
    """The undesired share of each of ``rates`` (``sector_rates`` of one
    configuration each) as one function of log R, R = kappa_b/kappa_f.

    ``shares(log_r)`` returns a (configuration, point) array.  Every element
    has the bits of
    ``sector_shares(rates[i], REFERENCE_KAPPA, REFERENCE_KAPPA * exp(log_r))``:
    at kappa_f = REFERENCE_KAPPA the forward factor is 1.0, so sector "jjkk"
    contributes rate * x ** 2k, summed in label order.  Left out are only the
    operations that cannot change a bit: the abs of a positive x, the factor
    x ** 0 = 1.0 and the sums' start at 0.  A label that a configuration lacks
    contributes 0.0; ``sector_rates`` gives every configuration the same
    labels in the same order.
    """
    labels = list(dict.fromkeys(label for r in rates for label in r))
    if not labels:      # the sums below start at their first term
        raise ValueError("no emission term produces a four-fold coincidence")
    # + 0.0 makes a rate of -0.0 the +0.0 that a sum from 0 would give
    columns = [np.array([[r.get(label, 0.0)] for r in rates]) + 0.0 for label in labels]
    powers = [2 * int(label[2]) for label in labels]
    # with no k > 0 term, x ** 0 still gives the shares a column per point
    scaled = [p > 0 or not any(powers) for p in powers]

    def shares(log_r: np.ndarray) -> np.ndarray:
        x = REFERENCE_KAPPA * np.exp(log_r) / REFERENCE_KAPPA
        # an int exponent: numpy takes x ** 2 as x * x
        terms = [c * x ** p if s else c for c, p, s in zip(columns, powers, scaled)]
        total = sum(terms[1:], terms[0])
        if not (total > 0.0).all():
            raise ValueError("no emission term produces a four-fold coincidence")
        bad = [t for t, label in zip(terms, labels) if label != "1111"]
        return (sum(bad[1:], bad[0]) if bad else 0) / total

    return shares


def _local_minima(costs: np.ndarray) -> np.ndarray:
    """One index per basin: the left end of each run of equal local minima."""
    falls = np.concatenate(([True], costs[1:] < costs[:-1]))
    holds = np.concatenate((costs[:-1] <= costs[1:], [True]))
    return np.flatnonzero(falls & holds)


def fit_source_ratio(targets: dict, rates: dict) -> RatioFit:
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
    ratio in ``RATIO_BOUNDS`` reaches.  A target set that is empty, or a
    target that has no rates or is not a real number in [0, 1], raises
    ValueError.
    """
    if not targets:
        raise ValueError("the fit needs at least one target")
    for label, target in targets.items():
        if label not in rates:
            raise ValueError(f"target {label!r} has no sector rates")
        if not (isinstance(target, numbers.Real) and 0.0 <= target <= 1.0):
            raise ValueError(f"target {label!r} must be a share in [0, 1], got {target!r}")
    labels = list(targets)
    shares = _undesired_shares([rates[k] for k in labels])
    goal = np.array([targets[k] for k in labels])[:, None]

    def cost(shares_: np.ndarray) -> np.ndarray:
        squares = shares_ - goal
        squares *= squares
        return sum(squares[1:], squares[0])

    grid = np.linspace(math.log(RATIO_BOUNDS[0]), math.log(RATIO_BOUNDS[1]), _GRID_POINTS)
    grid_shares = shares(grid)
    costs = cost(grid_shares)
    best = int(np.argmin(costs))
    # a degenerate target set (shares insensitive to the ratio) leaves the
    # minimizer free: detect a flat cost and flag the fit as unconstrained
    constrained = bool(costs.max() - costs.min() > 1e-18)

    def refine(i: int) -> tuple:
        xs, zoom = grid, costs
        while True:
            lo, hi = xs.item(max(i - 1, 0)), xs.item(min(i + 1, xs.size - 1))
            if hi - lo <= 1e-12:
                return xs.item(i), zoom.item(i)
            # the points of np.linspace(lo, hi, 21), with Python float ends
            xs = _ZOOM_STEPS * ((hi - lo) / 20) + lo
            xs[-1] = hi
            zoom = cost(shares(xs))
            i = int(zoom.argmin())

    ratio = math.exp(refine(best)[0])
    others = [refine(i) for i in _local_minima(costs) if i != best] if constrained else []
    achieved = {k: sector_shares(rates[k], REFERENCE_KAPPA, REFERENCE_KAPPA * ratio)["undesired"]
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
