"""The one-photon-at-a-time creation step against the multinomial engine it replaced.

``elements.apply`` and ``spdc.emission_orders`` now create photons one at a
time with ``fock._create``.  The oracle below is the earlier engine, kept as it
was: ``apply`` expanded each substituted power (sum_j u_j b_j^dag)^n
multinomially, and the source multiplied a pair-creation operator into the
emission polynomial.  The multinomial ``apply`` takes a substitution map
mode -> {mode: amplitude} and assumes that its outputs never land in a mode
it leaves alone.  That holds for the map of every ``(spatials, matrix)``
block, which substitutes both polarizations of each of its spatial modes,
and for every composition of them, so both engines must agree there.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqtsim import spdc
from cqtsim.elements import (apply, balanced_bs_matrix, hwp_matrix, pbs_matrix,
                             polarizer_matrix, qwp_matrix)
from cqtsim.fock import H, V, PureState, occupation, total_photons, unit_pair
from cqtsim.protocol import InputQubit, ProtocolConfig, run_protocol
from cqtsim.spdc import PAIR_KINDS, SourceParams, four_mode_source

import helpers
import test_composed_vs_sequential as sequential
from helpers import apply_map, block_maps, compose, phase_on, substitution_map
from test_composed_vs_sequential import RUNS, assert_record_matches


# --- the multinomial engine, verbatim --------------------------------------------

def _compositions(n: int, k: int):
    """All ways to split n photons over k output slots (none when k = 0 < n)."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _expand_power(targets, n: int):
    """Expansion of (sum_j u_j b_j)^n: yields (coefficient, {mode: count})."""
    modes = [m for m, _ in targets]
    amps = [u for _, u in targets]
    for comp in _compositions(n, len(modes)):
        coef = math.factorial(n)
        for k in comp:
            coef /= math.factorial(k)
        term = complex(coef)
        for k, u in zip(comp, amps):
            if k:
                term *= u ** k
        if term == 0:
            continue
        yield term, {m: k for m, k in zip(modes, comp) if k}


def multinomial_apply(sub: dict, state: PureState) -> PureState:
    out: dict = {}
    for occ, amp in state.terms.items():
        affected = [(m, n) for m, n in occ if m in sub]
        base = {m: n for m, n in occ if m not in sub}
        prefactor = amp
        for _, n in affected:
            prefactor /= math.sqrt(math.factorial(n))
        expansions = [(prefactor, {})]
        for m, n in affected:
            targets = list(sub[m].items())
            new_exp = []
            for coef, outs in expansions:
                for term_coef, add in _expand_power(targets, n):
                    merged = dict(outs)
                    for om, k in add.items():
                        merged[om] = merged.get(om, 0) + k
                    new_exp.append((coef * term_coef, merged))
            expansions = new_exp
        for coef, outs in expansions:
            factor = coef
            for k in outs.values():
                factor *= math.sqrt(math.factorial(k))
            merged = dict(base)
            merged.update(outs)
            key = occupation(merged)
            out[key] = out.get(key, 0.0j) + factor
    return PureState(out)


def _apply_pair_creation(terms: dict, modes: tuple, pair: dict) -> dict:
    """Multiply a creation-operator polynomial (in ket form) by one pair operator."""
    out: dict = {}
    for occ, amp in terms.items():
        occd = dict(occ)
        for (p_s, p_i), u in pair.items():
            d = dict(occd)
            m_s, m_i = (modes[0], p_s), (modes[1], p_i)
            n_s = d.get(m_s, 0)
            n_i = d.get(m_i, 0)
            d[m_s] = n_s + 1
            d[m_i] = n_i + 1
            key = occupation(d)
            out[key] = out.get(key, 0.0j) + amp * u * math.sqrt(n_s + 1) * math.sqrt(n_i + 1)
    return out


def multinomial_emission_orders(pair_kind: str, order: int, modes: tuple) -> list:
    pair = PAIR_KINDS[pair_kind]
    levels = [{(): 1.0 + 0.0j}]
    for n in range(1, order + 1):
        nxt = _apply_pair_creation(levels[-1], modes, pair)
        levels.append({k: a / n for k, a in nxt.items()})
    return levels


# --- apply on library elements and their compositions -------------------------------

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
MODES = st.sampled_from([1, 2, 3])
PORTS = st.lists(MODES, min_size=2, max_size=2, unique=True)
KETS = st.tuples(st.complex_numbers(max_magnitude=1, allow_nan=False),
                 st.complex_numbers(max_magnitude=1, allow_nan=False)).filter(
    lambda k: abs(k[0]) + abs(k[1]) > 0.1)
ELEMENTS = st.one_of(
    st.builds(lambda m, t: ((m,), hwp_matrix(t)), MODES, ANGLES),
    st.builds(lambda m, t: ((m,), qwp_matrix(t)), MODES, ANGLES),
    st.builds(lambda m, phi, pol: ((m,), phase_on(phi, pol)),
              MODES, ANGLES, st.sampled_from([H, V])),
    st.builds(lambda m, k: ((m,), polarizer_matrix(np.array(k))), MODES, KETS),
    PORTS.map(lambda p: (p, balanced_bs_matrix())),
    st.builds(lambda p, eps: (p, pbs_matrix(eps)), PORTS,
              st.floats(min_value=0, max_value=1, allow_nan=False)),
)
# up to six photons in a term, up to three in one mode
MODE_COUNTS = st.dictionaries(st.tuples(MODES, st.sampled_from([H, V])),
                              st.integers(1, 3), max_size=4).filter(
    lambda c: total_photons(occupation(c)) <= 6)
STATES = st.lists(st.tuples(MODE_COUNTS, st.complex_numbers(max_magnitude=1,
                                                            allow_nan=False)),
                  min_size=1, max_size=4).map(
    lambda terms: PureState({occupation(c): a for c, a in terms}))
OPTICS = st.one_of(ELEMENTS.map(lambda block: [block]), st.lists(ELEMENTS, max_size=6))


@given(OPTICS, STATES)
@settings(max_examples=150, deadline=None)
def test_apply_matches_multinomial_engine(blocks, state):
    # one block goes through elements.apply, a chain through its composed map
    sub = compose(block_maps(blocks))
    got = apply(blocks[0], state) if len(blocks) == 1 else apply_map(sub, state)
    want = multinomial_apply(sub, state)
    for occ in set(got.terms) | set(want.terms):
        assert abs(got.terms.get(occ, 0) - want.terms.get(occ, 0)) <= 1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_source_matches_pair_creation_oracle(order, monkeypatch):
    params = SourceParams(0.13, 0.07j, truncation_order=order)
    got = four_mode_source(params)
    monkeypatch.setattr(spdc, "emission_orders", multinomial_emission_orders)
    want = four_mode_source(params)
    assert got.terms.keys() == want.terms.keys()
    for occ, amp in want.terms.items():
        assert got.terms[occ] == pytest.approx(amp, rel=1e-14, abs=0)


# --- whole runs --------------------------------------------------------------------

def grid():
    rng = np.random.default_rng(20261018)
    cases = []
    for order in (2, 3, 4):
        for channel, action, roles in RUNS:
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            cfg = ProtocolConfig(channel=channel, action=action, roles=roles,
                                 input=InputQubit(*unit_pair(a, b, "input")),
                                 source=SourceParams(*rng.uniform(0.03, 0.2, size=2),
                                                     truncation_order=order),
                                 pbs_epsilon=float(rng.uniform(0.0, 0.1)))
            cases.append(pytest.param(cfg, id=f"{channel}-{action}-{roles}-{order}"))
    return cases


def multinomial_run(config, monkeypatch):
    # run_protocol builds no sparse state, so the oracle is the sequential
    # sparse pipeline, frame calibration included, on the multinomial engine
    with monkeypatch.context() as patch:
        patch.setattr(sequential, "apply", lambda block, state: multinomial_apply(
            substitution_map(*block), state))
        patch.setattr(spdc, "emission_orders", multinomial_emission_orders)
        patch.setattr(helpers, "emission_orders", multinomial_emission_orders)
        return sequential.sequential_run(config)


@pytest.mark.parametrize("config", grid())
def test_run_matches_multinomial_engine(config, monkeypatch):
    record, rho = run_protocol(config)
    assert_record_matches(record, rho, multinomial_run(config, monkeypatch))
