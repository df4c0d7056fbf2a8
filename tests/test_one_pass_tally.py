"""The dense tally of ``run_protocol`` against the sparse-state tally.

``run_protocol`` propagates each emission sector as a dense photon-number
vector and reads the rates and the conditional state off index masks.  The
oracle below is the earlier tally on sparse states: the same optics composed
as one substitution map and applied to each sector of the emission source, a
``clicks_at`` predicate for the rates and ``project`` with a second
predicate for the conditional state.  The two sum different rounded terms,
so they agree to 1e-12 relative, as in ``test_composed_vs_sequential.py``.

``run_protocol``, its analyzer calibration included, builds no sparse state,
so nothing on that path calls ``occupation``.
"""

import sys

import numpy as np
import pytest

from cqtsim import fock, protocol
from cqtsim.channels import PAULI_X
from cqtsim.fock import H, V, project, spatial_counts, to_qubit_density, unit_pair
from cqtsim.protocol import (WIRINGS, InputQubit, ProtocolConfig, _detector_spatials,
                             _station_blocks, analyzer_frame, run_protocol)
from cqtsim.spdc import SourceParams
from helpers import apply_map, block_maps, clicks_at, compose
from test_composed_vs_sequential import assert_record_matches, grid, sectors


def projected_tally(config):
    wiring = WIRINGS[config.roles]
    frame = analyzer_frame(config.channel, config.roles)
    analyzer = np.array([frame @ config.input.ket(),
                         frame @ config.input.orthogonal_ket()]).conj()
    optics = compose(block_maps(_station_blocks(config) + [((wiring.receiver,), analyzer)]))
    fourfold = clicks_at(_detector_spatials(config))

    def cond_pred(occ):
        return fourfold(occ) and spatial_counts(occ)[wiring.receiver] == 1

    f_par = f_perp = success = 0.0
    per_term = {}
    rho_acc = np.zeros((2, 2), dtype=complex)
    rho_weight = 0.0
    emitted = sectors(config)
    empty_tol = 1e-14 * sum(sector.norm_sq() for sector in emitted.values())
    for label, sector in emitted.items():
        state = apply_map(optics, sector)
        clicked = [(dict(occ), abs(amp) ** 2) for occ, amp in state.terms.items()
                   if fourfold(occ)]
        success += sum(p for _, p in clicked)
        p_par = sum(p for modes, p in clicked if (wiring.receiver, V) not in modes)
        p_perp = sum(p for modes, p in clicked if (wiring.receiver, H) not in modes)
        f_par += p_par
        f_perp += p_perp
        per_term[label] = p_par + p_perp
        cond, p_cond = project(state, cond_pred, empty_tol)
        if cond is not None:
            rho_acc += p_cond * to_qubit_density(cond, [wiring.receiver])
            rho_weight += p_cond
    rho = analyzer.conj().T @ (rho_acc / rho_weight) @ analyzer
    if config.channel == "g2":
        rho = PAULI_X @ rho @ PAULI_X
    return f_par, f_perp, success, per_term, rho


ORDER_5 = ProtocolConfig(channel="g1", action="deny", pbs_epsilon=0.05,
                         input=InputQubit(*unit_pair(0.6, 0.8j, "input")),
                         source=SourceParams(0.1, 0.055, truncation_order=5))


@pytest.mark.parametrize("config", grid((None, 2, 3, 4))
                         + [pytest.param(ORDER_5, id="g1-deny-standard-5")])
def test_one_pass_tally_equals_projected_tally(config):
    record, rho = run_protocol(config)
    assert_record_matches(record, rho, projected_tally(config))


def test_reference_double_pairs_never_click_at_order_2():
    # the uncontrolled run leaves mode 3 empty unless a backward pair fills it,
    # and mode 2 unless a forward one does: both double-pair rates are exact
    # zeros, which the bundled fit-spdc row "uncontrolled,13,0,-13" shows
    config = ProtocolConfig(channel="reference", action="none", pbs_epsilon=0.05,
                            source=SourceParams(0.1, 0.1, truncation_order=2))
    per_term = run_protocol(config)[0].per_term
    assert per_term["2200"] == 0.0 and per_term["0022"] == 0.0
    assert per_term["1111"] > 0.0


def test_propagation_and_tally_never_call_occupation(monkeypatch):
    configs = [ProtocolConfig(channel="g1", action="allow"),
               ProtocolConfig(channel="g1", action="allow", pbs_epsilon=0.05,
                              source=SourceParams(0.1, 0.055, truncation_order=2))]
    protocol._calibrated_frame.cache_clear()     # the calibration runs below

    def forbidden(counts):
        raise AssertionError(f"occupation({counts!r}) called")

    original = fock.occupation      # read once: the loop rebinds fock.occupation too
    modules = [m for name, m in sys.modules.items()
               if name == "cqtsim" or name.startswith("cqtsim.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, forbidden)
    for config in configs:
        record, _ = run_protocol(config)
        assert record.success_probability > 0.0
