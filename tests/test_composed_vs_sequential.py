"""The one-matrix propagation against the element-by-element one it replaced.

``run_protocol`` multiplies the station blocks, the controller's polarizer
and the analyzer rotation into one matrix and propagates each emission
sector once.  The oracle below is the earlier pipeline, kept as it was (less
the frame calibration's consistency checks): every block turned into a
sparse element and applied in turn, the analyzer frame calibrated the same
way, and each analyzer setting as a lossy polarizer applied to the
propagated state.
"""

import math
import sys

import numpy as np
import pytest

from cqtsim.channels import PAULI_X
from cqtsim.elements import apply, polarizer_matrix, port_element
from cqtsim.fock import H, V, project, spatial_counts, to_qubit_density
from cqtsim.protocol import (INPUT_MODE, WIRINGS, InputQubit, ProtocolConfig,
                             ProtocolError, _detector_spatials, _station_blocks,
                             emulate_mixture, run_protocol)
from cqtsim.spdc import SourceParams, coincidence_sectors, four_mode_source

from helpers import block_elements, clicks_at, ideal_source_state


def sectors(config):
    """The emission sectors as sparse states, keyed by spatial signature."""
    if config.source is None:
        return {"1111": ideal_source_state()}
    return coincidence_sectors(four_mode_source(config.source))


def station_elements(config):
    """The stations and the controller's polarizer as sparse elements, in order."""
    return block_elements(_station_blocks(config))


def apply_all(state, elements):
    for el in elements:
        state = apply(el, state)
    return state


def sequential_frame(channel, roles="standard"):
    wiring = WIRINGS[roles]
    action = "none" if channel == "reference" else "allow"

    def receiver_ket(input_q):
        cfg = ProtocolConfig(channel=channel, action=action, input=input_q,
                             source=None, pbs_epsilon=0.0, roles=roles)
        state = apply_all(ideal_source_state(), station_elements(cfg))
        env = {(wiring.sender_resource, H): 1, (INPUT_MODE, V): 1,
               (wiring.controller, H): 1}
        return np.array([
            state.amplitude({**env, (wiring.receiver, H): 1}),
            state.amplitude({**env, (wiring.receiver, V): 1}),
        ])

    w = np.column_stack([receiver_ket(InputQubit.from_name("h")),
                         receiver_ket(InputQubit.from_name("v"))])
    return w / math.sqrt(float(np.real((w.conj().T @ w)[0, 0])))


def _fourfold_prob(state, receiver, analyzer_ket, detectors):
    analyzed = apply(port_element((receiver,), polarizer_matrix(analyzer_ket)), state)
    _, prob = project(analyzed, clicks_at(detectors))
    return prob


def sequential_run(config):
    wiring = WIRINGS[config.roles]
    stations = station_elements(config)
    detectors = _detector_spatials(config)
    frame = sequential_frame(config.channel, config.roles)
    ket_par = frame @ config.input.ket()
    ket_perp = frame @ config.input.orthogonal_ket()

    others = [d for d in detectors if d != wiring.receiver]

    def cond_pred(occ):
        counts = spatial_counts(occ)
        return (all(counts.get(s, 0) >= 1 for s in others)
                and counts.get(wiring.receiver, 0) == 1)

    f_par = 0.0
    f_perp = 0.0
    success = 0.0
    per_term = {}
    rho_acc = np.zeros((2, 2), dtype=complex)
    rho_weight = 0.0

    emitted = sectors(config)
    empty_tol = 1e-14 * sum(sector.norm_sq() for sector in emitted.values())
    for label, sector in emitted.items():
        state = apply_all(sector, stations)
        _, p_success = project(state, clicks_at(detectors))
        success += p_success
        cond, p_cond = project(state, cond_pred, empty_tol)
        if cond is not None:
            rho_acc += p_cond * to_qubit_density(cond, [wiring.receiver])
            rho_weight += p_cond
        p_par = _fourfold_prob(state, wiring.receiver, ket_par, detectors)
        p_perp = _fourfold_prob(state, wiring.receiver, ket_perp, detectors)
        f_par += p_par
        f_perp += p_perp
        per_term[label] = p_par + p_perp

    rho = rho_acc / rho_weight
    if config.channel == "g2":
        rho = PAULI_X @ rho @ PAULI_X
    return f_par, f_perp, success, per_term, rho


RUNS = [("g1", "allow", "standard"), ("g1", "deny", "standard"),
        ("g2", "allow", "standard"), ("g2", "deny", "standard"),
        ("reference", "none", "standard"),
        ("g1", "allow", "swapped"), ("g1", "deny", "swapped")]


def grid(orders=(None, 2, 3)):
    rng = np.random.default_rng(20260418)
    cases = []
    for order in orders:
        for channel, action, roles in RUNS:
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            source = None if order is None else SourceParams(
                *rng.uniform(0.03, 0.2, size=2), truncation_order=order)
            cfg = ProtocolConfig(channel=channel, action=action, roles=roles,
                                 input=InputQubit.from_components(a, b),
                                 source=source,
                                 pbs_epsilon=float(rng.uniform(0.0, 0.1)))
            cases.append(pytest.param(cfg, id=f"{channel}-{action}-{roles}-{order}"))
    return cases


def assert_close(a, b):
    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def assert_record_matches(record, rho, expected):
    f_par, f_perp, success, per_term, exp_rho = expected
    assert_close(record.f_parallel, f_par)
    assert_close(record.f_perp, f_perp)
    assert_close(record.success_probability, success)
    assert record.per_term.keys() == per_term.keys()
    for label, value in per_term.items():
        assert_close(record.per_term[label], value)
    if rho is not None:
        assert np.max(np.abs(rho - exp_rho)) <= 1e-12


@pytest.mark.parametrize("config", grid())
def test_composed_run_matches_sequential(config):
    record, rho = run_protocol(config)
    assert_record_matches(record, rho, sequential_run(config))


@pytest.mark.parametrize("order", [None, 2, 3])
def test_composed_mix_matches_sequential(order):
    source = None if order is None else SourceParams(0.1, 0.055, truncation_order=order)
    cfgs = [ProtocolConfig(channel=ch, action="deny", input=InputQubit.from_name("r"),
                           source=source, pbs_epsilon=0.05) for ch in ("g1", "g2")]
    composed = emulate_mixture(cfgs[0], 0.3)
    seq = [sequential_run(c) for c in cfgs]
    mixed = [0.7 * x + 0.3 * y for x, y in zip(seq[0][:3], seq[1][:3])]
    per_term = {k: 0.7 * seq[0][3][k] + 0.3 * seq[1][3][k] for k in seq[0][3]}
    assert_record_matches(composed, None, (*mixed, per_term, None))


def forbid_sparse_builds(monkeypatch):
    """Make building a ``PureState`` or an ``OpticalElement`` raise; clear the frame cache."""
    from cqtsim import elements, fock, protocol

    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"built {type(self).__name__}")

    monkeypatch.setattr(fock.PureState, "__init__", forbidden)
    monkeypatch.setattr(elements.OpticalElement, "__post_init__", forbidden)
    protocol._calibrated_frame.cache_clear()
    with pytest.raises(AssertionError, match="built PureState"):
        fock.PureState({(): 1.0})
    with pytest.raises(AssertionError, match="built OpticalElement"):
        elements.port_element((1,), np.eye(2))


def test_no_apply_after_calibration(monkeypatch):
    from cqtsim import elements
    cfg = ProtocolConfig(channel="g2", action="deny",
                         source=SourceParams(0.1, 0.055, truncation_order=3))

    def forbidden(element, state):
        raise AssertionError("run_protocol called elements.apply")

    original = elements.apply       # read once: the loop rebinds elements.apply too
    for name, module in list(sys.modules.items()):
        if name == "cqtsim" or name.startswith("cqtsim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    forbid_sparse_builds(monkeypatch)
    assert run_protocol(cfg)[0].success_probability > 0.0


def test_no_compose_after_calibration(monkeypatch):
    # the optics of a run, and of its analyzer calibration, are one matrix of
    # blocks: no substitution map is built, and the package has none to compose
    cfg = ProtocolConfig(channel="g2", action="deny", pbs_epsilon=0.05,
                         source=SourceParams(0.1, 0.055, truncation_order=2))
    assert not [name for name, module in sys.modules.items()
                if (name == "cqtsim" or name.startswith("cqtsim.")) and hasattr(module, "compose")]
    forbid_sparse_builds(monkeypatch)
    assert run_protocol(cfg)[0].success_probability > 0.0


CLI_RUNS = ([["run", "--channel", channel, "--action", action]
             for channel in ("g1", "g2", "mix") for action in ("allow", "deny")]
            + [["run", "--channel", "reference", "--action", "none"]]
            + [["run", "--roles", "swapped", "--action", action] for action in ("allow", "deny")])


@pytest.mark.parametrize("argv", [argv + source for argv in CLI_RUNS
                                  for source in (["--ideal"], ["--kappa-forward", "0.1",
                                                               "--pbs-epsilon", "0.05"])]
                         + [["fit-spdc"], ["fit-spdc", "--synthetic-ratio", "0.8"]],
                         ids=" ".join)
def test_cli_builds_no_sparse_state_or_element(argv, monkeypatch, capsys):
    from cqtsim.cli import main

    forbid_sparse_builds(monkeypatch)
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("config", grid((None, 2, 3, 4, 5)))
def test_per_term_labels_are_the_coincidence_sectors(config):
    assert list(run_protocol(config)[0].per_term) == list(sectors(config))


def test_order_one_has_no_coincidence_sector():
    cfg = ProtocolConfig(source=SourceParams(0.1, 0.055, truncation_order=1))
    assert sectors(cfg) == {}
    with pytest.raises(ProtocolError, match="no configuration of the source terms"):
        run_protocol(cfg)
