"""The optics matrix of ``run_protocol`` against the composed substitution map.

``run_protocol`` builds the 8x8 matrix L of a run by multiplying the
station blocks, and the receiver's analyzer rotation, into the identity
block by block.  The oracle is the construction it replaced: every element
built as a substitution dict, as the constructors built them before they
became ``port_element`` of a matrix, the elements composed by
``elements.compose``, and the composite read back into a matrix by
``linear_map``.
"""

import math

import numpy as np
import pytest

from cqtsim import protocol
from cqtsim.elements import OpticalElement, compose, hwp_matrix, qwp_matrix
from cqtsim.fock import H, V, KET_D, KET_H, KET_R
from cqtsim.protocol import (COMPENSATION_PHASE, INPUT_MODE, R_PREP, WIRINGS,
                             InputQubit, ProtocolConfig, ProtocolError,
                             encoding_plate_angles, run_protocol)
from test_composed_vs_sequential import RUNS

DENSE_MODES = tuple((spatial, pol) for spatial in (1, 2, 3, 4) for pol in (H, V))
MODE_INDEX = {m: i for i, m in enumerate(DENSE_MODES)}


# --- the elements as substitution dicts ----------------------------------------------------

def jones_element(spatial, jones):
    jones = np.asarray(jones, dtype=complex)
    return OpticalElement({
        (spatial, H): {(spatial, H): jones[0, 0], (spatial, V): jones[1, 0]},
        (spatial, V): {(spatial, H): jones[0, 1], (spatial, V): jones[1, 1]},
    })


def phase_plate(spatial, phi, pol=V):
    j = np.eye(2, dtype=complex)
    j[1 if pol == V else 0, 1 if pol == V else 0] = np.exp(1j * phi)
    return jones_element(spatial, j)


def polarizer(spatial, jones_ket):
    v = np.asarray(jones_ket, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return jones_element(spatial, np.outer(v, v.conj()))


def balanced_bs(port_a, port_b):
    t = 1.0 / math.sqrt(2.0)
    r = 1.0j / math.sqrt(2.0)
    mapping = {}
    for p in (H, V):
        mapping[(port_a, p)] = {(port_a, p): t, (port_b, p): r}
        mapping[(port_b, p)] = {(port_a, p): r, (port_b, p): t}
    return OpticalElement(mapping)


def pbs(port_a, port_b, epsilon):
    t = math.sqrt(1.0 - epsilon)
    r = 1.0j * math.sqrt(epsilon)
    return OpticalElement({
        (port_a, H): {(port_a, H): t, (port_b, H): r},
        (port_b, H): {(port_b, H): t, (port_a, H): r},
        (port_a, V): {(port_b, V): 1.0j},
        (port_b, V): {(port_a, V): 1.0j},
    })


def setup_elements(config, exact_encoder=False):
    """Stations, encoder, fiber BS and controller's polarizer, element by element."""
    wiring = WIRINGS[config.roles]
    els = []
    if config.channel != "reference":
        els.append(jones_element(3, R_PREP))
    if config.channel == "g2":
        els.append(jones_element(2, hwp_matrix(math.pi / 4.0)))
    if config.channel != "reference":
        els.append(pbs(2, 3, config.pbs_epsilon))
    els += [phase_plate(1, COMPENSATION_PHASE), phase_plate(3, COMPENSATION_PHASE)]
    q = config.input
    if exact_encoder:
        els.append(jones_element(INPUT_MODE, [[q.alpha, -np.conj(q.beta)],
                                              [q.beta, np.conj(q.alpha)]]))
    else:
        theta_h, theta_q = encoding_plate_angles(q.alpha, q.beta)
        els += [jones_element(INPUT_MODE, hwp_matrix(theta_h)),
                jones_element(INPUT_MODE, qwp_matrix(theta_q))]
    els.append(balanced_bs(wiring.sender_resource, INPUT_MODE))
    if config.action == "deny":
        els.append(polarizer(wiring.controller, KET_H))
    elif config.action == "allow":
        els.append(polarizer(wiring.controller, KET_R if wiring.controller == 3 else KET_D))
    return els


def linear_map(element):
    """Matrix L of an element: a_m^dag becomes sum_k L[k, m] b_k^dag."""
    lin = np.eye(len(DENSE_MODES), dtype=complex)
    for m, outs in element.mapping.items():
        col = MODE_INDEX[m]
        lin[:, col] = 0.0
        for k, u in outs.items():
            lin[MODE_INDEX[k], col] = u
    return lin


# --- the dense matrix against the composed map ----------------------------------------------

def inputs():
    rng = np.random.default_rng(20261018)
    haar = [InputQubit.from_components(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            for _ in range(4)]
    return [InputQubit.from_name(name) for name in ("h", "v", "plus", "r")] + haar


def run_matrix(config, monkeypatch):
    """The matrix L that ``run_protocol`` builds for ``config``."""
    built = []
    optics_matrix = protocol._optics_matrix
    monkeypatch.setattr(protocol, "_optics_matrix",
                        lambda blocks: built.append(optics_matrix(blocks)) or built[-1])
    try:
        run_protocol(config)
    except ProtocolError:
        pass            # some runs at epsilon = 1 never click four-fold; L is built first
    monkeypatch.undo()
    lin, = built
    return lin


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("channel, action, roles", RUNS)
def test_run_matrix_equals_composed_map(channel, action, roles, epsilon, monkeypatch):
    wiring = WIRINGS[roles]
    frame = protocol.analyzer_frame(channel, roles)
    for input_q in inputs():
        config = ProtocolConfig(channel=channel, action=action, roles=roles,
                                input=input_q, pbs_epsilon=epsilon)
        analyzer = np.array([frame @ input_q.ket(), frame @ input_q.orthogonal_ket()]).conj()
        oracle = linear_map(compose(setup_elements(config)
                                    + [jones_element(wiring.receiver, analyzer)]))
        assert np.max(np.abs(run_matrix(config, monkeypatch) - oracle)) <= 1e-15
        # the calibration's optics, exact encoder and no analyzer, from the same blocks
        exact = protocol._optics_matrix(protocol._station_blocks(config, exact_encoder=True))
        oracle = linear_map(compose(setup_elements(config, exact_encoder=True)))
        assert np.max(np.abs(exact - oracle)) <= 1e-15


@pytest.mark.parametrize("channel, action, roles", RUNS)
def test_sparse_elements_of_the_blocks_equal_the_substitution_dicts(channel, action, roles):
    # port_element drops the exact zeros the dicts keep; nothing else differs
    config = ProtocolConfig(channel=channel, action=action, roles=roles,
                            input=inputs()[-1], pbs_epsilon=0.05)
    blocks = protocol._elements(protocol._station_blocks(config))
    dicts = setup_elements(config)
    assert len(blocks) == len(dicts)
    for got, want in zip(blocks, dicts):
        assert got.mapping == {m: {k: u for k, u in outs.items() if u != 0}
                               for m, outs in want.mapping.items()}
