"""The optics matrix of ``run_protocol`` against the composed substitution map.

``run_protocol`` builds the 8x8 matrix L of a run as the product of the
station blocks, and the receiver's analyzer rotation, each embedded in the
identity.  One oracle is the construction that came before the blocks:
every element built as a substitution dict mode -> {mode: amplitude}, as
the constructors built them before they became local matrices, the dicts
composed by ``helpers.compose``, and the composite read back into a matrix
by ``linear_map``.  The other, ``helpers.reference_optics_matrix``, is the
row-update build that the embedded product replaced; L keeps its bits.
"""

import math

import numpy as np
import pytest

from cqtsim import protocol
from cqtsim.elements import hwp_matrix
from cqtsim.fock import H, V, KET_D, KET_H, KET_R, unit_pair
from cqtsim.protocol import (COMPENSATION_PHASE, INPUT_MODE, R_PREP, WIRINGS,
                             InputQubit, ProtocolConfig, ProtocolError, run_protocol)
from helpers import block_maps, compose, reference_optics_matrix
from test_composed_vs_sequential import RUNS

DENSE_MODES = tuple((spatial, pol) for spatial in (1, 2, 3, 4) for pol in (H, V))
MODE_INDEX = {m: i for i, m in enumerate(DENSE_MODES)}


# --- the elements as substitution dicts ----------------------------------------------------

def jones_element(spatial, jones):
    jones = np.asarray(jones, dtype=complex)
    return {
        (spatial, H): {(spatial, H): jones[0, 0], (spatial, V): jones[1, 0]},
        (spatial, V): {(spatial, H): jones[0, 1], (spatial, V): jones[1, 1]},
    }


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
    return mapping


def pbs(port_a, port_b, epsilon):
    t = math.sqrt(1.0 - epsilon)
    r = 1.0j * math.sqrt(epsilon)
    return {
        (port_a, H): {(port_a, H): t, (port_b, H): r},
        (port_b, H): {(port_b, H): t, (port_a, H): r},
        (port_a, V): {(port_b, V): 1.0j},
        (port_b, V): {(port_a, V): 1.0j},
    }


def setup_elements(config):
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
    els.append(jones_element(INPUT_MODE, [[q.alpha, -np.conj(q.beta)],
                                          [q.beta, np.conj(q.alpha)]]))
    els.append(balanced_bs(wiring.sender_resource, INPUT_MODE))
    if config.action == "deny":
        els.append(polarizer(wiring.controller, KET_H))
    elif config.action == "allow":
        els.append(polarizer(wiring.controller, KET_R if wiring.controller == 3 else KET_D))
    return els


def linear_map(mapping):
    """Matrix L of a substitution dict: a_m^dag becomes sum_k L[k, m] b_k^dag."""
    lin = np.eye(len(DENSE_MODES), dtype=complex)
    for m, outs in mapping.items():
        col = MODE_INDEX[m]
        lin[:, col] = 0.0
        for k, u in outs.items():
            lin[MODE_INDEX[k], col] = u
    return lin


# --- the dense matrix against the composed map ----------------------------------------------

def inputs():
    rng = np.random.default_rng(20261018)
    haar = [InputQubit(*unit_pair(*(rng.normal(size=2) + 1j * rng.normal(size=2)), "input"))
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
        # the calibration's optics, the same blocks without the analyzer
        stations = protocol._optics_matrix(protocol._station_blocks(config))
        oracle = linear_map(compose(setup_elements(config)))
        assert np.max(np.abs(stations - oracle)) <= 1e-15


@pytest.mark.parametrize("channel, action, roles", RUNS)
def test_substitution_maps_of_the_blocks_equal_the_substitution_dicts(channel, action, roles):
    # the maps of the blocks drop the exact zeros the dicts keep; nothing else differs
    config = ProtocolConfig(channel=channel, action=action, roles=roles,
                            input=inputs()[-1], pbs_epsilon=0.05)
    blocks = block_maps(protocol._station_blocks(config))
    dicts = setup_elements(config)
    assert len(blocks) == len(dicts)
    for got, want in zip(blocks, dicts):
        assert got == {m: {k: u for k, u in outs.items() if u != 0}
                       for m, outs in want.items()}


# every (channel, action, roles) that ProtocolConfig accepts
STATION_LISTS = ([(channel, action, "standard") for channel in ("g1", "g2")
                  for action in ("allow", "deny", "none")]
                 + [("reference", "none", "standard")]
                 + [("g1", action, "swapped") for action in ("allow", "deny", "none")])


def assert_same_bits(blocks):
    got, want = protocol._optics_matrix(blocks), reference_optics_matrix(blocks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("channel, action, roles", STATION_LISTS)
def test_optics_matrix_has_the_bits_of_the_row_updates(channel, action, roles, epsilon):
    # the station list of a run, with and without the analyzer block, and the
    # analyzer block alone, for named and Haar inputs: no tolerance, signed zeros too
    receiver = WIRINGS[roles].receiver
    frame = protocol.analyzer_frame(channel, roles)
    for input_q in inputs():
        config = ProtocolConfig(channel=channel, action=action, roles=roles,
                                input=input_q, pbs_epsilon=epsilon)
        stations = protocol._station_blocks(config)
        analyzer = ((receiver,), np.array([frame @ input_q.ket(),
                                           frame @ input_q.orthogonal_ket()]).conj())
        for blocks in (stations, stations + [analyzer], [analyzer]):
            assert_same_bits(blocks)


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("channel", ["g1", "g2", "reference"])
def test_prepare_ghz_optics_have_the_bits_of_the_row_updates(channel, epsilon):
    assert_same_bits(protocol._ghz_blocks(channel, epsilon))


def test_the_encoder_has_the_bits_of_the_input_kets():
    # built from alpha and beta at once, it is still the columns ket, orthogonal_ket
    for input_q in inputs() + [InputQubit(1, 0), InputQubit(0.0, -1.0), InputQubit(-0.0, 1j)]:
        encoder = np.column_stack([input_q.ket(), input_q.orthogonal_ket()])
        assert protocol._encoder_exact(input_q).tobytes() == encoder.tobytes()
