"""A run's last pair creations keep only the occupations that click all four detectors.

``protocol._emitted`` with ``detectors`` builds the sectors of the most
photons over ``protocol._clicked`` alone: each kept amplitude must be the
whole vector's, bit for bit.  ``protocol._tally`` still prunes those sectors
against the whole sector's largest amplitude.  It bounds that amplitude by
|weight| sqrt(norm), since every block of the optics is unitary or a
projector, and takes it from the whole vector of a row only when a kept
amplitude lies within the cut of the bound (the fallback).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from cqtsim import protocol, spdc
from cqtsim.protocol import WIRINGS, InputQubit, ProtocolConfig
from cqtsim.spdc import SourceParams

from helpers import reference_create_pairs, reference_run_protocol

# the detectors of the standard and of the swapped roles, and two of them alone
DETECTORS = ((1, 4, 3, 2), (2, 4, 1, 3), (2, 3))
# every accepted (channel, action, roles)
CONFIGS = [("g1", action, roles) for action in ("allow", "deny", "none")
           for roles in ("standard", "swapped")]
CONFIGS += [("g2", action, "standard") for action in ("allow", "deny", "none")]
CONFIGS += [("reference", "none", "standard")]
EPSILONS = (0.0, 0.05, 0.3, 1.0)


@pytest.fixture(autouse=True)
def drop_large_tables():
    # the tables of ten photons and of tall stacks take tens of MB
    yield
    protocol._pair_table.cache_clear()


def with_signed_zeros(rng, shape):
    """Complex normals over three decades, so that a bin's sum depends on the
    order of its terms, with about a third of the parts +0.0 or -0.0."""
    parts = rng.normal(size=(*shape, 2)) * 10.0 ** rng.integers(-1, 2, size=(*shape, 2))
    zero = rng.random(parts.shape) < 0.3
    parts[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    return parts.view(complex)[..., 0]


def symmetric(rng, rows):
    upper = with_signed_zeros(rng, (rows, 8, 8))
    i, j = np.triu_indices(8)
    q = np.empty_like(upper)
    q[:, i, j] = q[:, j, i] = upper[:, i, j]
    return q


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(9))
def test_the_clicked_targets_keep_the_bits_of_the_whole_creation(n, rows):
    rng = np.random.default_rng([45, n, rows])
    vecs = with_signed_zeros(rng, (rows, len(protocol._number_basis(n)[1])))
    q = symmetric(rng, rows)
    whole = protocol._create_pairs(vecs, n, q)
    assert whole.tobytes() == reference_create_pairs(vecs, n, q).tobytes()
    for detectors in DETECTORS:
        clicked = protocol._clicked(n + 2, detectors)
        kept = protocol._create_pairs(vecs, n, q, detectors)
        assert kept.shape == (rows, len(clicked))
        assert kept.tobytes() == whole[:, clicked].tobytes()


@pytest.mark.parametrize("n, size", [(4, 16), (6, 344)])
def test_the_clicked_states_are_those_of_the_tally(n, size):
    for roles, wiring in WIRINGS.items():
        config = ProtocolConfig(roles=roles)
        detectors = tuple(protocol._detector_spatials(config))
        clicked = protocol._tally_indices(n, detectors, wiring.receiver)[0]
        assert clicked.tolist() == protocol._clicked(n, detectors).tolist()
        assert len(clicked) == size


def inputs():
    rng = np.random.default_rng(45)
    named = [InputQubit.from_name(name) for name in ("h", "v", "plus", "minus", "r", "l",
                                                     "linear:30")]
    haar = [v / np.linalg.norm(v) for v in rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))]
    return named + [InputQubit(complex(a), complex(b)) for a, b in haar]


def optics_matrices(configs) -> np.ndarray:
    """The optics matrix of each configuration, analyzer included, as ``_tally`` builds it."""
    lins = []
    for config in configs:
        frame = protocol.analyzer_frame(config.channel, config.roles)
        analyzer = np.array([frame @ config.input.ket(),
                             frame @ config.input.orthogonal_ket()]).conj()
        receiver = WIRINGS[config.roles].receiver
        lins.append(protocol._optics_matrix(protocol._station_blocks(config)
                                            + [((receiver,), analyzer)]))
    return np.array(lins)


@pytest.mark.parametrize("source", [None, SourceParams(0.1, 0.055), SourceParams(0.05, 0.2, 3),
                                    SourceParams(0.2, 0.1, 4)])
def test_no_amplitude_of_a_whole_sector_exceeds_the_bound_of_the_prune(source):
    weights = protocol._sector_weights(source)
    for (channel, action, roles), eps in ((c, e) for c in CONFIGS for e in EPSILONS):
        configs = [ProtocolConfig(channel=channel, action=action, input=q, source=source,
                                  pbs_epsilon=eps, roles=roles) for q in inputs()]
        for jk, vec in protocol._emitted(optics_matrices(configs), weights).items():
            weight, norm = weights[jk]
            largest = np.abs(weight * vec).max(axis=1)
            assert (largest <= abs(weight) * math.sqrt(norm)).all(), (channel, action, roles,
                                                                       eps, jk)


def whole_vectors(monkeypatch) -> list:
    """The stack height and sectors of each ``_emitted`` call for whole vectors."""
    calls = []
    emitted = protocol._emitted

    def spy(lin, sectors, detectors=()):
        if not detectors:
            calls.append((len(lin), sorted(sectors)))
        return emitted(lin, sectors, detectors)

    monkeypatch.setattr(protocol, "_emitted", spy)
    return calls


@pytest.mark.parametrize("kappas", [(0.1, 0.055), (0.05, 0.2)])
def test_g2_deny_of_v_takes_its_cut_from_the_whole_vector(kappas, monkeypatch):
    # its clicked amplitudes of sector (1, 1) are far below the sector's
    # largest; against the clicked ones alone, rounding residue of about 1e-19
    # would survive the cut and print as an f_perp of about 1e-38
    config = ProtocolConfig(channel="g2", action="deny", input=InputQubit.from_name("v"),
                            source=SourceParams(*kappas), pbs_epsilon=0.0)
    want = repr(reference_run_protocol(config)[0])
    calls = whole_vectors(monkeypatch)
    record = protocol.count_rates(config)
    assert calls == [(1, [(1, 1)])]
    assert record.f_perp == 0.0
    assert repr(record) == want


def test_no_fit_of_the_benchmark_takes_the_whole_vector(monkeypatch):
    # the fits of ratio_fit seed 7, 20 rounds: each propagates its three
    # configurations at the default source as fit-spdc does
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "cqtbench"))
    import workloads

    specs = [op.spec for r in range(20) for op in workloads.fit_round(7, r)]
    for channel in ("g1", "reference"):
        protocol.analyzer_frame(channel)
    protocol._sector_weights(SourceParams())
    calls = whole_vectors(monkeypatch)
    for spec in specs:
        q = InputQubit.from_name(spec["input"])
        spdc.sector_rates(SourceParams(), {
            label: ProtocolConfig(channel=channel, action=action, input=q,
                                  pbs_epsilon=spec["eps"])
            for label, channel, action in (("uncontrolled", "reference", "none"),
                                           ("allowed", "g1", "allow"),
                                           ("denied", "g1", "deny"))})
    assert len(specs) == 100
    assert calls == []


ROOT_NORM = math.sqrt(protocol._emitted_norms(2)[(2, 0)])     # sqrt(3/4), up to rounding


@pytest.mark.parametrize("largest, small, kept", [
    # the whole sector's largest, 0.8, sits where no four-fold pattern clicks;
    # a clicked amplitude at most 1e-15 of it falls to the cut, one above stays
    (0.8, 0.79e-15, False),
    (0.8, 0.81e-15, True),
    # a largest above the bound by rounding, here 1e-12 of it; the cut of the
    # bound (1e-15 sqrt(3/4)) keeps the clicked amplitude, the whole sector's not
    (ROOT_NORM * (1 + 1e-12), 1e-15 * ROOT_NORM * (1 + 0.5e-12), False),
])
def test_a_clicked_amplitude_takes_the_cut_of_the_whole_sector(largest, small, kept,
                                                                 monkeypatch):
    # a stand-in for the vector of sector (2, 0), whose unit-strength norm is
    # 3/4: every amplitude lies above 1e-15 of the clicked largest, 0.1
    source = SourceParams(0.1, 0.055)
    config = ProtocolConfig(source=source)
    weight = protocol._sector_weights(source)[(2, 0)][0]
    clicked = protocol._clicked(4, tuple(protocol._detector_spatials(config)))
    size = len(protocol._number_basis(4)[1])
    whole = np.zeros(size, dtype=complex)
    whole[np.setdiff1d(np.arange(size), clicked)[0]] = largest
    whole[clicked[:2]] = 0.1, small
    emitted = protocol._emitted

    def stand_in(lin, sectors, detectors=()):
        out = emitted(lin, sectors, detectors)
        if (2, 0) in out:
            out[(2, 0)] = np.tile(whole[clicked] if detectors else whole, (len(lin), 1))
        return out

    monkeypatch.setattr(protocol, "_emitted", stand_in)
    (_, _, _, receiver), = protocol._tally([config])
    state = receiver[-1][0]     # labels in order: 0022, 1111, 2200
    assert state[:3].tolist() == [weight * 0.1, weight * small if kept else 0.0, 0.0]
