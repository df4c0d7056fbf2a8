"""A run's last pair creations keep only the occupations that click all four detectors.

``protocol._emitted`` with ``detectors`` builds the sectors of the most
photons over ``protocol._clicked`` alone: each kept amplitude must be the
whole vector's, bit for bit.  ``protocol._tally`` cuts rounding residue off
the rates, not off the amplitudes: a sector's total, parallel or
perpendicular rate at most ``PRUNE_THRESHOLD ** 2`` of the emitted weight
counts as 0.  So no tally propagates a whole sector.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqtsim import protocol, spdc
from cqtsim.fock import PRUNE_THRESHOLD
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
def test_no_amplitude_of_a_whole_sector_exceeds_its_weight_times_its_norm(source):
    # every block of the optics is unitary or a projector, so L is a contraction
    weights = protocol._sector_weights(source)
    for (channel, action, roles), eps in ((c, e) for c in CONFIGS for e in EPSILONS):
        configs = [ProtocolConfig(channel=channel, action=action, input=q, source=source,
                                  pbs_epsilon=eps, roles=roles) for q in inputs()]
        for jk, vec in protocol._emitted(optics_matrices(configs), weights).items():
            weight, norm = weights[jk]
            largest = np.abs(weight * vec).max(axis=1)
            assert (largest <= abs(weight) * math.sqrt(norm)).all(), (channel, action, roles,
                                                                       eps, jk)


def whole_vectors(monkeypatch, warm=()) -> list:
    """The stack height and sectors of each later ``_emitted`` call for whole
    vectors, after the cached calibration and norms of the configurations
    ``warm``, which propagate whole vectors once, are in place."""
    for config in warm:
        protocol.analyzer_frame(config.channel, config.roles)
        protocol._sector_weights(config.source)
    calls = []
    emitted = protocol._emitted

    def spy(lin, sectors, detectors=()):
        if not detectors:
            calls.append((len(lin), sorted(sectors)))
        return emitted(lin, sectors, detectors)

    monkeypatch.setattr(protocol, "_emitted", spy)
    return calls


@pytest.mark.parametrize("kappas, order", [((0.1, 0.055), order) for order in (2, 3, 4, 5)]
                         + [((0.05, 0.2), 2)],
                         ids=["order-2", "order-3", "order-4", "order-5", "strong-backward"])
def test_g2_deny_of_v_prints_no_residue_of_sector_1111(kappas, order, monkeypatch):
    # sector (1, 1) never clicks four-fold, but its clicked amplitudes hold
    # rounding residue of about 1e-19, which would print as a rate of about
    # 1e-38, far below the cut of the rates.  At order 2 it is all of f_perp;
    # from order 3 the sectors of more pairs add a real one
    config = ProtocolConfig(channel="g2", action="deny", input=InputQubit.from_name("v"),
                            source=SourceParams(*kappas, order), pbs_epsilon=0.0)
    want = repr(reference_run_protocol(config)[0])
    calls = whole_vectors(monkeypatch)
    record = protocol.count_rates(config)
    assert calls == []
    assert record.per_term["1111"] == 0.0
    assert (record.f_perp == 0.0) == (order == 2)
    assert repr(record) == want


def test_no_fit_of_the_benchmark_takes_the_whole_vector(monkeypatch):
    # the fits of ratio_fit seed 7, 20 rounds: each propagates its three
    # configurations at the default source as fit-spdc does
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "cqtbench"))
    import workloads

    specs = [op.spec for r in range(20) for op in workloads.fit_round(7, r)]
    calls = whole_vectors(monkeypatch, [ProtocolConfig(channel="reference", action="none",
                                                       source=SourceParams()),
                                        ProtocolConfig(source=SourceParams())])
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


@pytest.mark.parametrize("source", [None, SourceParams(0.1, 0.055), SourceParams(0.05, 0.2, 3)])
def test_no_run_mixture_or_stack_takes_the_whole_vector(source, monkeypatch):
    # single runs of every accepted configuration, the mixtures of the g1
    # ones, and the swapped roles' allowed and denied runs as one stack
    configs = [ProtocolConfig(channel=channel, action=action, input=q, source=source,
                              pbs_epsilon=eps, roles=roles)
               for (channel, action, roles), eps in ((c, e) for c in CONFIGS for e in EPSILONS)
               for q in inputs()[::3]]
    calls = whole_vectors(monkeypatch, configs)
    for config in configs:
        stacks = [[config]]
        if config.channel == "g1" and config.roles == "standard":
            stacks.append([config, replace(config, channel="g2")])
        if config.roles == "swapped":
            stacks.append([replace(config, action=action) for action in ("allow", "deny")])
        for stack in stacks:
            rows = protocol._tally(stack)
            assert all(isinstance(row, (tuple, protocol.NoCoincidenceError)) for row in rows)
    assert calls == []


@pytest.mark.parametrize("where, other", [("par", "perp"), ("perp", "par")])
@pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
def test_a_rate_at_most_the_cut_counts_as_zero(where, other, factor, monkeypatch):
    # stand-ins for the clicked amplitudes of order 2, zero but for one each:
    # sector (2, 0)'s gives a rate just below or just above PRUNE_THRESHOLD ** 2
    # of the emitted weight, and sector (1, 1)'s keeps the run's success above
    # the bound of no coincidence
    config = ProtocolConfig(source=SourceParams(0.1, 0.055))
    weights = protocol._sector_weights(config.source)
    cut = PRUNE_THRESHOLD ** 2 * sum(abs(w) ** 2 * n for w, n in weights.values())
    weight = weights[(2, 0)][0]
    small = math.sqrt(cut * factor) / abs(weight)
    detectors = tuple(protocol._detector_spatials(config))
    clicked, par, perp, *_ = protocol._tally_indices(4, detectors, WIRINGS["standard"].receiver)
    at = {"par": clicked.searchsorted(par[0]), "perp": clicked.searchsorted(perp[0])}
    emitted = protocol._emitted

    def stand_in(lin, sectors, detectors=()):
        out = emitted(lin, sectors, detectors)
        if detectors:   # the tally's call, not the calibration's or the norms'
            out = {jk: np.zeros_like(vec) for jk, vec in out.items()}
            out[(1, 1)][:, at[other]] = 0.5
            out[(2, 0)][:, at[where]] = small
        return out

    monkeypatch.setattr(protocol, "_emitted", stand_in)
    (record, _, _, receiver), = protocol._tally([config])
    rate = abs(weight * small) ** 2 if factor > 1 else 0.0
    assert rate == 0.0 or rate > cut
    assert record.per_term["2200"] == rate
    rates = {"par": record.f_parallel, "perp": record.f_perp}
    assert rates[where] == rate
    assert rates[other] == abs(weights[(1, 1)][0] * 0.5) ** 2
    # the cut leaves the amplitudes, and the receiver state, alone
    state = receiver[-1][0]     # labels in order: 0022, 1111, 2200
    assert np.count_nonzero(state) == 1 and weight * small in state
