"""Every row of a stacked ``protocol._tally`` is the tally of its configuration alone.

``fit-spdc`` propagates its three configurations (uncontrolled, allowed and
denied) and ``run --channel mix`` its two halves (g1 and g2) as one stack.
Each row must equal ``helpers.reference_run_protocol`` of its configuration,
bit for bit and its ``NoCoincidenceError`` included, and hold the analyzer,
the bound and the receiver states of a one-row tally.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqtsim import protocol
from cqtsim.protocol import (InputQubit, NoCoincidenceError, ProtocolConfig, ProtocolError,
                             emulate_mixture, run_protocol)
from cqtsim.spdc import SourceParams

from helpers import reference_run_protocol

FIT_TRIPLE = (("reference", "none"), ("g1", "allow"), ("g1", "deny"))


def stack(kind, input_q, source, eps, action="allow"):
    """The configurations that ``fit-spdc`` ("fit") or ``run --channel mix`` propagate
    together, or the swapped roles' allowed and denied runs ("swapped")."""
    if kind == "swapped":
        return [ProtocolConfig(action=act, input=input_q, source=source, pbs_epsilon=eps,
                               roles="swapped") for act in ("allow", "deny")]
    runs = FIT_TRIPLE if kind == "fit" else (("g1", action), ("g2", action))
    return [ProtocolConfig(channel=channel, action=act, input=input_q, source=source,
                           pbs_epsilon=eps) for channel, act in runs]


def record_or_error(config, run=reference_run_protocol):
    try:
        record, _ = run(config)
    except ProtocolError as exc:
        return type(exc), str(exc)
    return repr(record)


def row_bits(row):
    """Everything of a successful row but its record, as bytes."""
    _, analyzer, empty_tol, receiver = row
    return analyzer.tobytes(), repr(empty_tol), [tuple(a.tobytes() for a in sector)
                                                 for sector in receiver]


def assert_rows_are_their_own(configs) -> list:
    rows = protocol._tally(configs)
    assert len(rows) == len(configs)
    for config, row in zip(configs, rows):
        if isinstance(row, ProtocolError):
            assert (type(row), str(row)) == record_or_error(config)
            continue
        assert repr(row[0]) == record_or_error(config)
        alone, = protocol._tally([config])
        assert row_bits(row) == row_bits(alone)
    return rows


inputs = st.one_of(
    st.sampled_from(["h", "v", "plus", "minus", "r", "l", "linear:30"]).map(InputQubit.from_name),
    st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)).map(
        lambda tp: InputQubit(math.cos(tp[0] / 2), math.sin(tp[0] / 2) * np.exp(1j * tp[1]))))
strengths = st.one_of(st.just(0.0), st.floats(0.01, 0.3))
sources = st.one_of(st.none(), st.builds(SourceParams, strengths, strengths,
                                         st.integers(1, 3)))
epsilons = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(st.sampled_from(["fit", "mix"]), inputs, sources, epsilons,
       st.sampled_from(["allow", "deny", "none"]))
# a leak far below the rest of its run: a cut of rounding residue off the
# amplitudes, not off the rates, prints other last digits of its sector's rate
@example("fit", InputQubit(1.0, 5e-10), SourceParams(0.25, 0.25, 2), 0.25, "allow")
@settings(max_examples=150, deadline=None)
def test_each_row_of_a_stack_is_its_configuration_alone(kind, input_q, source, eps, action):
    assert_rows_are_their_own(stack(kind, input_q, source, eps, action))


@pytest.mark.parametrize("source", [None] + [SourceParams(0.1, 0.055, order)
                                            for order in (1, 2, 3, 4)]
                         + [SourceParams(0.08 + 0.06j, 0.05 - 0.02j, 3)],
                         ids=["ideal", "order-1", "order-2", "order-3", "order-4", "complex"])
@pytest.mark.parametrize("kind", ["fit", "mix", "swapped"])
def test_the_layered_tally_keeps_the_bits_of_the_reference(kind, source):
    # _tally sums each photon-number layer's sectors at once; every record,
    # error and receiver state is still the reference's, bit for bit.  Complex
    # strengths give complex sector weights, whose product with the amplitudes
    # fuses a multiply-add: weight times amplitude, in that order, as here
    for name, eps, action in (("plus", 0.05, "allow"), ("0.6,0.8j", 0.0, "deny"),
                              ("v", 1.0, "deny"), ("r", 0.3, "allow")):
        configs = stack(kind, InputQubit.from_name(name), source, eps, action)
        assert_rows_are_their_own(configs)
        for config in configs:
            try:
                want = reference_run_protocol(config)
            except ProtocolError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    run_protocol(config)
                continue
            record, rho = run_protocol(config)
            assert (repr(record), rho.tobytes()) == (repr(want[0]), want[1].tobytes())


@pytest.mark.parametrize("n", [16, 330, 344, 1716])
def test_layer_sums_keep_the_bits_of_each_rows_own_sum(n):
    # a layer's (sectors, rows, states) probabilities summed over the contiguous
    # last axis, whole or gathered with take, as _tally sums them: each row
    # with the bits of its own .sum()
    rng = np.random.default_rng(n)
    for sectors, rows in ((1, 1), (2, 3), (3, 2), (4, 9)):
        shape = (sectors, rows, n)
        probs = (rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 1, shape)) ** 2
        probs[rng.random(shape) < 0.3] = 0.0
        at = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        whole, gathered = probs.sum(axis=-1), probs.take(at, axis=-1).sum(axis=-1)
        for s, r in np.ndindex(sectors, rows):
            assert whole[s, r].tobytes() == probs[s, r].sum().tobytes()
            assert gathered[s, r].tobytes() == probs[s, r][at].sum().tobytes()


@pytest.mark.parametrize("kind, name, source, eps, action, empty", [
    ("fit", "plus", SourceParams(0.1, 0.1, 1), 0.05, "allow", [0, 1, 2]),   # no four photons
    ("fit", "plus", SourceParams(), 1.0, "allow", [1]),
    ("fit", "v", SourceParams(0.2, 0.1, 3), 1.0, "allow", []),
    ("mix", "h", SourceParams(0.1, 0.1), 1.0, "deny", [0]),
    ("mix", "v", SourceParams(0.1, 0.1), 1.0, "deny", [1]),
    ("mix", "h", SourceParams(0.1, 0.0), 1.0, "deny", [0, 1]),
    ("mix", "plus", SourceParams(0.1, 0.1, 1), 0.0, "none", [0, 1]),
    ("mix", "plus", None, 0.0, "none", []),
    ("mix", "r", SourceParams(0.2, 0.1, 3), 0.0, "deny", []),
])
def test_stacks_with_rows_that_cannot_coincide(kind, name, source, eps, action, empty):
    rows = assert_rows_are_their_own(stack(kind, InputQubit.from_name(name), source, eps,
                                           action))
    assert [i for i, row in enumerate(rows) if isinstance(row, NoCoincidenceError)] == empty


def without_four_photon_receiver(monkeypatch):
    """Count no four-photon state as one receiver photon, so that a row whose
    coincidences are all four-photon ones raises ProtocolError."""
    indices = protocol._tally_indices

    def patched(n, detectors, receiver):
        clicked, par, perp, h_one, v_one = indices(n, detectors, receiver)
        return (clicked, par, perp) + ((h_one[:0], v_one[:0]) if n == 4 else (h_one, v_one))

    monkeypatch.setattr(protocol, "_tally_indices", patched)


@pytest.mark.parametrize("kind, order, action", [("fit", 2, "allow"), ("fit", 3, "allow"),
                                                 ("mix", 2, "deny"), ("mix", 3, "none")])
def test_rows_that_leave_the_receiver_no_single_photon(kind, order, action, monkeypatch):
    # the tally keeps every record; run_protocol raises ProtocolError for an
    # order-2 row, and not for an order-3 row, which has six-photon
    # coincidences with one receiver photon
    configs = stack(kind, InputQubit.from_name("plus"), SourceParams(0.1, 0.08, order), 0.05,
                    action)
    records = [repr(row[0]) for row in assert_rows_are_their_own(configs)]
    without_four_photon_receiver(monkeypatch)
    assert [repr(row[0]) for row in protocol._tally(configs)] == records
    error = (ProtocolError, "every coincidence leaves more than one photon at the receiver; "
             "no qubit state to report")
    for config, record in zip(configs, records):
        outcome = record_or_error(config, run_protocol)
        assert outcome == record_or_error(config)
        assert outcome == (error if order == 2 else record)


def test_a_swapped_mixture_raises_the_roles_error_before_any_tally(monkeypatch):
    # the g2 half of swapped roles is no configuration, so no half is tallied
    config = ProtocolConfig(roles="swapped", source=SourceParams(0.1, 0.08))

    def forbidden(configs):
        raise AssertionError("tallied a half")

    monkeypatch.setattr(protocol, "_tally", forbidden)
    with pytest.raises(ValueError, match="role swapping is implemented for the g1 channel"):
        emulate_mixture(config, 0.5)
    without_four_photon_receiver(monkeypatch)
    with pytest.raises(ValueError, match="role swapping is implemented for the g1 channel"):
        emulate_mixture(config, 0.5)
