"""The rates-only entry ``count_rates`` against the run that also builds the
receiver state.

``count_rates`` and ``run_protocol`` share one propagation and tally;
``run_protocol`` alone adds up the receiver's 2x2 blocks.  The tally takes
the trace of the blocks only until one sector leaves the receiver a photon,
so its rates and its errors must be those of
``helpers.reference_run_protocol``, the earlier run that built the state
every time.
"""

import math

import pytest

from cqtsim import cli, protocol
from cqtsim.protocol import (NoCoincidenceError, ProtocolConfig, ProtocolError, count_rates,
                             emulate_mixture, run_protocol)
from cqtsim.spdc import SourceParams

from helpers import reference_run_protocol
from test_composed_vs_sequential import grid


def outcome(run, config):
    """``(run(config), None)``, or ``(None, (type, text))`` of the error it raises."""
    try:
        return run(config), None
    except ProtocolError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("config", grid((None, 1, 2, 3, 4)))
def test_count_rates_is_the_record_of_run_protocol(config):
    expected, error = outcome(reference_run_protocol, config)
    rates, rates_error = outcome(count_rates, config)
    full, full_error = outcome(run_protocol, config)
    assert rates_error == full_error == error
    if error:
        assert error[0] is NoCoincidenceError     # order 1: no four-photon sector
        return
    record, rho = expected
    assert repr(rates) == repr(full[0]) == repr(record)
    assert full[1].tobytes() == rho.tobytes()


def forbid_receiver_state(monkeypatch):
    """Make ``run_protocol`` raise, and check that each tally takes the
    receiver blocks of each row's sectors only until one passes the
    one-photon bound, as its decision needs."""
    tally, receiver_block = protocol._tally, protocol._receiver_block
    traces = []

    def forbidden(*args):
        raise AssertionError("assembled a receiver state")

    def traced_block(*args):
        block = receiver_block(*args)
        traces.append(float(block.trace().real))
        return block

    def checked_tally(configs):
        traces.clear()
        rows = tally(configs)
        n_sectors = len(protocol._sector_weights(configs[0].source))
        empty_tol = next((row[2] for row in rows if isinstance(row, tuple)), math.inf)

        def passes(trace):
            return trace >= empty_tol and trace > 0.0

        for row in rows:
            # the row's traces: up to the first that passes, or one per sector
            taken = [traces.pop(0)]
            while not passes(taken[-1]) and len(taken) < n_sectors:
                taken.append(traces.pop(0))
            if isinstance(row, tuple):
                *failed, passed = taken
                assert passes(passed)
                assert not any(passes(trace) for trace in failed)
        assert traces == []
        return rows

    monkeypatch.setattr(protocol, "_tally", checked_tally)
    monkeypatch.setattr(protocol, "_receiver_block", traced_block)
    monkeypatch.setattr(protocol, "run_protocol", forbidden)


@pytest.mark.parametrize("argv", [
    ["run", "--kappa-forward", "0.1", "--pbs-epsilon", "0.05", "--truncation-order", "3"],
    ["run", "--channel", "g2", "--action", "deny", "--ideal"],
    ["run", "--channel", "mix", "--kappa-forward", "0.1", "--resamples", "100", "--seed", "1"],
    ["run", "--channel", "reference", "--action", "none", "--kappa-forward", "0.2"],
    ["fit-spdc"],
    ["fit-spdc", "--synthetic-ratio", "0.8", "--input", "r"],
], ids=" ".join)
def test_rates_paths_assemble_no_receiver_state(argv, monkeypatch, capsys):
    forbid_receiver_state(monkeypatch)
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_emulate_mixture_assembles_no_receiver_state(monkeypatch):
    forbid_receiver_state(monkeypatch)
    config = ProtocolConfig(action="deny", source=SourceParams(0.1, 0.055, truncation_order=3))
    assert emulate_mixture(config, 0.5).success_probability > 0.0
    with pytest.raises(AssertionError, match="assembled a receiver state"):
        protocol.run_protocol(config)
