"""The rates-only entry ``count_rates`` against the run that also builds the
receiver state.

``count_rates`` and ``run_protocol`` share one propagation and tally;
``run_protocol`` alone forms and adds up the receiver's 2x2 blocks, and
alone raises the error of a run that leaves the receiver no single photon.
The rates and the errors of both must be those of
``helpers.reference_run_protocol``, the earlier run that built the state
every time.
"""

import pytest

from cqtsim import cli, protocol
from cqtsim.protocol import (NoCoincidenceError, ProtocolConfig, ProtocolError, count_rates,
                             emulate_mixture, run_protocol)
from cqtsim.spdc import SourceParams, sector_rates

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
    """Make forming a receiver block raise."""
    def forbidden(*args):
        raise AssertionError("assembled a receiver state")

    monkeypatch.setattr(protocol, "_receiver_block", forbidden)


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


def test_count_rates_and_sector_rates_assemble_no_receiver_state(monkeypatch):
    forbid_receiver_state(monkeypatch)
    config = ProtocolConfig(source=SourceParams(0.1, 0.055))
    assert count_rates(config).success_probability > 0.0
    rates = sector_rates(SourceParams(), {"allowed": config,
                                          "denied": ProtocolConfig(action="deny")})
    assert all(sum(per_term.values()) > 0.0 for per_term in rates.values())
