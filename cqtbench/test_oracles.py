"""Tests of the benchmark's oracles: python3 -m pytest cqtbench/test_oracles.py"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402

INPUTS = [(1, 0), (0, 1), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8j),
          (0.28 - 0.5j, 0.3 + 0.76j)]


def _normalized(alpha, beta):
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


@pytest.mark.parametrize("channel,roles", [("g1", "standard"), ("g2", "standard"),
                                           ("g1", "swapped"), ("reference", "standard")])
@pytest.mark.parametrize("alpha,beta", INPUTS)
def test_allowed_and_reference_runs_teleport_perfectly(channel, roles, alpha, beta):
    action = "none" if channel == "reference" else "allow"
    out = oracles.ideal_rates(channel, action, roles, *_normalized(alpha, beta))
    assert out["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert out["f_parallel"] + out["f_perp"] == pytest.approx(out["success_probability"])


def test_success_probabilities():
    plus = _normalized(1, 1)
    assert oracles.ideal_rates("g1", "allow", "standard", *plus)["success_probability"] \
        == pytest.approx(1 / 16, abs=1e-15)
    assert oracles.ideal_rates("reference", "none", "standard", *plus)[
        "success_probability"] == pytest.approx(1 / 4, abs=1e-15)


@pytest.mark.parametrize("alpha,beta", INPUTS[2:])
def test_denied_run_collapses_the_receiver(alpha, beta):
    # the controller's H outcome leaves the receiver in a fixed basis state,
    # so the fidelity is the input's weight on the matching component
    alpha, beta = _normalized(alpha, beta)
    g1 = oracles.ideal_rates("g1", "deny", "standard", alpha, beta)
    g2 = oracles.ideal_rates("g2", "deny", "standard", alpha, beta)
    assert g1["fidelity"] == pytest.approx(abs(beta) ** 2, abs=1e-12)
    assert g2["fidelity"] == pytest.approx(abs(alpha) ** 2, abs=1e-12)
    assert g1["success_probability"] == pytest.approx(abs(beta) ** 2 / 8, abs=1e-15)


@pytest.mark.parametrize("phase", [0.0, 0.7, math.pi / 2, 2.0])
def test_denied_equatorial_input_has_fidelity_one_half(phase):
    # on the equator |a|^2 = |b|^2, where the H/V-pooled 1 - 2|a|^2|b|^2 is 1/2 too
    alpha, beta = 1 / math.sqrt(2), np.exp(1j * phase) / math.sqrt(2)
    for channel in ("g1", "g2", "mix"):
        out = oracles.ideal_rates(channel, "deny", "standard", alpha, beta, mix_p=0.3)
        assert out["fidelity"] == pytest.approx(1 - 2 * abs(alpha * beta) ** 2, abs=1e-12)


def test_werner_row_crosses_two_thirds_at_one_third():
    assert oracles.werner_row(oracles.WERNER_THRESHOLD_Q)[0] == pytest.approx(2 / 3)
    assert oracles.werner_row(0.0) == (0.5, 0.5)
    assert oracles.werner_row(1.0)[0] == 1.0


def _bloch_counts(r, total=10000):
    counts = {}
    for (a, b), comp in zip(oracles.AXES, r):
        counts[a] = total * (1 + comp) / 2
        counts[b] = total - counts[a]
    return counts


def test_tomography_inside_ball_is_linear_inversion():
    r = np.array([0.3, -0.2, 0.5])
    target = oracles.KETS["plus"]
    out = oracles.tomography_expectation(_bloch_counts(r), target, 0.25)
    assert np.allclose(out["rho"], oracles.rho_from_bloch(r))
    assert out["raw_fidelity"] == pytest.approx((1 + r[0]) / 2)
    assert out["corrected_fidelity"] == pytest.approx(
        (out["raw_fidelity"] - 0.25 / 2) / (1 - 0.25))


def test_tomography_outside_ball_uses_the_bloch_search():
    r = np.array([0.9, 0.9, 0.0])       # |r| > 1: no physical linear inversion
    out = oracles.tomography_expectation(_bloch_counts(r), oracles.KETS["plus"], 0.0)
    eig = np.linalg.eigvalsh(out["rho"])
    assert eig.min() > -1e-9 and np.trace(out["rho"]).real == pytest.approx(1.0)
    bloch = [np.trace(out["rho"] @ p).real for p in oracles.PAULI]
    assert np.linalg.norm(bloch) == pytest.approx(1.0, abs=1e-3)
    assert bloch[0] == pytest.approx(bloch[1], abs=1e-3)


def _teleport_average(branches):
    """Six-state average of Bell-measurement teleportation, best Pauli per outcome.

    The six axial states form a 2-design, so their average equals the Bloch
    average of a fidelity quadratic in the input state.
    """
    bells = [np.array(v, dtype=complex) / math.sqrt(2)
             for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]
    paulis = (np.eye(2),) + oracles.PAULI
    total = 0.0
    for weight, rho in branches:
        for bell in bells:
            best = 0.0
            for pauli in paulis:
                fid = 0.0
                for psi in oracles.KETS.values():
                    joint = np.kron(np.outer(psi, psi.conj()), rho).reshape([2] * 6)
                    b = bell.reshape(2, 2)
                    out = np.einsum("ab,abcdef,de->cf", b.conj(), joint, b)
                    out = pauli @ out @ pauli.conj().T
                    fid += np.vdot(psi, out @ psi).real / 6
                best = max(best, fid)
            total += weight * best
    return total


def _branches(rho3):
    """Controller qubit 3 measured in +/-: (probability, 2-qubit state) pairs."""
    out = []
    for ket in (oracles.KETS["plus"], oracles.KETS["minus"]):
        sub = np.einsum("abcdef,c,f->abde", rho3.reshape([2] * 6), ket.conj(), ket)
        sub = sub.reshape(4, 4)
        p = np.trace(sub).real
        out.append((p, sub / p))
    return out


@pytest.mark.parametrize("param", [0.0, 0.3, 0.5, 0.9])
def test_avg_fidelity_closed_forms(param):
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1 / math.sqrt(2)
    ghz2 = np.zeros(8, dtype=complex)
    ghz2[[1, 6]] = 1 / math.sqrt(2)
    werner = param * np.outer(ghz, ghz) + (1 - param) * np.eye(8) / 8
    mixture = (1 - param) * np.outer(ghz, ghz) + param * np.outer(ghz2, ghz2)
    for kind, rho3 in (("werner", werner), ("ghz_mixture", mixture)):
        assert _teleport_average(_branches(rho3)) == pytest.approx(
            oracles.avg_fidelity_closed_form(kind, param), abs=1e-12)


def test_mc_tolerance_shrinks_with_samples():
    tols = [oracles.mc_tolerance(n) for n in (10, 100, 1000)]
    assert all(a > b for a, b in itertools.pairwise(tols))
    assert tols[1] == pytest.approx(0.15, rel=1e-9)
