"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import math
import time

import numpy as np
import pytest

from cqtsim.channels import (avg_teleport_fidelity, chi_ket,
                             conditional_teleport_output, condition_on_controller,
                             ket_outer, make_ghz_mixture,
                             teleport_fidelity, werner_point, werner_scan)
from cqtsim.cli import main as cli_main
from cqtsim.estimation import (axial_counts, corrected_fidelity,
                               ml_oracle_bloch_search, ml_reconstruct)
from cqtsim.fock import KET_D, NAMED_KETS, PureState, basis_state, occupation, H, V
from cqtsim.protocol import (AXIAL_INPUT_NAMES, InputQubit, ProtocolConfig,
                             ProtocolError, R_PREP, prepare_ghz, run_protocol,
                             singlet_projection)
from cqtsim.spdc import SourceParams, fit_source_ratio, heralded_fraction, sector_rates

_SQ2 = math.sqrt(2.0)
CLASSICAL_LIMIT = 2.0 / 3.0


def _report(n, message):
    print(f"criterion {n}: PASS - {message}")


def bell_fock(label):
    signs = {"phi+": 1, "phi-": -1}
    if label in signs:
        return PureState({
            occupation({(1, H): 1, (4, H): 1}): 1 / _SQ2,
            occupation({(1, V): 1, (4, V): 1}): signs[label] / _SQ2,
        })
    s = 1 if label == "psi+" else -1
    return PureState({
        occupation({(1, H): 1, (4, V): 1}): 1 / _SQ2,
        occupation({(1, V): 1, (4, H): 1}): s / _SQ2,
    })


# --- criterion 1 ---------------------------------------------------------------

RAW_TABLE = [
    ("reference", "allowed", 78.8, 13.0, 83.1),
    ("g1", "allowed", 62.4, 55.4, 77.9),
    ("g1", "denied", 55.0, 30.1, 57.2),
    ("g2", "allowed", 64.7, 55.4, 83.0),
    ("g2", "denied", 51.2, 30.1, 51.8),
    ("mix", "allowed", 63.5, 55.4, 80.2),
    ("mix", "denied", 53.5, 30.1, 55.1),
]


def test_criterion_01_table_reproduction_via_correction_identity():
    start = time.perf_counter()
    worst = 0.0
    for _, _, raw_pct, weight_pct, expected_pct in RAW_TABLE:
        corrected = 100.0 * corrected_fidelity(raw_pct / 100.0, weight_pct / 100.0)
        worst = max(worst, abs(corrected - expected_pct))
        assert abs(corrected - expected_pct) <= 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"all corrected fidelities within {worst:.3f} pp of the reference "
               f"table ({elapsed * 1000:.0f} ms)")


# --- criterion 2 ---------------------------------------------------------------

def test_criterion_02_ideal_cqt_contract():
    start = time.perf_counter()
    for channel in ("g1", "g2"):
        rec_allow, _ = run_protocol(ProtocolConfig(channel=channel, action="allow"))
        rec_deny, _ = run_protocol(ProtocolConfig(channel=channel, action="deny"))
        f_allow = rec_allow.fidelity()
        f_deny = rec_deny.fidelity()
        assert abs(f_allow - 1.0) < 1e-10
        assert abs(f_deny - 0.5) < 1e-10
        assert f_deny < CLASSICAL_LIMIT < f_allow
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"F_allowed = 1, F_denied = 1/2 for g1 and g2 with the classical "
               f"limit strictly between ({elapsed:.2f} s)")


# --- criterion 3 ---------------------------------------------------------------

def test_criterion_03_biseparable_cqt():
    rho = make_ghz_mixture(0.5)
    mix = 0.5 * (ket_outer(chi_ket(+1)) + ket_outer(chi_ket(-1)))
    assert np.max(np.abs(rho - mix)) < 1e-14

    conds = condition_on_controller(rho, "pm")
    f_allowed = avg_teleport_fidelity(conds, "with_feedforward")
    assert abs(f_allowed - 1.0) < 1e-12

    denied_channel = condition_on_controller(rho, "hv", outcome="H").state
    f_denied = teleport_fidelity(denied_channel, KET_D)
    assert abs(f_denied - 0.5) < 1e-12
    _report(3, "rho(1/2) equals the product-state mixture elementwise and still "
               "gives F_allowed = 1, F_denied = 1/2")


# --- criterion 4 ---------------------------------------------------------------

def test_criterion_04_werner_scan():
    grid = np.linspace(0.0, 1.0, 101)
    result = werner_scan(grid)
    for q, f_allowed, _ in result.rows:
        assert abs(f_allowed - (1 + q) / 2) < 1e-9
    assert abs(result.threshold_q - 1.0 / 3.0) < 1e-6
    f_window, _ = werner_point(3.0 / 7.0)
    assert abs(f_window - 5.0 / 7.0) < 1e-9
    assert f_window > CLASSICAL_LIMIT
    _report(4, "F_allowed(q) = (1+q)/2 over 101 points, threshold at q = 1/3, "
               "F(3/7) = 5/7 inside the separable window")


# --- criterion 5 ---------------------------------------------------------------

def _fock_mixture_rho(p, action, iq):
    branches = []
    for channel, weight in (("g1", 1 - p), ("g2", p)):
        if weight == 0.0:
            continue
        try:
            rec, rho = run_protocol(ProtocolConfig(channel=channel, action=action,
                                                   input=iq))
            branches.append((weight * rec.success_probability, rho))
        except ProtocolError:
            continue
    if not branches:
        return None
    total = sum(w for w, _ in branches)
    return sum(w * rho for w, rho in branches) / total


def test_criterion_05_photonic_qubit_equivalence():
    worst = 0.0
    compared = 0
    for p in (0.0, 0.5, 1.0):
        channel3 = make_ghz_mixture(p)
        for action, basis, outcome in (("allow", "rl", "R"), ("deny", "hv", "H")):
            for name in AXIAL_INPUT_NAMES:
                iq = InputQubit.from_name(name)
                rho_fock = _fock_mixture_rho(p, action, iq)
                try:
                    rho_qubit, _ = conditional_teleport_output(
                        channel3, iq.ket(), basis, outcome)
                except ValueError:
                    rho_qubit = None
                assert (rho_fock is None) == (rho_qubit is None)
                if rho_fock is None:
                    continue
                worst = max(worst, float(np.max(np.abs(rho_fock - rho_qubit))))
                compared += 1
    assert worst < 1e-10
    _report(5, f"receiver density operators agree elementwise to {worst:.1e} "
               f"across {compared} configurations")


# --- criterion 6 ---------------------------------------------------------------

def test_criterion_06_hom_and_singlet_selection():
    # identical polarizations never coincide behind the balanced splitter
    _, p_hom = singlet_projection(basis_state({(1, H): 1, (4, H): 1}))
    assert p_hom < 1e-14

    # the singlet fully anti-bunches: the antisymmetric polarization state
    # forces an antisymmetric, i.e. anti-bunched, spatial state, so the
    # creation-operator expansion leaves zero bunched amplitude
    cond, p_singlet = singlet_projection(bell_fock("psi-"))
    assert abs(p_singlet - 1.0) < 1e-12
    from cqtsim.fock import overlap
    assert abs(abs(overlap(cond, bell_fock("psi-"))) - 1.0) < 1e-12

    for label in ("psi+", "phi+", "phi-"):
        _, p = singlet_projection(bell_fock(label))
        assert p < 1e-14
    _report(6, "HOM null < 1e-14, singlet anti-bunches with unit probability, "
               "symmetric Bell states never anti-bunch")


@pytest.mark.xfail(strict=True,
                   reason="an anti-bunch probability of 0.5 for the singlet "
                          "would contradict the creation-operator expansion, "
                          "unitarity and the vanishing anti-bunching of the "
                          "three symmetric Bell states; the derived value is "
                          "1.0 (0.5 belongs to a same-port H,V pair)")
def test_criterion_06_half_antibunching_is_not_the_singlet():
    _, p_singlet = singlet_projection(bell_fock("psi-"))
    assert abs(p_singlet - 0.5) < 1e-12


# --- criterion 7 ---------------------------------------------------------------

def test_criterion_07_ghz_preparation():
    from cqtsim.elements import apply, port_element
    from cqtsim.fock import overlap, tensor

    pair = PureState({
        occupation({(1, H): 1, (2, H): 1}): 1 / _SQ2,
        occupation({(1, V): 1, (2, V): 1}): -1j / _SQ2,
    })
    src = apply(port_element((3,), R_PREP), tensor(pair, basis_state({(3, H): 1})))
    state, prob = prepare_ghz(src)
    assert abs(prob - 0.5) < 1e-12
    target = PureState({
        occupation({(1, H): 1, (2, H): 1, (3, H): 1}): 1 / _SQ2,
        occupation({(1, V): 1, (2, V): 1, (3, V): 1}): 1 / _SQ2,
    })
    fid = abs(overlap(state, target)) ** 2
    assert abs(fid - 1.0) < 1e-10
    _report(7, f"success probability 1/2 and post-compensation GHZ fidelity "
               f"{fid:.12f}")


# --- criterion 8 ---------------------------------------------------------------

def _fit_config(label, eps=0.05):
    return {
        "uncontrolled": ProtocolConfig(channel="reference", action="none",
                                       pbs_epsilon=eps),
        "allowed": ProtocolConfig(channel="g1", action="allow", pbs_epsilon=eps),
        "denied": ProtocolConfig(channel="g1", action="deny", pbs_epsilon=eps),
    }[label]


def test_criterion_08_source_ratio_fit():
    labels = ("uncontrolled", "allowed", "denied")
    # hard half: synthesize shares at a known ratio and recover it
    truth = 0.8
    params = SourceParams(kappa_forward=0.1, kappa_backward=0.1 * truth)
    targets = {lbl: heralded_fraction(params, _fit_config(lbl))["undesired"]
               for lbl in labels}
    rates = {lbl: sector_rates(SourceParams(), _fit_config(lbl)) for lbl in labels}
    fit = fit_source_ratio(targets, rates)
    assert abs(fit.ratio - truth) < 1e-3

    # soft half: fit the published shares and report the residuals
    reference = {"uncontrolled": 0.130, "allowed": 0.554, "denied": 0.301}
    ref_fit = fit_source_ratio(reference, rates)
    assert ref_fit.converged
    residual_note = ", ".join(
        f"{lbl} {100 * ref_fit.achieved[lbl]:.1f}% vs {100 * reference[lbl]:.1f}%"
        for lbl in labels)
    _report(8, f"round-trip ratio recovered to {abs(fit.ratio - truth):.1e}; "
               f"reference-target fit r* = {ref_fit.ratio:.3f} with residuals: "
               f"{residual_note}")


# --- criterion 9 ---------------------------------------------------------------

def _qubit_uhlmann(rho, sigma):
    return float(np.real(np.trace(rho @ sigma)
                         + 2 * math.sqrt(max(0.0, np.linalg.det(rho).real
                                             * np.linalg.det(sigma).real))))


def _exact_counts(rho, exposure=2000.0):
    return axial_counts({
        name: exposure * float(np.real(NAMED_KETS[name].conj() @ rho
                                       @ NAMED_KETS[name]))
        for name in AXIAL_INPUT_NAMES
    })


def test_criterion_09_tomography():
    rng = np.random.default_rng(2024)
    worst_fid = 1.0
    for _ in range(20):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        purity = rng.uniform(0.2, 1.0)
        rho_true = purity * np.outer(vec, vec.conj()) + (1 - purity) * np.eye(2) / 2
        res = ml_reconstruct(_exact_counts(rho_true), tol=1e-13)
        ll = res.log_likelihoods
        assert all(b >= a - 1e-12 for a, b in zip(ll, ll[1:]))
        worst_fid = min(worst_fid, _qubit_uhlmann(res.rho, rho_true))
    assert worst_fid >= 0.999

    worst_dist = 0.0
    for _ in range(5):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        purity = rng.uniform(0.2, 0.9)
        rho_true = purity * np.outer(vec, vec.conj()) + (1 - purity) * np.eye(2) / 2
        counts = _exact_counts(rho_true)
        res = ml_reconstruct(counts, tol=1e-13)
        oracle = ml_oracle_bloch_search(counts)
        dist = 0.5 * float(np.abs(np.linalg.eigvalsh(res.rho - oracle)).sum())
        worst_dist = max(worst_dist, dist)
    assert worst_dist < 1e-4
    _report(9, f"20 noiseless reconstructions at fidelity >= {worst_fid:.6f}, "
               f"monotone likelihood, oracle agreement {worst_dist:.1e}")


# --- criterion 10 ----------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    pairs = []
    run_args = ["run", "--channel", "g1", "--action", "deny", "--input", "plus",
                "--ideal", "--resamples", "300", "--seed", "11", "--full-precision"]
    pairs.append(("run", run_args))

    counts = tmp_path / "counts.csv"
    rho = 0.8 * np.outer(KET_D, KET_D.conj()) + 0.2 * np.eye(2) / 2
    lines = ["label,projector,count"]
    for name in AXIAL_INPUT_NAMES:
        ket = NAMED_KETS[name]
        lines.append(f"{name},{name},"
                     f"{500 * float(np.real(ket.conj() @ rho @ ket))}")
    counts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tomo_args = ["tomo", "--counts", str(counts), "--target", "plus",
                 "--resamples", "120", "--seed", "5", "--format", "json"]
    pairs.append(("tomo", tomo_args))

    for label, args in pairs:
        a = tmp_path / f"{label}_a.out"
        b = tmp_path / f"{label}_b.out"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    _report(10, "repeated seeded commands produce byte-identical outputs")
