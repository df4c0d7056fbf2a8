import argparse
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from cqtsim import cli
from cqtsim.cli import main
from cqtsim.fock import KET_D, NAMED_KETS, unit_pair

from helpers import AXIAL_INPUT_NAMES as AXIAL


def run_cli(args):
    return main(list(args))


def read_text(path):
    return path.read_text(encoding="utf-8")


def write_exact_counts(path, rho, exposure=10000.0):
    lines = ["label,projector,count"]
    for name in AXIAL:
        ket = NAMED_KETS[name]
        prob = float(np.real(ket.conj() @ rho @ ket))
        lines.append(f"{name},{name},{exposure * prob}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_run_ideal_allow_golden(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = run_cli(["run", "--channel", "g1", "--action", "allow", "--input", "plus",
                    "--ideal", "--out", str(out)])
    assert code == 0
    text = read_text(out)
    assert text.startswith("# schema=")
    row = text.strip().splitlines()[-1].split(",")
    assert row[5] == "1"


def test_run_ideal_deny_golden(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli(["run", "--channel", "g1", "--action", "deny", "--input", "plus",
                    "--ideal", "--out", str(out)]) == 0
    row = read_text(out).strip().splitlines()[-1].split(",")
    assert float(row[5]) == pytest.approx(0.5, abs=1e-9)


def test_reproduce_table_within_tolerance(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["reproduce", "table1", "--out", str(out),
                    "--full-precision"]) == 0
    rows = [line.split(",") for line in read_text(out).strip().splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 7
    for row in rows:
        assert abs(float(row[6])) < 0.2


def test_scan_werner_grid_values(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli(["scan-werner", "--q-list", "0,0.333333333333,0.428571428571,1",
                    "--out", str(out), "--full-precision"]) == 0
    lines = read_text(out).strip().splitlines()
    assert any("crosses 2/3 at q=0.333333333" in line for line in lines)
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    f_allowed = [float(r[1]) for r in rows]
    assert f_allowed[0] == pytest.approx(0.5, abs=1e-9)
    assert f_allowed[1] == pytest.approx(2 / 3, abs=1e-9)
    assert f_allowed[2] == pytest.approx(5 / 7, abs=1e-9)
    assert f_allowed[3] == pytest.approx(1.0, abs=1e-9)


def test_scan_werner_empty_grid_is_usage_error():
    assert run_cli(["scan-werner", "--q-list", ""]) == 2


def test_scan_werner_single_point(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli(["scan-werner", "--q-list", "1", "--out", str(out)]) == 0
    rows = [l for l in read_text(out).splitlines() if not l.startswith("#")]
    assert len(rows) == 2   # header + one row
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0)


# sha256 of the default-precision stdout of ``cqtsim scan-werner`` with these
# flags.  Recorded from the row-by-row implementation that the stacked scan
# replaced; the two 0:1:10001 digests were recorded again when default
# precision began to round to 12 significant digits before ``.4g``, which
# changed 2,123 of their 10,001 rows, the ones within a few ulp of a tie.
SCAN_Q_LIST = "0,0.05,0.2,0.3333333333333333,0.5,0.77,1e-3,1"
SCAN_DIGESTS = {
    ("csv", "--q-grid", "0:1:10001"):
        "e235b2a8154277501982327bf7eea36e82dd85d70e37c0b2956329540a7f4038",
    ("csv", "--q-grid", "0:1:58"):
        "b551e5e594a7b1a965dc290e04c80bdbae680a39dd0f9b4cf175cdae4a797027",
    ("csv", "--q-grid", "0:1:101"):
        "649d9879bd70eac404ad0c6343382768a81fbada5e0ecfb33dc536b9773f605c",
    ("csv", "--q-list", SCAN_Q_LIST):
        "20b4fd0a0912e767b62259d3488ab26cd5eacd174d0efa625c41fe9673544281",
    ("json", "--q-grid", "0:1:10001"):
        "c5a38159733bb72451a5cd0fc3f7117ee232c5405e0f124d74277b1ccd500df8",
    ("json", "--q-grid", "0:1:58"):
        "10045c7795ea7722f6ab35cc9a3807f3b6e041572d58e807dcd7a2a1aeb2378f",
    ("json", "--q-grid", "0:1:101"):
        "43679e65de2bdf68f81272f899ad427399e15357b7baad26b138d32e7b47de69",
    ("json", "--q-list", SCAN_Q_LIST):
        "25f4403624ecb0a76cbb74d7fd2de4e59a669b8c2de6dd26c97482644218b535",
}
SCAN_KEYS = [(fmt, full, option, value) for fmt in ("csv", "json") for full in (False, True)
             for fmt_, option, value in SCAN_DIGESTS if fmt_ == fmt]


def scan_rows(out, fmt):
    if fmt == "json":
        return json.loads(out)["rows"]
    lines = [line for line in out.splitlines() if not line.startswith("#")][1:]
    return [[float(v) for v in line.split(",")] for line in lines]


@pytest.mark.parametrize("key", SCAN_KEYS, ids=lambda key: " ".join(map(str, key)))
def test_scan_werner_output_is_pinned(key, capsys):
    fmt, full, option, value = key
    argv = ["scan-werner", "--format", fmt, option, value]
    assert run_cli(argv + ["--full-precision"] * full) == 0
    out = capsys.readouterr().out
    if not full:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SCAN_DIGESTS[
            (fmt, option, value)]
        return
    # full precision is exact on one machine only (its last bits follow the
    # BLAS kernel), so it is checked against the scan run in this process
    from cqtsim.channels import werner_scan
    from cqtsim.cli import _parse_grid

    args = argparse.Namespace(q_grid=None, q_list=None)
    setattr(args, option[2:].replace("-", "_"), value)
    expected = werner_scan(_parse_grid(args))
    assert f"crosses 2/3 at q={expected.threshold_q:.9f}" in out
    assert scan_rows(out, fmt) == [list(row) for row in expected.rows]


TOMO_TABLES = {
    "axial": {"h": 8601, "v": 5290, "plus": 6107, "minus": 6466, "r": 4178, "l": 8512},
    "zero": {"h": 600, "v": 400, "plus": 0, "minus": 450, "r": 520, "l": 480},
    "below1": {"h": 0.5, "v": 0.3, "plus": 0.4, "minus": 0.2, "r": 0.3, "l": 0.3},
}
# default-precision `tomo --resamples` outputs, as printed since the solve
# reaches the maximum of the likelihood; keyed (table, format, resamples)
TOMO_DIGESTS = {
    ("axial", "csv", "100"):
        "c1e23e36af830be90673cdc0f30aa69951447b09a1acb5e1eb818d16387d0964",
    ("axial", "csv", "300"):
        "d613ad4003ca1be3e2e5489270f2b630d0832bcc484ac359a0d9afeb5306b985",
    ("axial", "json", "100"):
        "e590d55e05e0fcb03f29d6896cc603dd03ad70a148e65a6addb0c708079291de",
    ("axial", "json", "300"):
        "646fb506bf024f35ddc62ca44047e0d5167ef6089d1c4ddcb385838feaf8262c",
    ("zero", "csv", "100"):
        "edce50a420f91e2d22509a2f7dbadee09a17444398de1f4c938fd74831a65b3c",
    ("zero", "csv", "300"):
        "03be041d7c6e2e95807a08c752941b1650e33a140b1d34930971b5e76746ef85",
    ("zero", "json", "100"):
        "e06680ff1d82ca70c2b8d3b2b77cfcabb4ec38f54ac15fdc07fba78db1c99926",
    ("zero", "json", "300"):
        "552f04939089cd0c6a86a785eda276c07a9f533b866b369fb9b08f5333d8e534",
    ("below1", "csv", "100"):
        "1cfec30b1482b87ed95c0d11af5921123f561fe6b797de5417e488482c304326",
    ("below1", "csv", "300"):
        "2efe1bcc099774d776939ae066d841e5dd2b558042a178ea37bf2c3ed0bf07d3",
    ("below1", "json", "100"):
        "3b61c0e59165e62dd244a11340beb96c3a2ba0599d8f3f0fd920306975413d13",
    ("below1", "json", "300"):
        "ea3d32439c7523183dbb0988a315fbbc51d064c13271b1d071fda3afeba23361",
}


def tomo_argv(tmp_path, table, fmt, resamples):
    counts = tmp_path / f"{table}.csv"
    write_counts(counts, TOMO_TABLES[table])
    return ["tomo", "--counts", str(counts), "--target=0.6,0.8j",
            "--weight", "0.2" if table == "axial" else "0", "--resamples", resamples,
            "--seed", "3", "--format", fmt]


@pytest.mark.parametrize("key", TOMO_DIGESTS, ids=" ".join)
def test_tomo_resampled_output_is_pinned(key, tmp_path, capsys):
    assert run_cli(tomo_argv(tmp_path, *key)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TOMO_DIGESTS[key]


OPENBLAS_CORE = """
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
names = ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
         "openblas_get_corename")
core = None
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in names:
        if hasattr(lib, name):
            getattr(lib, name).restype = ctypes.c_char_p
            core = getattr(lib, name)().decode()
"""
PRESCOTT_DIGESTS = OPENBLAS_CORE + """
import contextlib, hashlib, io, json, sys
from cqtsim.cli import main
digests = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    digests.append(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
print(json.dumps([core, digests]))
"""


def test_default_precision_digests_hold_on_a_kernel_without_fma(tmp_path):
    # OpenBLAS picks its kernel at run time; Prescott has no fused multiply-add,
    # so the scan's last bits differ from those of an FMA kernel, and so may
    # those of the ML states that the resampled tomography fits in one stack
    import os
    import subprocess
    import sys

    import cqtsim

    here = {}
    exec(OPENBLAS_CORE, here)
    src = os.path.dirname(os.path.dirname(cqtsim.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = [["scan-werner", "--format", fmt, option, value]
             for fmt, option, value in SCAN_DIGESTS]
    argvs += [tomo_argv(tmp_path, *key) for key in TOMO_DIGESTS]
    done = subprocess.run([sys.executable, "-c", PRESCOTT_DIGESTS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    core, digests = json.loads(done.stdout)
    if here["core"] is None or core == here["core"]:
        pytest.skip(f"numpy's BLAS does not switch kernels here (core {here['core']!r})")
    assert digests == list(SCAN_DIGESTS.values()) + list(TOMO_DIGESTS.values())


@pytest.mark.parametrize("q_list, bad", [("0.3,1.2,-0.1", "1.2"), ("0.5,-0.1,1.2", "-0.1"),
                                         ("0.2,nan", "nan")])
def test_scan_werner_names_the_first_bad_q(q_list, bad, capsys):
    assert run_cli(["scan-werner", "--q-list", q_list]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q={bad} outside [0, 1]\n"


def test_fit_spdc_round_trip(tmp_path):
    out = tmp_path / "fit.csv"
    assert run_cli(["fit-spdc", "--synthetic-ratio", "0.8", "--out", str(out)]) == 0
    text = read_text(out)
    ratio = float(next(l for l in text.splitlines() if "fitted_ratio" in l).split("=")[1])
    assert ratio == pytest.approx(0.8, abs=1e-3)
    assert "warning" not in text


def test_fit_spdc_default_precision_prints_no_rounding_noise(capsys):
    argv = ["fit-spdc", "--synthetic-ratio", "0.8"]
    assert run_cli(argv) == 0
    text = capsys.readouterr().out
    assert "# sum_squared_residual=0.000000e+00" in text
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert [r[3] for r in rows] == ["0", "0", "0"]
    assert run_cli(argv + ["--full-precision"]) == 0
    assert "# sum_squared_residual=0.000000e+00" not in capsys.readouterr().out


def test_tomo_default_precision_ignores_last_bit_changes(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from cqtsim import cli

    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, rho)
    argv = ["tomo", "--counts", str(counts), "--target", "plus", "--weight", "0.2"]
    # the point estimate alone, and with the resamples it is fitted beside
    runs = [(options, fmt) for options in (argv, argv + ["--resamples", "100", "--seed", "1"])
            for fmt in ("csv", "json")]
    outputs = []
    for options, fmt in runs:
        assert run_cli(options + ["--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    ml = cli.ml_reconstruct
    monkeypatch.setattr(cli, "ml_reconstruct",
                        lambda c: replace(ml(c), rho=ml(c).rho * (1 + 4e-16)))
    tomography = cli._resampled_fit

    def nudged(*args):
        result, corrected, estimate = tomography(*args)
        return replace(result, rho=result.rho * (1 + 4e-16)), corrected * (1 + 4e-16), estimate

    monkeypatch.setattr(cli, "_resampled_fit", nudged)
    for (options, fmt), before in zip(runs, outputs):
        assert run_cli(options + ["--format", fmt]) == 0
        assert capsys.readouterr().out == before


def test_fit_spdc_warns_of_a_second_exact_root(capsys):
    assert run_cli(["fit-spdc", "--input", "h", "--synthetic-ratio", "4",
                    "--pbs-epsilon", "0.001"]) == 0
    comments = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#")]
    assert "# fitted_ratio=0.176865" in comments
    assert "# warning: ratio 4.000000 fits the targets as well" in comments


def test_fit_spdc_full_precision_prints_the_fit_unrounded(monkeypatch, capsys):
    from cqtsim import cli

    fits = []
    fit_source_ratio = cli.fit_source_ratio
    monkeypatch.setattr(cli, "fit_source_ratio",
                        lambda targets, rates: fits.append(fit_source_ratio(targets, rates))
                        or fits[-1])
    argv = ["fit-spdc", "--input", "h", "--synthetic-ratio", "4", "--pbs-epsilon", "0.001",
            "--full-precision"]
    for fmt in ("csv", "json"):
        fits.clear()
        assert run_cli(argv + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        comments = (json.loads(out)["comments"] if fmt == "json" else
                    [l[2:] for l in out.splitlines() if l.startswith("# ")])
        notes = dict(c.split("=", 1) for c in comments if "=" in c)
        root = next(c for c in comments if c.startswith("warning: ratio "))
        (fit,) = fits
        assert len(fit.other_roots) == 1
        assert float(notes["fitted_ratio"]) == fit.ratio
        assert float(notes["sum_squared_residual"]) == fit.sum_squared_residual
        assert float(root.split()[2]) == fit.other_roots[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_spdc_bundled_targets_are_the_table_weights(fmt, capsys):
    # the bundled targets and the table's weights as --targets are the same
    # floats, so even full precision prints the same bytes
    outs = []
    for extra in ([], ["--targets", "13,55.4,30.1"]):
        assert run_cli(["fit-spdc", "--format", fmt, "--full-precision", *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_fit_spdc_reference_targets_report_residuals(tmp_path):
    out = tmp_path / "fit.csv"
    assert run_cli(["fit-spdc", "--out", str(out)]) == 0
    text = read_text(out)
    assert "fitted_ratio=" in text
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert {r[0] for r in rows} == {"uncontrolled", "allowed", "denied"}


def test_tomo_noiseless_plus(tmp_path):
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, np.outer(KET_D, KET_D.conj()))
    out = tmp_path / "tomo.json"
    assert run_cli(["tomo", "--counts", str(counts), "--target", "plus",
                    "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(read_text(out))
    assert payload["raw_fidelity"] == pytest.approx(1.0, abs=1e-3)
    assert payload["converged"] is True


def test_tomo_uniform_counts(tmp_path):
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, np.eye(2) / 2)
    out = tmp_path / "tomo.json"
    assert run_cli(["tomo", "--counts", str(counts), "--target", "plus",
                    "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(read_text(out))
    assert payload["raw_fidelity"] == pytest.approx(0.5, abs=1e-6)


def test_tomo_background_correction_golden(tmp_path):
    # counts synthesized for a raw fidelity of 0.647; removing the 55.4 %
    # admixture must lift it to 0.830
    a = 2 * (0.647 - 0.5)
    rho = a * np.outer(KET_D, KET_D.conj()) + (1 - a) * np.eye(2) / 2
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, rho)
    out = tmp_path / "tomo.json"
    assert run_cli(["tomo", "--counts", str(counts), "--target", "plus",
                    "--weight", "0.554", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(read_text(out))
    assert payload["raw_fidelity"] == pytest.approx(0.647, abs=1e-4)
    assert payload["corrected_fidelity"] == pytest.approx(0.830, abs=1.5e-3)


def test_tomo_malformed_counts_is_usage_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,projector,count\nh,notastate,12\n", encoding="utf-8")
    assert run_cli(["tomo", "--counts", str(bad)]) == 2
    assert run_cli(["tomo", "--counts", str(tmp_path / "missing.csv")]) == 2


def test_stochastic_commands_require_seed(tmp_path):
    assert run_cli(["run", "--ideal", "--resamples", "100"]) == 2
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, np.eye(2) / 2)
    assert run_cli(["tomo", "--counts", str(counts), "--resamples", "100"]) == 2


def test_run_determinism_with_seed(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["run", "--channel", "g1", "--action", "deny", "--input", "plus",
            "--ideal", "--resamples", "400", "--seed", "7", "--full-precision"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_degenerate_simulation_is_runtime_error():
    assert run_cli(["run", "--channel", "g1", "--action", "deny", "--input", "h",
                    "--ideal"]) == 1


@pytest.mark.parametrize("channel, name, ket", [("g1", "h", "(1+0j, 0+0j)"),
                                                ("g2", "v", "(0+0j, 1+0j)")])
def test_configuration_without_coincidence_is_named(channel, name, ket, capsys):
    assert run_cli(["run", "--channel", channel, "--action", "deny", "--input", name,
                    "--ideal"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"channel {channel}, action deny, input {ket}, roles standard: " \
           "cannot produce a four-fold coincidence" in captured.err


@pytest.mark.parametrize("name", ["h", "v"])
def test_mixture_half_without_coincidence_adds_no_events(name, capsys):
    # g1 deny never coincides for h, g2 deny never for v; the other half
    # coincides with success 0.125 and F = 1, so the p = 0.5 mixture has half that
    assert run_cli(["run", "--channel", "mix", "--action", "deny", "--input", name,
                    "--ideal"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"mix,deny,{name},0.0625,0,1,0.0625,,"
    # with all the weight on the empty half the mixture has no events either
    p = "0" if name == "h" else "1"
    assert run_cli(["run", "--channel", "mix", "--action", "deny", "--input", name,
                    "--ideal", "--mix-p", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot produce a four-fold coincidence" in captured.err


@pytest.mark.parametrize("p", ["2", "-1", "nan"])
def test_bad_mix_p_exits_2_before_propagating(p, monkeypatch, capsys):
    from cqtsim import cli, protocol

    def forbidden(cfg):
        raise AssertionError("propagated before checking --mix-p")

    monkeypatch.setattr(cli, "count_rates", forbidden)
    monkeypatch.setattr(protocol, "count_rates", forbidden)
    assert run_cli(["run", "--channel", "mix", "--mix-p", p, "--kappa-forward", "0.1",
                    "--truncation-order", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --mix-p must lie in [0, 1]\n"


@pytest.mark.parametrize("action", ["allow", "deny"])
def test_reference_action_is_checked_before_the_configuration(action, capsys):
    assert run_cli(["run", "--channel", "reference", "--action", action]) == 2
    assert capsys.readouterr().err == "error: --channel reference requires --action none\n"


@pytest.mark.parametrize("kappa", ["3e-8", "1e-12"])
def test_weak_pumping_still_coincides(kappa, capsys):
    assert run_cli(["run", "--kappa-forward", kappa, "--kappa-backward", kappa]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[5] == "0.625"


@pytest.mark.parametrize("kappas, row", [
    (("1e-60", "1e-60"), "1.5624999999999985e-241,9.374999999999991e-242,0.625,"
                         "2.4999999999999976e-241"),
    (("1e-70", "1e-70"), "1.5624999999999986e-281,9.374999999999992e-282,0.625,"
                         "2.4999999999999978e-281"),
    (("1e-80", "0.1"), "6.187506187506183e-06,6.187506187506183e-06,0.5,1.2375012375012366e-05"),
    (("0", "0.1"), "6.187506187506183e-06,6.187506187506183e-06,0.5,1.2375012375012366e-05"),
])
def test_weak_pumping_rows_pinned(kappas, row, capsys):
    assert run_cli(["run", "--kappa-forward", kappas[0], "--kappa-backward", kappas[1],
                    "--full-precision"]) == 0
    captured = capsys.readouterr()
    assert (captured.out.splitlines()[-1], captured.err) == (f"g1,allow,plus,{row},,", "")


@pytest.mark.parametrize("channel", ["g1", "mix"])
@pytest.mark.parametrize("kappa", ["1e-78", "1e-200"])
def test_pumping_too_weak_for_doubles_exits_2(kappa, channel, capsys):
    # at 1e-78 the four-fold rates would be subnormal and the receiver's state
    # NaN; at 1e-200 they underflow to 0, which is not "cannot coincide"
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["run", "--channel", channel, "--kappa-forward", kappa,
                        "--kappa-backward", kappa]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: interaction strengths |kappa_forward| = {kappa} and "
                            f"|kappa_backward| = {kappa} are too weak for double precision: "
                            "the stronger must be at least 1.001e-73, or both 0\n")


def test_no_pumping_cannot_coincide(capsys):
    assert run_cli(["run", "--kappa-forward", "0", "--kappa-backward", "0"]) == 1
    assert "cannot produce a four-fold coincidence" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["run", "--bogus"]) == 2


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli([]) == 2


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nchannel = g1\naction = deny\ninput = plus\nideal = true\n",
                   encoding="utf-8")
    out = tmp_path / "out.csv"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    row = read_text(out).strip().splitlines()[-1].split(",")
    assert row[0] == "g1"
    assert row[1] == "deny"
    assert float(row[5]) == pytest.approx(0.5, abs=1e-9)
    # explicit flags override the config
    out2 = tmp_path / "out2.csv"
    assert run_cli(["run", "--config", str(cfg), "--action", "allow",
                    "--out", str(out2)]) == 0
    assert float(read_text(out2).strip().splitlines()[-1].split(",")[5]) == 1.0


def test_missing_config_is_usage_error(tmp_path):
    assert run_cli(["run", "--config", str(tmp_path / "nope.ini")]) == 2


def test_config_equals_form_reads_like_the_spaced_form(tmp_path, capsys):
    cfg = tmp_path / "g2.ini"
    cfg.write_text("[run]\nchannel = g2\naction = deny\nideal = true\n", encoding="utf-8")
    assert run_cli(["run", "--config", str(cfg)]) == 0
    spaced = capsys.readouterr().out
    assert run_cli(["run", f"--config={cfg}"]) == 0
    assert capsys.readouterr().out == spaced
    assert spaced.splitlines()[-1].startswith("g2,deny,")
    assert run_cli(["run", "--ideal", f"--config={tmp_path / 'nope.ini'}"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_abbreviation_reads_like_the_full_option(tmp_path, capsys):
    cfg = tmp_path / "g2.ini"
    cfg.write_text("[run]\nchannel = g2\naction = deny\nideal = true\n", encoding="utf-8")
    assert run_cli(["run", "--config", str(cfg)]) == 0
    full = capsys.readouterr().out
    assert full.splitlines()[-1].startswith("g2,deny,")
    for argv in (["run", "--ideal", "--conf", str(cfg)], ["run", "--co", str(cfg)],
                 ["run", "--ideal", f"--conf={cfg}"]):
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == full
    assert run_cli(["run", "--ideal", "--conf=/nonexistent.ini"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_abbreviation_that_matches_two_options_is_usage_error(tmp_path, capsys):
    assert run_cli(["tomo", "--co", str(tmp_path / "x.csv")]) == 2
    assert "ambiguous option: --co could match --counts, --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--config", "run.ini", "run"], ["--config=run.ini", "run", "--ideal"],
    ["--conf", "run.ini", "tomo"], ["--c", "run.ini", "scan-werner"], ["--config"],
])
def test_config_before_the_subcommand_is_one_line_that_says_where_it_goes(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", "error: --config goes after the subcommand: "
                                       "cqtsim COMMAND --config FILE\n")


@pytest.mark.parametrize("argv", [["--cx", "run.ini", "run"], ["--", "run"], ["-c", "run"]])
def test_an_option_before_the_subcommand_that_is_not_config_keeps_argparse_error(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "cqtsim: error: " in err and "--config" not in err


def test_config_supplies_a_required_option(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("label,projector,count\nh,h,700\nv,v,300\nplus,plus,650\n"
                      "minus,minus,350\nr,r,520\nl,l,480\n", encoding="utf-8")
    cfg = tmp_path / "tomo.ini"
    cfg.write_text(f"[tomo]\ncounts = {counts}\n", encoding="utf-8")
    assert run_cli(["tomo", "--counts", str(counts)]) == 0
    direct = capsys.readouterr().out
    assert run_cli(["tomo", "--conf", str(cfg)]) == 0
    assert capsys.readouterr().out == direct


def test_config_without_a_section_for_the_subcommand_changes_nothing(tmp_path, capsys):
    cfg = tmp_path / "tomo.ini"
    cfg.write_text("[tomo]\nweight = 0.3\n", encoding="utf-8")
    assert run_cli(["run", "--ideal"]) == 0
    direct = capsys.readouterr()
    assert run_cli(["run", "--ideal", "--config", str(cfg)]) == 0
    assert capsys.readouterr() == direct
    assert direct.err == ""


def test_config_false_flag_is_left_off(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nideal = false\nkappa_forward = 0.1\n", encoding="utf-8")
    assert run_cli(["run", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr()
    assert from_config.err == ""
    assert run_cli(["run", "--kappa-forward", "0.1"]) == 0
    assert capsys.readouterr() == from_config
    assert run_cli(["run", "--ideal", "--kappa-forward", "0.1"]) == 0
    assert capsys.readouterr().out != from_config.out


def test_config_value_with_percent_is_taken_literally(tmp_path, capsys):
    cfg = tmp_path / "fit.ini"
    cfg.write_text("[fit-spdc]\ntargets = 13%,55,30\n", encoding="utf-8")
    assert run_cli(["fit-spdc", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: bad targets '13%,55,30'\n"


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CQTSIM_OUT_DIR", str(tmp_path))
    assert run_cli(["reproduce", "table1", "--out", "deep/table.csv"]) == 0
    assert (tmp_path / "deep" / "table.csv").exists()


def test_out_path_below_a_file_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "out.csv"
    assert run_cli(["reproduce", "table1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output {out}: ")
    assert captured.err.count("\n") == 1
    assert read_text(blocker) == "kept\n"


def test_out_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    assert run_cli(["run", "--ideal", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output {tmp_path}: ")
    assert "Is a directory" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("out_dir", [None, "missing"], ids=["no out dir", "missing out dir"])
@pytest.mark.parametrize("argv", [["reproduce", "table1"], ["run", "--ideal"]],
                         ids=["reproduce", "run"])
def test_an_empty_out_path_is_refused_before_the_command_runs(argv, out_dir, tmp_path,
                                                              monkeypatch, capsys):
    if out_dir:
        monkeypatch.setenv("CQTSIM_OUT_DIR", str(tmp_path / out_dir))
    else:
        monkeypatch.delenv("CQTSIM_OUT_DIR", raising=False)
    monkeypatch.setattr(cli, "count_rates", None)
    monkeypatch.setattr(cli, "corrected_fidelity", None)
    assert run_cli([*argv, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out needs a file name, not an empty string\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("text, reason", [
    (b"vm\n", "MissingSectionHeaderError at line 1"),
    (b"[run]\n" + b"# padding\n" * 1000 + b"ideal = \xff\n", "UnicodeDecodeError"),
], ids=["no header", "not utf-8"])
def test_unreadable_config_is_one_line_without_its_text(text, reason, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text)
    assert run_cli(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read config {cfg}: {reason}\n"


PURE_PLUS = {"h": 0, "v": 0, "plus": 100, "minus": 0, "r": 0, "l": 0}


@pytest.mark.parametrize("fmt, line", [("csv", "fidelity_std,0"),
                                       ("json", '  "fidelity_std": 0.0,')])
def test_tomo_prints_a_spread_of_rounding_noise_as_zero(fmt, line, tmp_path, capsys):
    # every resample of a pure table fits the same state, up to rounding,
    # which printed as fidelity_std 1.11e-16 before
    counts = tmp_path / "pure.csv"
    write_counts(counts, PURE_PLUS)
    argv = ["tomo", "--counts", str(counts), "--target=plus", "--weight", "0",
            "--resamples", "100", "--seed", "6", "--format", fmt]
    assert run_cli(argv) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_tomo_full_precision_prints_the_spread_as_computed(tmp_path, capsys):
    from cqtsim.estimation import read_counts_csv, resampled_tomography

    counts = tmp_path / "pure.csv"
    write_counts(counts, PURE_PLUS)
    assert run_cli(["tomo", "--counts", str(counts), "--target=plus", "--weight", "0",
                    "--resamples", "100", "--seed", "6", "--full-precision"]) == 0
    _, estimate = resampled_tomography(read_counts_csv(counts), KET_D, 6, 100)
    assert 0.0 < estimate.uncertainty < 1e-15
    assert f"fidelity_std,{estimate.uncertainty!r}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("fmt, line", [("csv", "fidelity_std,0.004805"),
                                       ("json", '  "fidelity_std": 0.004805,')])
def test_tomo_prints_a_real_spread_as_before(fmt, line, tmp_path, capsys):
    # the line as printed before the spread took a fixed resolution
    assert run_cli(tomo_argv(tmp_path, "axial", fmt, "100")) == 0
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_semicolon_state_prints_the_bytes_of_the_comma_state(fmt, capsys):
    # the output echoes the state as written; every other byte is the same
    outputs = {}
    for sep in ",;":
        assert run_cli(["run", "--ideal", "--format", fmt, f"--input=0.6{sep}0.8"]) == 0
        outputs[sep] = capsys.readouterr()
    echo = {"csv": ('"0.6,0.8"', "0.6;0.8"), "json": ('"0.6,0.8"', '"0.6;0.8"')}[fmt]
    assert echo[0] in outputs[","].out
    assert outputs[";"] == (outputs[","].out.replace(*echo), "")


def test_counts_row_with_a_bad_projector_is_a_usage_error(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("label,projector,count\nh,h,10\nx,x;y,5\n", encoding="utf-8")
    assert run_cli(["tomo", "--counts", str(counts)]) == 2
    assert capsys.readouterr() == ("", "error: cannot read counts: bad projector state 'x;y'\n")


def test_json_format_run(tmp_path):
    out = tmp_path / "run.json"
    assert run_cli(["run", "--channel", "reference", "--action", "none", "--ideal",
                    "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(read_text(out))
    assert payload["schema"] == "cqtsim.v1"
    fid_col = payload["columns"].index("fidelity")
    assert payload["rows"][0][fid_col] == pytest.approx(1.0)


@pytest.mark.parametrize("argv", [
    ["run", "--input", "nan,1"],
    ["run", "--input", "inf,1"],
    ["run", "--kappa-forward", "nan"],
    ["run", "--kappa-backward", "inf"],
    ["run", "--ideal", "--resamples", "5", "--seed", "1"],
    ["run", "--ideal", "--exposure", "-5", "--resamples", "200", "--seed", "1"],
    ["run", "--ideal", "--exposure", "nan"],
    ["fit-spdc", "--synthetic-ratio", "nan"],
    ["fit-spdc", "--synthetic-ratio", "10"],
    ["fit-spdc", "--synthetic-ratio", "0.001"],
    ["fit-spdc", "--targets", "nan,50,30"],
    ["fit-spdc", "--targets", "10,50,130"],
    ["fit-spdc", "--pbs-epsilon", "nan"],
    ["fit-spdc", "--input", "nan,1"],
    ["tomo", "--counts", "COUNTS", "--resamples", "5", "--seed", "1"],
], ids=" ".join)
def test_bad_numeric_input_is_usage_error(argv, tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, np.eye(2) / 2)
    argv = [str(counts) if a == "COUNTS" else a for a in argv]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["tomo", "--counts", "COUNTS", "--weight", "1"], "--weight must lie in [0, 1)"),
    (["scan-werner", "--q-grid", "0:1"], "grid must be start:stop:num"),
    (["scan-werner", "--q-grid", "a:b:c"], "bad grid 'a:b:c'"),
    (["scan-werner", "--q-list", "x,y"], "bad q list 'x,y'"),
    (["scan-werner"], "scan-werner needs --q-grid or --q-list"),
    (["run", "--ideal", "--input=linear:x"], "bad input state 'linear:x'"),
    (["run", "--ideal", "--input=1,2,3"], "bad input state '1,2,3'"),
    (["run", "--ideal", "--input=whatever"], "unknown input state 'whatever'"),
    (["fit-spdc", "--input=0;0"], "bad input state '0;0'"),
    (["tomo", "--counts", "COUNTS", "--target", "x"], "unknown target state 'x'"),
    (["tomo", "--counts", "COUNTS", "--target", "1,nan"], "bad target state '1,nan'"),
], ids=" ".join)
def test_usage_error_names_the_fault(argv, message, tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, np.eye(2) / 2)
    assert run_cli([str(counts) if a == "COUNTS" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def write_counts(path, counts):
    lines = ["label,projector,count"] + [f"{name},{name},{n}" for name, n in counts.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("resamples", [[], ["--resamples", "100", "--seed", "1"]],
                         ids=["point", "resampled"])
@pytest.mark.parametrize("table, message", [
    ({"h": 10, "v": 5}, "projector set is not informationally complete"),
    (dict.fromkeys(AXIAL, 0), "all counts are zero"),
], ids=["incomplete", "zeros"])
def test_tomo_degenerate_table_is_usage_error(table, message, resamples, tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    write_counts(counts, table)
    assert run_cli(["tomo", "--counts", str(counts)] + resamples) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# --- too-large background weight ---------------------------------------------------

def test_tomo_weight_too_large_for_resamples_is_usage_error(tmp_path, capsys):
    # about 100 counts per projector and a raw fidelity near 0.624: the point
    # estimate survives a 55.4 % subtraction, but two of the 1000 resamples
    # fluctuate far enough to come out non-physical
    counts = tmp_path / "counts.csv"
    write_counts(counts, {"h": 100, "v": 100, "plus": 125, "minus": 75, "r": 100, "l": 100})
    assert run_cli(["tomo", "--counts", str(counts), "--weight", "0.554"]) == 0
    capsys.readouterr()
    assert run_cli(["tomo", "--counts", str(counts), "--weight", "0.554",
                    "--resamples", "1000", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --weight 0.554 ")
    assert "2 of 1000 resamples" in err
    assert "Traceback" not in err


def test_tomo_weight_too_large_for_point_estimate_is_usage_error(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    write_counts(counts, {"h": 100, "v": 100, "plus": 125, "minus": 75, "r": 100, "l": 100})
    assert run_cli(["tomo", "--counts", str(counts), "--weight", "0.8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --weight 0.8 ")
    assert "Traceback" not in err


def test_tomo_weight_near_1_keeps_the_corrected_state_of_unit_trace(tmp_path, capsys):
    # 1e11 counts a projector, near-mixed: the state survives a 99.99999 %
    # subtraction, whose rounding 1 / (1 - w) lifts past fidelity's 1e-9
    counts = tmp_path / "counts.csv"
    write_counts(counts, {"h": 100000000002, "v": 99999999998, "plus": 99999999997,
                          "minus": 100000000003, "r": 100000000002, "l": 99999999998})
    assert run_cli(["tomo", "--counts", str(counts), "--weight", "0.9999999",
                    "--format", "json", "--full-precision"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rho = payload["rho_corrected"]
    assert abs(rho[0][0][0] + rho[1][1][0] - 1.0) <= 1e-10
    # the maximum is the linear inversion, r_x = -6 / 2e11
    raw = (1 - 6 / 2e11) / 2
    assert payload["corrected_fidelity"] == pytest.approx((raw - 0.9999999 / 2) / 1e-7,
                                                          abs=1e-6)


CLIP_WARNING = ("warning: background subtraction left slightly negative eigenvalues; "
                "clipping to the physical cone\n")


def test_tomo_reports_clipping_in_one_stable_line(tmp_path, capsys):
    # Bloch vector (0, 0, 0.9002), exact counts: a 10 % subtraction leaves the
    # state just outside the physical cone, so it is clipped with a warning
    counts = tmp_path / "counts.csv"
    write_counts(counts, {"h": 95010, "v": 4990, "plus": 50000, "minus": 50000,
                          "r": 50000, "l": 50000})
    argv = ["tomo", "--counts", str(counts), "--weight", "0.1"]
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == CLIP_WARNING
    assert "rho_corrected,\"[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]\"" in captured.out
    # some resamples fall below -1e-3: the warning still comes first
    assert run_cli(argv + ["--resamples", "200", "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == CLIP_WARNING + (
        "error: --weight 0.1 is too large for these counts: 30 of 200 resamples have a "
        "corrected eigenvalue below -1e-3 (lowest -2.15e-03)\n")
    # ten times the counts: the point estimate and the resamples both clip,
    # and the warning is printed once
    write_counts(counts, {"h": 950100, "v": 49900, "plus": 500000, "minus": 500000,
                          "r": 500000, "l": 500000})
    assert run_cli(["tomo", "--counts", str(counts), "--weight", "0.0999",
                    "--resamples", "200", "--seed", "3"]) == 0
    assert capsys.readouterr().err == CLIP_WARNING


# --- one kernel run per resampled tomography ---------------------------------------

@pytest.mark.parametrize("resamples", ["0", "300"])
def test_tomo_fits_its_table_and_resamples_in_one_kernel_run(resamples, tmp_path,
                                                              monkeypatch, capsys):
    import cqtsim.estimation as estimation

    counts = tmp_path / "counts.csv"
    write_counts(counts, {"h": 8601, "v": 5290, "plus": 6107, "minus": 6466, "r": 4178,
                          "l": 8512})
    calls, kernel = [], estimation._ml_kernel
    monkeypatch.setattr(estimation, "_ml_kernel",
                        lambda *a, **k: calls.append(len(a[1])) or kernel(*a, **k))
    assert run_cli(["tomo", "--counts", str(counts), "--weight", "0.2",
                    "--resamples", resamples, "--seed", "5"]) == 0
    # the observed table and the nonempty resamples
    assert calls == [1 + int(resamples)]
    assert "fidelity_std" in capsys.readouterr().out or resamples == "0"


W554 = {"h": 100, "v": 100, "plus": 125, "minus": 75, "r": 100, "l": 100}
HUGE = {"h": 1e19, "v": 10, "plus": 10, "minus": 10, "r": 10, "l": 10}


# each message as printed when the observed table and the resamples ran apart
@pytest.mark.parametrize("table, weight, message", [
    # the observed state fails a subtraction that many resamples fail too:
    # the observed state's message comes first, as when it was fitted first
    (W554, "0.8", "--weight 0.8 is too large for these counts: the corrected state has "
                  "eigenvalue -1.25e-01, below -1e-3"),
    # a pure state too bright to resample, and too pure for the subtraction
    ({"h": 2e19, "v": 0, "plus": 1e19, "minus": 1e19, "r": 1e19, "l": 1e19}, "0.8",
     "--weight 0.8 is too large for these counts: the corrected state has eigenvalue "
     "-2.00e+00, below -1e-3"),
    (W554, "0.554", "--weight 0.554 is too large for these counts: 1 of 300 resamples have "
                    "a corrected eigenvalue below -1e-3 (lowest -3.06e-02)"),
    (HUGE, "0", "cannot resample these counts: a count of 1e+19 is too large to resample: "
                "numpy's Poisson sampler accepts means up to 9.223e+18"),
    (dict.fromkeys(AXIAL, 1e-300), "0",
     "cannot resample these counts: every resample was empty"),
], ids=["observed-and-resamples", "observed-and-too-large", "resamples", "too-large", "empty"])
def test_tomo_resampling_errors_keep_their_text_and_order(table, weight, message, tmp_path,
                                                           capsys):
    counts = tmp_path / "counts.csv"
    write_counts(counts, table)
    assert run_cli(["tomo", "--counts", str(counts), "--weight", weight,
                    "--resamples", "300", "--seed", "27"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_tomo_observed_weight_error_hides_failing_resamples(tmp_path):
    # the resamples of the first case above fail on their own as well
    from cqtsim.estimation import (NonPhysicalError, _ml_kernel, axial_counts,
                                   correct_for_background)

    counts = axial_counts(W554)
    draws = np.random.default_rng(27).poisson(counts.counts(), size=(300, 6)).astype(float)
    rho = _ml_kernel(np.array(counts.projectors()), draws, 1e-10, 100_000)[0]
    with pytest.raises(NonPhysicalError) as exc:
        correct_for_background(rho, 0.8)
    assert exc.value.n_bad > 100


# --- state values with a leading '-' --------------------------------------------------

@pytest.mark.parametrize("sep", [",", ";"])
def test_state_value_with_leading_minus_parses(sep, tmp_path, capsys):
    # a spaced value, after the option or an abbreviation of it that argparse
    # accepts, gives the output of the attached one, in either form of 'a,b'
    state = f"-0.6{sep}0.8"
    assert run_cli(["run", "--ideal", f"--input={state}"]) == 0
    attached = capsys.readouterr().out
    for spelling in ("--input", "--inp", "--in"):
        assert run_cli(["run", "--ideal", spelling, state]) == 0
        assert capsys.readouterr().out == attached
    assert run_cli(["fit-spdc", f"--input={state}"]) == 0
    attached = capsys.readouterr().out
    assert run_cli(["fit-spdc", "--inp", state]) == 0
    assert capsys.readouterr().out == attached
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, np.outer(KET_D, KET_D.conj()))
    assert run_cli(["tomo", "--counts", str(counts), f"--target={state}j"]) == 0
    attached = capsys.readouterr().out
    for spelling in ("--target", "--tar"):
        assert run_cli(["tomo", "--counts", str(counts), spelling, f"{state}j"]) == 0
        assert capsys.readouterr().out == attached


@pytest.mark.parametrize("argv, attached", [
    (["run", "--i", "-0.6,0.8"], ["run", "--i=-0.6,0.8"]),
    (["run", "--inp", "-0.6;0.8", "--ideal"], ["run", "--inp=-0.6;0.8", "--ideal"]),
    (["tomo", "--tar", "-0.6,0.8j"], ["tomo", "--tar=-0.6,0.8j"]),
    (["run", "--x", "-0.6,0.8"], ["run", "--x", "-0.6,0.8"]),
    (["run", "-i", "-0.6,0.8"], ["run", "-i", "-0.6,0.8"]),
    (["run", "--input", "-0.6"], ["run", "--input", "-0.6"]),
    (["run", "--input", "0.6,-0.8"], ["run", "--input", "0.6,-0.8"]),
    (["-0.6,0.8", "--input"], ["-0.6,0.8", "--input"]),
])
def test_only_a_state_value_with_a_leading_minus_is_attached(argv, attached):
    # to a state option or a prefix of one from --i on, and to nothing else
    assert cli._attach_state_values(argv) == attached


def test_ambiguous_abbreviation_of_a_state_option_is_a_usage_error(capsys):
    # --i could be --input or --ideal; argparse says so
    assert run_cli(["run", "--i", "-0.6,0.8"]) == 2
    assert "ambiguous option: --i=-0.6,0.8" in capsys.readouterr().err


# --- internal consistency failures ------------------------------------------------------

def _break_frame_unitarity(monkeypatch):
    from cqtsim import protocol
    # an encoder that ignores its input maps |H> and |V> alike
    monkeypatch.setattr(protocol, "_encoder_exact", lambda q: np.eye(2, dtype=complex))


def _break_frame_cross_check(monkeypatch):
    from cqtsim import protocol
    # an encoder that drops the relative phase still maps |H> and |V> right
    exact = protocol._encoder_exact
    monkeypatch.setattr(protocol, "_encoder_exact", lambda q: exact(
        protocol.InputQubit(*unit_pair(abs(q.alpha), abs(q.beta), "input"))))


@pytest.mark.parametrize("breaker, message", [
    (_break_frame_unitarity, "non-unitary frame"),
    (_break_frame_cross_check, "failed cross-check"),
])
def test_internal_consistency_failure_exits_1(breaker, message, monkeypatch, capsys):
    from cqtsim import protocol
    protocol._calibrated_frame.cache_clear()
    breaker(monkeypatch)
    try:
        assert run_cli(["run", "--ideal", "--channel", "g1", "--input", "plus"]) == 1
    finally:
        protocol._calibrated_frame.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("simulation error: ") and message in err
    assert "Traceback" not in err


# --- caps on statistical work ---------------------------------------------------------------

def test_resamples_cap(tmp_path, monkeypatch, capsys):
    from cqtsim import cli
    from cqtsim.estimation import FidelityEstimate

    assert run_cli(["run", "--ideal", "--resamples", "100000", "--seed", "1"]) == 0
    assert run_cli(["run", "--ideal", "--resamples", "100001", "--seed", "1"]) == 2
    calls = []
    monkeypatch.setattr(cli, "_resampled_fit", lambda counts, target, seed, n, w: (
        calls.append(n) or (cli.ml_reconstruct(counts), np.eye(2) / 2,
                            FidelityEstimate(0.5, 0.1))))
    counts = tmp_path / "counts.csv"
    write_exact_counts(counts, np.eye(2) / 2)
    tomo = ["tomo", "--counts", str(counts), "--seed", "1", "--resamples"]
    assert run_cli(tomo + ["100000"]) == 0
    assert run_cli(tomo + ["100001"]) == 2
    assert calls == [100000]
    assert "100000" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["grid", "list"])
def test_q_points_cap(form, monkeypatch, capsys):
    from cqtsim import cli
    from cqtsim.channels import WernerScanResult

    sizes = []
    monkeypatch.setattr(cli, "werner_scan", lambda grid: (
        sizes.append(len(grid)) or WernerScanResult([(0.5, 0.75, 0.5)], 1.0 / 3.0)))

    def argv(n):
        if form == "grid":
            return ["scan-werner", "--q-grid", f"0:1:{n}"]
        return ["scan-werner", "--q-list", ",".join(["0.5"] * n)]

    assert run_cli(argv(10001)) == 0
    assert run_cli(argv(10002)) == 2
    assert sizes == [10001]
    assert "10001" in capsys.readouterr().err


def test_truncation_order_cap(monkeypatch, capsys):
    from cqtsim import cli
    from cqtsim.protocol import CountRecord

    orders = []
    record = CountRecord(0.75, 0.25, 1.0, {})
    monkeypatch.setattr(cli, "count_rates", lambda cfg: (
        orders.append(cfg.source.truncation_order) or record))
    argv = ["run", "--kappa-forward", "0.1", "--truncation-order"]
    assert run_cli(argv + ["5"]) == 0
    assert run_cli(argv + ["6"]) == 2
    assert run_cli(["run", "--ideal", "--truncation-order", "0"]) == 2
    assert orders == [5]
    assert "--truncation-order must lie between 1 and 5" in capsys.readouterr().err


# --- run output bytes at emission settings, as printed before the optics were
# composed into one map per configuration ------------------------------------------------

RUN_HEADER = ("# schema=cqtsim.v1\n"
              "channel,action,input,f_parallel,f_perp,fidelity,success_probability,"
              "fidelity_mean,fidelity_std\n")
RUN_ROWS = [
    (("g1", "allow", "standard", 2), 'g1,allow,"0.6,0.8j",6.267e-06,3.038e-06,0.6735,9.305e-06,,'),
    (("g1", "deny", "standard", 2), 'g1,deny,"0.6,0.8j",2.872e-06,2.606e-06,0.5243,5.479e-06,,'),
    (("g2", "allow", "standard", 2), 'g2,allow,"0.6,0.8j",4.847e-06,4.558e-06,0.5154,9.404e-06,,'),
    (("g2", "deny", "standard", 2), 'g2,deny,"0.6,0.8j",2.268e-06,2.312e-06,0.4952,4.58e-06,,'),
    (("mix", "allow", "standard", 2), 'mix,allow,"0.6,0.8j",5.557e-06,3.798e-06,0.594,9.355e-06,,'),
    (("mix", "deny", "standard", 2), 'mix,deny,"0.6,0.8j",2.57e-06,2.459e-06,0.5111,5.029e-06,,'),
    (("reference", "none", "standard", 2), 'reference,none,"0.6,0.8j",7.464e-06,0,1,7.464e-06,,'),
    (("g1", "allow", "swapped", 2), 'g1,allow,"0.6,0.8j",1.635e-06,5.755e-08,0.966,1.692e-06,,'),
    (("g1", "deny", "swapped", 2), 'g1,deny,"0.6,0.8j",1.743e-06,9.803e-07,0.64,2.723e-06,,'),
    (("g1", "allow", "standard", 3), 'g1,allow,"0.6,0.8j",6.333e-06,3.069e-06,0.6736,9.432e-06,,'),
    (("g1", "deny", "standard", 3), 'g1,deny,"0.6,0.8j",2.9e-06,2.628e-06,0.5246,5.545e-06,,'),
    (("g2", "allow", "standard", 3), 'g2,allow,"0.6,0.8j",4.891e-06,4.609e-06,0.5149,9.531e-06,,'),
    (("g2", "deny", "standard", 3), 'g2,deny,"0.6,0.8j",2.287e-06,2.335e-06,0.4948,4.637e-06,,'),
    (("mix", "allow", "standard", 3), 'mix,allow,"0.6,0.8j",5.612e-06,3.839e-06,0.5938,9.481e-06,,'),
    (("mix", "deny", "standard", 3), 'mix,deny,"0.6,0.8j",2.593e-06,2.481e-06,0.511,5.091e-06,,'),
    (("reference", "none", "standard", 3), 'reference,none,"0.6,0.8j",7.554e-06,2.995e-08,0.9961,7.622e-06,,'),
    (("g1", "allow", "swapped", 3), 'g1,allow,"0.6,0.8j",1.674e-06,7.703e-08,0.956,1.754e-06,,'),
    (("g1", "deny", "swapped", 3), 'g1,deny,"0.6,0.8j",1.772e-06,9.956e-07,0.6402,2.773e-06,,'),
]


@pytest.mark.parametrize("settings, row", RUN_ROWS)
def test_run_emission_bytes_pinned(settings, row, capsys):
    channel, action, roles, order = settings
    assert run_cli(["run", "--channel", channel, "--action", action, "--roles", roles,
                    "--input", "0.6,0.8j", "--kappa-forward", "0.1",
                    "--kappa-backward", "0.055", "--pbs-epsilon", "0.05",
                    "--truncation-order", str(order)]) == 0
    assert capsys.readouterr().out == RUN_HEADER + row + "\n"


@pytest.mark.parametrize("extra", [
    ("--channel", "g1", "--truncation-order", "2"),
    ("--channel", "reference", "--action", "none", "--truncation-order", "3"),
    ("--channel", "g1", "--roles", "swapped", "--action", "deny"),
    ("--channel", "mix", "--resamples", "200", "--seed", "3"),
])
def test_run_full_precision_prints_the_record(extra, monkeypatch, capsys):
    # a numpy scalar would print as np.float64(...): every value must be a
    # Python float that reads back as the record's value
    from cqtsim import cli
    from cqtsim.protocol import ProtocolConfig
    from cqtsim.spdc import SourceParams

    records = []
    count_rates = cli.count_rates
    monkeypatch.setattr(cli, "count_rates", lambda cfg: records.append(
        count_rates(cfg)) or records[-1])
    assert run_cli(["run", "--kappa-forward", "0.1", "--kappa-backward", "0.055",
                    "--pbs-epsilon", "0.05", "--full-precision", *extra]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    values = [float(v) for v in row[3:] if v]
    if "mix" in extra:
        record = cli.emulate_mixture(ProtocolConfig(source=SourceParams(0.1, 0.055),
                                                    pbs_epsilon=0.05), 0.5)
    else:
        (record,) = records
    expected = [record.f_parallel, record.f_perp, record.fidelity(),
                record.success_probability]
    assert values[:4] == expected
    assert len(values) == (6 if "--resamples" in extra else 4)
    assert all(type(v) is float for v in expected + list(record.per_term.values()))


@pytest.mark.parametrize("source", ["ideal", "emission"])
@pytest.mark.parametrize("action", ["allow", "deny", "none"])
def test_mixture_row_is_the_library_mixture(action, source, capsys):
    # the CLI's mix row is emulate_mixture of the g1 configuration, bit for
    # bit; where the CLI exits 1, the library raises the same message
    from cqtsim.protocol import (InputQubit, NoCoincidenceError, ProtocolConfig,
                                 emulate_mixture)
    from cqtsim.spdc import SourceParams

    flags = (["--ideal"] if source == "ideal" else
             ["--kappa-forward", "0.1", "--kappa-backward", "0.055", "--pbs-epsilon", "0.05"])
    params = {} if source == "ideal" else {"source": SourceParams(0.1, 0.055),
                                           "pbs_epsilon": 0.05}
    exits = set()
    for name in AXIAL:
        cfg = ProtocolConfig(action=action, input=InputQubit.from_name(name), **params)
        for p in ("0", "0.3", "0.5", "1"):
            code = run_cli(["run", "--channel", "mix", "--action", action, "--input", name,
                            "--mix-p", p, "--full-precision", *flags])
            captured = capsys.readouterr()
            exits.add(code)
            if code == 1:
                with pytest.raises(NoCoincidenceError) as caught:
                    emulate_mixture(cfg, float(p))
                assert captured.err == f"simulation error: {caught.value}\n"
                continue
            assert code == 0, captured.err
            record = emulate_mixture(cfg, float(p))
            expected = [record.f_parallel, record.f_perp, record.fidelity(),
                        record.success_probability]
            assert captured.out.splitlines()[-1] == ",".join(
                ["mix", action, name, *map(repr, expected), "", ""])
    assert exits == ({0, 1} if (action, source) == ("deny", "ideal") else {0})


# --- fit-spdc: output bytes and propagation count ------------------------------------

FIT_COLUMNS = "config,target_percent,achieved_percent,residual_pp\n"
FIT_ROWS = [
    ((),
     ("fitted_ratio=0.554711", "sum_squared_residual=2.283408e-01", "converged=True",
      "warning: the uncontrolled share never rises above 0 % (target 13 %)",
      "warning: the allowed share never falls below 75.59 % (target 55.4 %)",
      "warning: the denied share never falls below 66.94 % (target 30.1 %)"),
     ("uncontrolled,13,0,-13", "allowed,55.4,81.13,25.73", "denied,30.1,68.21,38.11")),
    (("--synthetic-ratio", "0.8"),
     ("fitted_ratio=0.800000", "sum_squared_residual=0.000000e+00", "converged=True"),
     ("uncontrolled,0,0,0", "allowed,75.73,75.73,0", "denied,76.82,76.82,0")),
    (("--synthetic-ratio", "2"),
     ("fitted_ratio=2.000000", "sum_squared_residual=0.000000e+00", "converged=True"),
     ("uncontrolled,0,0,0", "allowed,89.83,89.83,0", "denied,94.9,94.9,0")),
    (("--input", "h", "--synthetic-ratio", "4", "--pbs-epsilon", "0.001"),
     ("fitted_ratio=0.176865", "sum_squared_residual=0.000000e+00", "converged=True",
      "warning: ratio 4.000000 fits the targets as well"),
     ("uncontrolled,0,0,0", "allowed,96.97,96.97,0", "denied,100,100,0")),
    (("--targets", "10,50,40"),
     ("fitted_ratio=0.600199", "sum_squared_residual=1.844477e-01", "converged=True",
      "warning: the uncontrolled share never rises above 0 % (target 10 %)",
      "warning: the allowed share never falls below 75.59 % (target 50 %)",
      "warning: the denied share never falls below 66.94 % (target 40 %)"),
     ("uncontrolled,10,0,-10", "allowed,50,79.51,29.51", "denied,40,69.56,29.56")),
]


@pytest.mark.parametrize("extra, comments, rows", FIT_ROWS)
def test_fit_spdc_bytes_pinned(extra, comments, rows, capsys):
    assert run_cli(["fit-spdc", *extra]) == 0
    assert capsys.readouterr().out == (
        "# schema=cqtsim.v1\n" + "".join(f"# {c}\n" for c in comments)
        + FIT_COLUMNS + "".join(f"{r}\n" for r in rows))


@pytest.mark.parametrize("extra", [
    ["--synthetic-ratio", "5"],
    ["--synthetic-ratio", "0.001001"],
    ["--input", "h", "--synthetic-ratio", "0.8"],
    # near the ratio where the allowed share is smallest, between grid points
    ["--input", "h", "--pbs-epsilon", "0.025", "--synthetic-ratio", "0.846"],
])
def test_fit_spdc_round_trip_does_not_warn(extra, capsys):
    assert run_cli(["fit-spdc", "--full-precision", *extra]) == 0
    assert "# warning: the" not in capsys.readouterr().out


def test_fit_spdc_warns_of_a_target_above_reach(capsys):
    # input h: the denied configuration blocks the desired term, so its share
    # is always 100 %, and the uncontrolled share is always 0
    assert run_cli(["fit-spdc", "--input", "h", "--targets", "0,90,99"]) == 0
    comments = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("# warning: the")]
    assert comments == ["# warning: the denied share never falls below 100 % (target 99 %)"]
    assert run_cli(["fit-spdc", "--input", "h", "--targets", "1,90,100"]) == 0
    comments = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("# warning: the")]
    assert comments == ["# warning: the uncontrolled share never rises above 0 % (target 1 %)"]


def test_fit_spdc_json_bytes_pinned(capsys):
    assert run_cli(["fit-spdc", "--format", "json", "--synthetic-ratio", "0.8"]) == 0
    expected = {
        "columns": ["config", "target_percent", "achieved_percent", "residual_pp"],
        "comments": ["fitted_ratio=0.800000", "sum_squared_residual=0.000000e+00",
                     "converged=True"],
        "rows": [["uncontrolled", 0.0, 0.0, 0.0], ["allowed", 75.73, 75.73, 0.0],
                 ["denied", 76.82, 76.82, 0.0]],
        "schema": "cqtsim.v1",
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("extra, config", [
    ([], "the allowed configuration (g1 allow)"),
    (["--input", "h"], "the denied configuration (g1 deny)"),
])
def test_fit_spdc_names_the_configuration_that_cannot_coincide(extra, config, capsys):
    # a PBS that reflects both polarizations: the named configuration never
    # clicks all four detectors
    assert run_cli(["fit-spdc", "--pbs-epsilon", "1", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"simulation error: {config} cannot produce a four-fold "
                            f"coincidence at --pbs-epsilon 1 and input "
                            f"{(extra or ['plus'])[-1]}\n")


def _count_propagations(monkeypatch):
    """The ``(channel, action)`` of each configuration of each stacked propagation."""
    from cqtsim import protocol

    calls = []
    propagate = protocol._tally
    monkeypatch.setattr(protocol, "_tally", lambda configs: calls.append(
        [(cfg.channel, cfg.action) for cfg in configs]) or propagate(configs))
    return calls


@pytest.mark.parametrize("extra", [[], ["--synthetic-ratio", "0.8"],
                                   ["--targets", "13,55.4,30.1"]])
def test_fit_spdc_propagates_each_configuration_once(extra, monkeypatch):
    calls = _count_propagations(monkeypatch)
    assert run_cli(["fit-spdc", *extra]) == 0
    assert calls == [[("reference", "none"), ("g1", "allow"), ("g1", "deny")]]


@pytest.mark.parametrize("extra", [["--synthetic-ratio", "6"], ["--targets", "1,2"],
                                   ["--targets", "a,b,c"],
                                   ["--synthetic-ratio", "0.8", "--targets", "1,2"]])
def test_fit_spdc_rejects_bad_targets_before_propagating(extra, monkeypatch):
    calls = _count_propagations(monkeypatch)
    assert run_cli(["fit-spdc", *extra]) == 2
    assert calls == []


# --- one parser per process -------------------------------------------------------------

def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def test_shared_parser_matches_a_fresh_one(tmp_path):
    from cqtsim import cli

    cfg = tmp_path / "scan.ini"
    cfg.write_text("[scan-werner]\nq_list = 0.2,0.6\nfull_precision = true\n",
                   encoding="utf-8")
    sequence = [
        ["scan-werner", "--q-list", "0.25,0.75"],
        ["run", "--bogus"],
        ["fit-spdc", "--synthetic-ratio", "0.8", "--targets", "1,2"],
        ["scan-werner", "--config", str(cfg), "--format", "json"],
        ["scan-werner", "-h"],
        ["reproduce", "table1"],
        ["scan-werner", "--q-list", "0.25,0.75"],
    ]
    cli._parser.cache_clear()
    shared = [_run_captured(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_run_captured(argv))
    assert [code for code, _, _ in shared] == [0, 2, 2, 0, 0, 0, 0]
    assert shared == fresh
    assert b"not allowed with argument" in shared[2][2]
    assert b'"rows"' in shared[3][1] and b"0.6" in shared[3][1]


@pytest.mark.parametrize("argv, parses", [
    (["reproduce", "table1"], ["cqtsim reproduce"]),
    (["run", "--ideal", "--format", "json"], ["cqtsim run"]),
    (["scan-werner", "--q-list", "0.5"], ["cqtsim scan-werner"]),
    (["run", "--ideal", "--config", "CFG"], ["cqtsim run", "cqtsim run"]),
    (["run", "--config=CFG", "--input", "-0.6,0.8"], ["cqtsim run", "cqtsim run"]),
])
def test_a_command_is_parsed_once_by_its_own_parser(argv, parses, tmp_path, monkeypatch):
    # with --config the parse stops at the file and runs again with its section
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nchannel = g2\n", encoding="utf-8")
    seen = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        seen.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([a.replace("CFG", str(cfg)) for a in argv]) == 0
    assert seen == parses


def test_main_builds_the_parser_once(monkeypatch):
    from cqtsim import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser()
    per_build = len(built)
    assert per_build > 1     # the main parser and one per subcommand
    cli._parser.cache_clear()
    counts = []
    for argv in (["scan-werner", "--q-list", "0.5"], ["run", "--bogus"],
                 ["reproduce", "table1"]):
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        counts.append(len(built))
    assert counts == [per_build, 0, 0]
