"""Command-line front end: run experiments, scans, fits and tomography.

Subcommands: run, scan-werner, fit-spdc, tomo, reproduce.  Every command
accepts ``--config PATH`` (INI file, one section per subcommand, keys named
after the long options; angles are written in degrees there), ``--out``,
``--format {csv,json}`` and ``--full-precision``.  Relative output paths are
resolved against $CQTSIM_OUT_DIR when it is set.  Outputs carry a schema
version line and contain nothing non-deterministic, so identical inputs and
seeds give byte-identical files.  A command is parsed once, by its
subcommand's parser (``_parse``); JSON is written with the C encoder, with
the bytes of ``json.dumps(..., indent=2, sort_keys=True)`` (``_json_text``).
A subcommand imports its layers when it runs, so ``tomo`` loads no photon
engine and ``run`` no ``channels``; ``configparser`` loads for ``--config``.

Exit codes: 0 success, 1 simulation/runtime failure, 2 usage or config error
(an empty output path, or one that cannot be written, among them).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from .estimation import (POISSON_MAX_MEAN, NonPhysicalError, corrected_fidelity,
                         correct_for_background, ml_reconstruct, poisson_uncertainty,
                         read_counts_csv, resampled_tomography)
from .fock import fidelity, parse_ket

SCHEMA_VERSION = "cqtsim.v1"

ENV_OUT_DIR = "CQTSIM_OUT_DIR"

# Bundled reference dataset: raw fidelities (percent), background weights
# (percent) and the corrected values they must reproduce.
REFERENCE_TABLE = [
    ("reference", "allowed", 78.8, 13.0, 83.1),
    ("g1", "allowed", 62.4, 55.4, 77.9),
    ("g1", "denied", 55.0, 30.1, 57.2),
    ("g2", "allowed", 64.7, 55.4, 83.0),
    ("g2", "denied", 51.2, 30.1, 51.8),
    ("mix", "allowed", 63.5, 55.4, 80.2),
    ("mix", "denied", 53.5, 30.1, 55.1),
]

# the weights of the table's first three rows, divided as --targets divides them
DEFAULT_FIT_TARGETS = {label: row[3] / 100.0 for label, row in
                       zip(("uncontrolled", "allowed", "denied"), REFERENCE_TABLE)}

# Caps on work: resampling and scans hold arrays that grow linearly with
# these sizes, and propagation cost grows combinatorially with the order.
MAX_RESAMPLES = 100_000
MAX_Q_POINTS = 10_001
MAX_TRUNCATION_ORDER = 5

# Default precision prints these at a fixed absolute resolution (decimal
# places): at an exact fit or a pure state they are rounding noise, which
# must not reach the output bytes.
RESIDUAL_PP_DIGITS = 6      # fit residuals, percentage points
SSR_DIGITS = 16             # their sum of squares, in squared fractions
# A fit target further than this (a share, 0..1) outside the shares the
# ratio can reach gets a warning; a round trip reaches its targets to ~1e-9.
REACH_TOLERANCE = 1e-6
RHO_DIGITS = 6              # density-matrix entries
# The resampled fidelity's spread: rounding noise of the ML fits is a few ulp
# of 1, under 1e-15, and prints as 0.  A real spread is at least about
# 1 / (2 sqrt(N)) for N counts at a fidelity away from 0 and 1, 1.6e-10 at the
# largest mean numpy's Poisson sampler takes (POISSON_MAX_MEAN, 9.2e18), and 13
# places keep 4 significant digits of it.
FIDELITY_STD_DIGITS = 13

# Options whose value is a state, which may be 'a,b' or 'a;b' with a leading '-'.
STATE_OPTIONS = ("--input", "--target")
STATE_HELP = ("named state (h v d a r l plus minus), 'linear:DEG' "
              "or two complex components 'a,b' or 'a;b'")


# --- formatting and output -------------------------------------------------------

def _steady(value: float) -> float:
    """``value`` rounded to 12 significant digits before a shorter format.

    A value within a few ulp of a rounding tie at 4 to 6 digits would print
    either digit depending on its last bit, which can differ between BLAS
    kernels; 12 digits first settle the tie the same way on every machine.
    """
    return float(f"{value:.12g}")


def _fmt(value, full_precision: bool, spec: str = ".4g") -> str:
    if isinstance(value, float):
        if full_precision:
            return repr(value)
        return f"{_steady(value):{spec}}"
    if value is None:
        return ""
    return str(value)


def _fixed(value: float, digits: int, full_precision: bool) -> float:
    if full_precision:
        return value
    return round(value, digits) + 0.0     # + 0.0 turns -0.0 into 0.0


def _matrix(rho, full_precision: bool) -> list:
    return [[[_fixed(float(v.real), RHO_DIGITS, full_precision),
              _fixed(float(v.imag), RHO_DIGITS, full_precision)] for v in row]
            for row in rho]


def _resolve_out(path):
    if path is None:
        return None
    out_dir = os.environ.get(ENV_OUT_DIR)
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    return path


def _emit(text: str, out_path):
    out_path = _resolve_out(out_path)
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output {out_path}: {exc}") from None


def _json_value(value, full_precision):
    if isinstance(value, float) and not full_precision:
        return float(_fmt(value, False))
    return value


# JSON scalars, and a C encoder that puts a raw NUL between items: no encoded
# string holds one, and no scalar ends in "]", so "]\x00[" parts a table's rows
_SCALARS = (str, int, float, type(None))
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ": ", "\x00", True, False, True)


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` byte for byte, keys being
    strings, with each list of scalars or table of such lists written by one
    call of the C encoder, which ``json.dumps`` leaves out when it indents.
    ``newline`` opens each line at the depth of ``value``."""
    if _C_ENCODER is None:
        return json.dumps(value, indent=2, sort_keys=True)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return "".join(_C_ENCODER(value, 0))
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{json.encoder.encode_basestring_ascii(key)}: {_json_text(v, inner)}"
                 for key, v in sorted(value.items())]
    elif all(isinstance(v, _SCALARS) for v in value):
        items = "".join(_C_ENCODER(value, 0))[1:-1].split("\x00")
    elif all(isinstance(row, (list, tuple)) and all(isinstance(v, _SCALARS) for v in row)
             for row in value):
        cell = "," + inner + "  "
        items = ["[" + inner + "  " + row.replace("\x00", cell) + inner + "]" if row else "[]"
                 for row in "".join(_C_ENCODER(value, 0))[2:-2].split("]\x00[")]
    else:
        items = [_json_text(v, inner) for v in value]
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _render_table(columns, rows, fmt, full_precision, comments=()):
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# schema={SCHEMA_VERSION}\n")
        for c in comments:
            buf.write(f"# {c}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v, full_precision) for v in row])
        return buf.getvalue()
    payload = {
        "schema": SCHEMA_VERSION,
        "comments": list(comments),
        "columns": list(columns),
        "rows": [[_json_value(v, full_precision) for v in row] for row in rows],
    }
    return _json_text(payload) + "\n"


# --- shared argument plumbing -------------------------------------------------------

class _ConfigFound(Exception):
    """A subcommand's parser met ``--config PATH``, in a spelling it accepts;
    the path is ``args[0]``."""


class _StopAtConfig(argparse.Action):
    """Ends the parse at ``--config``, before any check of required options,
    so that ``main`` can parse again with the file's section in front."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise _ConfigFound(values)


def _add_common(parser, config_action):
    parser.add_argument("--config", action=config_action,
                        help="INI config file with per-command sections")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format")
    parser.add_argument("--full-precision", action="store_true",
                        help="print full float precision instead of 4 significant digits")


def build_parser(config_action="store") -> argparse.ArgumentParser:
    """The ``cqtsim`` parser; ``parser.commands`` maps each subcommand to its parser."""
    parser = argparse.ArgumentParser(
        prog="cqtsim",
        description="Linear-optical simulation of controlled quantum teleportation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one teleportation configuration")
    p_run.add_argument("--channel", choices=("g1", "g2", "reference", "mix"),
                       default="g1")
    p_run.add_argument("--action", choices=("allow", "deny", "none"), default="allow")
    p_run.add_argument("--input", default="plus", help=STATE_HELP)
    p_run.add_argument("--ideal", action="store_true",
                       help="one ideal photon per mode (no emission background)")
    p_run.add_argument("--kappa-forward", type=float, default=None)
    p_run.add_argument("--kappa-backward", type=float, default=None)
    p_run.add_argument("--truncation-order", type=int, default=2)
    p_run.add_argument("--pbs-epsilon", type=float, default=0.0)
    p_run.add_argument("--roles", choices=("standard", "swapped"), default="standard")
    p_run.add_argument("--mix-p", type=float, default=0.5,
                       help="mixture weight of the g2 run for --channel mix")
    p_run.add_argument("--exposure", type=float, default=10000.0,
                       help="total four-fold counts used for the uncertainty emulation")
    p_run.add_argument("--resamples", type=int, default=0,
                       help="number of Poisson resamples (0 disables uncertainties)")
    p_run.add_argument("--seed", type=int, default=None)
    _add_common(p_run, config_action)

    p_scan = sub.add_parser("scan-werner", help="scan the noisy-channel family")
    p_scan.add_argument("--q-grid", default=None,
                        help="grid as start:stop:num, e.g. 0:1:101")
    p_scan.add_argument("--q-list", default=None,
                        help="comma-separated q values")
    _add_common(p_scan, config_action)

    p_fit = sub.add_parser("fit-spdc",
                           help="fit the backward/forward emission strength ratio")
    p_targets = p_fit.add_mutually_exclusive_group()
    p_targets.add_argument("--targets", default=None,
                           help="undesired-share targets in percent: unc,allowed,denied")
    p_targets.add_argument("--synthetic-ratio", type=float, default=None,
                           help="generate the targets by simulating at this ratio")
    p_fit.add_argument("--pbs-epsilon", type=float, default=0.05)
    p_fit.add_argument("--input", default="plus", help=STATE_HELP)
    _add_common(p_fit, config_action)

    p_tomo = sub.add_parser("tomo", help="maximum-likelihood tomography from counts")
    p_tomo.add_argument("--counts", required=True, help="counts CSV: label,projector,count")
    p_tomo.add_argument("--target", default="plus", help=STATE_HELP)
    p_tomo.add_argument("--weight", type=float, default=0.0,
                        help="background weight subtracted before the fidelity")
    p_tomo.add_argument("--resamples", type=int, default=0)
    p_tomo.add_argument("--seed", type=int, default=None)
    _add_common(p_tomo, config_action)

    p_rep = sub.add_parser("reproduce", help="recompute bundled reference tables")
    p_rep.add_argument("dataset", choices=("table1",))
    _add_common(p_rep, config_action)

    parser.commands = sub.choices
    return parser


@functools.cache
def _parser(stop_at_config: bool) -> argparse.ArgumentParser:
    """A parser of ``main``, built on first use: parsing leaves it unchanged,
    so one parser of each kind serves every call in the process."""
    return build_parser(_StopAtConfig if stop_at_config else "store")


def _config_error(exc: Exception) -> str:
    """Why a config file cannot be read, on one line that quotes none of its
    text: the operating system's error, or the parser's error name and the
    line it names."""
    if isinstance(exc, OSError):
        return str(exc)
    lineno = getattr(exc, "lineno", None)
    return type(exc).__name__ + (f" at line {lineno}" if lineno else "")


def _config_prefix(command: str, path: str) -> list:
    """The ``[command]`` section of the INI file at ``path`` as arguments.

    Values are literal: a ``%`` does not interpolate."""
    import configparser

    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ValueError(f"cannot read config {path}: {_config_error(exc)}") from None
    if not cp.has_section(command):
        return []
    prefix = []
    for key, value in cp.items(command):
        flag = "--" + key.replace("_", "-")
        if value.strip().lower() in ("true", "yes", "on"):
            prefix.append(flag)
        elif value.strip().lower() in ("false", "no", "off"):
            continue
        else:
            prefix.extend([flag, value.strip()])
    return prefix


def _parse_once(argv: list, stop_at_config: bool) -> argparse.Namespace:
    """Parse ``argv`` with its subcommand's parser alone; the main parser takes
    an ``argv`` that starts otherwise, and reports what the other leaves over."""
    parser = _parser(stop_at_config)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        option = argv[0].split("=", 1)[0] if argv else ""
        if len(option) > 2 and "--config".startswith(option):
            raise ValueError("--config goes after the subcommand: cqtsim COMMAND --config FILE")
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _parse(argv: list) -> argparse.Namespace:
    """Parse ``argv``, with the section of a ``--config`` file, in any spelling
    the subcommand's parser accepts, put in front so that flags still override."""
    try:
        return _parse_once(argv, True)
    except _ConfigFound as found:
        prefix = _config_prefix(argv[0], found.args[0])
    return _parse_once(_attach_state_values([argv[0], *prefix]) + argv[1:], False)


# --- subcommands -----------------------------------------------------------------------

def _source_from_args(args):
    from .spdc import SourceParams

    if not 1 <= args.truncation_order <= MAX_TRUNCATION_ORDER:
        raise ValueError(f"--truncation-order must lie between 1 and {MAX_TRUNCATION_ORDER}")
    if args.ideal:
        return None
    if args.kappa_forward is None and args.kappa_backward is None:
        return None
    kf = args.kappa_forward if args.kappa_forward is not None else 0.1
    kb = args.kappa_backward if args.kappa_backward is not None else 0.1
    return SourceParams(kappa_forward=kf, kappa_backward=kb,
                        truncation_order=args.truncation_order)


def _check_resamples(args):
    if args.seed is not None and args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    if args.resamples and args.seed is None:
        raise ValueError("--resamples needs an explicit --seed")
    if args.resamples and not 100 <= args.resamples <= MAX_RESAMPLES:
        raise ValueError(f"--resamples must be 0 or between 100 and {MAX_RESAMPLES}")


def cmd_run(args) -> int:
    from . import protocol

    input_q = protocol.InputQubit.from_name(args.input)
    source = _source_from_args(args)
    _check_resamples(args)
    if not (math.isfinite(args.exposure) and args.exposure > 0):
        raise ValueError("--exposure must be a positive number")
    mix = args.channel == "mix"
    if mix and not 0.0 <= args.mix_p <= 1.0:
        raise ValueError("--mix-p must lie in [0, 1]")
    if args.channel == "reference" and args.action != "none":
        raise ValueError("--channel reference requires --action none")
    cfg = protocol.ProtocolConfig(channel="g1" if mix else args.channel, action=args.action,
                                  input=input_q, source=source, pbs_epsilon=args.pbs_epsilon,
                                  roles=args.roles)
    record = protocol.emulate_mixture(cfg, args.mix_p) if mix else protocol.count_rates(cfg)
    fid = record.fidelity()
    row = [args.channel, args.action, args.input,
           record.f_parallel, record.f_perp, fid, record.success_probability,
           None, None]
    if args.resamples:
        total = record.f_parallel + record.f_perp
        counts = (args.exposure * record.f_parallel / total,
                  args.exposure * record.f_perp / total)
        try:
            est = poisson_uncertainty(counts, seed=args.seed, n_resamples=args.resamples)
        except ValueError as exc:
            # the rates are nonzero, so only the exposure can leave no counts
            # or make a mean count too large for the sampler
            size = "large" if max(counts) > POISSON_MAX_MEAN else "small"
            raise ValueError(f"--exposure {args.exposure:g} is too {size} for these "
                             f"rates: {exc}") from None
        row[-2], row[-1] = est.value, est.uncertainty
    columns = ["channel", "action", "input", "f_parallel", "f_perp", "fidelity",
               "success_probability", "fidelity_mean", "fidelity_std"]
    _emit(_render_table(columns, [row], args.fmt, args.full_precision), args.out)
    return 0


def cmd_reproduce(args) -> int:
    rows = []
    for channel, action, raw_pct, weight_pct, expected_pct in REFERENCE_TABLE:
        corrected = 100.0 * corrected_fidelity(raw_pct / 100.0, weight_pct / 100.0)
        rows.append([channel, action, raw_pct, weight_pct, corrected, expected_pct,
                     corrected - expected_pct])
    columns = ["channel", "action", "raw_percent", "weight_percent",
               "corrected_percent", "expected_percent", "deviation_pp"]
    _emit(_render_table(columns, rows, args.fmt, args.full_precision), args.out)
    return 0


def _parse_grid(args):
    if args.q_list is not None:
        items = [s for s in args.q_list.split(",") if s.strip()]
        if not items:
            raise ValueError("empty q list")
        if len(items) > MAX_Q_POINTS:
            raise ValueError(f"q list has more than {MAX_Q_POINTS} points")
        try:
            return [float(s) for s in items]
        except ValueError:
            raise ValueError(f"bad q list {args.q_list!r}") from None
    if args.q_grid is not None:
        parts = args.q_grid.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:num")
        try:
            start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"bad grid {args.q_grid!r}") from None
        if not 1 <= num <= MAX_Q_POINTS:
            raise ValueError(f"grid needs between 1 and {MAX_Q_POINTS} points")
        return list(np.linspace(start, stop, num))
    raise ValueError("scan-werner needs --q-grid or --q-list")


def cmd_scan_werner(args) -> int:
    from . import channels

    result = channels.werner_scan(_parse_grid(args))
    comments = [f"f_allowed crosses 2/3 at q={result.threshold_q:.9f}"]
    columns = ["q", "f_allowed", "f_denied"]
    _emit(_render_table(columns, result.rows, args.fmt, args.full_precision,
                        comments=comments), args.out)
    return 0


def cmd_fit_spdc(args) -> int:
    from . import protocol, spdc

    input_q = protocol.InputQubit.from_name(args.input)
    eps = args.pbs_epsilon
    configs = {label: protocol.ProtocolConfig(channel=channel, action=action,
                                              input=input_q, pbs_epsilon=eps)
               for label, channel, action in (("uncontrolled", "reference", "none"),
                                              ("allowed", "g1", "allow"),
                                              ("denied", "g1", "deny"))}

    targets = DEFAULT_FIT_TARGETS
    if args.synthetic_ratio is not None:
        lo, hi = spdc.RATIO_BOUNDS
        if not lo < args.synthetic_ratio <= hi:
            raise ValueError(f"--synthetic-ratio must lie in ({lo:g}, {hi:g}]")
    elif args.targets is not None:
        parts = args.targets.split(",")
        if len(parts) != 3:
            raise ValueError("--targets needs three percentages: unc,allowed,denied")
        try:
            pcts = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad targets {args.targets!r}") from None
        if not all(0.0 <= v <= 100.0 for v in pcts):
            raise ValueError("--targets must be percentages in [0, 100]")
        targets = dict(zip(("uncontrolled", "allowed", "denied"),
                           [v / 100.0 for v in pcts]))

    # the three configurations are propagated together; their rates feed the
    # targets and the fit
    try:
        rates = spdc.sector_rates(spdc.SourceParams(), configs)
    except protocol.NoCoincidenceError as exc:
        cfg = configs[exc.label]
        raise protocol.NoCoincidenceError(
            f"the {exc.label} configuration ({cfg.channel} {cfg.action}) cannot produce a "
            f"four-fold coincidence at --pbs-epsilon {eps:g} and input {args.input}"
        ) from None
    if args.synthetic_ratio is not None:
        # at truncation order 2 the shares depend on the ratio alone, up to
        # rounding; a forward strength of 0.05 fixes that rounding
        shares = spdc.sector_shares(spdc.stack_rates(rates), 0.05, 0.05 * args.synthetic_ratio)
        targets = dict(zip(rates, shares["undesired"][:, 0].tolist()))
    fit = spdc.fit_source_ratio(targets, rates)
    fp = args.full_precision
    rows = [[label, targets[label] * 100.0, fit.achieved[label] * 100.0,
             _fixed(fit.residuals[label] * 100.0, RESIDUAL_PP_DIGITS, fp)]
            for label in targets]
    ssr = _fixed(fit.sum_squared_residual, SSR_DIGITS, fp)

    comments = [f"fitted_ratio={_fmt(fit.ratio, fp, '.6f')}",
                f"sum_squared_residual={_fmt(ssr, fp, '.6e')}",
                f"converged={fit.converged}"]
    if not fit.constrained:
        comments.append("warning: targets do not constrain the ratio")
    comments += [f"warning: ratio {_fmt(root, fp, '.6f')} fits the targets as well"
                 for root in fit.other_roots]
    for label, target in targets.items():
        lo, hi = fit.reachable[label]
        if target < lo - REACH_TOLERANCE:
            bound = f"never falls below {_fmt(lo * 100.0, fp)}"
        elif target > hi + REACH_TOLERANCE:
            bound = f"never rises above {_fmt(hi * 100.0, fp)}"
        else:
            continue
        comments.append(f"warning: the {label} share {bound} % "
                        f"(target {_fmt(target * 100.0, fp)} %)")
    columns = ["config", "target_percent", "achieved_percent", "residual_pp"]
    _emit(_render_table(columns, rows, args.fmt, args.full_precision,
                        comments=comments), args.out)
    return 0


@contextlib.contextmanager
def _warnings_to_stderr():
    """Print each distinct warning raised inside as one ``warning:`` line on
    stderr, in place of Python's format with the source file and line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for text in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {text}", file=sys.stderr)


def cmd_tomo(args) -> int:
    try:
        counts = read_counts_csv(args.counts)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read counts: {exc}") from None
    target = np.array(parse_ket(args.target, "target"))
    _check_resamples(args)
    if not 0.0 <= args.weight < 1.0:
        raise ValueError("--weight must lie in [0, 1)")

    failure = None
    with _warnings_to_stderr():
        if args.resamples:
            try:
                result, corrected, est = resampled_tomography(counts, target, args.seed,
                                                              args.resamples, args.weight)
            except ValueError as exc:
                failure = exc
        if failure is not None or not args.resamples:
            # the observed table's own errors come first: fit it alone
            result = ml_reconstruct(counts)
            try:
                corrected = correct_for_background(result.rho, args.weight)
            except NonPhysicalError as exc:
                raise ValueError(f"--weight {args.weight!r} is too large for these counts: "
                                 f"the corrected state has eigenvalue "
                                 f"{exc.min_eigenvalue:.2e}, below -1e-3") from None
        if isinstance(failure, NonPhysicalError):
            raise ValueError(f"--weight {args.weight!r} is too large for these counts: "
                             f"{failure.n_bad} of {failure.n_states} resamples have a "
                             f"corrected eigenvalue below -1e-3 (lowest "
                             f"{failure.min_eigenvalue:.2e})") from None
        if failure is not None:
            raise ValueError(f"cannot resample these counts: {failure}") from None

    payload = {
        "schema": SCHEMA_VERSION,
        "converged": result.converged,
        "iterations": result.iterations,
        "rho": _matrix(result.rho, args.full_precision),
        "rho_corrected": _matrix(corrected, args.full_precision),
        "target": args.target,
        "background_weight": args.weight,
        "raw_fidelity": fidelity(result.rho, target),
        "corrected_fidelity": fidelity(corrected, target),
    }
    if args.resamples:
        payload["fidelity_mean"] = est.value
        payload["fidelity_std"] = _fixed(est.uncertainty, FIDELITY_STD_DIGITS,
                                         args.full_precision)

    if args.fmt == "json":
        payload = {k: _json_value(v, args.full_precision) for k, v in payload.items()}
        _emit(_json_text(payload) + "\n", args.out)
    else:
        rows = [[k, _fmt(v, args.full_precision) if isinstance(v, float) else json.dumps(v)]
                for k, v in sorted(payload.items()) if k != "schema"]
        _emit(_render_table(["key", "value"], rows, "csv", args.full_precision),
              args.out)
    return 0


COMMANDS = {
    "run": cmd_run,
    "scan-werner": cmd_scan_werner,
    "fit-spdc": cmd_fit_spdc,
    "tomo": cmd_tomo,
    "reproduce": cmd_reproduce,
}


def _attach_state_values(argv):
    """Write ``--input -0.6,0.8`` as ``--input=-0.6,0.8``.

    argparse reads a separate value with a leading '-' as an option.  A state
    value can start with '-' only in the 'a,b' or 'a;b' form, and no option
    contains a comma or a semicolon, so such a value is attached to its
    option, or to any prefix of it from ``--i`` on, which argparse then
    resolves or reports as ambiguous.
    """
    out = []
    for token in argv:
        # the cheap token test first: most tokens are no such value
        if (token.startswith("-") and ("," in token or ";" in token) and out
                and len(out[-1]) > 2 and any(opt.startswith(out[-1]) for opt in STATE_OPTIONS)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _attach_state_values(list(sys.argv[1:] if argv is None else argv))
    try:
        args = _parse(argv)
    except ValueError as exc:            # a config file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out == "":
            raise ValueError("--out needs a file name, not an empty string")
        return COMMANDS[args.command](args)
    except ValueError as exc:            # bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:          # ProtocolError among them
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
