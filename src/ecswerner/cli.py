"""Command-line sweeps over the Werner families, written as CSV or JSON.

Subcommands
    zurek-surface   discord of the einselection benchmark state on (a, theta)
    quasi-surface   quasi-Werner discord, closed form and pipeline side by side
    werner-curves   E, minimum discord and their difference for Werner states
    quasi-curves    the same curves for quasi-Werner states per mean photon number
    verify          run the closed-form-vs-numeric verification suite

Flag values override config-file values, which override the built-in
defaults.  The config file is flat "key = value" text; see README.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .catstates import ALPHA2_MIN, StateFamily, cat_params
from .discord import discord_min, discord_profile, discord_quasi_closed, werner_discord_closed, zurek_discord
from .entanglement import concurrence_closed, eof
from .qmatrix import NumericalIntegrityError
from .verify import run_verification
from .werner import WernerSpec, werner_density

DEFAULT_A_MIN = 0.0
DEFAULT_A_MAX = 1.0
DEFAULT_A_STEPS = 101
DEFAULT_THETA_STEPS = 181
DEFAULT_ZUREK_THETA_STEPS = 361
DEFAULT_ALPHA2 = (0.01, 0.02, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
DEFAULT_FAMILY = "psi+"
DEFAULT_FORMAT = "csv"

# a row is flagged when its discord differs from the theta=0 value by more
# than this, i.e. the state's discord depends on the measurement basis there
BASIS_FLAG_TOL = 1e-6

CONFIG_KEYS = ("a_min", "a_max", "a_steps", "theta_steps", "alpha2", "family", "out", "format")


class ConfigError(Exception):
    pass


class SweepPointError(Exception):
    """A numerical failure inside a sweep; the message names its (|alpha|^2, a) point."""


@contextlib.contextmanager
def _sweep_point(mp, a_values):
    """Re-raise a numerical failure in the block as SweepPointError.

    a_values are the mixing parameters of the states the block handles, in
    stack order.  The message names the a of the failing state when the
    error carries its index (or the block handles one state), and the
    block's a range otherwise.
    """
    try:
        yield
    except (NumericalIntegrityError, np.linalg.LinAlgError) as exc:
        index = getattr(exc, "index", None)
        if index is None and len(a_values) == 1:
            index = 0
        if index is None:
            where = f"a in [{_fmt(a_values[0])}, {_fmt(a_values[-1])}]"
        else:
            where = f"a = {_fmt(a_values[index])}"
        raise SweepPointError(f"numerical failure at |alpha|^2 = {_fmt(mp)}, {where}: {exc}") from exc


@dataclass(frozen=True)
class SweepConfig:
    a_grid: np.ndarray
    theta_grid: np.ndarray
    mean_photon_list: tuple
    family: StateFamily
    output_path: str
    format: str


# ---------------------------------------------------------------------------
# row generators (one per subcommand)

def zurek_surface_rows(cfg):
    columns = ["a", "theta", "D"]
    rows = []
    for a in cfg.a_grid:
        for theta in cfg.theta_grid:
            rows.append((float(a), float(theta), zurek_discord(float(a), float(theta))))
    return columns, rows


def quasi_surface_rows(cfg):
    columns = ["mean_photon", "a", "theta", "D_closed", "D_pipeline", "abs_diff", "differs_from_theta0"]
    rows = []
    for mp in cfg.mean_photon_list:
        p = cat_params(mp)
        for a in cfg.a_grid:
            a = float(a)
            with _sweep_point(mp, [a]):
                piped = discord_profile(werner_density(WernerSpec(cfg.family, a, p)), cfg.theta_grid)
            at_zero = discord_quasi_closed(a, p, 0.0)
            for theta, d_pipe in zip(cfg.theta_grid, piped):
                d_closed = discord_quasi_closed(a, p, float(theta))
                flagged = int(abs(d_closed - at_zero) > BASIS_FLAG_TOL)
                rows.append((float(mp), a, float(theta), d_closed, float(d_pipe), abs(d_closed - float(d_pipe)), flagged))
    return columns, rows


def werner_curves_rows(cfg):
    columns = ["a", "E", "delta", "delta_minus_E"]
    # the curves are family independent among the maximally entangled pair,
    # and carry no mean-photon dependence at all
    p = cat_params(1.0)
    rows = []
    for a in cfg.a_grid:
        a = float(a)
        e = eof(concurrence_closed(WernerSpec(StateFamily.PSI_MINUS, a, p)))
        delta = werner_discord_closed(a)
        rows.append((a, e, delta, delta - e))
    return columns, rows


def quasi_curves_rows(cfg):
    columns = ["mean_photon", "a", "E", "delta", "delta_minus_E"]
    rows = []
    for mp in cfg.mean_photon_list:
        p = cat_params(mp)
        specs = [WernerSpec(cfg.family, float(a), p) for a in cfg.a_grid]
        with _sweep_point(mp, [spec.mixing for spec in specs]):
            minima = discord_min(np.array([werner_density(spec) for spec in specs]))
        for spec, res in zip(specs, minima):
            e = eof(concurrence_closed(spec))
            rows.append((float(mp), spec.mixing, e, res.value, res.value - e))
    return columns, rows


# ---------------------------------------------------------------------------
# output

def _fmt(value):
    if isinstance(value, int):
        return str(value)
    return "%.15g" % value


def write_rows(path, fmt, columns, rows):
    """Write rows to path atomically.

    The data goes to a temporary file in the target directory, which then
    replaces path; a write that fails leaves an existing file at path
    untouched and removes the temporary file.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
            else:
                json.dump([dict(zip(columns, row)) for row in rows], fh, separators=(",", ":"))
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# configuration

def parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def _config_float(values, key):
    try:
        return float(values[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be a number, got {values[key]!r}") from exc


def _config_int(values, key):
    try:
        return int(values[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be an integer, got {values[key]!r}") from exc


def _pick(cli_value, config_values, key, default, convert):
    if cli_value is not None:
        return cli_value
    if key in config_values:
        return convert(config_values, key)
    return default


def build_config(args):
    config_values = parse_config_file(args.config) if args.config else {}

    a_min = _pick(args.a_min, config_values, "a_min", DEFAULT_A_MIN, _config_float)
    a_max = _pick(args.a_max, config_values, "a_max", DEFAULT_A_MAX, _config_float)
    a_steps = _pick(args.a_steps, config_values, "a_steps", DEFAULT_A_STEPS, _config_int)
    default_theta = DEFAULT_ZUREK_THETA_STEPS if args.command == "zurek-surface" else DEFAULT_THETA_STEPS
    theta_steps = _pick(args.theta_steps, config_values, "theta_steps", default_theta, _config_int)

    alpha2 = args.alpha2
    if alpha2 is None and "alpha2" in config_values:
        try:
            alpha2 = [float(tok) for tok in config_values["alpha2"].replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"config key alpha2 must list numbers, got {config_values['alpha2']!r}") from exc
    if alpha2 is None:
        alpha2 = list(DEFAULT_ALPHA2)

    family_label = _pick(args.family, config_values, "family", DEFAULT_FAMILY, lambda v, k: v[k])
    fmt = _pick(args.format, config_values, "format", DEFAULT_FORMAT, lambda v, k: v[k])
    out = _pick(args.out, config_values, "out", None, lambda v, k: v[k])

    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    try:
        family = StateFamily.parse(family_label)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0.0 <= a_min <= a_max <= 1.0:
        raise ConfigError(f"need 0 <= a-min <= a-max <= 1, got {a_min!r}, {a_max!r}")
    if a_steps < 1 or theta_steps < 1:
        raise ConfigError("step counts must be at least 1")
    if not alpha2:
        raise ConfigError("alpha2 list must not be empty")
    for mp in alpha2:
        if not math.isfinite(mp):
            raise ConfigError(f"mean photon number must be finite, got {mp!r}")
        if mp < ALPHA2_MIN:
            raise ConfigError(f"mean photon number {mp!r} below minimum {ALPHA2_MIN:g}")

    if args.command == "zurek-surface":
        theta_grid = np.linspace(-math.pi, math.pi, theta_steps)
    else:
        theta_grid = np.linspace(0.0, math.pi, theta_steps)
    if out is None:
        out = args.command.replace("-", "_") + "." + fmt

    return SweepConfig(
        a_grid=np.linspace(a_min, a_max, a_steps),
        theta_grid=theta_grid,
        mean_photon_list=tuple(sorted(float(v) for v in alpha2)),
        family=family,
        output_path=out,
        format=fmt,
    )


# ---------------------------------------------------------------------------
# command drivers

def run_sweep(args):
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    generator = {
        "zurek-surface": zurek_surface_rows,
        "quasi-surface": quasi_surface_rows,
        "werner-curves": werner_curves_rows,
        "quasi-curves": quasi_curves_rows,
    }[args.command]

    if args.command == "quasi-surface" and cfg.family.maximally_entangled:
        print(
            f"note: discord of the {cfg.family.value} Werner state does not depend on "
            "the measurement angle; writing werner-curves output instead",
            file=sys.stderr,
        )
        generator = werner_curves_rows

    try:
        columns, rows = generator(cfg)
    except SweepPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        write_rows(cfg.output_path, cfg.format, columns, rows)
    except OSError as exc:
        # strerror alone: the error's file names include the temporary file
        print(f"error: cannot write {cfg.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    return 0


def run_verify():
    checks, notes = run_verification()
    print("closed-form verification report")
    for check in checks:
        print("  " + check.line())
    print("convention notes:")
    for note in notes:
        print("  " + note)
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"FAILED: {', '.join(c.name for c in failed)}")
        return 1
    print("all checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ecswerner",
        description="Discord and entanglement sweeps for Werner states built from entangled coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--a-min", type=float, default=None, help="lower end of the mixing-parameter grid")
        p.add_argument("--a-max", type=float, default=None, help="upper end of the mixing-parameter grid")
        p.add_argument("--a-steps", type=int, default=None, help="number of mixing-parameter samples")
        p.add_argument("--theta-steps", type=int, default=None, help="number of measurement-angle samples")
        p.add_argument("--alpha2", type=float, action="append", default=None,
                       help="mean photon number (repeatable)")
        p.add_argument("--family", choices=[f.value for f in StateFamily], default=None,
                       help="state family (default psi+)")
        p.add_argument("--out", default=None, help="output path (default <command>.<format>)")
        p.add_argument("--format", choices=["csv", "json"], default=None, help="output format (default csv)")
        p.add_argument("--config", default=None, help="flat key=value config file")
        return p

    add_sweep("zurek-surface", "discord of the einselection benchmark state over (a, theta)")
    add_sweep("quasi-surface", "quasi-Werner discord: closed form vs pipeline over (|alpha|^2, a, theta)")
    add_sweep("werner-curves", "E, minimum discord and delta - E for perfect Werner states")
    add_sweep("quasi-curves", "E, minimum discord and delta - E for quasi-Werner states")
    sub.add_parser("verify", help="run the closed-form-vs-numeric verification suite")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        return run_verify()
    return run_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
