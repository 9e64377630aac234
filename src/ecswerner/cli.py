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
import itertools
import json
import math
import operator
import os
import pickle
import shutil
import sys
import types

import numpy as np

from .catstates import StateFamily, cat_params
from .discord import (
    discord_min_ranges,
    discord_profile_ranges,
    discord_quasi_closed,
    werner_discord_closed,
    zurek_discord,
)
from .entanglement import _closed_concurrence, eof
from .qmatrix import NumericalIntegrityError
from .werner import werner_stack

DEFAULT_ALPHA2 = (0.01, 0.02, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

# a row is flagged when its discord differs from the theta=0 value by more
# than this, i.e. the state's discord depends on the measurement basis there
BASIS_FLAG_TOL = 1e-6


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# row generators (one per subcommand); each returns the column names and
# the rows as a Table

class Table:
    """A sweep's rows: the 1-D grid axes in column order, the last fastest, then values(lo, hi) and line.

    line is the number of rows values computes together: a surface's theta
    line, or 1, the default.  values(lo, hi) gives one flat array per other
    column, for the rows of lines lo to hi - 1.  The writer computes each
    line once, in the process that writes it.
    """

    __slots__ = ("axes", "values", "line")

    def __init__(self, axes, values, line=1):
        self.axes = [np.asarray(x) for x in axes]
        self.values = values
        self.line = line

    def __len__(self):
        return math.prod(map(len, self.axes))


def _sliced(*columns):
    """A Table's values over whole columns: each column's rows lo to hi - 1."""
    columns = [np.asarray(x) for x in columns]
    return lambda lo, hi: [x[lo:hi] for x in columns]


def zurek_surface_rows(cfg):
    columns = ["a", "theta", "D"]
    a, thetas = cfg.a_grid, cfg.theta_grid
    return columns, Table([a, thetas], lambda lo, hi: [zurek_discord(a[lo:hi, None], thetas).ravel()], len(thetas))


def _quasi_stack(cfg):
    """One stack of every (|alpha|^2, a) state, in row order."""
    return np.concatenate([werner_stack(cfg.family, cfg.a_grid, p) for p in cfg.params])


def quasi_surface_rows(cfg):
    columns = ["mean_photon", "a", "theta", "D_closed", "D_pipeline", "abs_diff", "differs_from_theta0"]
    params, a_grid, thetas, size = cfg.params, cfg.a_grid, cfg.theta_grid, len(cfg.a_grid)
    profile = discord_profile_ranges(_quasi_stack(cfg), thetas)

    def values(first, last):
        piped = profile(first, last).ravel()
        # the closed form at the states' a values, per mean photon number they reach
        closed = np.concatenate([
            discord_quasi_closed(a_grid[max(first - m * size, 0) : last - m * size, None], params[m], thetas)
            for m in range(first // size, -(-last // size))
        ])
        # the theta grid starts at exactly 0, so its first column is the theta = 0 reference
        flagged = (np.abs(closed - closed[:, :1]) > BASIS_FLAG_TOL).astype(np.int64)
        closed = closed.ravel()
        return [closed, piped, np.abs(closed - piped), flagged.ravel()]

    return columns, Table([cfg.mean_photon_list, a_grid, thetas], values, len(thetas))


def werner_curves_rows(cfg):
    columns = ["a", "E", "delta", "delta_minus_E"]
    # the curves are family independent among the maximally entangled pair,
    # and carry no mean-photon dependence at all
    e = eof(_closed_concurrence(StateFamily.PSI_MINUS, cfg.a_grid, cat_params(1.0)))
    delta = werner_discord_closed(cfg.a_grid)
    return columns, Table([cfg.a_grid], _sliced(e, delta, delta - e))


def quasi_curves_rows(cfg):
    columns = ["mean_photon", "a", "E", "delta", "delta_minus_E"]
    minimize = discord_min_ranges(_quasi_stack(cfg))
    e = np.concatenate([eof(_closed_concurrence(cfg.family, cfg.a_grid, p)) for p in cfg.params])

    def values(lo, hi):
        delta = np.array([res.value for res in minimize(lo, hi)])
        return [e[lo:hi], delta, delta - e[lo:hi]]

    return columns, Table([cfg.mean_photon_list, cfg.a_grid], values)


# ---------------------------------------------------------------------------
# output

# rows formatted and written at once, which bounds the text held; a block computes as many, in whole lines
WRITE_BLOCK_ROWS = 4096
# the fewest rows the writer gives a process of its own: a worker costs a few ms to fork, fault in and exit
MIN_RANGE_ROWS = 256


# a CSV float's text is "%.15g" % x; float.__format__ runs the same routine with less work per value
_FLOAT_SPEC = ".15g"
_fmt = ("%" + _FLOAT_SPEC).__mod__


def _format_column(values, spec, key):
    """key before the text of each value of a column, formatting each distinct value once.

    A float's text is float.__format__(x, spec), an integer's str(x).
    Distinct means distinct bits, so 0.0 and -0.0 keep their own text.
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = distinct.view(values.dtype).tolist()
    text = map(str, distinct) if values.dtype.kind == "i" else map(float.__format__, distinct, itertools.repeat(spec))
    return np.array(list(map(key.__add__, text) if key else text), dtype=object)[inverse].tolist()


def _cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_blocks(fh, rows, starts, layout):
    """Compute the rows starts.start to starts.stop - 1 in blocks of starts.step rows and write them to fh.

    Each block's values come from one rows.values call, and are formatted
    and written in slices of at most WRITE_BLOCK_ROWS rows.  A non-finite
    value raises ValueError naming, in the first block that holds one, the
    first column that does and its first row there.  layout
    holds the text of each outer grid point (one prefix each) and of each
    last-axis value, every axis cell with its key and trailing comma; then
    the float format spec, and the name and the key of each other column;
    then the text between rows, after a slice's last row and before a
    slice that is not the file's first.
    """
    prefixes, last, spec, names, keys, between, end, lead = layout
    width = len(last)
    for block in starts:
        block_end = min(block + starts.step, starts.stop)
        values = rows.values(block // rows.line, block_end // rows.line)
        for name, x in zip(names, values):
            finite = np.isfinite(x)
            if not finite.all():
                raise ValueError(f"non-finite value in column {name} at row {block + int(np.argmin(finite))}")
        for start in range(block, block_end, WRITE_BLOCK_ROWS):
            stop = min(start + WRITE_BLOCK_ROWS, block_end)
            texts = (_format_column(x[start - block : stop - block], spec, key) for x, key in zip(values, keys))
            tails = list(map(",".join, zip(*texts)))
            runs = []
            # the slice's rows in runs, one per outer grid point it reaches
            for first in range(start - start % width, stop, width):
                lo, hi = max(start, first), min(stop, first + width)
                cells = map(operator.add, last[lo - first : hi - first], tails[lo - start : hi - start])
                runs.append(prefixes[first // width] + (between + prefixes[first // width]).join(cells))
            fh.write((lead if start else "") + between.join(runs) + end)


def _fork_writer(part, *args):
    """Write _write_blocks(fh, *args) to the file part in a forked worker.

    Returns the worker's pid and the read end of a pipe, which carries the
    worker's exception, pickled, if it fails.  The worker leaves through
    os._exit, so it runs none of the caller's cleanup and flushes none of
    its buffers.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(part, "w", encoding="utf-8", newline="") as fh:
                _write_blocks(fh, *args)
            status = 0
        except BaseException as exc:
            with contextlib.suppress(BaseException), open(w, "wb") as pipe:
                pipe.write(pickle.dumps(exc))
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _join_writer(workers):
    """Wait for the first worker of workers, a list of (pid, pipe), and drop it; raise its exception if it failed."""
    pid, pipe = workers[0]
    error = pipe.read()
    pipe.close()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del workers[0]
    if error:
        raise pickle.loads(error)
    if status:
        raise ChildProcessError(f"writer process {pid} exited with status {status}")


def _stop_writers(workers):
    """Terminate and reap every worker of workers, a list of (pid, pipe)."""
    import signal  # only a failed write needs it, and it costs about 1 ms at import

    for pid, pipe in workers:
        pipe.close()
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def write_rows(path, fmt, columns, rows):
    """Write rows, a Table, to path atomically.

    The rows are cut between lines (rows.line rows each) into W contiguous
    ranges, W the number of CPUs this process may run on but at most
    n // MIN_RANGE_ROWS and n // rows.line, and at least 1.  This process
    writes the header and the first range to a temporary file in the
    target directory, and forked workers the other ranges to part files
    beside it; the parts are appended in order, and the temporary file
    then replaces path.  The bytes are the same for any W.  Forking is
    safe because only this writer forks and a worker calls no BLAS or
    LAPACK routine (the sweeps' _ranges functions run those first), so it
    never needs numpy's BLAS thread, which a forked child lacks.

    A non-finite axis entry raises ValueError naming its column and the
    first row that uses it before anything is written.  A non-finite
    computed value raises ValueError as soon as its block is computed, for
    the first range that holds one, whichever process computed it
    (_write_blocks names which value).  A write or computation that fails, here or in a worker,
    or an interrupt stops and reaps every worker, leaves an existing file
    at path untouched and removes the part files and the temporary file.
    """
    n, axes, line = len(rows), rows.axes, rows.line
    if n:
        strides = [math.prod(map(len, axes[i + 1 :])) for i in range(len(axes))]
        for column, x, stride in zip(columns, axes, strides):
            finite = np.isfinite(x)
            if not finite.all():
                raise ValueError(f"non-finite value in column {column} at row {int(np.argmin(finite)) * stride}")
    if fmt == "csv":
        head, foot, spec, keys = ",".join(columns) + "\n", "", _FLOAT_SPEC, [""] * len(columns)
        between, end, lead = "\n", "\n", ""
    else:
        # format(x, "") is float.__repr__(x)
        head, foot, spec, keys = "[", "]\n", "", [json.dumps(column) + ":" for column in columns]
        keys[0], between, end, lead = "{" + keys[0], "},", "}", ","
    *outer, last = ([text + "," for text in _format_column(axis, spec, key)] for axis, key in zip(axes, keys))
    prefixes = list(map("".join, itertools.product(*outer)))
    layout = prefixes, last, spec, columns[len(axes) :], keys[len(axes) :], between, end, lead
    count = max(1, min(_cpu_count(), n // MIN_RANGE_ROWS, n // line)) if hasattr(os, "fork") else 1
    size, extra = divmod(n // line, count)
    # the last ranges take the extra lines: the first one's process also appends the parts
    cuts = [(k * size + max(0, k + extra - count)) * line for k in range(count + 1)]
    ranges = [range(lo, hi, line * max(1, WRITE_BLOCK_ROWS // line)) for lo, hi in zip(cuts, cuts[1:])]
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    parts = [f"{tmp}.{k}" for k in range(1, count)]
    workers = []
    try:
        # the workers fork before the temporary file opens, so they inherit none of its buffer
        for part, blocks in zip(parts, ranges[1:]):
            workers.append(_fork_writer(part, rows, blocks, layout))
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(head)
            _write_blocks(fh, rows, ranges[0], layout)
            fh.flush()
            for part in parts:
                _join_writer(workers)
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
                os.remove(part)
            fh.write(foot)
        os.replace(tmp, path)
    except BaseException:
        _stop_writers(workers)
        for leftover in (*parts, tmp):
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise


# ---------------------------------------------------------------------------
# configuration

def _numbers(text):
    """The numbers of a config value's comma- or space-separated list, or of a repeated flag's values, one each."""
    return [float(tok) for tok in (text.replace(",", " ").split() if isinstance(text, str) else text)]


def _format(text):
    if text not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {text!r}")
    return text


# Every sweep setting once, flag --a-min and config key a_min through one converter: the help text, the converter,
# what a value it rejects must be (None: its message says so), and the default (None: set by the command).
SETTINGS = {
    "a_min": ("lower end of the mixing-parameter grid (default 0)", float, "be a number", 0.0),
    "a_max": ("upper end of the mixing-parameter grid (default 1)", float, "be a number", 1.0),
    "a_steps": ("number of mixing-parameter samples (default 101)", int, "be an integer", 101),
    "theta_steps": ("measurement angles, surfaces only (default 181; zurek-surface: 361)", int, "be an integer", None),
    "alpha2": ("mean photon number, one per flag (default 0.01 0.02 0.1 0.2 0.5 1 2 5)", _numbers, "list numbers",
               DEFAULT_ALPHA2),
    "family": ("state family: psi+, psi-, phi+ or phi- (default psi+)", StateFamily.parse, None, StateFamily.PSI_PLUS),
    "out": ("output path (default <command>.<format>)", str, None, None),
    "format": ("output format: csv or json (default csv)", _format, None, "csv"),
}


def parse_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def build_config(args):
    values = parse_config_file(args.config) if args.config else {}
    setting = {}
    for key, (_, convert, must, default) in SETTINGS.items():
        if (text := getattr(args, key)) is not None:
            name = "--" + key.replace("_", "-")
        elif (text := values.get(key)) is not None:
            name = "config key " + key
        else:
            setting[key] = default
            continue
        try:
            setting[key] = convert(text)
        except ValueError as exc:
            raise ConfigError(f"{name} must {must}, got {text!r}" if must else str(exc)) from exc

    zurek = args.command == "zurek-surface"
    a_min, a_max, a_steps, theta_steps = setting["a_min"], setting["a_max"], setting["a_steps"], setting["theta_steps"]
    if theta_steps is None:
        theta_steps = 361 if zurek else 181
    if not 0.0 <= a_min <= a_max <= 1.0:
        raise ConfigError(f"need 0 <= a-min <= a-max <= 1, got {a_min!r}, {a_max!r}")
    if a_steps < 1 or theta_steps < 1:
        raise ConfigError("step counts must be at least 1")
    if not setting["alpha2"]:
        raise ConfigError("alpha2 list must not be empty")
    try:
        params = sorted(map(cat_params, setting["alpha2"]), key=lambda p: p.mean_photon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        a_grid = np.linspace(a_min, a_max, a_steps)
        surface = args.command.endswith("surface")  # only the surfaces read a theta grid
        theta_grid = np.linspace(-math.pi if zurek else 0.0, math.pi, theta_steps) if surface else None
    except MemoryError:
        raise ConfigError(f"{a_steps} a values and {theta_steps} theta values do not fit in memory") from None
    fmt, out = setting["format"], setting["out"]
    if out is None:
        out = args.command.replace("-", "_") + "." + fmt
    if not os.path.basename(out) or os.path.isdir(out):
        raise ConfigError(f"output path must end in a file name, got {out!r}")

    return types.SimpleNamespace(
        a_grid=a_grid,
        theta_grid=theta_grid,
        mean_photon_list=tuple(p.mean_photon for p in params),
        params=params,
        family=setting["family"],
        output_path=out,
        format=fmt,
    )


# ---------------------------------------------------------------------------
# command drivers

def _span(name, values):
    """name = v for one value, name in [first, last] for several."""
    if len(values) == 1:
        return f"{name} = {_fmt(values[0])}"
    return f"{name} in [{_fmt(values[0])}, {_fmt(values[-1])}]"


def run_sweep(args):
    """Write the sweep args.command asks for; return the exit code.

    A numerical failure (NumericalIntegrityError or LinAlgError) in the
    row generator exits 4 naming the (|alpha|^2, a) point of the failing
    state, whose index counts the states of the mean photon numbers x a
    grid, a fastest; an error with no index names the ranges (the point,
    for a one-state grid).  A MemoryError while the rows are computed or
    written, in this process or a writer worker, exits 2 naming the row
    count of the table written.
    """
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mean_photons, a_grid, theta_grid = cfg.mean_photon_list, cfg.a_grid, cfg.theta_grid
    generator, grid = {
        "zurek-surface": (zurek_surface_rows, (a_grid, theta_grid)),
        "quasi-surface": (quasi_surface_rows, (mean_photons, a_grid, theta_grid)),
        "werner-curves": (werner_curves_rows, (a_grid,)),
        "quasi-curves": (quasi_curves_rows, (mean_photons, a_grid)),
    }[args.command]

    if args.command == "quasi-surface" and cfg.family.maximally_entangled:
        print(
            f"note: discord of the {cfg.family.value} Werner state does not depend on "
            "the measurement angle; writing werner-curves output instead",
            file=sys.stderr,
        )
        generator, grid = werner_curves_rows, (a_grid,)

    try:
        columns, rows = generator(cfg)
        write_rows(cfg.output_path, cfg.format, columns, rows)
    except (NumericalIntegrityError, np.linalg.LinAlgError) as exc:
        index = 0 if len(mean_photons) * len(a_grid) == 1 else getattr(exc, "index", None)
        if index is None:
            where = f"{_span('|alpha|^2', mean_photons)}, {_span('a', a_grid)}"
        else:
            m, k = divmod(index, len(a_grid))
            where = f"|alpha|^2 = {_fmt(mean_photons[m])}, a = {_fmt(a_grid[k])}"
        print(f"error: numerical failure at {where}: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        size = math.prod(map(len, grid))
        print(f"error: the {args.command} grid of {size} rows does not fit in memory", file=sys.stderr)
        return 2
    except OSError as exc:
        # strerror alone: the error's file names include the temporary file
        print(f"error: cannot write {cfg.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    return 0


def run_verify():
    from .verify import run_verification  # here, so that a sweep does not compile the module

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


class _Parser(argparse.ArgumentParser):
    """argparse that only splits argv, and prints a rejection as one error line, without the usage block."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="ecswerner",
        description="Discord and entanglement sweeps for Werner states built from entangled coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep(name, help_text):
        p = sub.add_parser(name, help=help_text)
        for key, (text, *_) in SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), action="append" if key == "alpha2" else None, help=text)
        p.add_argument("--config", help="flat key=value config file")

    add_sweep("zurek-surface", "discord of the einselection benchmark state over (a, theta)")
    add_sweep("quasi-surface", "quasi-Werner discord: closed form vs pipeline over (|alpha|^2, a, theta)")
    add_sweep("werner-curves", "E, minimum discord and delta - E for perfect Werner states")
    add_sweep("quasi-curves", "E, minimum discord and delta - E for quasi-Werner states")
    sub.add_parser("verify", help="run the closed-form-vs-numeric verification suite")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run_verify() if args.command == "verify" else run_sweep(args)
    except KeyboardInterrupt:
        # write_rows has already stopped its workers and removed its files
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
