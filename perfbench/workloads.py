"""Benchmark workloads: CLI inputs drawn from a seed, and output checks.

Seed 0 runs the documented default grids, whose outputs must match sha256
digests recorded from the seed commit of the benchmark.  Any other seed
draws eight mean photon numbers log-uniform in [1e-3, 10] and a mixing
range [a_min, a_max] with a_min in [0, 0.25] and a_max in [0.75, 1], keeping
every grid size fixed, so the work per call is the same for every seed.
Every output is checked row by row against invariants: the grid columns
must be exactly the requested grid, every value finite, discord
nonnegative within 1e-9, derived columns consistent with their inputs,
and, for quasi-surface, the closed form within 1e-9 of the pipeline.
"""

import hashlib
import math
import random
import re
from dataclasses import dataclass

import numpy as np

# The documented default grid, pinned here rather than read from the CLI so
# that a change of CLI defaults cannot change the seed-0 workload.
DEFAULT_ALPHA2 = (0.01, 0.02, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
ALPHA2_RANGE = (1e-3, 10.0)
A_MIN_RANGE = (0.0, 0.25)
A_MAX_RANGE = (0.75, 1.0)

DISCORD_FLOOR = -1e-9
PIPELINE_TOL = 1e-9
# derived columns are recomputed from values printed with 15 significant
# digits, each off by at most ~1e-15
DERIVED_TOL = 1e-12
BASIS_FLAG_TOL = 1e-6


@dataclass(frozen=True)
class Grid:
    """The sweep inputs of one call; alpha2 is empty for zurek-surface."""

    alpha2: tuple
    a_min: float
    a_max: float
    a_steps: int
    theta_steps: int

    def argv(self):
        out = ["--a-min", repr(self.a_min), "--a-max", repr(self.a_max), "--a-steps", str(self.a_steps)]
        out += ["--theta-steps", str(self.theta_steps)]
        for mp in self.alpha2:
            out += ["--alpha2", repr(mp)]
        return out

    def a_values(self):
        return np.linspace(self.a_min, self.a_max, self.a_steps)


def draw_grid(seed, a_steps, theta_steps, with_alpha2=True):
    """The grid for a workload seed; seed 0 is the documented default grid."""
    if seed == 0:
        return Grid(DEFAULT_ALPHA2 if with_alpha2 else (), 0.0, 1.0, a_steps, theta_steps)
    rng = random.Random(seed)
    lo, hi = (math.log10(v) for v in ALPHA2_RANGE)
    alpha2 = ()
    if with_alpha2:
        alpha2 = tuple(sorted(max(10.0 ** rng.uniform(lo, hi), ALPHA2_RANGE[0]) for _ in DEFAULT_ALPHA2))
    return Grid(alpha2, rng.uniform(*A_MIN_RANGE), rng.uniform(*A_MAX_RANGE), a_steps, theta_steps)


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt(value):
    return "%.15g" % value


def check_csv(path, columns, keys, check_values):
    """First problem in a CSV sweep file, or None.

    keys yields, per expected row, the formatted grid columns it starts
    with; check_values(row_index, floats) returns a problem or None for the
    remaining columns of a row.
    """
    header = ",".join(columns) + "\n"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fh.readline() != header:
            return "header differs"
        lineno = 1
        for lineno, key in enumerate(keys, start=2):
            line = fh.readline()
            if not line.endswith("\n"):
                return f"line {lineno}: missing or truncated"
            fields = line[:-1].split(",")
            if len(fields) != len(columns):
                return f"line {lineno}: {len(fields)} fields, expected {len(columns)}"
            if fields[: len(key)] != key:
                return f"line {lineno}: grid columns {fields[:len(key)]} differ from {key}"
            try:
                values = [float(f) for f in fields[len(key):]]
            except ValueError:
                return f"line {lineno}: non-numeric field"
            if not all(math.isfinite(v) for v in values):
                return f"line {lineno}: non-finite value"
            problem = check_values(lineno - 2, values)
            if problem:
                return f"line {lineno}: {problem}"
        if fh.readline():
            return f"more than {lineno - 1} rows"
    return None


@dataclass(frozen=True)
class Workload:
    name: str  # also the CLI subcommand it runs
    a_steps: int
    theta_steps: int
    golden_sha256: str = None  # of the seed-0 output, recorded at 283e17e

    def inputs(self, seed):
        """CLI argv (without --out) and the grid it sweeps."""
        if self.name == "verify":
            return ["verify"], None
        grid = draw_grid(seed, self.a_steps, self.theta_steps, with_alpha2=self.name != "zurek-surface")
        return [self.name] + grid.argv(), grid

    def check(self, call, grid, out_path, seed):
        """First problem with one CLI call's result, or None."""
        if call.error is not None:
            return "raised: " + call.error.strip().splitlines()[-1]
        if call.code != 0:
            return f"exit code {call.code}"
        if self.name == "verify":
            return check_verify_report(call.stdout)
        if seed == 0 and self.golden_sha256 and file_sha256(out_path) != self.golden_sha256:
            return "sha256 differs from the recorded default-grid output"
        return CHECKERS[self.name](out_path, grid)


def check_quasi_surface(path, grid):
    thetas = [_fmt(t) for t in np.linspace(0.0, math.pi, grid.theta_steps)]
    keys = ([_fmt(mp), _fmt(a), t] for mp in grid.alpha2 for a in grid.a_values() for t in thetas)
    d_at_zero = 0.0

    def values(index, v):
        nonlocal d_at_zero
        d_closed, d_pipe, abs_diff, flag = v
        if min(d_closed, d_pipe) < DISCORD_FLOOR:
            return "negative discord"
        if abs_diff > PIPELINE_TOL:
            return f"closed form and pipeline differ by {abs_diff:g}"
        if abs(abs_diff - abs(d_closed - d_pipe)) > DERIVED_TOL:
            return "abs_diff is not |D_closed - D_pipeline|"
        if flag not in (0.0, 1.0):
            return "basis flag not 0/1"
        if index % grid.theta_steps == 0:
            d_at_zero = d_closed
        gap = abs(d_closed - d_at_zero)
        if abs(gap - BASIS_FLAG_TOL) > DERIVED_TOL and flag != float(gap > BASIS_FLAG_TOL):
            return "basis flag inconsistent with D_closed"
        return None

    columns = ["mean_photon", "a", "theta", "D_closed", "D_pipeline", "abs_diff", "differs_from_theta0"]
    return check_csv(path, columns, keys, values)


def check_quasi_curves(path, grid):
    keys = ([_fmt(mp), _fmt(a)] for mp in grid.alpha2 for a in grid.a_values())

    def values(index, v):
        e, delta, delta_minus_e = v
        if min(e, delta) < DISCORD_FLOOR:
            return "negative E or discord"
        if abs(delta_minus_e - (delta - e)) > DERIVED_TOL:
            return "delta_minus_E is not delta - E"
        return None

    return check_csv(path, ["mean_photon", "a", "E", "delta", "delta_minus_E"], keys, values)


def check_zurek_surface(path, grid):
    thetas = [_fmt(t) for t in np.linspace(-math.pi, math.pi, grid.theta_steps)]
    keys = ([_fmt(a), t] for a in grid.a_values() for t in thetas)

    def values(index, v):
        if not DISCORD_FLOOR <= v[0] <= 1.0 - DISCORD_FLOOR:
            return f"discord {v[0]!r} outside [0, 1]"
        return None

    return check_csv(path, ["a", "theta", "D"], keys, values)


CHECKERS = {
    "quasi-surface": check_quasi_surface,
    "quasi-curves": check_quasi_curves,
    "zurek-surface": check_zurek_surface,
}

_CHECK_LINE = re.compile(r"^  (.+?)\s+max dev\s+(\S+)\s+tol\s+(\S+)\s+(PASS|FAIL)$")


def check_verify_report(stdout):
    """First problem with a verify report: every deviation under its tolerance."""
    from ecswerner.verify import ALL_CHECKS

    lines = [m for m in map(_CHECK_LINE.match, stdout.splitlines()) if m]
    if len(lines) != len(ALL_CHECKS):
        return f"{len(lines)} check lines, expected {len(ALL_CHECKS)}"
    for m in lines:
        if not float(m.group(2)) < float(m.group(3)):
            return f"{m.group(1)}: deviation {m.group(2)} not under tolerance {m.group(3)}"
    if "convention notes:" not in stdout or not stdout.rstrip().endswith("all checks passed"):
        return "report incomplete"
    return None


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("quasi-surface", 101, 181, "d02a20dff902848b64321acaa91b71943b4c56122d74fb85a6eb1f4caa5b0e23"),
        Workload("quasi-curves", 101, 181, "8d50f2e25d177720476df71c26b24332e4181872c58c9b9e72105f9ddb26ce32"),
        Workload("verify", 0, 0),
        Workload("zurek-surface", 1001, 361, "7afa341338a42f842e05b13cefd9ba66b2df46ecce4f524eb9f943a16d3275e3"),
    )
}
