"""Benchmark of the ecswerner command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process calls `ecswerner.cli.main(argv)` directly, with no threads,
on the inputs the workload draws from the seed (see workloads.py), and
checks every call's output.  The first call warms caches; it is not timed,
but it is checked, and the peak resident memory of the process right after
it is the peak of a fresh process that ran the workload once.  Timed calls
then repeat, closed loop, until the next one would run past S seconds
(at least three).

With --trace 0 the result carries the end-to-end metrics:
    wall_s       median wall seconds of one main(argv) call
    cpu_s        median process CPU seconds of the same calls
    setup_s      median over fresh interpreters of importing ecswerner.cli,
                 parsing the arguments and running build_config
    peak_rss_mb  peak resident memory after the first call
With --trace 1 untraced and traced calls alternate, and the result carries
the per-layer metrics named in BENCHMARK.json (see tracer.py), plus the
tracing overhead (median over pairs of traced minus untraced wall time)
and the unspanned remainder (time of main() outside every span).

The last line of standard output is the result, a JSON object with the
keys correct, attempted, failed and metrics.  The line before it holds the
run context (nproc, Python and numpy versions, git hash, load average,
involuntary context switches), every timed sample, the tail percentile,
the error rate and the first problems found.  Sweep outputs go to
.bench_out/ under the checkout and are removed at the end.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
MIN_TIMED_CALLS = 3
MIN_TRACED_PAIRS = 2
TAIL_SAMPLES = 10
PERCENTILE_STATS = {"p50_ms": 50, "p98_ms": 98}


@dataclass(frozen=True)
class Call:
    code: object  # exit code, None if main raised
    wall: float
    cpu: float
    stdout: str
    error: object  # traceback text if main raised


def run_call(cli_main, argv):
    """One in-process CLI call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except Exception:  # a crashing call is a failed call, and the run goes on
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return Call(code, wall, cpu, out.getvalue(), error)


class Bench:
    """Runs and checks the calls of one benchmark run; counts failures.

    Calls get the workload's full check until one passes.  Outputs must
    repeat byte for byte, so after that a call passes when its output has
    the same sha256 as the checked one and fails otherwise.
    """

    def __init__(self, workload, seed, argv, grid, out_path):
        self.workload, self.seed, self.argv, self.grid, self.out_path = workload, seed, argv, grid, out_path
        self.attempted = 0
        self.problems = []
        self._checked_digest = None

    def _problem(self, result):
        if self._checked_digest is not None and result.error is None and result.code == 0:
            if workloads.file_sha256(self.out_path) != self._checked_digest:
                return "output differs from the checked output of an earlier call"
            return None
        problem = self.workload.check(result, self.grid, self.out_path, self.seed)
        if problem is None and self.grid is not None:
            self._checked_digest = workloads.file_sha256(self.out_path)
        return problem

    def call(self, cli_main):
        result = run_call(cli_main, self.argv)
        self.attempted += 1
        problem = self._problem(result)
        if problem:
            self.problems.append(problem)
        return result


def measure(seconds, step, min_steps):
    """Repeat step() until the next one would end past `seconds`, at least min_steps times."""
    t0 = time.perf_counter()
    took = []
    while len(took) < min_steps or time.perf_counter() - t0 + statistics.median(took) <= seconds:
        s = time.perf_counter()
        step()
        took.append(time.perf_counter() - s)


def setup_times(argv):
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *argv],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(samples):
    """Highest whole percentile with at least TAIL_SAMPLES samples above it, or None."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return None
    k = n - TAIL_SAMPLES
    return {"pct": 100 * k // n, "value": sorted(samples)[k - 1]}


def git_hash():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_hash(),
        "loadavg": os.getloadavg(),
    }


def end_to_end(bench, cli_main, seconds):
    bench.call(cli_main)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = setup_times(bench.argv)
    walls, cpus = [], []

    def step():
        result = bench.call(cli_main)
        walls.append(result.wall)
        cpus.append(result.cpu)

    measure(seconds, step, MIN_TIMED_CALLS)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"wall_s": walls, "cpu_s": cpus, "setup_s": setup, "wall_tail": tail_percentile(walls)}


def per_layer(bench, cli_main, seconds, names):
    bench.call(cli_main)
    untraced, traced, stats, durations = [], [], [], defaultdict(list)

    def step():
        untraced.append(bench.call(cli_main).wall)
        spans = tracer.Tracer()
        with tracer.instrument(spans):
            traced.append(bench.call(spans.wrap("cli.main", cli_main)).wall)
        call_stats, call_durations = tracer.summarize(spans)
        stats.append(call_stats)
        for span, values in call_durations.items():
            durations[span].extend(values)

    measure(seconds, step, MIN_TRACED_PAIRS)
    derived = {
        "trace.overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
        "trace.unspanned_s": statistics.median(s["cli.main"]["self_s"] for s in stats),
    }
    metrics = {}
    for name in names:
        span, stat = name.rsplit(".", 1)
        if name in derived:
            metrics[name] = derived[name]
        elif stat in PERCENTILE_STATS:
            metrics[name] = 1000.0 * percentile(durations.get(span, []), PERCENTILE_STATS[stat])
        else:
            metrics[name] = statistics.median(s.get(span, {}).get(stat, 0) for s in stats)
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the ecswerner CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ecswerner" / "cli.py").is_file():
        print(f"error: {SRC / 'ecswerner'} not found; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from ecswerner import cli

    workload = workloads.WORKLOADS[args.workload]
    argv, grid = workload.inputs(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}.csv"
    if grid is not None:
        argv = argv + ["--out", str(out_path)]
    bench = Bench(workload, args.seed, argv, grid, out_path)

    context = run_context()
    nivcsw = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
    try:
        if args.trace:
            group = spec["per_layer"]
            values, samples = per_layer(bench, cli.main, args.seconds, [m["name"] for m in group])
        else:
            group = spec["end_to_end"]
            values, samples = end_to_end(bench, cli.main, args.seconds)
    finally:
        out_path.unlink(missing_ok=True)
    context["ru_nivcsw"] = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw - nivcsw
    context["loadavg_end"] = os.getloadavg()

    failed = len(bench.problems)
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "argv": argv,
        "context": context, "samples": samples,
        "error_rate": failed / bench.attempted, "problems": bench.problems[:5],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
