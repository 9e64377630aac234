"""Self-tests of the benchmark: span arithmetic, output checks, seeded inputs.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ecswerner import cli  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_GRID = workloads.Grid(alpha2=(0.3, 2.0), a_min=0.1, a_max=0.9, a_steps=4, theta_steps=7)


def _ticks():
    return iter(range(1000)).__next__


def test_self_times_subtract_direct_children_only():
    # A [0, 10] holds B [1, 4] and D [5, 6]; B holds C [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    assert tracer.self_times(parent, start, end) == [6.0, 2.0, 1.0, 1.0]


def test_wrapped_calls_record_nested_spans():
    spans = tracer.Tracer(clock=_ticks())
    inner = spans.wrap("m.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    spans.wrap("m.outer", outer_body)()
    # ticks: outer opens at 0, inner runs 1-2 and 3-4, outer closes at 5
    assert list(spans.parent) == [-1, 0, 0]
    stats, durations = tracer.summarize(spans)
    assert stats["m.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert stats["m.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert durations["m.inner"] == [1.0, 1.0]


def test_instrument_spans_cross_module_calls_and_restores_them(tmp_path):
    original = cli.discord_profile
    spans = tracer.Tracer()
    argv = ["quasi-surface"] + SMALL_GRID.argv() + ["--out", str(tmp_path / "q.csv")]
    with tracer.instrument(spans):
        assert cli.discord_profile is not original
        result = run.run_call(spans.wrap("cli.main", cli.main), argv)
    assert result.code == 0 and cli.discord_profile is original
    stats, _ = tracer.summarize(spans)
    rows = 2 * 4 * 7
    assert stats["discord.discord_profile"]["calls"] == 2 * 4
    assert stats["discord.discord_profile"]["angles"] == rows
    assert stats["discord.discord_quasi_closed"]["calls"] == rows + 2 * 4
    assert stats["cli.write_rows"]["rows"] == rows
    assert stats["cli.write_rows"]["bytes"] == (tmp_path / "q.csv").stat().st_size
    assert stats["qmatrix.von_neumann_entropy"]["calls"] == 3 * 2 * 4
    main = stats["cli.main"]
    assert 0.0 < main["self_s"] < main["total_s"]


def _corrupt(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] = ord("7") if data[offset] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def test_corrupted_byte_is_a_failed_call(tmp_path):
    workload = workloads.WORKLOADS["zurek-surface"]
    argv, grid = workload.inputs(0)
    out = tmp_path / "z.csv"
    bench = run.Bench(workload, 0, argv + ["--out", str(out)], grid, out)
    bench.call(cli.main)
    assert bench.problems == []

    def corrupting_main(call_argv):
        code = cli.main(call_argv)
        _corrupt(out, out.stat().st_size // 2)
        return code

    bench.call(corrupting_main)
    bench.call(cli.main)
    assert bench.attempted == 3
    assert len(bench.problems) == 1 and "differs" in bench.problems[0]
    # the same byte fails the first call of a run against the recorded digest
    ok = run.Call(0, 0.0, 0.0, "", None)
    assert workload.check(ok, grid, out, 0) is None
    _corrupt(out, out.stat().st_size // 2)
    assert "sha256" in workload.check(ok, grid, out, 0)


def _corrupt_field(path, line, column):
    """Change the leading nonzero digit of one CSV field."""
    text = path.read_text()
    lines = text.split("\n")
    offset = sum(len(x) + 1 for x in lines[:line])
    fields = lines[line].split(",")
    offset += sum(len(x) + 1 for x in fields[:column])
    digit = next(i for i, ch in enumerate(fields[column]) if ch in "123456789")
    _corrupt(path, offset + digit)


def test_corrupted_value_fails_the_invariant_checks(tmp_path):
    cases = [("quasi-surface", 1), ("quasi-surface", 3), ("quasi-surface", 4), ("quasi-curves", 2), ("quasi-curves", 3)]
    for command, column in cases:
        out = tmp_path / f"{command}.csv"
        assert cli.main([command] + SMALL_GRID.argv() + ["--out", str(out)]) == 0
        check = workloads.CHECKERS[command]
        assert check(out, SMALL_GRID) is None
        _corrupt_field(out, -2, column)  # last row, a = 0.9: every value nonzero
        assert check(out, SMALL_GRID) is not None, (command, column)


def test_truncated_or_non_finite_output_fails(tmp_path):
    out = tmp_path / "z.csv"
    grid = workloads.Grid((), 0.0, 1.0, 3, 5)
    assert cli.main(["zurek-surface"] + grid.argv() + ["--out", str(out)]) == 0
    text = out.read_text()
    assert workloads.check_zurek_surface(out, grid) is None
    out.write_text(text[:-1])
    assert "truncated" in workloads.check_zurek_surface(out, grid)
    out.write_text(text.rsplit("\n", 2)[0] + "\n")
    assert "truncated" in workloads.check_zurek_surface(out, grid)
    out.write_text(text + "0,0,0\n")
    assert "more than" in workloads.check_zurek_surface(out, grid)
    last = text.rsplit(",", 1)[0] + ",nan\n"
    out.write_text(last)
    assert "non-finite" in workloads.check_zurek_surface(out, grid)


def test_verify_report_check():
    from ecswerner.verify import ALL_CHECKS

    lines = [f"  check {i:<36d} max dev 1.000e-16  tol 1e-09  PASS" for i in range(len(ALL_CHECKS))]
    report = "closed-form verification report\n" + "\n".join(lines) + "\nconvention notes:\n  n\nall checks passed\n"
    assert workloads.check_verify_report(report) is None
    assert workloads.check_verify_report(report.replace("1.000e-16", "2.000e-09", 1)) is not None
    assert workloads.check_verify_report(report.replace(lines[0] + "\n", "")) is not None


def test_seed_generator_is_deterministic_and_keeps_grid_sizes():
    assert workloads.draw_grid(0, 101, 181) == workloads.Grid(workloads.DEFAULT_ALPHA2, 0.0, 1.0, 101, 181)
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs(7) == workload.inputs(7)
    assert workloads.draw_grid(7, 101, 181) != workloads.draw_grid(8, 101, 181)
    for seed in range(1, 200):
        grid = workloads.draw_grid(seed, 101, 181)
        assert len(grid.alpha2) == len(workloads.DEFAULT_ALPHA2)
        assert all(1e-3 <= mp <= 10.0 for mp in grid.alpha2)
        assert 0.0 <= grid.a_min <= 0.25 and 0.75 <= grid.a_max <= 1.0
        assert (grid.a_steps, grid.theta_steps) == (101, 181)
    assert workloads.draw_grid(3, 1001, 361, with_alpha2=False).alpha2 == ()


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(20, 0, -1)]
    assert run.tail_percentile(samples) == {"pct": 50, "value": 10.0}
