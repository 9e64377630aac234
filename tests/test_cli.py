import contextlib
import hashlib
import io
import itertools
import json
import errno
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ecswerner import cli, discord
from ecswerner.cli import main, write_rows

# the verification suite is exercised once (it is a few seconds of grid work)
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def run(tmp_path, *argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:-1]]
    return header, rows


def test_zurek_surface(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["zurek-surface", "--a-steps", "5", "--theta-steps", "9", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["a", "theta", "D"]
    assert len(rows) == 5 * 9
    for a, theta, d in rows:
        if a == 1.0:
            assert abs(d - 1.0) < 1e-12
    # theta grid covers [-pi, pi]; at a=0 the surface vanishes on the axes
    on_axis = [d for a, theta, d in rows if a == 0.0 and min(abs(theta - t) for t in (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)) < 1e-9]
    assert on_axis and all(abs(d) < 1e-12 for d in on_axis)


def test_zurek_row_count_matches_grids(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["zurek-surface", "--a-steps", "3", "--theta-steps", "41", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3 * 41


def test_quasi_surface_oracle_columns(tmp_path):
    out = tmp_path / "q.csv"
    code = main(
        ["quasi-surface", "--alpha2", "0.01", "--alpha2", "5", "--a-steps", "5",
         "--theta-steps", "5", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["mean_photon", "a", "theta", "D_closed", "D_pipeline", "abs_diff", "differs_from_theta0"]
    assert len(rows) == 2 * 5 * 5
    assert max(r[5] for r in rows) < 1e-9  # closed form vs pipeline everywhere

    # large mean photon number: theta dependence collapses, no row flagged
    big = [r for r in rows if r[0] == 5.0]
    for a in {r[1] for r in big}:
        slab = [r[3] for r in big if r[1] == a]
        assert max(slab) - min(slab) < 1e-6
    assert all(r[6] == 0.0 for r in big)

    # small mean photon number at large mixing: basis dependence flag set off axis
    flagged = [r for r in rows if r[0] == 0.01 and r[1] == 0.75 and abs(r[2] - math.pi / 4) < 1e-9]
    assert flagged and flagged[0][6] == 1.0


def test_quasi_surface_small_alpha_flag_at_cited_point(tmp_path):
    out = tmp_path / "q.csv"
    assert main(
        ["quasi-surface", "--alpha2", "0.01", "--a-min", "0.9", "--a-max", "0.9",
         "--a-steps", "1", "--theta-steps", "5", "--out", str(out)]
    ) == 0
    _, rows = read_csv(out)
    quarter = [r for r in rows if abs(r[2] - math.pi / 4) < 1e-9]
    assert quarter[0][6] == 1.0
    axis = [r for r in rows if r[2] == 0.0]
    assert axis[0][6] == 0.0


def test_quasi_surface_redirects_minus_family(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["quasi-surface", "--family", "psi-", "--a-steps", "4", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "werner-curves" in err
    header, rows = read_csv(out)
    assert header == ["a", "E", "delta", "delta_minus_E"]
    assert len(rows) == 4


def test_werner_curves_values(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["werner-curves", "--a-steps", "4", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["a", "E", "delta", "delta_minus_E"]
    a0, a13, _, a1 = rows
    assert a0 == [0.0, 0.0, 0.0, 0.0]
    assert abs(a13[0] - 1.0 / 3.0) < 1e-12
    assert a13[1] == 0.0
    assert abs(a13[2] - 0.12581458369391152) < 1e-9
    assert a1[1] == 1.0 and a1[2] == 1.0 and a1[3] == 0.0


def test_quasi_curves_peak_and_monotonicity(tmp_path):
    out = tmp_path / "qc.csv"
    assert main(["quasi-curves", "--alpha2", "2", "--a-steps", "21", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 21
    assert min(r[3] for r in rows) >= -1e-9
    gaps = [r[4] for r in rows]
    best_a = rows[int(np.argmax(gaps))][1]
    assert 0.4 < best_a < 0.5


def test_quasi_curves_delta_grows_with_mean_photon(tmp_path):
    out = tmp_path / "qc.csv"
    code = main(
        ["quasi-curves", "--alpha2", "0.1", "--alpha2", "0.5", "--alpha2", "1",
         "--alpha2", "2", "--alpha2", "5", "--a-min", "0.8", "--a-max", "0.8",
         "--a-steps", "1", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == [0.1, 0.5, 1.0, 2.0, 5.0]
    deltas = [r[3] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_output_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["quasi-surface", "--alpha2", "0.5", "--a-steps", "7", "--theta-steps", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of small sweeps, of every default-grid output and of two JSON
# sweeps; any change to the measurement pipeline, the minimizer, the closed
# forms or the writer that moves one output byte changes them
SMALL_GRID = ["--alpha2", "0.01", "--alpha2", "1", "--alpha2", "5", "--a-steps", "11"]
GOLDEN_SHA256 = {
    "quasi-surface": (
        ["quasi-surface", *SMALL_GRID, "--theta-steps", "37"],
        "532af1b98e43f49e09c9b15176f5f330274f8521c0e76864c81e6c4a9b7755a7",
    ),
    "quasi-surface-default-grid": (
        ["quasi-surface"],
        "d02a20dff902848b64321acaa91b71943b4c56122d74fb85a6eb1f4caa5b0e23",
    ),
    "quasi-surface-json": (
        ["quasi-surface", *SMALL_GRID, "--theta-steps", "37", "--format", "json"],
        "e676b6bd950e9b74f770b60d248f699c82a6d56d0c51fe38a4312bd5347786ef",
    ),
    "zurek-surface-default-grid": (
        ["zurek-surface"],
        "1313922cf5f717cf823eeb49c7ffda0129b379179e25c9da95beba487278f296",
    ),
    "zurek-surface-json": (
        ["zurek-surface", "--a-steps", "11", "--theta-steps", "37", "--format", "json"],
        "67ed2b1c2b2960a74e0f14d44b5100bcb4ff04459d3b0e93d231f109d6bbe223",
    ),
    "werner-curves-default-grid": (
        ["werner-curves"],
        "f63c6360007bdc8e32a3c5c472c6e2c8e17328ccd89818922b87199fc3c0cb3a",
    ),
    "quasi-curves": (
        ["quasi-curves", *SMALL_GRID],
        "5974db0c9e9bc4e0112f4a1cd5fc85c59f33b6e39449cac966c1c9fbae805eae",
    ),
    # phi+ has psi+'s curves, and phi- psi-'s (each pair's states differ);
    # the Werner psi-/phi- states are flat in theta, so the minimizer's whole
    # coarse scan ties
    "quasi-curves-psi-": (
        ["quasi-curves", *SMALL_GRID, "--family", "psi-"],
        "34a618a8ace408351c7751822c80446a4e8deca37556460821e2530b0cd2200c",
    ),
    "quasi-curves-phi+": (
        ["quasi-curves", *SMALL_GRID, "--family", "phi+"],
        "5974db0c9e9bc4e0112f4a1cd5fc85c59f33b6e39449cac966c1c9fbae805eae",
    ),
    "quasi-curves-phi-": (
        ["quasi-curves", *SMALL_GRID, "--family", "phi-"],
        "34a618a8ace408351c7751822c80446a4e8deca37556460821e2530b0cd2200c",
    ),
    "quasi-curves-default-grid": (
        ["quasi-curves"],
        "8d50f2e25d177720476df71c26b24332e4181872c58c9b9e72105f9ddb26ce32",
    ),
}


# sha256 of the verify report on stdout, with every deviation it prints
VERIFY_SHA256 = "00da555e2dfbe982c9230a51fd2ba53dc2023b31c24b32ac6fda6f99e8a4b857"


def no_discord_result(*args, **kwargs):
    raise AssertionError("a sweep built a DiscordResult")


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_is_byte_identical_to_golden(tmp_path, monkeypatch, name):
    # the sweeps write the minimizer's arrays and build no DiscordResult
    monkeypatch.setattr(discord, "DiscordResult", no_discord_result)
    argv, digest = GOLDEN_SHA256[name]
    out = tmp_path / "golden.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_report_is_byte_identical_to_golden(capsys):
    assert main(["verify"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == VERIFY_SHA256


def test_json_mirrors_csv(tmp_path):
    csv_out, json_out = tmp_path / "w.csv", tmp_path / "w.json"
    assert main(["werner-curves", "--a-steps", "5", "--out", str(csv_out)]) == 0
    assert main(["werner-curves", "--a-steps", "5", "--format", "json", "--out", str(json_out)]) == 0
    _, rows = read_csv(csv_out)
    records = json.loads(json_out.read_text(encoding="utf-8"))
    assert len(records) == len(rows)
    for rec, row in zip(records, rows):
        assert list(rec.keys()) == ["a", "E", "delta", "delta_minus_E"]
        for got, want in zip(rec.values(), row):
            assert abs(got - want) < 1e-14


def test_every_emitted_value_is_finite(tmp_path):
    out = tmp_path / "qc.csv"
    assert main(["quasi-curves", "--alpha2", "0.01", "--alpha2", "5", "--a-steps", "11", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(math.isfinite(v) for row in rows for v in row)


def test_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "a_steps = 3\n"
        "theta_steps = 5\n"
        "alpha2 = 0.5, 2\n"
        "family = phi+\n"
        f"out = {tmp_path / 'from_config.csv'}\n",
        encoding="utf-8",
    )
    assert main(["quasi-surface", "--config", str(cfg)]) == 0
    _, rows = read_csv(tmp_path / "from_config.csv")
    assert len(rows) == 2 * 3 * 5

    # a CLI flag overrides the same key from the file
    override = tmp_path / "override.csv"
    assert main(["quasi-surface", "--config", str(cfg), "--a-steps", "2", "--out", str(override)]) == 0
    _, rows = read_csv(override)
    assert len(rows) == 2 * 2 * 5


@pytest.mark.parametrize(
    "key, flag, config, default",
    [
        ("family", "psi-", "phi+", "psi+"),
        ("format", "csv", "json", "csv"),
        ("out", "flag.csv", "config.csv", "werner_curves.csv"),
        ("a_min", "0.25", "0.5", "0.0"),
        ("a_max", "0.75", "0.5", "1.0"),
        ("a_steps", "3", "5", "101"),
        ("theta_steps", "3", "5", "181"),
        ("alpha2", "0.25", "0.5 2.5", "0.01 0.02 0.1 0.2 0.5 1.0 2.0 5.0"),
    ],
)
def test_flag_overrides_config_overrides_default(tmp_path, key, flag, config, default):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"{key} = {config}\n", encoding="utf-8")

    def resolved(*argv):
        # werner-curves builds no theta grid, so theta_steps is read on a surface
        command = "quasi-surface" if key == "theta_steps" else "werner-curves"
        sweep = cli.build_config(cli.build_parser().parse_args([command, *argv]))
        return {
            "family": sweep.family.value,
            "format": sweep.format,
            "out": sweep.output_path,
            "a_min": str(sweep.a_grid[0]),
            "a_max": str(sweep.a_grid[-1]),
            "a_steps": str(len(sweep.a_grid)),
            "theta_steps": str(len(sweep.theta_grid)) if sweep.theta_grid is not None else None,
            "alpha2": " ".join(map(str, sweep.mean_photon_list)),
        }[key]

    name = "--" + key.replace("_", "-")
    assert resolved("--config", str(cfg), name, flag) == flag
    assert resolved("--config", str(cfg)) == config
    assert resolved() == default
    if key != "alpha2":  # a scalar flag given twice takes its last value; --alpha2 takes one number each time
        assert resolved(name, config, name, flag) == flag


@pytest.mark.parametrize(
    "line, message",
    [
        ("a_min = low", "config key a_min must be a number, got 'low'"),
        ("a_max = 1.0.0", "config key a_max must be a number, got '1.0.0'"),
        ("a_steps = 2.5", "config key a_steps must be an integer, got '2.5'"),
        ("theta_steps = many", "config key theta_steps must be an integer, got 'many'"),
        ("alpha2 = 1, two", "config key alpha2 must list numbers, got '1, two'"),
        ("family = nope", "unknown state family 'nope' (expected one of: psi+, psi-, phi+, phi-)"),
        ("format = xml", "format must be csv or json, got 'xml'"),
    ],
)
def test_bad_config_value_exits_2_with_its_message(tmp_path, capsys, line, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "w.csv"
    assert main(["werner-curves", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # the same value as a flag is the same setting: one line in the same words, naming the flag;
    # --alpha2 shows the numbers it was given, one per flag
    key, value = line.split(" = ")
    flag = "--" + key.replace("_", "-")
    assert main(["werner-curves", flag, value, "--out", str(out)]) == 2
    got = repr([value] if key == "alpha2" else value)
    assert capsys.readouterr().err == f"error: {message.replace(f'config key {key}', flag).replace(repr(value), got)}\n"
    assert not out.exists()


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["werner-curves", "--a-steps", "3"]) == 0
    assert (tmp_path / "werner_curves.csv").exists()


def test_bad_arguments_exit_2(tmp_path, capsys):
    def rejected(*argv):
        # exit 2 with one error line: argparse's own rejections print no usage block
        code = main(list(argv))
        err = capsys.readouterr().err
        return code == 2 and err.startswith("error: ") and err.count("\n") == 1

    assert rejected("zurek-surface", "--a-min", "0.9", "--a-max", "0.1")
    assert rejected("quasi-surface", "--alpha2", "1e-5")
    assert rejected("quasi-surface", "--family", "nope")  # the StateFamily.parse message
    assert rejected("quasi-surface", "--format", "xml")
    assert rejected("quasi-surface", "--a-steps", "1e3")
    # a command's own theta default takes no explicit value's place
    assert rejected("werner-curves", "--theta-steps", "0")
    assert rejected("quasi-surface", "--alpha2")  # no value
    assert rejected("werner-curves", "--no-such-flag", "1")
    assert rejected("no-such-command")
    assert rejected()
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("unknown_key = 3\n", encoding="utf-8")
    assert rejected("werner-curves", "--config", str(bad_cfg))
    missing = tmp_path / "missing.cfg"
    assert rejected("werner-curves", "--config", str(missing))
    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"a_steps = 3\xff\n")
    assert main(["werner-curves", "--config", str(not_utf8)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {not_utf8}: ") and err.count("\n") == 1
    assert main(["quasi-surface", "--help"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_mean_photon_exits_2(tmp_path, capsys, value, source):
    out = tmp_path / "q.csv"
    argv = ["quasi-surface", "--a-steps", "2", "--theta-steps", "2", "--out", str(out)]
    if source == "flag":
        argv.append(f"--alpha2={value}")
    else:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"alpha2 = 1, {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite" in err
    assert not out.exists()


def test_mean_photon_below_minimum_exits_2_with_the_cat_params_message(tmp_path, capsys):
    # cat_params is the one check of a mean photon number: the first bad
    # value in the order given is named in its words
    with pytest.raises(ValueError) as raised:
        cli.cat_params(1e-4)
    out = tmp_path / "q.csv"
    assert main(["quasi-surface", "--alpha2", "1", "--alpha2", "1e-4", "--alpha2", "nan", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "source, out", [("flag", ""), ("flag", "outdir/"), ("config", ""), ("flag", "outdir"), ("flag", ".")]
)
def test_output_path_without_a_file_name_exits_2_before_any_row(tmp_path, capsys, monkeypatch, source, out):
    # "" and "." name the working directory, and "outdir/" and "outdir" an
    # existing directory: each is rejected with the config, before a row is
    # computed or a temporary file is made beside it or in its parent
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()

    def no_rows(cfg):
        raise AssertionError("rows computed")

    monkeypatch.setattr(cli, "werner_curves_rows", no_rows)
    argv = ["werner-curves", "--a-steps", "3"]
    if source == "flag":
        argv += ["--out", out]
    else:
        (tmp_path / "sweep.cfg").write_text(f"out = {out}\n", encoding="utf-8")
        argv += ["--config", "sweep.cfg"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: output path must end in a file name, got {out!r}\n"
    assert not [*tmp_path.glob(".*.tmp"), *tmp_path.parent.glob(".*.tmp")]


def test_unwritable_path_exits_3(tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    assert main(["werner-curves", "--a-steps", "3", "--out", target]) == 3
    assert target in capsys.readouterr().err


def test_failed_write_keeps_existing_output(tmp_path, monkeypatch):
    # the write fails once the temporary file is on disk: while writing the
    # second block of rows, or when the finished file would replace the old one
    out = tmp_path / "out.csv"
    out.write_text("old contents\n", encoding="utf-8")
    table = cli.Table([[0.0, 0.5, 1.0]], cli._sliced([1.0, 2.0, 3.0]))
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 1)
    # one range of blocks, all written by this process (the cases with a worker follow)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    seen = []

    def fail(*args):
        seen.append(sorted(p.name for p in tmp_path.iterdir()))
        raise OSError("disk full")

    def open_failing_in_second_block(*args, **kwargs):
        fh = open(*args, **kwargs)
        write, calls = fh.write, itertools.count()
        # the header (CSV) or the opening bracket (JSON), then the first block
        fh.write = lambda text: fail() if next(calls) == 2 else write(text)
        return fh

    for fmt in ("csv", "json"):
        for module, attr, failing in ((cli, "open", open_failing_in_second_block), (cli.os, "replace", fail)):
            with monkeypatch.context() as mp:
                mp.setattr(module, attr, failing, raising=False)
                with pytest.raises(OSError, match="disk full"):
                    write_rows(str(out), fmt, ["a", "b"], table)
            assert len(seen[-1]) == 2 and seen[-1][0].endswith(".tmp")
            assert out.read_text(encoding="utf-8") == "old contents\n"
            assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert len(seen) == 4


def fail_in_range(where, error):
    """A stand-in for cli._write_blocks that raises error(fh) in each range of rows, starts, where(starts) holds."""
    real = cli._write_blocks

    def write_blocks(fh, rows, starts, layout):
        if where(starts):
            raise error(fh)
        real(fh, rows, starts, layout)

    return write_blocks


def holds_row_14(starts):
    """Whether the range of blocks starts holds row 14; its last block then does."""
    return starts.start <= 14 < starts.stop


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", ["worker", "append"])
def test_failed_write_with_a_worker_keeps_existing_output(tmp_path, monkeypatch, fmt, where):
    # two ranges of rows: this process writes row 0, a forked worker rows 1-2
    out = tmp_path / "out.csv"
    out.write_text("old contents\n", encoding="utf-8")
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 1)
    monkeypatch.setattr(cli, "MIN_RANGE_ROWS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    if where == "worker":
        # the message names the process that raised it
        in_worker = fail_in_range(lambda starts: starts.start, lambda fh: OSError(f"disk full in {os.getpid()}"))
        monkeypatch.setattr(cli, "_write_blocks", in_worker)
        message = r"^disk full in \d+$"
    else:
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(cli.shutil, "copyfileobj", fail)
        message = "^disk full$"
    with pytest.raises(OSError, match=message) as raised:
        write_rows(str(out), fmt, ["a", "b"], cli.Table([[0.0, 0.5, 1.0]], cli._sliced([1.0, 2.0, 3.0])))
    if where == "worker":
        assert int(str(raised.value).split()[-1]) != os.getpid()
    assert out.read_text(encoding="utf-8") == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert_no_worker_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_interrupt_stops_the_workers_and_keeps_existing_output(tmp_path, monkeypatch, fmt):
    out = tmp_path / "out.csv"
    out.write_text("old contents\n", encoding="utf-8")
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 1)
    monkeypatch.setattr(cli, "MIN_RANGE_ROWS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)

    def write_blocks(fh, rows, starts, layout):
        if starts.start:
            time.sleep(60)  # the worker is still writing when this process is interrupted
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_write_blocks", write_blocks)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        write_rows(str(out), fmt, ["a", "b"], cli.Table([[0.0, 0.5, 1.0]], cli._sliced([1.0, 2.0, 3.0])))
    assert time.monotonic() - t0 < 30  # the sleeping worker was stopped, not waited for
    assert out.read_text(encoding="utf-8") == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert_no_worker_left()


@pytest.mark.parametrize("argv, cpus", [(["werner-curves"], 1), (["werner-curves"], 2), (["verify"], 1)])
def test_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch, argv, cpus):
    # Ctrl-C while rows are computed, in this process and in a worker, or while verify runs
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "werner_curves_rows", lambda cfg: (["a", "b"], cli.Table([cfg.a_grid], interrupt)))
    monkeypatch.setattr(cli, "MIN_RANGE_ROWS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    monkeypatch.setattr("ecswerner.verify.run_verification", interrupt)
    if argv == ["werner-curves"]:
        argv = [*argv, "--a-steps", "3", "--out", str(tmp_path / "w.csv")]
    assert main(argv) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert list(tmp_path.iterdir()) == []
    assert_no_worker_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_failure_in_the_last_range_exits_3_with_the_same_line(tmp_path, capsys, monkeypatch, cpus):
    # the block that holds row 14, the last of 3 blocks of one 5-row theta
    # line each, fails, in this process (1 CPU) or in a worker (2)
    out = tmp_path / "z.csv"
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 1)
    monkeypatch.setattr(cli, "MIN_RANGE_ROWS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)

    def no_space(fh):
        return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), fh.name)

    monkeypatch.setattr(cli, "_write_blocks", fail_in_range(holds_row_14, no_space))
    assert main(["zurek-surface", "--a-steps", "3", "--theta-steps", "5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert list(tmp_path.iterdir()) == []
    assert_no_worker_left()


def test_table_below_the_range_threshold_starts_no_worker(tmp_path, monkeypatch):
    # fewer than 2 * MIN_RANGE_ROWS rows make one range, written by this process
    def no_fork():
        raise AssertionError("a writer forked for a table of one range")

    monkeypatch.setattr(cli, "_cpu_count", lambda: 4)
    monkeypatch.setattr(cli.os, "fork", no_fork)
    out = tmp_path / "out.csv"
    n = 2 * cli.MIN_RANGE_ROWS - 1
    write_rows(str(out), "csv", ["a", "b"], cli.Table([np.zeros(n)], cli._sliced(np.ones(n))))
    assert out.read_text(encoding="utf-8") == "a,b\n" + "0,1\n" * n


SMALL_SWEEPS = [
    (["zurek-surface"], 3 * 5),
    (["quasi-surface"], 2 * 3 * 5),
    (["werner-curves"], 3),
    (["quasi-curves"], 2 * 3),
    # a maximally entangled family's quasi-surface writes the werner-curves table
    (["quasi-surface", "--family", "psi-"], 3),
]


@pytest.mark.parametrize("argv, size", SMALL_SWEEPS)
def test_grid_out_of_memory_in_the_rows_exits_2(tmp_path, capsys, monkeypatch, argv, size):
    # the row generator that runs cannot allocate: the line names the row
    # count of the table it computes
    def no_memory(cfg):
        raise MemoryError

    werner = "--family" in argv
    monkeypatch.setattr(cli, "werner_curves_rows" if werner else argv[0].replace("-", "_") + "_rows", no_memory)
    out = tmp_path / "out.csv"
    argv = [*argv, "--alpha2", "1", "--alpha2", "2", "--a-steps", "3", "--theta-steps", "5", "--out", str(out)]
    assert main(argv) == 2
    note = (
        "note: discord of the psi- Werner state does not depend on the measurement angle; "
        "writing werner-curves output instead\n"
    )
    error = f"error: the {argv[0]} grid of {size} rows does not fit in memory\n"
    assert capsys.readouterr().err == (note if werner else "") + error
    assert list(tmp_path.iterdir()) == []
    assert_no_worker_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_grid_out_of_memory_in_the_writer_exits_2(tmp_path, capsys, monkeypatch, fmt, cpus):
    # the block that holds row 14, the last of 3 blocks of one 5-row theta
    # line each, cannot allocate, in this process (1 CPU) or in a worker (2),
    # whose MemoryError comes back through its pipe
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 1)
    monkeypatch.setattr(cli, "MIN_RANGE_ROWS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_write_blocks", fail_in_range(holds_row_14, lambda fh: MemoryError()))
    out = tmp_path / "z.out"
    assert main(["zurek-surface", "--a-steps", "3", "--theta-steps", "5", "--format", fmt, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the zurek-surface grid of 15 rows does not fit in memory\n"
    assert list(tmp_path.iterdir()) == []
    assert_no_worker_left()


def test_axis_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # an axis too long to allocate fails while the configuration is built
    real = np.linspace

    def linspace(start, stop, num):
        if num > 10**9:
            raise MemoryError
        return real(start, stop, num)

    monkeypatch.setattr(np, "linspace", linspace)
    out = tmp_path / "w.csv"
    # the message names the axes the command builds: a command without a theta grid names only its a values
    for argv, axes in [
        (["werner-curves", "--a-steps", str(10**12)], f"{10**12} a values"),
        (["quasi-curves", "--a-steps", str(10**12)], f"{10**12} a values"),
        (["quasi-surface", "--family", "psi-", "--a-steps", str(10**12)], f"{10**12} a values"),
        (["quasi-surface", "--theta-steps", str(10**12)], f"101 a values and {10**12} theta values"),
    ]:
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {axes} do not fit in memory\n"
    assert list(tmp_path.iterdir()) == []


def test_write_replaces_existing_output(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("old contents\n", encoding="utf-8")
    write_rows(str(out), "csv", ["a", "b"], cli.Table([[0.5]], cli._sliced([1])))
    assert out.read_text(encoding="utf-8") == "a,b\n0.5,1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


column_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(column_values, column_values, st.integers(0, 1)), max_size=30), st.integers(1, 7), st.integers(1, 3))
def test_writer_matches_per_value_formatting(rows, block_rows, cpus):
    # blocks of a few rows, so that a file spans several of them, written by
    # up to three processes, whose ranges of rows may begin inside a block
    columns = ["a", "b", "flag"]
    expected = {
        "csv": "a,b,flag\n" + "".join(f"{'%.15g' % a},{'%.15g' % b},{flag}\n" for a, b, flag in rows),
        "json": json.dumps([dict(zip(columns, row)) for row in rows], separators=(",", ":")) + "\n",
    }
    table = cli.Table([[row[0] for row in rows]], cli._sliced(*([row[i] for row in rows] for i in (1, 2))))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "WRITE_BLOCK_ROWS", block_rows)
        mp.setattr(cli, "MIN_RANGE_ROWS", 1)
        mp.setattr(cli, "_cpu_count", lambda: cpus)
        for fmt in ("csv", "json"):
            out = Path(tmp) / "out"
            write_rows(str(out), fmt, columns, table)
            assert out.read_text(encoding="utf-8") == expected[fmt]
            assert os.listdir(tmp) == ["out"]


grid_axes = st.lists(st.lists(column_values, max_size=5), min_size=1, max_size=3)
value_kinds = st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=3)


def cell_text(x):
    return "%.15g" % x if isinstance(x, float) else str(x)


@settings(max_examples=80, deadline=None)
@given(grid_axes, value_kinds, st.integers(1, 7), st.integers(1, 3), st.data())
def test_grid_writer_matches_the_product_of_its_axes(axes, kinds, block_rows, cpus, data):
    # a row per point of the axes' product, the last axis fastest, then the
    # row's values; blocks of a few rows split the last axis's runs, and the
    # ranges of rows of up to three processes split them too
    n = math.prod(map(len, axes))
    cells = {"float": column_values, "int": st.integers(-(2**63), 2**63 - 1)}
    values = [data.draw(st.lists(cells[kind], min_size=n, max_size=n)) for kind in kinds]
    columns = [f"x{i}" for i in range(len(axes))] + [f"v{i}" for i in range(len(values))]
    rows = [point + row for point, row in zip(itertools.product(*axes), zip(*values))]
    expected = {
        "csv": ",".join(columns) + "\n" + "".join(",".join(map(cell_text, row)) + "\n" for row in rows),
        "json": json.dumps([dict(zip(columns, row)) for row in rows], separators=(",", ":")) + "\n",
    }
    table = cli.Table(axes, cli._sliced(*values))
    assert len(table) == n
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "WRITE_BLOCK_ROWS", block_rows)
        mp.setattr(cli, "MIN_RANGE_ROWS", 1)
        mp.setattr(cli, "_cpu_count", lambda: cpus)
        for fmt in ("csv", "json"):
            out = Path(tmp) / "out"
            write_rows(str(out), fmt, columns, table)
            assert out.read_text(encoding="utf-8") == expected[fmt]
            assert os.listdir(tmp) == ["out"]


FLOAT_FORMAT_EDGES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e15, 1e16, 999999999999999.9,
    1.7976931348623157e308, -1.7976931348623157e308,
]


@settings(max_examples=500)
@given(st.one_of(st.sampled_from(FLOAT_FORMAT_EDGES), st.floats()))
def test_float_format_matches_percent_format(x):
    # the writer formats floats with float.__format__; its text is "%.15g"'s
    assert float.__format__(x, ".15g") == "%.15g" % x


@settings(max_examples=500)
@given(st.one_of(st.sampled_from(FLOAT_FORMAT_EDGES), st.floats(allow_nan=False, allow_infinity=False)))
def test_json_float_format_matches_json(x):
    # JSON formats floats with the empty spec, whose text is json's for a finite float
    assert float.__format__(x, "") == json.dumps(x)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("axes, message", [
    ([[0.5, 1.0], [0.0, math.nan, 1.0]], "non-finite value in column t at row 1"),
    ([[0.5, math.inf], [0.0, 0.5, 1.0]], "non-finite value in column a at row 3"),
    ([[0.5, 1.0, -math.inf], [0.0, 0.5]], "non-finite value in column a at row 4"),
])
def test_write_rejects_non_finite_axis_entry_at_its_first_row(tmp_path, fmt, axes, message):
    out = tmp_path / "out.csv"
    table = cli.Table(axes, cli._sliced(np.zeros(6)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_rows(str(out), fmt, ["a", "t", "v"], table)
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_rejects_non_finite_value(tmp_path, fmt, bad):
    out = tmp_path / "out.csv"
    out.write_text("old contents\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite value in column b at row 1"):
        write_rows(str(out), fmt, ["a", "b"], cli.Table([[0.5, 0.5]], cli._sliced([1.0, bad])))
    assert out.read_text(encoding="utf-8") == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_output_exits_4(tmp_path, capsys, monkeypatch, fmt):
    real = cli.werner_curves_rows

    def rows_with_nan(cfg):
        columns, rows = real(cfg)
        rows.values(0, len(rows))[1][2] = math.nan  # a slice of the whole column
        return columns, rows

    monkeypatch.setattr(cli, "werner_curves_rows", rows_with_nan)
    out = tmp_path / "w.out"
    assert main(["werner-curves", "--a-steps", "4", "--format", fmt, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: non-finite value in column delta at row 2\n"
    assert not out.exists()


def random_state(seed):
    """A generic (seeded) random state; its discord depends on the phase."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_phase_sensitive_state_in_curves_exits_4(tmp_path, capsys, monkeypatch):
    # a state whose discord depends on the measurement phase at one point of
    # the sweep's one stacked minimization: the message names that point, and
    # the kernel's prefix its position in the stack of all 2 x 5 states
    real = cli.werner_stack

    def stack(family, a, p):
        rhos = real(family, a, p)
        if p.mean_photon == 5.0:
            rhos[3] = random_state(7)  # a = 0.75
        return rhos

    monkeypatch.setattr(cli, "werner_stack", stack)
    out = tmp_path / "qc.csv"
    argv = ["quasi-curves", "--alpha2", "1", "--alpha2", "5", "--a-steps", "5", "--out", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: numerical failure at |alpha|^2 = 5, a = 0.75: state 8: discord varies")
    assert not out.exists()


def failing_eigvalsh(monkeypatch, marker):
    """Make np.linalg.eigvalsh raise LinAlgError on any stack that holds marker."""
    real = np.linalg.eigvalsh

    def eigvalsh(m):
        if m.shape[-2:] == marker.shape and np.all(m == marker, axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


def replace_state(monkeypatch, mean_photon, state, k=-1):
    """Put state in place of the state at a index k (the last by default) of cli.werner_stack at mean_photon."""
    real = cli.werner_stack

    def stack(family, a, p):
        rhos = real(family, a, p)
        if p.mean_photon == mean_photon:
            rhos[k] = state
        return rhos

    monkeypatch.setattr(cli, "werner_stack", stack)


CURVES_ARGV = ["quasi-curves", "--alpha2", "0.5", "--alpha2", "2", "--alpha2", "5", "--a-min", "0.1", "--a-max", "0.9",
               "--a-steps", "3"]


def test_linalg_failure_in_curves_exits_4(tmp_path, capsys, monkeypatch):
    # the eigensolver fails on the last state of the last mean photon number,
    # position 8 of the sweep's one stack: the message names its point
    marker = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    replace_state(monkeypatch, 5.0, marker)
    failing_eigvalsh(monkeypatch, marker)
    out = tmp_path / "qc.csv"
    assert main([*CURVES_ARGV, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: numerical failure at |alpha|^2 = 5, a = 0.9: Eigenvalues did not converge\n"
    assert not out.exists()


def test_entropy_clamp_failure_in_curves_exits_4(tmp_path, capsys, monkeypatch):
    # the reduced X state of the last state of the last mean photon number has
    # the eigenvalue -1.8e-10: the stacked entropy's clamp fails at position 8
    eps = 0.9e-10
    replace_state(monkeypatch, 5.0, np.diag([-eps, -eps, 0.5 + eps, 0.5 + eps]).astype(complex))
    out = tmp_path / "qc.csv"
    assert main([*CURVES_ARGV, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: numerical failure at |alpha|^2 = 5, a = 0.9: state 8: eigenvalue -1.8")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, where",
    [
        (CURVES_ARGV, "|alpha|^2 in [0.5, 5], a in [0.1, 0.9]"),
        (["quasi-curves", "--alpha2", "0.5", "--alpha2", "2", "--a-min", "0.3", "--a-max", "0.3", "--a-steps", "1"],
         "|alpha|^2 in [0.5, 2], a = 0.3"),
        (["quasi-curves", "--alpha2", "2", "--a-steps", "3"], "|alpha|^2 = 2, a in [0, 1]"),
        (["quasi-curves", "--alpha2", "2", "--a-min", "0.3", "--a-max", "0.3", "--a-steps", "1"],
         "|alpha|^2 = 2, a = 0.3"),
    ],
)
def test_failure_without_index_names_the_ranges(tmp_path, capsys, monkeypatch, argv, where):
    # an error that names no state: the message names the ranges the stack
    # covers, or the point itself for a one-state stack
    def discord_min_ranges(rhos):
        raise cli.NumericalIntegrityError("minimizer failed")

    monkeypatch.setattr(cli, "discord_min_ranges", discord_min_ranges)
    out = tmp_path / "qc.csv"
    assert main([*argv, "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"error: numerical failure at {where}: minimizer failed\n"
    assert not out.exists()


def test_linalg_failure_in_surface_exits_4(tmp_path, capsys, monkeypatch):
    # the eigensolver fails on the state at a = 0.5, position 2 of the stacked
    # call: the batched LinAlgError names no matrix, so the failing one is
    # found state by state and the message names its a
    marker = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    real_stack = cli.werner_stack

    def stack(family, a, p):
        rhos = real_stack(family, a, p)
        rhos[2] = marker  # a = 0.5
        return rhos

    monkeypatch.setattr(cli, "werner_stack", stack)
    failing_eigvalsh(monkeypatch, marker)
    out = tmp_path / "qs.csv"
    assert main(["quasi-surface", "--alpha2", "2", "--a-steps", "5", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: numerical failure at |alpha|^2 = 2, a = 0.5: Eigenvalues did not converge\n"
    assert not out.exists()


def test_entropy_clamp_failure_in_surface_exits_4(tmp_path, capsys, monkeypatch):
    # a valid state (min eigenvalue -0.9e-10, inside the clamp tolerance)
    # whose reduced X state has the eigenvalue -1.8e-10: the stacked entropy's
    # clamp fails at position 2 and the message names that state's a
    eps = 0.9e-10
    bad = np.diag([-eps, -eps, 0.5 + eps, 0.5 + eps]).astype(complex)
    real = cli.werner_stack

    def stack(family, a, p):
        rhos = real(family, a, p)
        rhos[2] = bad  # a = 0.5
        return rhos

    monkeypatch.setattr(cli, "werner_stack", stack)
    out = tmp_path / "qs.csv"
    assert main(["quasi-surface", "--alpha2", "2", "--a-steps", "5", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: numerical failure at |alpha|^2 = 2, a = 0.5: state 2: eigenvalue -1.8")
    assert err.endswith(" below -1e-10\n")
    assert not out.exists()


def test_surface_makes_one_pipeline_call(tmp_path, monkeypatch):
    # every (|alpha|^2, a) state of the sweep goes through one stacked call
    calls = []
    real = cli.discord_profile_ranges

    def discord_profile_ranges(rhos, thetas):
        calls.append(len(rhos))
        return real(rhos, thetas)

    monkeypatch.setattr(cli, "discord_profile_ranges", discord_profile_ranges)
    out = tmp_path / "qs.csv"
    argv = ["quasi-surface", "--alpha2", "1", "--alpha2", "2", "--a-steps", "5", "--theta-steps", "5", "--out", str(out)]
    assert main(argv) == 0
    assert calls == [2 * 5]


SURFACE_ARGV = ["quasi-surface", "--alpha2", "1", "--alpha2", "2", "--a-steps", "5", "--theta-steps", "5"]


def in_a_workers_range(monkeypatch):
    """Blocks of 7 rows on 2 CPUs: of SURFACE_ARGV's 50 rows, this process writes 0-24 and a worker 25-49.

    The state at |alpha|^2 = 2, a = 0.5 (position 7 of the sweep's one stack)
    has rows 35-39, in the worker's range.  The stack's checks and
    eigensolves run before the writer forks, so a failure there gives the
    line that one process prints.
    """
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 7)
    monkeypatch.setattr(cli, "MIN_RANGE_ROWS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)


def assert_no_file_or_worker_left(directory):
    assert list(directory.iterdir()) == []
    assert_no_worker_left()


def test_linalg_failure_in_a_surface_of_two_mean_photons_exits_4(tmp_path, capsys, monkeypatch):
    # the eigensolver fails on the state at |alpha|^2 = 2, a = 0.5, position 7 of the sweep's one stack
    in_a_workers_range(monkeypatch)
    marker = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    replace_state(monkeypatch, 2.0, marker, 2)
    failing_eigvalsh(monkeypatch, marker)
    assert main([*SURFACE_ARGV, "--out", str(tmp_path / "qs.csv")]) == 4
    err = capsys.readouterr().err
    assert err == "error: numerical failure at |alpha|^2 = 2, a = 0.5: Eigenvalues did not converge\n"
    assert_no_file_or_worker_left(tmp_path)


def test_entropy_clamp_failure_in_a_surface_of_two_mean_photons_exits_4(tmp_path, capsys, monkeypatch):
    # the reduced X state of the state at |alpha|^2 = 2, a = 0.5 has the
    # eigenvalue -1.8e-10: the kernel's prefix is its position in the whole stack
    in_a_workers_range(monkeypatch)
    eps = 0.9e-10
    replace_state(monkeypatch, 2.0, np.diag([-eps, -eps, 0.5 + eps, 0.5 + eps]).astype(complex), 2)
    assert main([*SURFACE_ARGV, "--out", str(tmp_path / "qs.csv")]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: numerical failure at |alpha|^2 = 2, a = 0.5: state 7: eigenvalue -1.8")
    assert err.endswith(" below -1e-10\n")
    assert_no_file_or_worker_left(tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad, message", [
    # only the worker's range (rows 1-2) holds a non-finite value
    ({("b", 2)}, "non-finite value in column b at row 2"),
    # both ranges hold one: this process's range (row 0) is joined first, so
    # its column c is named, though column b comes first in the file's order
    ({("b", 2), ("c", 0)}, "non-finite value in column c at row 0"),
])
def test_non_finite_value_in_a_workers_range(tmp_path, monkeypatch, fmt, bad, message):
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 1)
    monkeypatch.setattr(cli, "MIN_RANGE_ROWS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    columns = {"b": [1.0, 2.0, 3.0], "c": [4.0, 5.0, 6.0]}
    for column, row in bad:
        columns[column][row] = math.nan
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_rows(str(out), fmt, ["a", "b", "c"], cli.Table([[0.0, 0.5, 1.0]], cli._sliced(*columns.values())))
    assert_no_file_or_worker_left(tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_value_is_reported_by_block_then_column(tmp_path, monkeypatch, fmt):
    # one range in blocks of 2 rows: row 1's block is computed first, so its
    # column c is named, though column b comes first in the file's order
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 2)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    b, c = np.ones(4), np.ones(4)
    b[3] = c[1] = math.nan
    with pytest.raises(ValueError, match="^non-finite value in column c at row 1$"):
        write_rows(str(tmp_path / "out"), fmt, ["a", "b", "c"], cli.Table([np.arange(4.0)], cli._sliced(b, c)))
    assert_no_file_or_worker_left(tmp_path)


def test_each_block_is_one_values_call(tmp_path, monkeypatch):
    # one CPU, blocks of 7: the writer computes each block's rows as it writes them
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 7)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    calls, values = [], cli._sliced(np.arange(50.0))

    def recorded(lo, hi):
        calls.append((lo, hi))
        return values(lo, hi)

    write_rows(str(tmp_path / "out.csv"), "csv", ["a", "v"], cli.Table([np.arange(50.0)], recorded))
    assert calls == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 35), (35, 42), (42, 49), (49, 50)]


def test_each_surface_line_is_computed_once(tmp_path, monkeypatch):
    # one CPU, text slices of 2 rows: each theta line of 5 rows is computed by
    # one values call and written in 3 slices
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 2)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    a_values, zurek_discord = [], cli.zurek_discord

    def recorded_zurek(a, theta):
        a_values.append(len(a))
        return zurek_discord(a, theta)

    monkeypatch.setattr(cli, "zurek_discord", recorded_zurek)
    assert main(["zurek-surface", "--a-steps", "3", "--theta-steps", "5", "--out", str(tmp_path / "z.csv")]) == 0
    assert sum(a_values) == 3

    # the state ranges measured tile the 2 x 3 states of the stack, none twice
    ranges, discord_profile_ranges = [], cli.discord_profile_ranges

    def recorded_profile_ranges(rhos, thetas):
        profile = discord_profile_ranges(rhos, thetas)

        def values(lo, hi):
            ranges.append((lo, hi))
            return profile(lo, hi)

        return values

    monkeypatch.setattr(cli, "discord_profile_ranges", recorded_profile_ranges)
    argv = ["quasi-surface", "--alpha2", "1", "--alpha2", "2", "--a-steps", "3", "--theta-steps", "5"]
    assert main([*argv, "--out", str(tmp_path / "qs.csv")]) == 0
    assert [k for lo, hi in ranges for k in range(lo, hi)] == list(range(2 * 3))


SPLIT_SURFACES = [
    # 5 x 5 states of 7 thetas in text slices of 4 rows: each block is one
    # theta line, written in 2 slices, the first ending inside the line; the
    # ranges of 2 and 3 CPUs begin at rows 84, and 56 and 112, between lines;
    # [56, 112) reaches from the second mean photon number across the third into the fourth
    (["quasi-surface", *(f"--alpha2={mp}" for mp in (0.5, 1, 2, 3, 5)), "--a-steps", "5", "--theta-steps", "7"], 4),
    # 5 lines of 7 thetas in text slices of 3 rows: ranges begin at rows 14, and 7 and 21
    (["zurek-surface", "--a-steps", "5", "--theta-steps", "7"], 3),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, block_rows", SPLIT_SURFACES)
def test_surface_text_slices_cut_inside_a_theta_row_write_the_same_bytes(tmp_path, monkeypatch, fmt, argv, block_rows):
    # each process computes the lines of its own range, one line per block,
    # and writes each in slices; the reference is the same command on one
    # CPU, which computes every row in this process in blocks of whole lines
    def written(cpus):
        out = tmp_path / f"{cpus}.{fmt}"
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_cpu_count", lambda: cpus)
            if cpus > 1:
                mp.setattr(cli, "WRITE_BLOCK_ROWS", block_rows)
                mp.setattr(cli, "MIN_RANGE_ROWS", 1)
            assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        return out.read_bytes()

    reference = written(1)
    for cpus in (2, 3):
        assert written(cpus) == reference
    assert_no_worker_left()


CURVES_SPLIT_ARGV = ["quasi-curves", "--alpha2", "0.5", "--alpha2", "2", "--alpha2", "5", "--a-steps", "5"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_curves_ranges_write_the_same_bytes(tmp_path, monkeypatch, fmt):
    # each process minimizes the states of its own range of rows: 15 rows in
    # blocks of 4, ranges beginning at rows 7, and 5 and 10; the reference is
    # the same command on one CPU, which minimizes every state in this
    # process.  psi- states have the other zero pattern (rho_14 = 0, where
    # psi+ has rho_23 = 0) and a profile flat in theta, whose grid minimum
    # rests on last-bit differences and ties.  No process builds a
    # DiscordResult: the rows are the minimizer's arrays
    def written(cpus, family):
        out = tmp_path / f"{family}-{cpus}.{fmt}"
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_cpu_count", lambda: cpus)
            mp.setattr(discord, "DiscordResult", no_discord_result)
            if cpus > 1:
                mp.setattr(cli, "WRITE_BLOCK_ROWS", 4)
                mp.setattr(cli, "MIN_RANGE_ROWS", 1)
            assert main([*CURVES_SPLIT_ARGV, "--family", family, "--format", fmt, "--out", str(out)]) == 0
        return out.read_bytes()

    for family in ("psi+", "psi-"):
        reference = written(1, family)
        for cpus in (2, 3):
            assert written(cpus, family) == reference
    assert_no_worker_left()


@pytest.mark.parametrize("index, where", [
    (None, "|alpha|^2 in [0.5, 5], a in [0, 1]"),
    # the state at |alpha|^2 = 5, a = 0.25, position 11 of the sweep's one stack
    (11, "|alpha|^2 = 5, a = 0.25"),
])
@pytest.mark.parametrize("cpus", [1, 2])
def test_failure_in_a_minimization_range_exits_4(tmp_path, capsys, monkeypatch, index, where, cpus):
    # the range that holds position 11 fails, in this process (1 CPU) or in a
    # worker (2 CPUs: this process minimizes states 0-6, the worker 7-14),
    # whose error comes back through its pipe: the same line either way
    real = cli.discord_min_ranges

    def discord_min_ranges(rhos):
        minimize = real(rhos)

        def failing(lo, hi):
            if lo <= 11 < hi:
                raise cli.NumericalIntegrityError("minimizer failed", index=index)
            return minimize(lo, hi)

        return failing

    monkeypatch.setattr(cli, "discord_min_ranges", discord_min_ranges)
    monkeypatch.setattr(cli, "MIN_RANGE_ROWS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    assert main([*CURVES_SPLIT_ARGV, "--out", str(tmp_path / "qc.csv")]) == 4
    assert capsys.readouterr().err == f"error: numerical failure at {where}: minimizer failed\n"
    assert_no_file_or_worker_left(tmp_path)


@pytest.mark.parametrize("argv, workers", [(["quasi-curves"], 1), (["werner-curves"], 0)])
def test_default_curves_fork_only_for_the_minimization(tmp_path, monkeypatch, argv, workers):
    # on 2 CPUs the default quasi-curves grid (808 rows) is minimized in two
    # ranges; the default werner-curves grid (101 rows) is closed forms and
    # is written without a fork
    forks = []
    real = cli._fork_writer

    def fork_writer(part, rows, starts, layout):
        forks.append((starts.start, starts.stop))
        return real(part, rows, starts, layout)

    monkeypatch.setattr(cli, "_fork_writer", fork_writer)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert forks == [(404, 808)] * workers
    assert_no_worker_left()


def test_a_sweep_imports_neither_verify_nor_signal():
    # run_verify and _stop_writers import them where they are needed, so
    # starting a sweep compiles and imports neither
    code = "import sys, ecswerner.cli; print(sorted({'ecswerner.verify', 'signal'} & set(sys.modules)))"
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") >= 14
    assert "FAIL" not in out
    # the two adjudicated conventions stay visible, with the rejected readings' size
    assert "-2" in out and "rejected" in out
    assert "sqrt(d1*d4)" in out


@pytest.mark.parametrize("command", ["werner-curves", "quasi-curves", "quasi-surface --family psi-"])
def test_curves_build_no_theta_grid(tmp_path, monkeypatch, command):
    # the curves read no theta grid, so a theta count too large to allocate
    # is no reason to stop them; it is never allocated, also where
    # quasi-surface writes the werner-curves table
    real = np.linspace

    def linspace(start, stop, num, **kwargs):
        if num > 10**6:
            raise MemoryError
        return real(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", linspace)
    out = tmp_path / "c.csv"
    argv = [*command.split(), "--alpha2", "1", "--a-steps", "3", "--theta-steps", str(10**12), "--out", str(out)]
    assert main(argv) == 0
    assert len(read_csv(out)[1]) == 3


# the settings each command reads, a valid change of each and an invalid
# value; a command reads a setting when changing it changes the output
READ_SETTINGS = {
    "zurek-surface": {"a_min", "a_max", "a_steps", "theta_steps"},
    "quasi-surface": {"a_min", "a_max", "a_steps", "theta_steps", "alpha2", "family"},
    "werner-curves": {"a_min", "a_max", "a_steps"},
    "quasi-curves": {"a_min", "a_max", "a_steps", "alpha2", "family"},
    # the werner-curves table, which reads no theta grid and no mean photon number
    "quasi-surface --family psi-": {"a_min", "a_max", "a_steps", "family"},
}
SETTING_CHANGES = {
    "a_min": ("0.25", "0.5", "-1"),
    "a_max": ("0.75", "1", "2"),
    "a_steps": ("3", "2", "0"),
    "theta_steps": ("4", "5", "0"),
    "alpha2": ("1", "2", "0.0001"),
    "family": ("psi+", "psi-", "nope"),
}


@pytest.mark.parametrize("command", READ_SETTINGS)
def test_each_command_reads_exactly_its_settings(tmp_path, command):
    # changing one setting at a time changes the output bytes exactly for
    # the settings the command reads; an invalid value of a setting it does
    # not read still exits 2
    argv, reads = command.split(), READ_SETTINGS[command]
    base = {key: value for key, (value, _, _) in SETTING_CHANGES.items()}
    base.update((flag[2:], value) for flag, value in zip(argv[1::2], argv[2::2]))

    def output(**changed):
        out = tmp_path / "out.csv"
        flags = [text for key, value in {**base, **changed}.items() for text in ("--" + key.replace("_", "-"), value)]
        code = main([argv[0], *flags, "--out", str(out)])
        return code, out.read_bytes() if code == 0 else None

    code, reference = output()
    assert code == 0
    for key, (value, other, invalid) in SETTING_CHANGES.items():
        # the one setting changed to its other valid value, psi+ and psi- swapped
        changed = output(**{key: value if base[key] == other else other})
        assert (changed[1] != reference) == (key in reads), key
        if key not in reads:
            assert output(**{key: invalid}) == (2, None), key


# the CLI boundary as a grammar: each setting's valid and invalid texts (a
# valid a_min never exceeds a valid a_max, and the step counts stay small),
# then what else argv or a config file can hold
BOUNDARY_TEXTS = {
    "a_min": (["0", "0.25", "0.5"], ["-0.5", "1.5", "nan", "low", ""]),
    "a_max": (["0.5", "0.75", "1"], ["2", "inf", "1.0.0"]),
    "a_steps": (["1", "3", "5"], ["0", "-2", "2.5", "1e3", "x"]),
    "theta_steps": (["1", "4"], ["0", "1e3", "many"]),
    "alpha2": (["0.5", "2", "0.01"], ["1e-4", "nan", "-1", "two", ""]),
    "family": (["psi+", "psi-", "phi+", "phi-"], ["nope", "PSI+"]),
    "format": (["csv", "json"], ["xml", ""]),
    # a missing parent directory passes the checks, and fails the write
    "out": (["out.csv", "sub/out.json", "missing/out.csv"], ["", ".", "sub", "sub/"]),
}
BOUNDARY_EXTRAS = [
    "comment", "hyphenated key", "unknown key", "no equals", "bad encoding", "missing config", "unknown flag",
    "no value",
]
SWEEPS = ["zurek-surface", "quasi-surface", "werner-curves", "quasi-curves"]
ROW_GENERATORS = [command.replace("-", "_") + "_rows" for command in SWEEPS]


@st.composite
def boundary_inputs(draw):
    """argv, the config file's bytes (None: no --config) and the extras drawn."""
    command = draw(st.sampled_from([*SWEEPS, "nope", None]))
    broken = draw(st.sets(st.sampled_from(sorted(BOUNDARY_TEXTS)), max_size=1))
    argv, lines = [command] if command else [], []
    for key, (valid, invalid) in BOUNDARY_TEXTS.items():
        # the step counts and alpha2 are always set, so no sweep runs on the default grid
        small = key in ("a_steps", "theta_steps", "alpha2")
        for source in draw(st.lists(st.sampled_from(["flag", "config"]), min_size=small, max_size=2)):
            text = draw(st.sampled_from(invalid if key in broken else valid))
            if source == "flag":
                argv += ["--" + key.replace("_", "-"), text]
            else:
                lines.append(f"{key} = {text}")
    extras = draw(st.sets(st.sampled_from(BOUNDARY_EXTRAS), max_size=1))
    extra_lines = {"comment": "# a comment", "hyphenated key": "a-min = 0  # trailing",
                   "unknown key": "unknown_key = 3", "no equals": "a_steps 3"}
    lines += [extra_lines[e] for e in sorted(extras) if e in extra_lines]
    config = None
    if lines or "bad encoding" in extras:
        config = "\n".join(lines).encode("utf-8") + (b"\nfamily = \xff\n" if "bad encoding" in extras else b"\n")
        argv += ["--config", "sweep.cfg"]
    if "missing config" in extras:
        argv += ["--config", "missing/sweep.cfg"]
    if "unknown flag" in extras:
        argv.append("--no-such-flag")
    if "no value" in extras:
        argv.append("--a-steps")
    return argv, config


@settings(max_examples=60, deadline=None)
@given(boundary_inputs())
def test_every_cli_input_exits_with_one_line(inputs):
    # whatever argv and config file, main exits 0, 2, 3 or 4; a failure
    # prints one error line and no traceback, an exit 2 computes no row,
    # no temporary or part file is left, and a success writes the rows it
    # reports
    argv, config = inputs
    with tempfile.TemporaryDirectory() as outer, pytest.MonkeyPatch.context() as mp:
        work = Path(outer) / "work"
        (work / "sub").mkdir(parents=True)
        if config is not None:
            (work / "sweep.cfg").write_bytes(config)
        mp.chdir(work)
        mp.setattr(cli, "_cpu_count", lambda: 1)
        called = []

        def recorded(real):
            def generator(cfg):
                called.append(real)
                return real(cfg)

            return generator

        for name in ROW_GENERATORS:
            mp.setattr(cli, name, recorded(getattr(cli, name)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        lines = err.getvalue().splitlines()
        # quasi-surface with psi- or phi- notes that it writes werner-curves output
        notes = [line for line in lines if line.startswith("note: ")]
        assert len(notes) <= 1 and (not notes or argv[0] == "quasi-surface")
        errors = lines[len(notes) :]
        assert len(errors) == (1 if code else 0) and all(line.startswith("error: ") for line in errors)
        if code == 2:
            assert called == []
        assert not list(Path(outer).rglob(".*.tmp*"))
        if code == 0:
            count, path = re.fullmatch(r"wrote (\d+) rows to (.+)\n", out.getvalue()).groups()
            text = Path(path).read_text(encoding="utf-8")
            rows = len(json.loads(text)) if text.startswith("[") else text.count("\n") - 1
            assert int(count) == rows
