import hashlib
import json
import math

import numpy as np
import pytest

from ecswerner import cli
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


# sha256 of small sweeps and of the default-grid quasi-curves output; any
# change to the measurement pipeline, the minimizer, the closed forms or the
# writer that moves one output byte changes them
SMALL_GRID = ["--alpha2", "0.01", "--alpha2", "1", "--alpha2", "5", "--a-steps", "11"]
GOLDEN_SHA256 = {
    "quasi-surface": (
        ["quasi-surface", *SMALL_GRID, "--theta-steps", "37"],
        "532af1b98e43f49e09c9b15176f5f330274f8521c0e76864c81e6c4a9b7755a7",
    ),
    "quasi-curves": (
        ["quasi-curves", *SMALL_GRID],
        "5974db0c9e9bc4e0112f4a1cd5fc85c59f33b6e39449cac966c1c9fbae805eae",
    ),
    "quasi-curves-default-grid": (
        ["quasi-curves"],
        "8d50f2e25d177720476df71c26b24332e4181872c58c9b9e72105f9ddb26ce32",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_is_byte_identical_to_golden(tmp_path, name):
    argv, digest = GOLDEN_SHA256[name]
    out = tmp_path / "golden.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["werner-curves", "--a-steps", "3"]) == 0
    assert (tmp_path / "werner_curves.csv").exists()


def test_bad_arguments_exit_2(tmp_path):
    assert main(["zurek-surface", "--a-min", "0.9", "--a-max", "0.1"]) == 2
    assert main(["quasi-surface", "--alpha2", "1e-5"]) == 2
    assert main(["quasi-surface", "--family", "nope"]) == 2  # argparse choice
    assert main(["no-such-command"]) == 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("unknown_key = 3\n", encoding="utf-8")
    assert main(["werner-curves", "--config", str(bad_cfg)]) == 2
    missing = tmp_path / "missing.cfg"
    assert main(["werner-curves", "--config", str(missing)]) == 2


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


def test_unwritable_path_exits_3(tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    assert main(["werner-curves", "--a-steps", "3", "--out", target]) == 3
    assert target in capsys.readouterr().err


def test_failed_write_keeps_existing_output(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("old contents\n", encoding="utf-8")

    def rows():
        yield (0.0, 1.0)
        raise OSError("disk full")

    for fmt in ("csv", "json"):
        with pytest.raises(OSError, match="disk full"):
            write_rows(str(out), fmt, ["a", "b"], rows())
        assert out.read_text(encoding="utf-8") == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_replaces_existing_output(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("old contents\n", encoding="utf-8")
    write_rows(str(out), "csv", ["a", "b"], [(0.5, 1)])
    assert out.read_text(encoding="utf-8") == "a,b\n0.5,1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def random_state(seed):
    """A generic (seeded) random state; its discord depends on the phase."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_phase_sensitive_state_in_curves_exits_4(tmp_path, capsys, monkeypatch):
    # a state whose discord depends on the measurement phase at one point of
    # the stacked minimization: the message names that point
    real = cli.werner_density

    def density(spec):
        return random_state(7) if spec.mixing == 0.75 and spec.params.mean_photon == 5.0 else real(spec)

    monkeypatch.setattr(cli, "werner_density", density)
    out = tmp_path / "qc.csv"
    argv = ["quasi-curves", "--alpha2", "1", "--alpha2", "5", "--a-steps", "5", "--out", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: numerical failure at |alpha|^2 = 5, a = 0.75: state 3: discord varies")
    assert not out.exists()


def test_linalg_failure_in_surface_exits_4(tmp_path, capsys, monkeypatch):
    def failing_profile(rho, thetas):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "discord_profile", failing_profile)
    out = tmp_path / "qs.csv"
    assert main(["quasi-surface", "--alpha2", "2", "--a-steps", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: numerical failure at |alpha|^2 = 2, a = 0: Eigenvalues did not converge\n"
    assert not out.exists()


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") >= 14
    assert "FAIL" not in out
    # the two adjudicated conventions stay visible, with the rejected readings' size
    assert "-2" in out and "rejected" in out
    assert "sqrt(d1*d4)" in out
