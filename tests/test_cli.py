"""Tests for the command-line interface."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codedcache
from codedcache.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().split("\n"):
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def write_counts(tmp_path, rows, name="counts.csv"):
    path = tmp_path / name
    path.write_text("".join(f"{i},{c}\n" for i, c in rows))
    return path


# --- simulate ---------------------------------------------------------------

def test_simulate_writes_expected_rows(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, err = run(
        capsys,
        "simulate", "--n", "4", "--k", "4", "--m", "1", "--dist", "zipf:1",
        "--policies", "tracking,oracle", "--horizon", "100", "--trials", "10",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0 and err == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("t,policy,")
    assert len(lines) == 2 + 200


def test_simulate_stdout_and_determinism(capsys):
    argv = (
        "simulate", "--n", "3", "--k", "2", "--m", "1", "--dist", "zipf:0.5",
        "--policies", "tracking", "--horizon", "5", "--trials", "2", "--seed", "7",
    )
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "dist=zipf:0.5" in out_a


def test_simulate_lfu_fractional_cache_usage_error(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--n", "4", "--k", "2", "--m", "1.5", "--dist", "zipf:1",
        "--policies", "lfu", "--horizon", "2", "--trials", "1",
    )
    assert code == 2
    assert "integer cache size" in err


def test_simulate_cap_exit_code(capsys):
    # 30 users was above the 20-user subset cap that once made this exit 3
    code, out, err = run(
        capsys,
        "simulate", "--n", "2", "--k", "30", "--m", "1", "--dist", "zipf:1",
        "--policies", "tracking", "--horizon", "2", "--trials", "1",
        "--rate-mode", "bitlevel",
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[1].startswith("t,policy,")
    assert len(lines) == 2 + 2


def test_simulate_group_above_mask_limit_exit_code(capsys):
    # a coded group past the 63 members of one holder-mask word runs, and
    # reruns byte for byte
    argv = (
        "simulate", "--n", "2", "--k", "64", "--m", "1", "--f", "4", "--dist", "zipf:1",
        "--policies", "uniform", "--horizon", "1", "--trials", "1",
        "--rate-mode", "bitlevel",
    )
    code_a, out_a, err_a = run(capsys, *argv)
    code_b, out_b, err_b = run(capsys, *argv)
    assert code_a == code_b == 0 and err_a == err_b == ""
    assert out_a == out_b
    lines = out_a.strip().split("\n")
    assert lines[1].startswith("t,policy,")
    assert len(lines) == 2 + 1


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about a second of start-up and only the bounds report needs it
    src = str(Path(codedcache.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, codedcache.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_simulate_lbpair_dist(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    code, _, _ = run(
        capsys,
        "simulate", "--n", "4", "--k", "5", "--m", "1", "--dist", "lbpair:6,12",
        "--policies", "oracle", "--horizon", "3", "--trials", "2", "--out", str(out),
    )
    assert code == 0
    assert "dist=lbpair:6,12" in out.read_text()


def test_simulate_unknown_dist(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--n", "4", "--k", "2", "--m", "1", "--dist", "pareto:2",
        "--policies", "tracking", "--horizon", "2", "--trials", "1",
    )
    assert code == 2 and "unknown distribution spec" in err


def test_simulate_non_finite_dist_usage_error(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--n", "4", "--k", "2", "--m", "1", "--dist", "zipf:nan",
        "--policies", "tracking", "--horizon", "2", "--trials", "1",
        "--reference", "paired",
    )
    assert code == 2 and "finite" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "n=3\nk=2\nm=1\ndist=zipf:1\npolicies=tracking\n"
        "horizon=4\ntrials=2\nseed=5\n"
    )
    code_a, out_a, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code_a == 0 and "seed=5" in out_a
    code_b, out_b, _ = run(capsys, "simulate", "--config", str(cfg), "--seed", "9")
    assert code_b == 0 and "seed=9" in out_b
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    code_c, _, err = run(capsys, "simulate", "--config", str(bad))
    assert code_c == 2 and "bad config line" in err


# --- bounds -----------------------------------------------------------------

def test_bounds_worked_instance(tmp_path, capsys):
    counts = write_counts(tmp_path, [(0, 40), (1, 35), (2, 15), (3, 10)])
    code, out, _ = run(
        capsys,
        "bounds", "--n", "4", "--k", "4", "--m", "1",
        "--dist", f"counts:{counts}",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert float(pairs["oracle_rate_upper"]) == pytest.approx(2.0, abs=1e-6)
    assert float(pairs["oracle_rate_lower"]) == pytest.approx(1 / 29, abs=1e-6)
    assert float(pairs["chernoff_route"]) == pytest.approx(247.845, abs=1e-2)
    assert float(pairs["dkw_route"]) == pytest.approx(396.552, abs=1e-2)
    assert float(pairs["regret_bound"]) == pytest.approx(250.810, abs=1e-2)
    assert float(pairs["switch_bound"]) >= 1.0


def test_bounds_upper_reference(tmp_path, capsys):
    counts = write_counts(tmp_path, [(0, 40), (1, 35), (2, 15), (3, 10)])
    code, out, _ = run(
        capsys,
        "bounds", "--n", "4", "--k", "4", "--m", "1",
        "--dist", f"counts:{counts}", "--reference", "upper",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert float(pairs["reference_rate"]) == pytest.approx(2.0, abs=1e-6)
    assert float(pairs["chernoff_route"]) == pytest.approx(
        2.5 * 2.0 / 0.04, abs=1e-2
    )


def test_bounds_degenerate_exit_code(capsys):
    # uniform over 4 files with K=4, M=1 puts every file on the threshold
    code, _, err = run(
        capsys, "bounds", "--n", "4", "--k", "4", "--m", "1", "--dist", "zipf:0",
    )
    assert code == 4
    assert "equals the threshold" in err


def test_bounds_non_finite_counts_usage_error(tmp_path, capsys):
    counts = write_counts(tmp_path, [(0, "nan")])
    code, out, err = run(
        capsys, "bounds", "--n", "1", "--k", "1", "--m", "1", "--dist", f"counts:{counts}",
    )
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("command", [
    ("bounds", "--dist", "zipf:1"),
    ("lowerbound", "--a", "6", "--b", "12"),
])
def test_bounds_commands_take_no_subpacket_flag(capsys, command):
    # no bound reads the subpacket count, so only simulate takes --f
    with pytest.raises(SystemExit) as exc:
        main([*command, "--n", "4", "--k", "5", "--m", "1", "--f", "100"])
    assert exc.value.code == 2
    assert "--f" in capsys.readouterr().err


def test_bounds_output_stable(capsys):
    argv = ("bounds", "--n", "4", "--k", "4", "--m", "1", "--dist", "zipf:1")
    _, out_a, _ = run(capsys, *argv)
    _, out_b, _ = run(capsys, *argv)
    assert out_a == out_b


# --- lowerbound ---------------------------------------------------------------

def test_lowerbound_report_and_verify(capsys):
    code, out, _ = run(
        capsys,
        "lowerbound", "--n", "4", "--k", "5", "--m", "1",
        "--a", "6", "--b", "12", "--verify",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert float(pairs["bound"]) == pytest.approx(1 / (4 * math.log(2)), abs=1e-5)
    assert float(pairs["gap"]) == pytest.approx(1 / 3, abs=1e-6)
    assert float(pairs["kl_per_slot"]) == pytest.approx(0.231049, abs=1e-5)
    assert float(pairs["oracle_rate"]) == pytest.approx(8 / 3, abs=1e-4)
    assert pairs["verify"] == "PASS"


def test_lowerbound_invalid_pair(capsys):
    code, _, err = run(
        capsys,
        "lowerbound", "--n", "4", "--k", "5", "--m", "1", "--a", "6", "--b", "13",
    )
    assert code == 2 and "1/a + 1/b" in err


def test_lowerbound_verify_sixteen_files(capsys):
    # a = N/0.75, b = N/0.25 keeps 1/a + 1/b = 1/N exact
    code, out, _ = run(
        capsys,
        "lowerbound", "--n", "16", "--k", "12", "--m", "2",
        "--a", str(16 / 0.75), "--b", "64", "--verify",
    )
    assert code == 0
    assert parse_kv(out)["verify"] == "PASS"


# --- verify-decode ------------------------------------------------------------

def test_verify_decode_pass(capsys):
    code, out, _ = run(capsys, "verify-decode", "--trials", "60", "--seed", "4")
    assert code == 0
    assert "failures=0" in out and "decode=PASS" in out


def test_verify_decode_corrupt_negative_control(capsys):
    code, out, _ = run(
        capsys, "verify-decode", "--trials", "60", "--seed", "4", "--corrupt"
    )
    assert code == 0
    assert "corrupt-control=PASS" in out


def test_verify_decode_zero_trials(capsys):
    code, out, _ = run(capsys, "verify-decode", "--trials", "0")
    assert code == 0 and "trials=0" in out


# --- ingest -------------------------------------------------------------------

def test_ingest_writes_ranked_table(tmp_path, capsys):
    counts = write_counts(tmp_path, [(7, 3), (2, 1)])
    out = tmp_path / "pop.csv"
    code, _, _ = run(capsys, "ingest", "--counts", str(counts), "--out", str(out))
    assert code == 0
    assert out.read_text() == "rank,prob,orig_id\n1,0.75,7\n2,0.25,2\n"


def test_ingest_single_file(tmp_path, capsys):
    counts = write_counts(tmp_path, [(5, 12)])
    out = tmp_path / "pop.csv"
    code, _, _ = run(capsys, "ingest", "--counts", str(counts), "--out", str(out))
    assert code == 0
    assert out.read_text() == "rank,prob,orig_id\n1,1,5\n"


def test_ingest_zero_total(tmp_path, capsys):
    counts = write_counts(tmp_path, [(1, 0), (2, 0)])
    out = tmp_path / "pop.csv"
    code, _, err = run(capsys, "ingest", "--counts", str(counts), "--out", str(out))
    assert code == 2 and "total count is zero" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_ingest_non_finite_count(tmp_path, capsys, bad):
    counts = write_counts(tmp_path, [(0, 0), (1, bad)])
    out = tmp_path / "pop.csv"
    code, _, err = run(capsys, "ingest", "--counts", str(counts), "--out", str(out))
    assert code == 2 and "finite" in err
    assert not out.exists()


def test_ingest_missing_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "ingest", "--counts", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2 and err.startswith("error:")
