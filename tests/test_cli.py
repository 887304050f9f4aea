"""Exit codes, output routing, and flag overrides of the command line."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bdlab.cli import main
from bdlab.harness import RESULT_COLUMNS, parse_results

MARGINAL_CFG = {
    "model": {"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.0},
    "scaling": {"family": "exponential", "k": 1.0},
    "t_grid": [5.0, 8.0],
    "samples": 1,
    "seed": 2026,
    "a": 0.5,
    "eps": 0.1,
}

POISSON_CFG = {
    "model": {"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.0},
    "t_grid": [1.0],
    "samples": 3000,
    "seed": 5,
}

CONSISTENCY_CFG = {
    "model": {"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.0},
    "scaling": {"family": "exponential", "k": 1.0},
    "t_grid": [1.5],
    "samples": 5000,
    "seed": 11,
    "event": {"kind": "terminal_window", "lo": 0.0, "hi": 0.5},
}


def write_cfg(tmp_path, payload, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_marginal_scan_to_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MARGINAL_CFG)
    assert main(["marginal-scan", "--config", cfg]) == 0
    out = capsys.readouterr().out
    table = parse_results(out, "csv")
    assert table.columns == RESULT_COLUMNS
    assert len(table.rows) == 2
    assert all(row[-1] == "exact" for row in table.rows)


def test_out_file_equals_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MARGINAL_CFG)
    target = tmp_path / "res.csv"
    assert main(["marginal-scan", "--config", cfg, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["marginal-scan", "--config", cfg]) == 0
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out


def test_json_format_echoes_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, POISSON_CFG)
    assert main(["poisson-check", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 5
    assert payload["config"]["format"] == "json"
    assert payload["config"]["model"] == POISSON_CFG["model"]
    assert len(payload["rows"]) == 1


def test_seed_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, POISSON_CFG)
    outs = []
    for seed in ("1", "1", "2"):
        assert main(["poisson-check", "--config", cfg, "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_threads_override_is_output_invariant(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONSISTENCY_CFG)
    assert main(["consistency-check", "--config", cfg, "--threads", "0"]) == 0
    serial = capsys.readouterr().out
    assert main(["consistency-check", "--config", cfg, "--threads", "3"]) == 0
    threaded = capsys.readouterr().out
    assert serial == threaded


def test_exit_2_bad_config(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    assert main(["poisson-check", "--config", str(broken)]) == 2
    unknown = write_cfg(tmp_path, dict(POISSON_CFG, typo_key=1), "unknown.json")
    assert main(["poisson-check", "--config", unknown]) == 2
    no_scaling = {k: v for k, v in MARGINAL_CFG.items() if k != "scaling"}
    missing_scaling = write_cfg(tmp_path, no_scaling, "noscale.json")
    assert main(["marginal-scan", "--config", missing_scaling]) == 2
    good = write_cfg(tmp_path, POISSON_CFG, "good.json")
    assert main(["poisson-check", "--config", good, "--threads", "-1"]) == 2
    capsys.readouterr()


def test_exit_3_precondition(tmp_path, capsys):
    bad_regime = write_cfg(
        tmp_path, dict(MARGINAL_CFG, scaling={"family": "poly", "alpha": 1.0})
    )
    assert main(["marginal-scan", "--config", bad_regime]) == 3
    no_exact_law = write_cfg(
        tmp_path,
        dict(POISSON_CFG, model={"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.5}),
        "halfl.json",
    )
    assert main(["poisson-check", "--config", no_exact_law]) == 3
    err = capsys.readouterr().err
    assert "closed-form" in err


def test_exit_4_io_failures(tmp_path, capsys):
    assert main(["poisson-check", "--config", str(tmp_path / "absent.json")]) == 4
    cfg = write_cfg(tmp_path, POISSON_CFG)
    assert (
        main(
            [
                "poisson-check",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "nodir" / "res.csv"),
            ]
        )
        == 4
    )
    capsys.readouterr()


def test_simulate_both_processes(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "model": {"kind": "canonical", "P": 2.0, "Q": 1.0, "l": 0.5},
            "t_grid": [2.0],
            "samples": 1,
            "seed": 3,
        },
    )
    assert main(["simulate", "--config", cfg]) == 0
    xi_rows = parse_results(capsys.readouterr().out, "csv").rows
    assert all(row[2] >= 0 for row in xi_rows)
    assert main(["simulate", "--config", cfg, "--process", "zeta"]) == 0
    zeta_rows = parse_results(capsys.readouterr().out, "csv").rows
    assert xi_rows != zeta_rows
    assert zeta_rows[0] == (2.0, 0.0, 0)


def test_rate_eval_profile_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MARGINAL_CFG)
    ramp = tmp_path / "ramp.json"
    ramp.write_text(
        json.dumps({"mode": "linear", "points": [[0.0, 0.0], [1.0, 1.0]]}),
        encoding="utf-8",
    )
    assert main(["rate-eval", "--config", cfg, "--profile", str(ramp)]) == 0
    table = parse_results(capsys.readouterr().out, "csv")
    assert table.rows == (("EXP", 1.5, 0.5, 1.0),)

    assert main(["rate-eval", "--config", cfg, "--profile", str(tmp_path / "no.json")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["rate-eval", "--config", cfg, "--profile", str(bad)]) == 2
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"mode": "step"}), encoding="utf-8")
    assert main(["rate-eval", "--config", cfg, "--profile", str(malformed)]) == 2
    capsys.readouterr()


NON_NUMERIC_PROFILE = {"mode": "linear", "points": [["0", True], [1.0, "1e0"]]}


def test_profiles_accept_only_finite_numbers(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MARGINAL_CFG)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(NON_NUMERIC_PROFILE), encoding="utf-8")
    assert main(["rate-eval", "--config", cfg, "--profile", str(profile)]) == 2
    for center in ("profile.json", NON_NUMERIC_PROFILE):
        event = {"kind": "neighborhood", "eps": 0.3, "profile": center}
        cfg = write_cfg(tmp_path, dict(CONSISTENCY_CFG, event=event))
        assert main(["consistency-check", "--config", cfg]) == 2
    assert "finite number" in capsys.readouterr().err


def timed_main(argv):
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


def test_marginal_scan_is_fast_and_finite_across_phi(tmp_path, capsys):
    # phi reaches 4.3e15 at T = 36, just below 2**53
    long_grid = write_cfg(tmp_path, dict(MARGINAL_CFG, t_grid=[15.0, 20.0, 30.0, 36.0]))
    superexp = str(Path(__file__).resolve().parents[1] / "configs" / "marginal_superexp.json")
    for cfg in (long_grid, superexp):
        code, elapsed = timed_main(["marginal-scan", "--config", cfg])
        rows = parse_results(capsys.readouterr().out, "csv").rows
        assert code == 0 and elapsed < 1.0
        assert rows and all(math.isfinite(row[3]) and math.isfinite(row[4]) for row in rows)


@pytest.mark.parametrize("T", [40.0, 100.0, 300.0])
@pytest.mark.parametrize("command", ["marginal-scan", "level-cross-scan"])
def test_exact_scans_refuse_states_above_two_to_the_53(tmp_path, capsys, command, T):
    cfg = write_cfg(tmp_path, dict(MARGINAL_CFG, t_grid=[T]))
    code, elapsed = timed_main([command, "--config", cfg])
    assert code == 3 and elapsed < 1.0
    assert "2**53" in capsys.readouterr().err


def test_installed_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, MARGINAL_CFG)
    proc = subprocess.run(
        ["bdlab", "marginal-scan", "--config", cfg],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(RESULT_COLUMNS)
