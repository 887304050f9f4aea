"""Exit codes, output routing, and flag overrides of the command line."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bdlab.cli import _build_parser, _run, main
from bdlab.harness import RESULT_COLUMNS, emit_results, parse_results
from bdlab.rates import ScalingFamily, phi, poisson_mean

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


def test_marginal_scan_refuses_a_window_sum_past_the_term_budget(tmp_path, capsys):
    # the window [0, a(T)] at P = 1e12, Q = 1, T = 50 holds the mode
    scaling = {"family": "exponential", "k": 0.5}
    half = poisson_mean(1e12, 1.0, 50.0) / (2.0 * phi(ScalingFamily.exponential(0.5), 50.0))
    model = {"kind": "canonical", "P": 1e12, "Q": 1.0, "l": 0.0}
    cfg = write_cfg(tmp_path, dict(MARGINAL_CFG, model=model, scaling=scaling,
                                   t_grid=[50.0], a=half, eps=half))
    code, elapsed = timed_main(["marginal-scan", "--config", cfg])
    assert code == 3 and elapsed < 1.0
    assert "terms on one side" in capsys.readouterr().err


def _table_consistency_cfg(tmp_path, states):
    # the canonical P = Q = 1 rates as a table of `states` entries;
    # 8192 samples make two chunks, so --threads 2 uses the process pool
    entries = [[1.0, float(x)] for x in range(states)]
    model = {"kind": "table", "entries": entries}
    return write_cfg(tmp_path, dict(CONSISTENCY_CFG, model=model, samples=8192), f"t{states}.json")


def test_pooled_run_exits_when_done_or_refused(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    for states, code in ((3, 3), (60, 0)):
        cfg = _table_consistency_cfg(tmp_path, states)
        # a live pool must not keep the interpreter from exiting
        proc = subprocess.run(
            [sys.executable, "-m", "bdlab.cli", "consistency-check", "--config", cfg,
             "--threads", "2"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == code, proc.stderr
        if code == 3:
            assert proc.stderr == "error: state 3 outside rate table (size 3)\n"
        else:
            assert len(parse_results(proc.stdout, "csv").rows) == 3


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


# sha256 of the CSV and JSON output of each shipped command at --threads 0,
# recorded from the command line; the CSV data is the same at any thread count
ROOT = Path(__file__).resolve().parents[1]
SHIPPED_OUTPUTS = {
    "simulate --config configs/simulate.json --process xi": (
        "072b05ff223199d749a9b5b76f6aebcf628fe1d8fa8214f3d5fb1de9b45960eb",
        "c4dc0254ea13ff0cfb9583cf7339ebe5847b8d2bfadeb6d3f44952eab0bb16c8",
    ),
    "simulate --config configs/simulate.json --process zeta": (
        "3b4495ed96654c7e9684cf9b60b12b46f4dce7fc820dd4631c740d29010930ab",
        "6805a8673cc34f29c86405d27311b47348c1d173cd8ed06a2dc5ca227b0f61b7",
    ),
    "poisson-check --config configs/poisson_check.json": (
        "9a01dcbbf4578a161408d0176c680c595cc77ea12c026e2f643107bb5ef54814",
        "3516233124b3aef6a9db229fd291ff39e32b166e00acf2eab512ae741a3c114d",
    ),
    "marginal-scan --config configs/marginal_exp.json": (
        "23e61770b4a4b846358278ec2afbd4a677f36330f48809422d6b7fc4e9d1d9fb",
        "c87717821779c97d2890082d82c85801faf50458f357b77211e1a073b71721f3",
    ),
    "marginal-scan --config configs/marginal_superexp.json": (
        "5150a96f4679330bb5227efe1b9d9c63a24070391d0cd3dd1d023012a859897f",
        "940845e2899f4eaf364394ce65f5b857abe90d2c350ae7ce6a54640c61b28b20",
    ),
    "consistency-check --config configs/consistency_small_T.json": (
        "effa1937ee5047b46d88cb967e3a158e990a79e9cdecd0e5473f60b61b37114f",
        "428532bb4bea7da17fa123d5bc69d486d51ca5f71cb9d59f0bb9ddb8cbaf7dfd",
    ),
    "level-cross-scan --config configs/level_cross.json": (
        "be2cb54428725222dbfc3112980233f3beb323d0f6352be9fb8f1073a757b546",
        "8dc0cd0d377c2569f63569bad2839f5eef05b3934707e7ef15a5386fbbc1c9a8",
    ),
    "rate-eval --config configs/rate_eval_exp.json --profile configs/ramp_profile.json": (
        "03b5474a84cd982776a3c141f1ab89639b50b64d8168309a1c28b6ac60ee3fda",
        "e4870db58766e4eceb4e9eb9214fd03b2782cd8b79454b79dcb89f8677ead7f4",
    ),
}


def _shipped_id(command):
    words = command.split()
    return Path(words[2]).stem + ("_" + words[-1] if "--process" in words else "")


@pytest.mark.parametrize("command", SHIPPED_OUTPUTS, ids=_shipped_id)
def test_shipped_commands_keep_their_bytes(command):
    """One run of the command in process; its table emitted as CSV and as
    the JSON that --format json --threads 0 writes."""
    argv = [str(ROOT / a) if a.startswith("configs/") else a for a in command.split()]
    args = _build_parser().parse_args(argv + ["--format", "json", "--threads", "0"])
    _, table = _run(args)
    digests = tuple(
        hashlib.sha256(emit_results(table, fmt).encode()).hexdigest() for fmt in ("csv", "json")
    )
    assert digests == SHIPPED_OUTPUTS[command]


def test_shipped_output_script_runs_the_shipped_commands():
    """scripts/shipped_outputs.sh runs the commands whose digests are
    pinned above, in their order, named by their test ids."""
    script = (ROOT / "scripts" / "shipped_outputs.sh").read_text()
    lines = script.split("<<'COMMANDS'\n", 1)[1].split("\nCOMMANDS\n", 1)[0].splitlines()
    assert len(lines) == 8
    assert lines == [f"{_shipped_id(c)} {c}" for c in SHIPPED_OUTPUTS]
