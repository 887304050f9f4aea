"""Experiment configs, runs, and result table round-trips."""

import json
import math
from pathlib import Path

import pytest

import bdlab.harness as harness
from bdlab import weights
from bdlab.errors import ConfigError, PreconditionError
from bdlab.harness import (
    POISSON_CHECK_COLUMNS,
    RESULT_COLUMNS,
    ExperimentConfig,
    ResultRow,
    Table,
    derive_seed,
    emit_results,
    parse_results,
    profile_from_dict,
    profile_to_dict,
    run_consistency_check,
    run_level_cross_scan,
    run_marginal_ldp_scan,
    run_poisson_check,
    run_rate_eval,
    run_simulate,
    write_results,
)
from bdlab.paths import PiecewiseFunction
from bdlab.process import RateModel
from bdlab.rates import (
    ScalingFamily,
    marginal_log_prob,
    normalizer,
    phi,
    poisson_exact_log_tail,
    poisson_mean,
)
from bdlab.weights import Estimate

UNIT_MODEL = {"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.0}


def config_dict(**over) -> dict:
    d = {"model": dict(UNIT_MODEL), "t_grid": [1.0], "samples": 1000, "seed": 7}
    d.update(over)
    return d


# ---------------------------------------------------------------------------
# config parsing


def test_config_round_trip():
    d = config_dict(
        scaling={"family": "exponential", "k": 1.0},
        t_grid=[1.0, 2.0],
        samples=[500, 800],
        event={"kind": "terminal_window", "lo": 0.0, "hi": 0.2},
        a=0.5,
        eps=0.1,
        mc_check={"T": 2.0, "n": 100},
        out="results.csv",
        format="json",
        threads=2,
    )
    cfg = ExperimentConfig.from_dict(d)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert cfg == again
    assert cfg.samples == (500, 800)
    assert cfg.scaling == ScalingFamily.exponential(1.0)
    assert cfg.mc_check_T == 2.0 and cfg.mc_check_n == 100


def test_config_scalar_samples_broadcast():
    cfg = ExperimentConfig.from_dict(config_dict(t_grid=[1.0, 2.0, 3.0], samples=250))
    assert cfg.samples == (250, 250, 250)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(t_grid=[1.0, 2.0], samples=[10]))


def test_config_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(config_dict(extra=1))
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(
            config_dict(model={"kind": "canonical", "P": 1, "Q": 1, "l": 0, "R": 2})
        )
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(
            config_dict(scaling={"family": "exponential", "k": 1.0, "beta": 2.0})
        )
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(
            config_dict(event={"kind": "level_cross", "a": 1.0, "radius": 0.1})
        )
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(config_dict(mc_check={"T": 1.0, "n": 10, "reps": 3}))


def test_config_missing_keys_rejected():
    d = config_dict()
    del d["seed"]
    with pytest.raises(ConfigError, match="missing keys"):
        ExperimentConfig.from_dict(d)
    with pytest.raises(ConfigError, match="missing keys"):
        ExperimentConfig.from_dict(config_dict(model={"kind": "canonical", "P": 1, "Q": 1}))
    with pytest.raises(ConfigError, match="missing keys"):
        ExperimentConfig.from_dict(config_dict(scaling={"family": "exponential"}))


def test_config_value_validation_becomes_config_error():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(t_grid=[2.0, 1.0]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(seed=-1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(format="yaml"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(threads=-2))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(a=-0.5))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(samples="many"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(config_dict(model={"kind": "gaussian"}))
    # counts take JSON integers (or integral floats), float keys JSON numbers
    for bad in (
        dict(seed=2026.7),
        dict(seed="12"),
        dict(seed=True),
        dict(samples=2.5),
        dict(samples=[2.5]),
        dict(samples=True),
        dict(threads=True),
        dict(threads=1.5),
        dict(mc_check={"T": 1.0, "n": 2.5}),
        dict(mc_check={"T": "1.0", "n": 10}),
        dict(t_grid=["1.0"]),
        dict(a="0.5"),
        dict(a=True),
        dict(a=float("inf")),
        dict(t_grid=[float("nan")]),
        dict(model={"kind": "canonical", "P": "1", "Q": 1.0, "l": 0.0}),
        dict(model={"kind": "table", "entries": [[1.0, False]]}),
        dict(model={"kind": "table", "path": 5}),
        dict(out=7),
        dict(scaling={"family": "exponential", "k": True}),
        dict(event={"kind": "level_cross", "a": "0.5"}),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(config_dict(**bad))
    cfg = ExperimentConfig.from_dict(config_dict(samples=1e5, seed=12.0, threads=2))
    assert cfg.samples == (100000,) and type(cfg.samples[0]) is int
    assert cfg.seed == 12 and type(cfg.seed) is int


def test_config_load_errors(tmp_path):
    with pytest.raises(OSError):
        ExperimentConfig.load(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.load(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        ExperimentConfig.load(str(arr))


def test_config_table_model_via_relative_path(tmp_path):
    entries = [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
    (tmp_path / "rates.json").write_text(json.dumps(entries), encoding="utf-8")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(config_dict(model={"kind": "table", "path": "rates.json"})),
        encoding="utf-8",
    )
    cfg = ExperimentConfig.load(str(cfg_file))
    assert cfg.model.kind == "table"
    assert cfg.model.table == ((1.0, 0.0), (1.0, 1.0), (1.0, 2.0))


RATE_ENTRIES = [[1.0, 0.0], [2.0, 1.5], [0.5, 3.0]]
STEP = {"mode": "step", "points": [[0.0, 0.0], [0.5, 1.0]]}
RAMP = {"mode": "linear", "points": [[0.0, 0.0], [1.0, 1.0]]}
NEIGHBORHOOD = ["kind", "eps", "profile"]


@pytest.mark.parametrize(
    "part, value, order",
    [
        ("model", {"kind": "canonical", "P": 2.0, "Q": 1.0, "l": 0.5}, ["kind", "P", "Q", "l"]),
        ("model", {"kind": "table", "entries": RATE_ENTRIES}, ["kind", "entries"]),
        ("model", {"kind": "table", "path": "rates.json"}, ["kind", "entries"]),
        ("scaling", {"family": "poly", "alpha": 1.5}, ["family", "alpha"]),
        ("scaling", {"family": "exponential", "k": 2.0}, ["family", "k"]),
        ("scaling", {"family": "superexp", "k": 1.0, "beta": 2.0}, ["family", "k", "beta"]),
        ("event", {"kind": "full_space"}, ["kind"]),
        ("event", {"kind": "level_cross", "a": 0.5}, ["kind", "a"]),
        ("event", {"kind": "terminal_window", "lo": 0.1, "hi": 0.2}, ["kind", "lo", "hi"]),
        ("event", {"kind": "neighborhood", "eps": 0.3, "profile": STEP}, NEIGHBORHOOD),
        ("event", {"kind": "neighborhood", "eps": 0.3, "profile": "ramp.json"}, NEIGHBORHOOD),
    ],
)
def test_schema_round_trip_keeps_key_order(tmp_path, part, value, order):
    (tmp_path / "rates.json").write_text(json.dumps(RATE_ENTRIES), encoding="utf-8")
    (tmp_path / "ramp.json").write_text(json.dumps(RAMP), encoding="utf-8")
    cfg = ExperimentConfig.from_dict(config_dict(**{part: value}), base_dir=str(tmp_path))
    echo = cfg.to_dict()
    assert ExperimentConfig.from_dict(echo) == cfg
    # the JSON output's config echo is written in this key order
    assert list(echo[part]) == order
    # a file reference is echoed inline
    if "path" in value:
        assert echo[part]["entries"] == RATE_ENTRIES
    if isinstance(value.get("profile"), str):
        assert echo[part]["profile"] == RAMP


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in CONFIG_DIR.glob("*.json") if p.name != "ramp_profile.json"),
    ids=lambda p: p.name,
)
def test_shipped_configs_round_trip(path):
    cfg = ExperimentConfig.load(str(path))
    echo = cfg.to_dict()
    assert ExperimentConfig.from_dict(echo) == cfg
    raw = json.loads(path.read_text(encoding="utf-8"))
    for part in ("model", "scaling", "event"):
        if part in raw:
            assert echo[part] == raw[part]
            assert list(echo[part]) == list(raw[part])


# ---------------------------------------------------------------------------
# profiles and seeds


def test_profile_round_trip_step_and_linear():
    step = profile_from_dict({"mode": "step", "points": [[0.0, 0.0], [0.5, 1.0]]})
    assert step == PiecewiseFunction.step((0.0, 0.5, 1.0), (0.0, 1.0))
    assert profile_from_dict(profile_to_dict(step)) == step
    ramp = profile_from_dict({"mode": "linear", "points": [[0.0, 0.0], [1.0, 1.0]]})
    assert ramp == PiecewiseFunction.linear((0.0, 1.0), (0.0, 1.0))
    assert profile_from_dict(profile_to_dict(ramp)) == ramp


def test_profile_parse_errors():
    with pytest.raises(ConfigError):
        profile_from_dict({"mode": "step", "points": []})
    with pytest.raises(ConfigError):
        profile_from_dict({"mode": "spline", "points": [[0.0, 1.0]]})
    with pytest.raises(ConfigError):
        profile_from_dict({"mode": "step", "points": [[0.0, 1.0], [1.0, 2.0]]})
    with pytest.raises(ConfigError):
        profile_from_dict({"mode": "linear", "points": [[0.2, 0.0], [1.0, 1.0]]})
    with pytest.raises(ConfigError):
        profile_from_dict({"mode": "linear", "points": [[0.0], [1.0]]})
    with pytest.raises(ConfigError):
        profile_from_dict({"mode": "linear", "points": [[0.0, 1.0]], "knots": 3})


def test_derive_seed_is_stable_and_tag_sensitive():
    s = derive_seed(42, 1, 3, 0)
    assert s == derive_seed(42, 1, 3, 0)
    assert s != derive_seed(42, 1, 3, 1)
    assert s != derive_seed(43, 1, 3, 0)
    assert 0 <= s < 2**64


# ---------------------------------------------------------------------------
# result rows and tables


def test_result_row_rejects_nan_and_plus_inf():
    kw = dict(
        T=1.0, phi=2.0, psi=2.0, log_prob=-1.0, normalized=-0.5,
        predicted=-0.5, rel_se=0.1, n_hits=10, max_weight_share=0.2, flag="",
    )
    row = ResultRow(**kw)
    assert row.astuple() == (1.0, 2.0, 2.0, -1.0, -0.5, -0.5, 0.1, 10, 0.2, "")
    assert len(row.astuple()) == len(RESULT_COLUMNS)
    with pytest.raises(PreconditionError):
        ResultRow(**{**kw, "normalized": float("nan")})
    with pytest.raises(PreconditionError):
        ResultRow(**{**kw, "predicted": float("inf")})
    ResultRow(**{**kw, "normalized": float("-inf")})  # allowed


def test_table_row_width_checked():
    with pytest.raises(PreconditionError):
        Table(columns=("a", "b"), rows=((1.0,),))


# ---------------------------------------------------------------------------
# runs


def test_poisson_check_row_shape_and_health():
    cfg = ExperimentConfig.from_dict(config_dict(t_grid=[1.0], samples=4000, seed=5))
    table = run_poisson_check(cfg)
    assert table.columns == POISSON_CHECK_COLUMNS
    assert table.meta == {"config": cfg.to_dict(), "seed": 5}
    (row,) = table.rows
    T, n, a, tv, chi2, dof, flag = row
    assert (T, n, flag) == (1.0, 4000, "")
    assert a == poisson_mean(1.0, 1.0, 1.0)
    assert 0.0 < tv < 0.2
    assert chi2 >= 0.0
    assert isinstance(dof, int) and dof >= 1


def test_poisson_check_needs_exact_law():
    cfg = ExperimentConfig.from_dict(
        config_dict(model={"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.5})
    )
    with pytest.raises(PreconditionError):
        run_poisson_check(cfg)


def test_marginal_scan_matches_direct_evaluation():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0},
            t_grid=[5.0, 8.0],
            samples=1,
            a=0.5,
            eps=0.1,
        )
    )
    table = run_marginal_ldp_scan(cfg)
    fam = ScalingFamily.exponential(1.0)
    assert table.columns == RESULT_COLUMNS
    for row, T in zip(table.rows, (5.0, 8.0)):
        raw = marginal_log_prob(1.0, 1.0, fam, T, 0.5, 0.1)
        psi = normalizer(fam, T)
        assert row[0] == T
        assert row[1] == phi(fam, T)
        assert row[2] == psi
        assert row[3] == raw
        assert row[4] == raw / psi
        assert row[5] == -0.5
        assert row[6:] == (0.0, 0, 0.0, "exact")


def test_marginal_scan_empty_window_row():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0},
            t_grid=[0.5],
            samples=1,
            a=0.5,
            eps=0.001,
        )
    )
    (row,) = run_marginal_ldp_scan(cfg).rows
    assert row[3] == float("-inf")
    assert row[4] == float("-inf")
    assert row[-1] == "empty_window"


def test_marginal_scan_preconditions():
    base = config_dict(t_grid=[5.0], samples=1, a=0.5, eps=0.1)
    with pytest.raises(ConfigError, match="scaling"):
        run_marginal_ldp_scan(ExperimentConfig.from_dict(base))
    with pytest.raises(PreconditionError):
        run_marginal_ldp_scan(
            ExperimentConfig.from_dict(
                dict(base, scaling={"family": "poly", "alpha": 1.0})
            )
        )
    no_a = dict(config_dict(t_grid=[5.0], samples=1, eps=0.1),
                scaling={"family": "exponential", "k": 1.0})
    with pytest.raises(ConfigError, match="'a'"):
        run_marginal_ldp_scan(ExperimentConfig.from_dict(no_a))
    no_eps = dict(config_dict(t_grid=[5.0], samples=1, a=0.5),
                  scaling={"family": "exponential", "k": 1.0})
    with pytest.raises(ConfigError, match="'eps'"):
        run_marginal_ldp_scan(ExperimentConfig.from_dict(no_eps))
    bad_model = dict(
        config_dict(t_grid=[5.0], samples=1, a=0.5, eps=0.1),
        model={"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.5},
        scaling={"family": "exponential", "k": 1.0},
    )
    with pytest.raises(PreconditionError):
        run_marginal_ldp_scan(ExperimentConfig.from_dict(bad_model))


def test_consistency_check_rows_flags_and_exact_reference():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0},
            t_grid=[2.0],
            samples=20000,
            seed=11,
            event={"kind": "terminal_window", "lo": 0.0, "hi": 0.2},
        )
    )
    table = run_consistency_check(cfg)
    assert len(table.rows) == 3
    full, direct, importance = table.rows
    assert full[-1].startswith("event=full_space;method=importance;normalization_")
    assert full[-1].endswith("normalization_ok")
    assert full[5] == 0.0  # true full-space value is log 1

    # window [0, 0.2 * e^2] holds the integer states {0, 1}
    a = poisson_mean(1.0, 1.0, 2.0)
    raw_ref = -a + math.log1p(a)
    ref = raw_ref / normalizer(ScalingFamily.exponential(1.0), 2.0)
    for row, method in ((direct, "direct"), (importance, "importance")):
        assert f"method={method}" in row[-1]
        assert "event=terminal_window" in row[-1]
        assert "ref=exact" in row[-1]
        assert row[-1].endswith("agree_ok")
        assert row[5] == pytest.approx(ref, rel=1e-12)
        assert row[7] > 0  # hits
        # each estimate sits within 4 of its own standard errors of truth
        assert abs(row[3] - raw_ref) <= 4.0 * row[6]


def test_consistency_check_companion_reference_without_exact_law():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            model={"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.5},
            scaling={"family": "exponential", "k": 1.0},
            t_grid=[1.5],
            samples=20000,
            seed=13,
            event={"kind": "terminal_window", "lo": 0.0, "hi": 0.3},
        )
    )
    table = run_consistency_check(cfg)
    _, direct, importance = table.rows
    assert "ref=companion" in direct[-1]
    assert "ref=companion" in importance[-1]
    # companion reference: each row's predicted is the other's normalized
    assert direct[5] == importance[4]
    assert importance[5] == direct[4]


def test_consistency_check_warns_for_large_horizon():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0}, t_grid=[6.0], samples=50
        )
    )
    with pytest.warns(UserWarning, match="small T"):
        run_consistency_check(cfg)


def test_level_cross_scan_exact_anchor_rows():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0},
            t_grid=[6.0, 9.0],
            samples=1,
            a=0.5,
        )
    )
    table = run_level_cross_scan(cfg)
    fam = ScalingFamily.exponential(1.0)
    for row, T in zip(table.rows, (6.0, 9.0)):
        lo = math.ceil(0.5 * phi(fam, T))
        raw = poisson_exact_log_tail(1.0, 1.0, T, lo)
        assert row[3] == raw
        assert row[4] == raw / normalizer(fam, T)
        assert row[5] == -0.5
        assert row[-1] == "exact;anchor=terminal_tail"


def test_level_cross_scan_poly_scaling_uses_sub_normalizer():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "poly", "alpha": 1.0}, t_grid=[4.0], samples=1, a=0.5
        )
    )
    (row,) = run_level_cross_scan(cfg).rows
    assert row[1] == 4.0
    assert row[2] == 16.0  # T * phi in the SUB regime
    assert row[3] == poisson_exact_log_tail(1.0, 1.0, 4.0, 2)


def test_level_cross_scan_mc_dominance_row():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0},
            t_grid=[6.0],
            samples=1,
            a=0.5,
            mc_check={"T": 2.0, "n": 20000},
            seed=17,
        )
    )
    table = run_level_cross_scan(cfg)
    assert len(table.rows) == 2
    mc = table.rows[-1]
    assert mc[0] == 2.0
    assert mc[-1] == "mc_sup;dominates_tail_ok"
    assert mc[6] > 0.0  # a Monte Carlo row carries a standard error


def test_level_cross_scan_mc_row_without_power_is_inconclusive():
    """The shipped config's check point (T = 3, n = 1e5) has tail 6.0e-9
    and 3 null standard errors of 7.3e-7, so its threshold is below 0: no
    crossing frequency, not even 0 hits, could fail it."""
    cfg = ExperimentConfig.load(str(CONFIG_DIR / "level_cross.json"))
    mc = run_level_cross_scan(cfg).rows[-1]
    assert (mc[0], mc[7]) == (3.0, 0)
    assert mc[-1] == "mc_sup;dominates_tail_inconclusive"


def test_consistency_check_fail_flags(monkeypatch):
    monkeypatch.setattr(harness, "agreement_z", lambda e1, e2: 5.0)
    fake = Estimate(-1.0, 0.1, 100, 50)
    monkeypatch.setattr(harness, "importance_estimate", lambda *args: fake)
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0},
            t_grid=[1.0],
            samples=200,
            event={"kind": "terminal_window", "lo": 0.0, "hi": 0.2},
        )
    )
    full, direct, importance = run_consistency_check(cfg).rows
    assert full[-1] == "event=full_space;method=importance;normalization_fail"
    assert direct[-1] == "event=terminal_window;method=direct;ref=exact;z=5.00;agree_fail"
    assert importance[-1] == (
        "event=terminal_window;method=importance;ref=exact;z=5.00;agree_fail"
    )
    psi = normalizer(ScalingFamily.exponential(1.0), 1.0)
    assert full[3:9] == (-1.0, -1.0 / psi, 0.0, 0.1, 50, 0.0)
    assert importance[3:5] == (-1.0, -1.0 / psi) and importance[5] == direct[5]


def test_level_cross_scan_fail_flag(monkeypatch):
    monkeypatch.setattr(
        harness, "direct_estimate", lambda *args: Estimate(-math.inf, math.inf, 1000, 0)
    )
    monkeypatch.setattr(harness, "poisson_exact_log_tail", lambda *args: math.log(0.5))
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0},
            t_grid=[6.0],
            samples=1,
            a=0.5,
            mc_check={"T": 2.0, "n": 1000},
        )
    )
    exact, mc = run_level_cross_scan(cfg).rows
    assert exact[-1] == "exact;anchor=terminal_tail"
    assert exact[3] == math.log(0.5) and exact[6:9] == (0.0, 0, 0.0)
    assert mc[-1] == "mc_sup;dominates_tail_fail"
    assert mc[3:5] == (-math.inf, -math.inf) and mc[6:9] == (math.inf, 0, 0.0)


def test_level_cross_scan_rejects_overflowing_phi():
    cfg = ExperimentConfig.from_dict(
        config_dict(
            scaling={"family": "exponential", "k": 1.0}, t_grid=[800.0], samples=1, a=0.5
        )
    )
    with pytest.raises(PreconditionError, match="too large"):
        run_level_cross_scan(cfg)


def test_simulate_rows_span_each_horizon():
    cfg = ExperimentConfig.from_dict(config_dict(t_grid=[2.0, 3.0], samples=1, seed=9))
    for process in ("xi", "zeta"):
        table = run_simulate(cfg, process=process)
        assert table.columns == ("T", "t", "state")
        for T in (2.0, 3.0):
            block = [r for r in table.rows if r[0] == T]
            assert block[0] == (T, 0.0, 0)
            assert block[-1][1] == T
            assert block[-1][2] == block[-2][2]  # closing row repeats the state
            times = [r[1] for r in block[:-1]]
            assert times == sorted(times)
            steps = [abs(b[2] - a[2]) for a, b in zip(block[1:-2], block[2:-1])]
            assert all(s == 1 for s in steps)
            if process == "xi":
                assert all(r[2] >= 0 for r in block)
    with pytest.raises(ConfigError):
        run_simulate(cfg, process="nu")


def test_rate_eval_selects_regime_functional():
    ramp = PiecewiseFunction.linear((0.0, 1.0), (0.0, 1.0))
    sub_cfg = ExperimentConfig.from_dict(
        config_dict(
            model={"kind": "canonical", "P": 1.0, "Q": 2.0, "l": 0.0},
            scaling={"family": "poly", "alpha": 1.0},
        )
    )
    (row,) = run_rate_eval(sub_cfg, ramp).rows
    assert row == ("SUB", 1.0, 0.5, 1.0)
    exp_cfg = ExperimentConfig.from_dict(
        config_dict(scaling={"family": "exponential", "k": 1.0})
    )
    (row,) = run_rate_eval(exp_cfg, ramp).rows
    assert row == ("EXP", 1.5, 0.5, 1.0)
    sup_cfg = ExperimentConfig.from_dict(
        config_dict(
            model={"kind": "canonical", "P": 1.0, "Q": 1.0, "l": 0.5},
            scaling={"family": "superexp", "k": 1.0, "beta": 2.0},
        )
    )
    (row,) = run_rate_eval(sup_cfg, ramp).rows
    assert row == ("SUPER", 0.5, 0.5, 1.0)


# ---------------------------------------------------------------------------
# emission and parsing


def make_result_table(with_inf=False) -> Table:
    rows = [
        ResultRow(
            T=5.0, phi=148.4131591025766, psi=742.065795512883,
            log_prob=-190.01066784893996, normalized=-0.2560563618453981,
            predicted=-0.5, rel_se=0.0, n_hits=0, max_weight_share=0.0, flag="exact",
        ).astuple()
    ]
    if with_inf:
        rows.append(
            ResultRow(
                T=0.5, phi=1.6487212707001282, psi=0.8243606353500641,
                log_prob=float("-inf"), normalized=float("-inf"), predicted=-0.5,
                rel_se=0.0, n_hits=0, max_weight_share=0.0, flag="empty_window",
            ).astuple()
        )
        # a Monte Carlo row without hits carries no information: rel_se = +inf
        rows.append(
            ResultRow(
                T=3.0, phi=20.085536923187668, psi=60.256610769563004,
                log_prob=float("-inf"), normalized=float("-inf"), predicted=-0.5,
                rel_se=float("inf"), n_hits=0, max_weight_share=0.0,
                flag="mc_sup;dominates_tail_fail",
            ).astuple()
        )
    cfg = ExperimentConfig.from_dict(config_dict())
    return Table(
        columns=RESULT_COLUMNS,
        rows=tuple(rows),
        meta={"config": cfg.to_dict(), "seed": cfg.seed},
    )


def test_emit_parse_csv_round_trip():
    table = make_result_table(with_inf=True)
    text = emit_results(table, "csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert text.endswith("\n")
    assert "-inf" in lines[2]
    assert lines[3].split(",")[6] == "inf"
    back = parse_results(text, "csv")
    assert back.columns == table.columns
    assert back.rows == table.rows  # repr round-trip keeps every bit
    assert back.meta == {}


def test_emit_parse_json_round_trip():
    table = make_result_table(with_inf=True)
    text = emit_results(table, "json")

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    payload = json.loads(text, parse_constant=reject)
    assert payload["columns"] == list(RESULT_COLUMNS)
    assert payload["rows"][1][3] == "-inf"
    assert payload["rows"][2][6] == "inf"
    assert payload["seed"] == 7
    back = parse_results(text, "json")
    assert back.rows == table.rows
    assert back.meta["config"] == table.meta["config"]


def test_emit_rejects_empty_table_and_unknown_format():
    empty = Table(columns=("a",), rows=())
    with pytest.raises(PreconditionError):
        emit_results(empty, "csv")
    with pytest.raises(ConfigError):
        emit_results(make_result_table(), "xml")
    with pytest.raises(ConfigError):
        parse_results("", "xml")


def test_write_results_reports_path_on_failure(tmp_path):
    table = make_result_table()
    target = tmp_path / "no_such_dir" / "out.csv"
    with pytest.raises(OSError, match="no_such_dir"):
        write_results(table, str(target), "csv")
    ok = tmp_path / "out.csv"
    write_results(table, str(ok), "csv")
    assert ok.read_text(encoding="utf-8") == emit_results(table, "csv")


def test_runs_are_thread_count_invariant():
    base = config_dict(t_grid=[1.0], samples=4000, seed=21)
    serial = run_poisson_check(ExperimentConfig.from_dict(dict(base, threads=0)))
    threaded = run_poisson_check(ExperimentConfig.from_dict(dict(base, threads=3)))
    assert serial.rows == threaded.rows
    cons = config_dict(
        scaling={"family": "exponential", "k": 1.0},
        t_grid=[1.5],
        samples=6000,
        seed=23,
        event={"kind": "terminal_window", "lo": 0.0, "hi": 0.5},
    )
    serial = run_consistency_check(ExperimentConfig.from_dict(dict(cons, threads=0)))
    threaded = run_consistency_check(ExperimentConfig.from_dict(dict(cons, threads=4)))
    assert serial.rows == threaded.rows


@pytest.mark.parametrize(
    "event", [{"kind": "terminal_window", "lo": 0.0, "hi": 0.5}, {"kind": "full_space"}]
)
def test_planned_consistency_check_keeps_its_bytes(no_pool, monkeypatch, event):
    # one, two and three chunks of 4096 replicas: the one-chunk calls run
    # in this process, and at three threads the pool grows for the third
    # point; each planned call is submitted once, by the plan
    submitted = []
    submit = weights._submit
    monkeypatch.setattr(
        weights, "_submit",
        lambda keys, threads: submitted.extend(n for _, _, n in keys) or submit(keys, threads),
    )
    cfg = config_dict(
        scaling={"family": "exponential", "k": 1.0},
        t_grid=[1.0, 1.5, 2.0],
        samples=[100, 8192, 8193],
        seed=29,
        event=event,
    )
    calls = 3 if event["kind"] == "terminal_window" else 1
    want = None
    for threads in (0, 2, 3, 2):
        submitted.clear()
        table = run_consistency_check(ExperimentConfig.from_dict(dict(cfg, threads=threads)))
        out = emit_results(table, "csv"), emit_results(table, "json")
        # the JSON echoes the config, threads included
        out = out[0], out[1].replace(f'"threads": {threads}', '"threads": 0')
        want = want or out
        assert out == want
        assert submitted == ([] if threads == 0 else [8192] * calls + [8193] * calls)
        assert weights._ahead == []


def test_a_later_table_error_is_the_serial_one(no_pool):
    # a six-state table that only the second point's replicas run out of
    cfg = config_dict(
        model={"kind": "table", "entries": [[1.0, float(x)] for x in range(6)]},
        scaling={"family": "poly", "alpha": 1.0},
        t_grid=[0.05, 4.0],
        samples=8192,
        seed=31,
        event={"kind": "terminal_window", "lo": 0.0, "hi": 1.0},
    )
    errors = []
    for threads in (0, 2):
        with pytest.raises(PreconditionError, match="outside rate table") as caught:
            run_consistency_check(ExperimentConfig.from_dict(dict(cfg, threads=threads)))
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert weights._ahead == []
    pool = weights._pool
    assert pool is not None
    window = weights.EventSpec.terminal_window(0.0, 0.5)
    unit = RateModel(kind="canonical", P=1.0, Q=1.0, l=0.0)
    serial = weights.importance_estimate(unit, 1.0, 2.0, window, 8192, 3, threads=0)
    assert weights.importance_estimate(unit, 1.0, 2.0, window, 8192, 3, threads=2) == serial
    assert weights._pool is pool


def test_a_later_overflowing_phi_is_refused_as_in_serial(no_pool):
    cfg = config_dict(
        scaling={"family": "exponential", "k": 1.0},
        t_grid=[1.0, 800.0],
        samples=8192,
        seed=37,
        event={"kind": "terminal_window", "lo": 0.0, "hi": 0.5},
    )
    errors = []
    for threads in (0, 2):
        with pytest.warns(UserWarning, match="small T"):
            with pytest.raises(PreconditionError, match="phi_of_T") as caught:
                run_consistency_check(ExperimentConfig.from_dict(dict(cfg, threads=threads)))
        errors.append(str(caught.value))
    assert errors[0] == errors[1] == "phi_of_T must be positive, got inf"
    assert weights._ahead == []
