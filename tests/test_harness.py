"""Tests for the experiment harness."""
import io

import numpy as np
import pytest

from codedcache import harness
from codedcache.bounds import oracle_rate_upper
from codedcache.engine import slot_rates
from codedcache.harness import (
    ExperimentConfig,
    ExperimentResult,
    PolicyAggregate,
    _draw_requests,
    config_summary,
    emit_csv,
    run_experiment,
    run_trial,
)
from codedcache.model import PopularityDistribution, SystemParams, make_zipf
from codedcache.policies import POLICY_NAMES, decision_matrix, switch_flags
from test_policy_reference import SteppedPolicy, reference_lfu_rate, reference_slot_rate

WORKED = SystemParams(4, 4, 1.0)
WORKED_DIST = PopularityDistribution(np.array([0.40, 0.35, 0.15, 0.10]))


def config(**overrides):
    base = dict(
        params=WORKED,
        dist=WORKED_DIST,
        policies=("tracking", "oracle", "uniform", "lfu"),
        horizon=6,
        trials=2,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config validation ------------------------------------------------------

def test_config_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown policy"):
        config(policies=("tracking", "mru"))
    with pytest.raises(ValueError, match="duplicate policy"):
        config(policies=("tracking", "tracking"))
    with pytest.raises(ValueError, match="at least one policy"):
        config(policies=())
    with pytest.raises(ValueError, match="at least one slot"):
        config(horizon=0)
    with pytest.raises(ValueError, match="at least one trial"):
        config(trials=0)
    with pytest.raises(ValueError, match="integer cache size"):
        config(params=SystemParams(4, 4, 1.5))
    with pytest.raises(ValueError, match="unknown rate mode"):
        config(rate_mode="exact")
    with pytest.raises(ValueError, match="unknown reference"):
        config(reference="simulated")
    with pytest.raises(ValueError, match="unknown LFU accounting"):
        config(lfu_accounting="amortized")
    with pytest.raises(ValueError, match="does not match"):
        config(dist=make_zipf(3, 1.0))
    with pytest.raises(ValueError, match="sorted"):
        config(dist=PopularityDistribution(np.array([0.1, 0.4, 0.35, 0.15])))


def test_bitlevel_config_runs_at_any_user_count():
    # 25 users is past the 20-user subset cap bit-level mode once had, and 64
    # past the 63-user holder mask; both configs are accepted and run
    for users in (25, 64):
        cfg = config(params=SystemParams(4, users, 1.0, 16), rate_mode="bitlevel")
        result = run_experiment(cfg)
        for agg in result.aggregates:
            assert agg.mean_rate.shape == (cfg.horizon,)
            assert np.isfinite(agg.mean_rate).all()


def test_lfu_accounting_default_follows_mode():
    assert config().lfu_per_request()
    assert not config(rate_mode="bitlevel", params=SystemParams(4, 4, 1.0)).lfu_per_request()
    assert config(lfu_accounting="dedup").lfu_per_request() is False
    assert config(
        rate_mode="bitlevel", lfu_accounting="per-request"
    ).lfu_per_request()


# --- analytic mode exact values ---------------------------------------------

def test_first_slot_tracking_regret():
    cfg = config(policies=("tracking",), horizon=1, trials=1)
    result = run_trial(cfg, 0)
    tr = result.trace("tracking")
    assert tr.set_sizes[0] == 4
    assert tr.rates[0] == pytest.approx(3.0, abs=1e-12)  # N/M - 1
    assert tr.cum_regret[0] == pytest.approx(3.0 - 2.0, abs=1e-12)


def test_uniform_regret_exactly_linear():
    cfg = config(policies=("uniform",), horizon=5, trials=3)
    result = run_experiment(cfg)
    agg = result.aggregate("uniform")
    expect = np.arange(1, 6) * (3.0 - 2.0)
    assert np.allclose(agg.mean_cum_regret, expect, atol=1e-12)
    assert np.allclose(agg.stderr_cum_regret, 0.0, atol=1e-12)


def test_oracle_regret_constant_per_slot():
    # the closed-form reference coincides with the oracle set's own
    # analytic rate here, so per-slot regret is exactly zero
    cfg = config(policies=("oracle",), horizon=4, trials=1)
    tr = run_trial(cfg, 0).trace("oracle")
    slot_regret = np.diff(np.concatenate([[0.0], tr.cum_regret]))
    assert np.allclose(slot_regret, slot_regret[0], atol=1e-12)
    assert slot_regret[0] == pytest.approx(0.0, abs=1e-12)


def test_paired_oracle_regret_is_zero():
    for mode in ("analytic", "bitlevel"):
        cfg = config(
            policies=("oracle", "tracking"), reference="paired", rate_mode=mode,
            horizon=5, trials=1,
        )
        tr = run_trial(cfg, 0).trace("oracle")
        assert np.allclose(tr.cum_regret, 0.0, atol=1e-12)
        assert tr.total_switches == 0


# --- vectorized analytic path equals the stepped reference -----------------

def test_decision_matrix_matches_policy_classes():
    rng = np.random.default_rng(91)
    for case in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        m = float(rng.integers(1, n + 1))
        params = SystemParams(n, k, m)
        dist = PopularityDistribution(rng.dirichlet(np.ones(n)))
        cfg = ExperimentConfig(
            params=params, dist=dist, policies=("tracking", "lfu"),
            horizon=40, trials=1, seed=case, reference="paired",
        )
        requests = _draw_requests(cfg, 0)
        for name in POLICY_NAMES:
            decisions = decision_matrix(name, requests, dist.probs, params)
            flags = switch_flags(decisions)
            rates = slot_rates(decisions, dist.probs, params)
            pol = SteppedPolicy(name, params, dist.probs)
            for s in range(cfg.horizon):
                cached, switched = pol.decide()
                assert frozenset(np.flatnonzero(decisions[s]).tolist()) == cached
                assert flags[s] == switched
                if name == "lfu":
                    expect = reference_lfu_rate(cached, dist.probs, k, per_request=True)
                else:
                    expect = reference_slot_rate(cached, dist.probs, params)
                assert rates[s] == pytest.approx(expect, abs=1e-12)
                pol.observe(requests[s])


@pytest.mark.parametrize("accounting, calls_per_slot", [
    ("per-request", 1), ("auto", 0), ("dedup", 0),
])
def test_bitlevel_lfu_engine_calls(monkeypatch, accounting, calls_per_slot):
    # per-request LFU is charged by the engine like every other policy; dedup
    # accounting, the bit-level default, builds no delivery
    calls = []
    build = harness.build_delivery

    def counting(*args, **kwargs):
        calls.append(None)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_delivery", counting)
    cfg = config(policies=("lfu",), rate_mode="bitlevel", lfu_accounting=accounting)
    run_experiment(cfg)
    assert len(calls) == calls_per_slot * cfg.horizon * cfg.trials


def test_lfu_dedup_accounting_in_analytic_mode():
    cfg = config(policies=("lfu",), lfu_accounting="dedup", horizon=3, trials=1)
    tr = run_trial(cfg, 0).trace("lfu")
    requests = _draw_requests(cfg, 0)
    pol = SteppedPolicy("lfu", cfg.params, cfg.dist.probs)
    for s in range(3):
        cached, _ = pol.decide()
        expect = reference_lfu_rate(cached, cfg.dist.probs, 4, per_request=False)
        assert tr.rates[s] == pytest.approx(expect, abs=1e-12)
        pol.observe(requests[s])


# --- determinism ------------------------------------------------------------

def test_trial_determinism_and_request_pairing():
    cfg = config()
    a = run_trial(cfg, 1)
    b = run_trial(cfg, 1)
    for ta, tb in zip(a.traces, b.traces):
        assert ta.policy == tb.policy
        assert np.array_equal(ta.rates, tb.rates)
        assert np.array_equal(ta.cum_regret, tb.cum_regret)
        assert np.array_equal(ta.switches, tb.switches)
    assert np.array_equal(_draw_requests(cfg, 1), _draw_requests(cfg, 1))
    assert not np.array_equal(_draw_requests(cfg, 1), _draw_requests(cfg, 2))


def test_extra_trials_leave_earlier_ones_unchanged():
    short = run_experiment(config(trials=2, policies=("tracking",)))
    for trial in range(2):
        a = run_trial(config(trials=2, policies=("tracking",)), trial)
        b = run_trial(config(trials=5, policies=("tracking",)), trial)
        assert np.array_equal(a.trace("tracking").rates, b.trace("tracking").rates)
    assert short.aggregates[0].mean_rate.shape == (6,)


def test_bitlevel_determinism_and_sanity():
    cfg = config(
        params=SystemParams(3, 3, 1.0),
        dist=PopularityDistribution(np.array([0.6, 0.3, 0.1])),
        policies=("tracking", "oracle", "uniform", "lfu"),
        rate_mode="bitlevel",
        horizon=8,
        trials=2,
        seed=11,
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for agg_a, agg_b in zip(a.aggregates, b.aggregates):
        assert np.array_equal(agg_a.mean_rate, agg_b.mean_rate)
        assert np.array_equal(agg_a.mean_cum_regret, agg_b.mean_cum_regret)
        assert (agg_a.mean_rate >= 0).all()
        assert (agg_a.mean_rate <= cfg.params.n_users).all()
        assert np.all(np.diff(agg_a.mean_switches) >= -1e-12)


# --- aggregation ------------------------------------------------------------

def test_single_trial_aggregate_equals_trial():
    cfg = config(trials=1, policies=("tracking", "lfu"))
    result = run_experiment(cfg)
    trial = run_trial(cfg, 0)
    for agg in result.aggregates:
        tr = trial.trace(agg.policy)
        assert np.allclose(agg.mean_rate, tr.rates, atol=1e-12)
        assert np.allclose(agg.mean_cum_regret, tr.cum_regret, atol=1e-12)
        assert np.allclose(agg.stderr_cum_regret, 0.0, atol=1e-12)
        assert np.allclose(agg.mean_switches, np.cumsum(tr.switches), atol=1e-12)


def test_stderr_matches_manual_computation():
    cfg = config(trials=4, policies=("tracking",))
    result = run_experiment(cfg)
    regrets = np.stack(
        [run_trial(cfg, i).trace("tracking").cum_regret for i in range(4)]
    )
    manual = regrets.std(axis=0, ddof=1) / 2.0
    assert np.allclose(result.aggregates[0].stderr_cum_regret, manual, atol=1e-12)


# --- CSV --------------------------------------------------------------------

def test_emit_csv_layout_and_roundtrip():
    cfg = config(horizon=3, trials=2, policies=("tracking", "uniform"))
    result = run_experiment(cfg)
    buf = io.StringIO()
    emit_csv(result, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == f"# config: {config_summary(cfg)}"
    assert "rate_mode=analytic" in lines[0] and "seed=3" in lines[0]
    assert lines[1] == "t,policy,mean_rate,mean_cum_regret,stderr_cum_regret,mean_switches"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 6  # 3 slots x 2 policies
    assert [r[0] for r in rows] == ["1", "1", "2", "2", "3", "3"]
    assert [r[1] for r in rows[:2]] == ["tracking", "uniform"]
    agg = result.aggregate("tracking")
    for s, row in enumerate(r for r in rows if r[1] == "tracking"):
        assert float(row[2]) == pytest.approx(agg.mean_rate[s], rel=1e-5)
        assert float(row[3]) == pytest.approx(agg.mean_cum_regret[s], rel=1e-5, abs=1e-5)


def test_emit_csv_to_path_and_empty(tmp_path):
    cfg = config(horizon=2, trials=1, policies=("oracle",))
    out = tmp_path / "r.csv"
    emit_csv(run_experiment(cfg), out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # comment + header + 2 rows
    empty = ExperimentResult(cfg, ())
    buf = io.StringIO()
    emit_csv(empty, buf)
    assert buf.getvalue().strip().split("\n")[1:] == [
        "t,policy,mean_rate,mean_cum_regret,stderr_cum_regret,mean_switches"
    ]


def test_one_row_per_slot_and_policy():
    cfg = config(
        horizon=100, trials=10, policies=("tracking", "oracle"), seed=1
    )
    buf = io.StringIO()
    emit_csv(run_experiment(cfg), buf)
    data_rows = [
        line for line in buf.getvalue().strip().split("\n")
        if line and not line.startswith(("#", "t,"))
    ]
    assert len(data_rows) == 200
