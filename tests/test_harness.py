"""Tests for the experiment harness."""
import io
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcache import harness, model, policies
from codedcache.bounds import oracle_rate_upper
from codedcache.engine import slot_rates
from codedcache.harness import (
    ExperimentConfig,
    ExperimentResult,
    PolicyAggregate,
    _lfu_dedup_rates,
    _request_chunks,
    _stderr,
    config_summary,
    emit_csv,
    run_experiment,
    run_trial,
)
from codedcache.model import PopularityDistribution, SystemParams, make_zipf
from codedcache.policies import CONSTANT_POLICIES, POLICY_NAMES, block_rows, switch_flags
from histories import (
    block_matrix,
    decision_blocks,
    decision_matrix,
    draw_requests,
    policy_record,
    sliced_rates,
)
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


@pytest.mark.parametrize("params, dist, rate", [
    # one popular file under M = 3, stored whole
    (SystemParams(10, 2, 3.0), make_zipf(10, 2.0), 0.709484),
    # K * (mass outside) = 0.6 is charged, though coding over the three
    # other files in the spare room of 2 would look cheaper (0.5)
    (SystemParams(4, 4, 3.0), PopularityDistribution(np.array([0.85, 0.05, 0.05, 0.05])), 0.6),
], ids=["zipf2", "spare-room"])
def test_oracle_below_the_budget_pays_the_closed_form(params, dist, rate):
    cfg = ExperimentConfig(
        params=params, dist=dist, policies=("oracle",), horizon=50, trials=1, seed=1,
    )
    tr = run_trial(cfg, 0).trace("oracle")
    assert tr.set_sizes[0] < params.cache_size
    assert oracle_rate_upper(dist, params) == pytest.approx(rate, abs=1e-6)
    assert np.all(np.abs(tr.rates - oracle_rate_upper(dist, params)) <= 1e-12)
    assert np.all(np.abs(tr.cum_regret) <= 1e-12 * np.arange(1, cfg.horizon + 1))


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
        requests = draw_requests(cfg, 0)
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
    # per-request LFU is charged by the engine like every other policy, each
    # slot planned once; dedup accounting, the bit-level default, plans none
    planned = []
    plan = harness.plan_slots

    def counting(params, placements, which, requests):
        planned.extend(requests)
        return plan(params, placements, which, requests)

    monkeypatch.setattr(harness, "plan_slots", counting)
    cfg = config(policies=("lfu",), rate_mode="bitlevel", lfu_accounting=accounting)
    run_experiment(cfg)
    assert len(planned) == calls_per_slot * cfg.horizon * cfg.trials


def test_lfu_dedup_accounting_in_analytic_mode():
    cfg = config(policies=("lfu",), lfu_accounting="dedup", horizon=3, trials=1)
    tr = run_trial(cfg, 0).trace("lfu")
    requests = draw_requests(cfg, 0)
    pol = SteppedPolicy("lfu", cfg.params, cfg.dist.probs)
    for s in range(3):
        cached, _ = pol.decide()
        expect = reference_lfu_rate(cached, cfg.dist.probs, 4, per_request=False)
        assert tr.rates[s] == pytest.approx(expect, abs=1e-12)
        pol.observe(requests[s])


# --- the record streams over decision blocks --------------------------------

@pytest.mark.parametrize("horizon", [192, 200, 1024])
def test_streamed_record_matches_whole_matrix(horizon):
    # 64-slot rate slices at N=1000: 192 slots are three whole slices, 200
    # leave an 8-slot tail; over 1024 slots LFU and tracking decide blocks
    # of more than 64 rows.  Rates are compared with the whole-horizon
    # products.  Oracle and uniform are the experiment's shared traces,
    # whose rates are also those of each 64-slot slice of the matrix
    params = SystemParams(1000, 20, 20.0)
    dist = make_zipf(1000, 0.8)
    assert block_rows(params.n_files) == 64
    for accounting in ("per-request", "dedup"):
        cfg = ExperimentConfig(
            params=params, dist=dist, policies=POLICY_NAMES, horizon=horizon, trials=1,
            seed=4, lfu_accounting=accounting,
        )
        requests = draw_requests(cfg, 0)
        if horizon == 1024:
            for name in ("tracking", "lfu"):
                blocks = decision_blocks(name, requests, dist.probs, params)
                assert max(len(part) for _, _, _, part in blocks) > 64, name
        for name in POLICY_NAMES:
            if name in CONSTANT_POLICIES:
                trace = cfg._constant_traces[name]
                rates, sizes, switches = trace.rates, trace.set_sizes, trace.switches
                assert rates.tolist() == sliced_rates(cfg, name, requests).tolist(), name
            else:
                rates, sizes, switches = policy_record(cfg, name, 0, requests)
            whole = decision_matrix(name, requests, dist.probs, params)
            assert sizes.tolist() == whole.sum(axis=1).tolist()
            assert switches.tolist() == switch_flags(whole).tolist()
            if name == "lfu" and accounting == "dedup":
                want = _lfu_dedup_rates(cfg, whole, requests)
            else:
                want = slot_rates(whole, dist.probs, params)
            if horizon % 64 == 0:
                assert rates.tolist() == want.tolist(), name
            else:
                assert np.all(np.abs(rates - want) <= 4 * np.spacing(np.abs(want))), name


def test_rate_slices_span_decision_blocks():
    # 192-slot rate slices at N=300: tracking's 64- and 128-slot frontier
    # blocks start inside a slice, which is then charged from rows of two
    # blocks; every rate equals the charge of the whole matrix's slice
    params = SystemParams(300, 20, 10.0)
    dist = make_zipf(300, 0.3)
    assert block_rows(300) == 192
    for accounting in ("per-request", "dedup"):
        cfg = ExperimentConfig(params=params, dist=dist, policies=("tracking", "lfu"),
                               horizon=1500, trials=1, seed=1, lfu_accounting=accounting)
        requests = draw_requests(cfg, 0)
        starts = [start for start, *_ in decision_blocks("tracking", requests, dist.probs, params)]
        assert any(start % 192 for start in starts)
        for name in cfg.policies:
            whole = decision_matrix(name, requests, dist.probs, params)
            want = []
            for lo in range(0, 1500, 192):
                rows, slots = whole[lo : lo + 192], requests[lo : lo + 192]
                if name == "lfu" and accounting == "dedup":
                    want.append(_lfu_dedup_rates(cfg, rows, slots))
                else:
                    want.append(slot_rates(rows, dist.probs, params))
            rates, _, _ = policy_record(cfg, name, 0, requests)
            assert rates.tolist() == np.concatenate(want).tolist(), (name, accounting)


def test_rate_slices_of_small_blocks_match_the_whole_matrix(monkeypatch):
    # no row rule, so frontier blocks of any height start inside the rate
    # slices of block_rows slots; many histories and budgets, both LFU
    # accountings, and every slice's rates exactly those of the whole matrix
    monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
    rng = np.random.default_rng(41)
    straddled = 0
    for case in range(30):
        n, k = int(rng.integers(3, 25)), int(rng.integers(1, 6))
        params = SystemParams(n, k, float(rng.integers(1, n)))
        dist = PopularityDistribution(rng.dirichlet(np.full(n, 0.5)))
        horizon = int(rng.integers(20, 300))
        monkeypatch.setattr(policies, "BLOCK_ELEMS", int(rng.integers(2, 12)) * n)
        step = block_rows(n)
        for accounting in ("per-request", "dedup"):
            cfg = ExperimentConfig(params=params, dist=dist, policies=("tracking", "lfu"),
                                   horizon=horizon, trials=1, seed=case,
                                   lfu_accounting=accounting, reference="paired")
            requests = draw_requests(cfg, 0)
            for name in cfg.policies:
                blocks = decision_blocks(name, requests, dist.probs, params)
                straddled += sum(start % step != 0 for start, *_ in blocks)
                whole = decision_matrix(name, requests, dist.probs, params)
                want = []
                for lo in range(0, horizon, step):
                    rows, slots = whole[lo : lo + step], requests[lo : lo + step]
                    if name == "lfu" and accounting == "dedup":
                        want.append(_lfu_dedup_rates(cfg, rows, slots))
                    else:
                        want.append(slot_rates(rows, dist.probs, params))
                rates, _, _ = policy_record(cfg, name, 0, requests)
                assert rates.tolist() == np.concatenate(want).tolist(), (case, name)
    assert straddled > 50


def test_switch_in_fixed_columns_at_a_block_edge(monkeypatch):
    # one-slot blocks: at slot 1 tracking keeps file 0 and drops files 1 and
    # 2, and all three decisions are fixed in that block, so the switch shows
    # only when the block's first row is compared whole with the slot before
    monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
    monkeypatch.setattr(policies, "BLOCK_ELEMS", 3)
    params = SystemParams(3, 1, 1.0)
    dist = PopularityDistribution(np.full(3, 1 / 3))
    requests = np.array([[0], [0]])
    blocks = list(decision_blocks("tracking", requests, dist.probs, params))
    assert [len(varying) for _, _, varying, _ in blocks[1:]] == [0]
    cfg = ExperimentConfig(params=params, dist=dist, policies=("tracking",), horizon=2,
                           trials=1, seed=0)
    _, sizes, switches = policy_record(cfg, "tracking", 0, requests)
    assert sizes.tolist() == [3, 1] and switches.tolist() == [False, True]


def test_streamed_bitlevel_record_across_blocks(monkeypatch):
    # blocks of 3 slots and more against one block: sizes and switches match
    # the whole matrix, and placement and delivery carry across the block
    # edges
    cfg = config(params=SystemParams(6, 4, 2.0, 24), dist=make_zipf(6, 1.0), seed=6,
                 rate_mode="bitlevel", lfu_accounting="per-request", horizon=10)
    requests = draw_requests(cfg, 0)
    one_block = {name: policy_record(cfg, name, 0, requests) for name in POLICY_NAMES}
    monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
    monkeypatch.setattr(policies, "BLOCK_ELEMS", 3 * 6)
    edge_switches = 0
    for name in POLICY_NAMES:
        rates, sizes, switches = policy_record(cfg, name, 0, requests)
        whole = decision_matrix(name, requests, cfg.dist.probs, cfg.params)
        assert sizes.tolist() == whole.sum(axis=1).tolist()
        assert switches.tolist() == switch_flags(whole).tolist()
        assert rates.tolist() == one_block[name][0].tolist(), name
        blocks = list(decision_blocks(name, requests, cfg.dist.probs, cfg.params))
        edge_switches += int(switches[[start for start, *_ in blocks[1:]]].sum())
    assert edge_switches > 0  # the first slot of a later block switched


def test_bitlevel_csv_unchanged_by_block_size(monkeypatch):
    cfg = ExperimentConfig(
        params=SystemParams(20, 10, 4.0, 50), dist=make_zipf(20, 1.0),
        policies=POLICY_NAMES, horizon=30, trials=2, seed=1, rate_mode="bitlevel",
    )

    def csv():
        buf = io.StringIO()
        emit_csv(run_experiment(cfg), buf)
        return buf.getvalue()

    default = csv()
    monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
    monkeypatch.setattr(policies, "BLOCK_ELEMS", 7 * 20)
    assert policies.block_rows(20) == 7
    assert csv() == default


@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("reference", ["closed-form", "paired"])
def test_constant_policy_record_matches_a_charge_per_block(monkeypatch, horizon, reference):
    # oracle's and uniform's shared traces repeat one row: one slot_rates
    # call per distinct 64-slot slice length gives the bits of charging
    # every slice of the expanded decision matrix, and an experiment of
    # three trials charges each length once
    params = SystemParams(1000, 3, 20.0)
    dist = make_zipf(1000, 0.8)
    assert block_rows(params.n_files) == 64
    cfg = ExperimentConfig(params=params, dist=dist, policies=("oracle", "uniform"),
                           horizon=horizon, trials=3, seed=2, reference=reference)
    requests = draw_requests(cfg, 0)
    want = {name: sliced_rates(cfg, name, requests) for name in cfg.policies}
    ref = want["oracle"] if reference == "paired" else np.full(
        horizon, oracle_rate_upper(dist, params))
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return slot_rates(*args, **kwargs)

    monkeypatch.setattr(harness, "slot_rates", counted)
    result = run_experiment(cfg)
    lengths = sorted({min(64, horizon), horizon % 64} - {0})
    assert sorted(calls) == sorted(lengths * len(cfg.policies))
    for name in cfg.policies:
        trace = cfg._constant_traces[name]
        whole = decision_matrix(name, requests, dist.probs, params)
        assert trace.rates.tolist() == want[name].tolist(), name
        assert trace.cum_regret.tolist() == np.cumsum(want[name] - ref).tolist()
        assert trace.set_sizes.tolist() == whole.sum(axis=1).tolist()
        assert not trace.switches.any()
        assert result.aggregate(name).mean_rate.tolist() == want[name].tolist(), name


@pytest.mark.parametrize("names", [POLICY_NAMES, ("uniform", "lfu")])
@pytest.mark.parametrize("reference", ["closed-form", "paired"])
def test_constant_traces_are_shared_by_every_trial(reference, names):
    # N=1000 charges 64-slot slices, so a horizon of 1000 ends on a short
    # one.  In analytic mode oracle's and uniform's traces, and the closed-
    # form reference, are built once and handed read-only to every trial;
    # their rates are slot_rates of each slice of the expanded decisions
    params = SystemParams(1000, 3, 20.0)
    cfg = ExperimentConfig(params=params, dist=make_zipf(1000, 0.8), policies=names,
                           horizon=1000, trials=3, seed=2, reference=reference)
    assert block_rows(params.n_files) == 64
    trials = [run_trial(cfg, trial) for trial in range(cfg.trials)]
    requests = draw_requests(cfg, 0)
    want = {name: sliced_rates(cfg, name, requests) for name in CONSTANT_POLICIES}
    if reference == "paired":
        ref = want["oracle"]
    else:
        ref = np.full(cfg.horizon, oracle_rate_upper(cfg.dist, params))
    for result in trials:
        assert result.reference_rates.tobytes() == ref.tobytes()
        assert result.reference_rates is trials[0].reference_rates
        assert not result.reference_rates.flags.writeable
        for name in set(names) & set(CONSTANT_POLICIES):
            trace = result.trace(name)
            assert trace is cfg._constant_traces[name]
            assert trace.rates.tobytes() == want[name].tobytes(), name
            whole = decision_matrix(name, requests, cfg.dist.probs, params)
            assert trace.set_sizes.tolist() == whole.sum(axis=1).tolist()
            assert trace.switches.tolist() == [False] * 1000
            assert trace.cum_regret.tobytes() == np.cumsum(want[name] - ref).tobytes()
            for values in (trace.rates, trace.set_sizes, trace.switches, trace.cum_regret):
                assert not values.flags.writeable
                with pytest.raises(ValueError):
                    values[0] = values[1]
    assert set(cfg._constant_traces) == set(names) & set(CONSTANT_POLICIES) | (
        {"oracle"} if reference == "paired" else set())


def test_bitlevel_constant_policies_pay_each_trials_delivery():
    # bit-level delivery is drawn per trial, so uniform's rates differ
    # between trials and nothing is shared
    cfg = ExperimentConfig(params=SystemParams(8, 4, 2.0, 20), dist=make_zipf(8, 1.0),
                           policies=("oracle", "uniform"), horizon=30, trials=2, seed=4,
                           rate_mode="bitlevel", reference="paired")
    assert cfg._constant_traces == {}
    first, second = run_trial(cfg, 0), run_trial(cfg, 1)
    for name in cfg.policies:
        assert first.trace(name) is not second.trace(name)
    assert first.trace("uniform").rates.tolist() != second.trace("uniform").rates.tolist()
    assert first.reference_rates.tolist() != second.reference_rates.tolist()


@pytest.mark.parametrize("reference", ["closed-form", "paired"])
def test_wide_csv_unchanged_by_the_frontier_budget(monkeypatch, reference):
    # BLOCK_ELEMS bounds a frontier block's rows * |varying|; from 2**12 to
    # 2**16 the rate slices stay 64 rows and only the decision blocks change
    cfg = ExperimentConfig(
        params=SystemParams(1000, 100, 20.0), dist=make_zipf(1000, 0.8),
        policies=POLICY_NAMES, horizon=2000, trials=1, seed=3, reference=reference,
    )

    def csv():
        buf = io.StringIO()
        emit_csv(run_experiment(cfg), buf)
        return buf.getvalue()

    default = csv()
    for elems in (2**12, 2**14, 2**15):
        monkeypatch.setattr(policies, "BLOCK_ELEMS", elems)
        assert block_rows(1000) == 64
        assert csv() == default, elems


@pytest.mark.parametrize("n, k, m, horizon", [
    (1000, 100, 20.0, 3001), (300, 20, 10.0, 3001), (5000, 4, 50.0, 20_001), (20, 10, 2.0, 7001),
])
def test_trial_blocks_are_whole_multiples_within_the_budget(monkeypatch, n, k, m, horizon):
    # as a trial feeds them: every block but the last has a multiple of 64
    # rows, a dense block has block_rows of them, and a frontier block keeps
    # rows * |varying| within BLOCK_ELEMS unless it has 64 rows
    blocks = []
    step = policies.DecisionWalk.step

    def spy(walk, requests):
        block = step(walk, requests)
        blocks.append((walk.policy, block))
        return block

    monkeypatch.setattr(policies.DecisionWalk, "step", spy)
    cfg = ExperimentConfig(params=SystemParams(n, k, m), dist=make_zipf(n, 1.0),
                           policies=("tracking", "lfu"), horizon=horizon, trials=1, seed=5)
    run_trial(cfg, 0)
    for name in cfg.policies:
        mine = [block for policy, block in blocks if policy == name]
        assert sum(len(part) for *_, part in mine) == horizon
        for start, _, varying, part in mine[:-1]:
            rows = len(part)
            assert rows % 64 == 0, (name, start)
            if isinstance(varying, slice):
                assert rows == block_rows(n)
            else:
                assert rows * len(varying) <= policies.BLOCK_ELEMS or rows == 64
        assert any(not isinstance(varying, slice) for _, _, varying, _ in mine)


@pytest.mark.parametrize("shape", ["readme", "dense fallback"])
def test_shared_first_block_changes_no_record(monkeypatch, shape):
    # tracking and LFU read their first block's counts from one holder, and
    # each policy's record in a paired trial is bit for bit its record alone.
    # The README shape is one dense block per trial, counted once.  In the
    # fallback shape (N=40, K=2, M=21, uniform, 64-slot blocks drawn 192
    # slots at a time) LFU's frontier always holds more than half the files,
    # so every LFU block is dense, and so are many of tracking's: each walk
    # counts those later blocks alone
    if shape == "readme":
        params, dist, horizon = SystemParams(20, 10, 2.0), make_zipf(20, 1.0), 2000
    else:
        monkeypatch.setattr(policies, "BLOCK_ELEMS", 64 * 40)
        monkeypatch.setattr(harness, "REQUEST_CHUNK", 3 * 64 * 2)
        params, dist, horizon = SystemParams(40, 2, 21.0), make_zipf(40, 0.0), 640
    counted, dense = [], []
    count, step = policies._counts_before, policies.DecisionWalk.step

    def counting(*args):
        before = count(*args)
        counted.append(weakref.ref(before))
        return before

    def sample(*args):
        # the holder is emptied with each chunk: no counts outlive it
        assert all(ref() is None for ref in counted)
        return model.sample_requests(*args)

    def spy(walk, requests):
        block = step(walk, requests)
        if isinstance(block[2], slice):
            dense.append((walk.policy, block[0]))
        return block

    monkeypatch.setattr(policies, "_counts_before", counting)
    monkeypatch.setattr(policies.DecisionWalk, "step", spy)
    monkeypatch.setattr(harness, "sample_requests", sample)

    def trial(names):
        counted.clear()
        dense.clear()
        cfg = ExperimentConfig(params=params, dist=dist, policies=names, horizon=horizon,
                               trials=1, seed=3)
        return run_trial(cfg, 0), len(counted)

    paired, calls = trial(("tracking", "lfu"))
    both = set.intersection(*({start for policy, start in dense if policy == name}
                              for name in ("tracking", "lfu")))
    alone_calls = 0
    for name in ("tracking", "lfu"):
        alone, name_calls = trial((name,))
        alone_calls += name_calls
        for field in ("rates", "set_sizes", "switches"):
            got, want = getattr(paired.trace(name), field), getattr(alone.trace(name), field)
            assert got.tolist() == want.tolist(), (name, field)
    assert calls == alone_calls - 1
    if shape == "readme":
        assert both == {0} and calls == 1
    else:
        assert sum(start >= 192 for start in both) >= 2, both


@pytest.mark.parametrize("shape", ["readme", "wide", "dense fallback"])
def test_record_sizes_and_switches_equal_each_expanded_block(monkeypatch, shape):
    # a record counts sizes once per run of equal rows, and LFU's as M; block
    # by block they equal the expanded block's row sums.  README: one dense
    # block is the whole horizon.  N=1000, K=100: frontier blocks for
    # tracking and LFU, and blocks with no varying column for oracle and
    # uniform.  The fallback (N=40, K=2, M=21, uniform): dense blocks past
    # the first.  The trial shares oracle's and uniform's analytic traces,
    # so their records are fed the trial's chunks here
    if shape == "readme":
        params, dist, horizon = SystemParams(20, 10, 2.0), make_zipf(20, 1.0), 2000
    elif shape == "wide":
        params, dist, horizon = SystemParams(1000, 100, 20.0), make_zipf(1000, 0.8), 2000
    else:
        monkeypatch.setattr(policies, "BLOCK_ELEMS", 64 * 40)
        monkeypatch.setattr(harness, "REQUEST_CHUNK", 3 * 64 * 2)
        params, dist, horizon = SystemParams(40, 2, 21.0), make_zipf(40, 0.0), 640
    blocks = {name: [] for name in POLICY_NAMES}
    step = policies.DecisionWalk.step

    def spy(walk, requests):
        block = step(walk, requests)
        blocks[walk.policy].append(block)
        return block

    monkeypatch.setattr(policies.DecisionWalk, "step", spy)
    cfg = ExperimentConfig(params=params, dist=dist, policies=POLICY_NAMES,
                           horizon=horizon, trials=1, seed=2)
    result = run_trial(cfg, 0)
    records = {name: harness._PolicyRecord(cfg, name, 0) for name in CONSTANT_POLICIES}
    for requests in _request_chunks(cfg, 0):
        for record in records.values():
            record.feed(requests)
    kinds = set()
    for name in POLICY_NAMES:
        trace, previous = result.trace(name), None
        sizes, switches = trace.set_sizes, trace.switches
        if name in records:
            sizes, switches = records[name].sizes, records[name].switches
            assert trace.set_sizes.tolist() == sizes.tolist()
            assert trace.switches.tolist() == switches.tolist()
        for start, fixed, varying, part in blocks[name]:
            block = block_matrix(fixed, varying, part)
            rows = slice(start, start + len(part))
            assert sizes[rows].tolist() == block.sum(axis=1).tolist(), (name, start)
            assert switches[rows].tolist() == switch_flags(block, previous).tolist()
            previous = block[-1]
            kinds.add("dense" if isinstance(varying, slice) else
                      "frontier" if len(varying) else "constant")
        if name == "lfu":
            assert (trace.set_sizes == params.cache_size).all()
    if shape == "readme":
        assert [len(part) for *_, part in blocks["tracking"]] == [horizon]
        assert kinds == {"dense", "constant"}
    elif shape == "wide":
        assert kinds == {"dense", "frontier", "constant"}
        assert result.trace("tracking").total_switches > 0
    else:
        assert sum(isinstance(varying, slice) for _, _, varying, _ in blocks["lfu"]) > 1


@pytest.mark.parametrize("n, k, m", [(8, 1, 1), (8, 1, 3), (8, 1, 8), (1000, 100, 20)])
def test_every_lfu_row_caches_m_files_at_both_key_widths(monkeypatch, n, k, m):
    # LFU's keys are unique in a row, so it caches exactly the top M, and
    # the record's run sums give M in every slot.  Uniform popularity makes count ties
    # common; small blocks give frontier blocks at N=8.  A walk built for a
    # longer horizon ranks on int64 keys and decides the same rows
    if n == 8:
        monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
        monkeypatch.setattr(policies, "BLOCK_ELEMS", 4 * n)
    params = SystemParams(n, k, float(m))
    dist = make_zipf(n, 0.0 if n == 8 else 0.8)
    cfg = ExperimentConfig(params=params, dist=dist, policies=("lfu",), horizon=400,
                           trials=1, seed=3)
    requests = draw_requests(cfg, 0)
    decided = []
    for horizon, width in ((400, np.int32), (2**31 // (k * n) + 1, np.int64)):
        walk = policies.DecisionWalk("lfu", dist.probs, params, horizon)
        assert walk._tie_break.dtype == width
        rows = []
        while walk.start < len(requests):
            rows.append(block_matrix(*walk.step(requests[walk.start :])[1:]))
        decided.append(np.concatenate(rows))
        assert (decided[-1].sum(axis=1) == m).all(), width
    assert decided[0].tolist() == decided[1].tolist()


def test_frontier_blocks_build_no_dense_block():
    # N=20000 files for 2 users: past the first chunk, a trial's frontier
    # blocks span thousands of slots, whose (rows, N) bool block would be
    # tens of MB; a record decides and charges them in a small part of that
    cfg = ExperimentConfig(params=SystemParams(20_000, 2, 50.0), dist=make_zipf(20_000, 1.0),
                           policies=("tracking", "lfu"), horizon=2 * 32768, trials=1, seed=5)
    for name in cfg.policies:
        first, second = _request_chunks(cfg, 0)
        record = harness._PolicyRecord(cfg, name, 0)
        record.feed(first)
        shapes = []
        step = record.walk.step

        def noted(requests):
            block = step(requests)
            shapes.append(block[3].shape)
            return block

        record.walk.step = noted
        tracemalloc.start()
        try:
            record.feed(second)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(cols for _, cols in shapes) < 10_000, name
        # one (rows, N) bool block alone would exceed 4 times the traced
        # peak, less the float rows the feed rebuilds its rate slices in
        slice_rows = policies.block_rows(20_000) * 20_000 * 8
        assert max(rows for rows, _ in shapes) * 20_000 > 4 * (peak - slice_rows), (
            name, shapes, peak)


# --- the trial streams its requests block by block --------------------------

def wide_config(horizon):
    return ExperimentConfig(
        params=SystemParams(1000, 100, 20.0), dist=make_zipf(1000, 0.8),
        policies=POLICY_NAMES, horizon=horizon, trials=1, seed=1,
    )


def traced_trial_peak(cfg):
    tracemalloc.start()
    try:
        run_trial(cfg, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_trial_memory_stays_below_the_decision_matrix():
    # the (T, N) float64 copy of a whole decision matrix alone is 80 MB here,
    # and the (T, K) int64 request matrix 8 MB; streamed, a trial holds one
    # 640-slot chunk of requests (0.5 MB), blocks of decisions and its
    # per-slot records
    assert traced_trial_peak(wide_config(10_000)) < 6e6


def test_wide_trial_memory_grows_only_by_the_per_slot_records():
    # per slot and policy a trial keeps a rate, a size, a switch flag and a
    # cumulative regret (25 bytes), and one reference rate plus one rates
    # minus reference temporary; a held request matrix would add 800 bytes
    per_slot = 25 * len(POLICY_NAMES) + 2 * 8
    peaks = [traced_trial_peak(wide_config(horizon)) for horizon in (10_000, 20_000)]
    assert peaks[1] - peaks[0] < 10_000 * per_slot


def test_request_blocks_join_into_the_whole_draw(monkeypatch):
    # 64-slot rate slices at N=600 and chunks of 3 slices for 4 users:
    # horizons one short of, on and one past a chunk edge
    monkeypatch.setattr(harness, "REQUEST_CHUNK", 3 * 64 * 4)
    drawn = []

    def sample(dist, n_users, rng):
        drawn.append(n_users)
        return model.sample_requests(dist, n_users, rng)

    for horizon in (1, 191, 192, 193, 400):
        cfg = ExperimentConfig(params=SystemParams(600, 4, 30.0), dist=make_zipf(600, 0.8),
                               policies=("lfu",), horizon=horizon, trials=1, seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "sample_requests", sample)
            drawn.clear()
            chunks = list(_request_chunks(cfg, 0))
        assert drawn == [4 * min(192, horizon - lo) for lo in range(0, horizon, 192)]
        assert [len(c) for c in chunks[:-1]] == [192] * (len(chunks) - 1)
        whole = model.sample_requests(cfg.dist, 4 * horizon, model.substream(cfg.seed, 0, 0))
        assert np.concatenate(chunks).ravel().tolist() == whole.requests.tolist()


def test_trial_frees_each_chunk_before_drawing_the_next(monkeypatch):
    # one-slice chunks: when a chunk is drawn, no earlier chunk is alive
    monkeypatch.setattr(harness, "REQUEST_CHUNK", 64 * 4)
    alive = []

    def sample(dist, n_users, rng):
        assert all(ref() is None for ref in alive)
        profile = model.sample_requests(dist, n_users, rng)
        alive.append(weakref.ref(profile.requests))
        return profile

    monkeypatch.setattr(harness, "sample_requests", sample)
    for rate_mode in ("analytic", "bitlevel"):
        alive.clear()
        cfg = ExperimentConfig(params=SystemParams(600, 4, 30.0, 8), dist=make_zipf(600, 0.8),
                               policies=POLICY_NAMES, horizon=300, trials=1, seed=2,
                               rate_mode=rate_mode, lfu_accounting="dedup")
        run_trial(cfg, 0)
        assert len(alive) == 5


@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 191, 192, 193])
@pytest.mark.parametrize("rate_mode", ["analytic", "bitlevel"])
def test_lockstep_trial_equals_the_whole_matrix_records(monkeypatch, horizon, rate_mode):
    # 64-slot blocks at N=600, drawn 3 blocks (192 slots) at a time: each
    # trace is bit for bit the record of the whole request matrix, with the
    # oracle a listed policy or only the paired reference.  An analytic
    # oracle or uniform trace is shared by the experiment, and its rates are
    # slot_rates of each 64-slot slice of the expanded decisions
    monkeypatch.setattr(harness, "REQUEST_CHUNK", 3 * 64 * 4)
    params = SystemParams(600, 4, 30.0, 8)
    dist = make_zipf(600, 0.8)
    assert block_rows(params.n_files) == 64
    cases = itertools.product(
        [("closed-form", POLICY_NAMES), ("paired", POLICY_NAMES),
         ("paired", ("lfu", "tracking", "uniform"))],
        ["per-request", "dedup"],
    )
    for (reference, names), accounting in cases:
        cfg = ExperimentConfig(params=params, dist=dist, policies=names, horizon=horizon,
                               trials=1, seed=7, rate_mode=rate_mode, reference=reference,
                               lfu_accounting=accounting)
        result = run_trial(cfg, 0)
        requests = draw_requests(cfg, 0)

        def record(name):
            rates, sizes, switches = policy_record(cfg, name, 0, requests)
            if name in cfg._constant_traces:
                rates = sliced_rates(cfg, name, requests)
            return rates, sizes, switches

        if reference == "paired":
            ref = record("oracle")[0]
        else:
            ref = np.full(horizon, oracle_rate_upper(dist, params))
        assert result.reference_rates.tolist() == ref.tolist()
        for name in names:
            rates, sizes, switches = record(name)
            trace = result.trace(name)
            assert trace.rates.tolist() == rates.tolist(), (name, reference, accounting)
            assert trace.set_sizes.tolist() == sizes.tolist()
            assert trace.switches.tolist() == switches.tolist()
            assert trace.cum_regret.tolist() == np.cumsum(rates - ref).tolist()


def test_lfu_refuses_a_long_history_before_any_draw(monkeypatch):
    # T * K * N == 2**63; the refusal comes from the horizon, not the draw
    def no_draw(*args):
        raise AssertionError("requests drawn")

    monkeypatch.setattr(harness, "sample_requests", no_draw)
    cfg = ExperimentConfig(params=SystemParams(2**10, 2**10, 4.0),
                           dist=PopularityDistribution(np.full(2**10, 2.0**-10)),
                           policies=("lfu",), horizon=2**43, trials=1, seed=0)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        run_trial(cfg, 0)


def test_closed_form_reference_is_computed_once_per_experiment(monkeypatch):
    calls = []

    def counted(dist, params):
        calls.append(params)
        return oracle_rate_upper(dist, params)

    monkeypatch.setattr(harness, "oracle_rate_upper", counted)
    cfg = config(trials=3, horizon=9)
    run_experiment(cfg)
    reference = run_trial(cfg, 3).reference_rates
    assert calls == [cfg.params]
    assert reference.tolist() == [oracle_rate_upper(cfg.dist, cfg.params)] * 9


def test_request_matrix_is_a_view_of_the_drawn_profile(monkeypatch):
    # 64-slot chunks at N=600 for 4 users: each chunk is its drawn profile's
    # requests, reshaped, not a copy
    monkeypatch.setattr(harness, "REQUEST_CHUNK", 64 * 4)
    drawn = []

    def sample(*args):
        drawn.append(model.sample_requests(*args))
        return drawn[-1]

    monkeypatch.setattr(harness, "sample_requests", sample)
    cfg = ExperimentConfig(params=SystemParams(600, 4, 30.0), dist=make_zipf(600, 0.8),
                           policies=("lfu",), horizon=300, trials=1, seed=2)
    chunks = list(_request_chunks(cfg, 0))
    assert len(chunks) == len(drawn) == 5
    for chunk, profile in zip(chunks, drawn):
        assert np.shares_memory(chunk, profile.requests)


def test_wide_request_draw_holds_one_copy():
    # the wide history is 10^6 int64 requests, 8 MB; drawn a 640-slot chunk
    # (0.5 MB) at a time, each dropped before the next, the draw holds one
    # chunk and the sampler's temporaries, never the history
    cfg = ExperimentConfig(
        params=SystemParams(1000, 100, 20.0), dist=make_zipf(1000, 0.8),
        policies=POLICY_NAMES, horizon=10_000, trials=1, seed=1,
    )
    tracemalloc.start()
    try:
        for chunk in _request_chunks(cfg, 0):
            assert chunk.nbytes <= 640 * 100 * 8
            del chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


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
    assert np.array_equal(draw_requests(cfg, 1), draw_requests(cfg, 1))
    assert not np.array_equal(draw_requests(cfg, 1), draw_requests(cfg, 2))


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


@pytest.mark.parametrize("trials, overrides", [
    pytest.param(1, {}, id="1"),
    pytest.param(2, {}, id="2"),
    pytest.param(200, {}, id="200"),
    pytest.param(2, {"reference": "paired"}, id="2-paired"),
    pytest.param(200, {"reference": "paired"}, id="200-paired"),
    pytest.param(3, {"reference": "paired", "policies": ("uniform", "lfu")},
                 id="3-paired-oracle-unlisted"),
    pytest.param(3, {"params": SystemParams(20, 10, 4.0, 50), "rate_mode": "bitlevel",
                     "horizon": 60}, id="3-bitlevel"),
])
def test_streamed_means_equal_the_stacked_means(trials, overrides):
    # the running sums, divided once, give the bits of a mean over the
    # stacked trials, and the cumulative regrets rebuilt from each trial's
    # runs give the bits of the stacked standard error.  Switches are summed
    # as integers and cumsummed once, which gives the same bits as the mean
    # of each trial's cumsum
    cfg = ExperimentConfig(**{
        "params": SystemParams(20, 10, 2.0), "dist": make_zipf(20, 1.0),
        "policies": POLICY_NAMES, "horizon": 300, "trials": trials, "seed": 5, **overrides,
    })
    result = run_experiment(cfg)
    traces = [run_trial(cfg, trial) for trial in range(trials)]
    per_slot = 0  # trials whose regrets are kept slot by slot
    switched = 0  # cache rewrites over every policy and trial
    for agg in result.aggregates:
        mine = [trial.trace(agg.policy) for trial in traces]
        rates = np.stack([tr.rates for tr in mine]).mean(axis=0)
        regrets = np.stack([tr.cum_regret for tr in mine])
        # one int64 total per slot, cumsummed once, against the float mean
        # of each trial's cumulative switches
        stacked = np.stack([tr.switches for tr in mine])
        switches = np.cumsum(stacked, axis=1).mean(axis=0)
        switched += int(stacked.sum())
        if trials > 1:
            stderr = regrets.std(axis=0, ddof=1) / np.sqrt(trials)
        else:
            stderr = np.zeros(cfg.horizon)
        assert agg.mean_rate.tobytes() == rates.tobytes(), agg.policy
        assert agg.mean_cum_regret.tobytes() == regrets.mean(axis=0).tobytes(), agg.policy
        assert agg.stderr_cum_regret.tobytes() == stderr.tobytes(), agg.policy
        assert agg.mean_switches.tobytes() == switches.tobytes(), agg.policy
        for trial, tr in zip(traces, mine):
            _, lengths = harness._runs(tr.rates - trial.reference_rates)
            per_slot += isinstance(lengths, int)
    # bit-level rates change from slot to slot, analytic ones only on a switch
    assert (per_slot > 0) == (cfg.rate_mode == "bitlevel")
    assert switched > 0


def test_runs_give_back_the_bits():
    # runs are found by bits, so -0.0 and 0.0 are two runs and equal NaNs
    # one; more runs than half the slots keep the values as they are
    values = np.array([1.5] * 3 + [-0.0] + [0.0] * 3 + [np.nan] * 3 + [2.0])
    runs, lengths = harness._runs(values)
    assert runs.tobytes() == values[[0, 3, 4, 7, 10]].tobytes()
    assert lengths.tolist() == [3, 1, 3, 3, 1]
    assert np.repeat(runs, lengths).tobytes() == values.tobytes()
    for values in (np.arange(6.0), np.array([3.0]), np.array([1.0, 1.0, 2.0])):
        runs, lengths = harness._runs(values)
        assert np.repeat(runs, lengths).tobytes() == values.tobytes()
    assert harness._runs(np.arange(6.0))[1] == 1


def experiment_peak(trials, horizon):
    cfg = ExperimentConfig(
        params=SystemParams(20, 10, 2.0), dist=make_zipf(20, 1.0),
        policies=("tracking", "uniform", "lfu"), horizon=horizon, trials=trials, seed=1,
    )
    tracemalloc.start()
    try:
        run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_readme_experiment_memory_streams_the_means():
    # the README command: 200 trials of 2000 slots and three policies.
    # Holding every trial's rates, regrets and cumulative switches until the
    # end peaks near 36 MB, and one (trials, horizon) regret array per policy
    # near 12 MB; kept as runs, a trial's regrets take a few hundred bytes
    assert experiment_peak(200, 2000) < 4e6


def test_experiment_memory_does_not_grow_with_trials_times_horizon():
    # 1000 trials of 500 slots: a (trials, horizon) regret array per policy
    # would be 12 MB
    assert experiment_peak(1000, 500) < 8e6


@pytest.mark.parametrize("trials", [1, 2, 3, 200])
def test_stderr_has_the_bits_of_numpy_std(trials):
    rows = np.random.default_rng(trials).standard_normal((trials, 500)).cumsum(axis=1)
    rows[:, :3] = 0.5  # columns with no spread
    mean = rows.mean(axis=0)
    want = rows.std(axis=0, ddof=1) / np.sqrt(trials) if trials > 1 else np.zeros(500)
    assert _stderr(rows, mean).tobytes() == want.tobytes()


def test_stderr_matches_manual_computation():
    cfg = config(trials=4, policies=("tracking",))
    result = run_experiment(cfg)
    regrets = np.stack(
        [run_trial(cfg, i).trace("tracking").cum_regret for i in range(4)]
    )
    manual = regrets.std(axis=0, ddof=1) / 2.0
    assert np.allclose(result.aggregates[0].stderr_cum_regret, manual, atol=1e-12)


# --- CSV --------------------------------------------------------------------

def reference_csv(result):
    """The CSV text written one f-string per row and ``.6g`` per value."""
    columns = [
        (agg.policy, agg.mean_rate.tolist(), agg.mean_cum_regret.tolist(),
         agg.stderr_cum_regret.tolist(), agg.mean_switches.tolist())
        for agg in result.aggregates
    ]
    lines = [
        f"# config: {config_summary(result.config)}",
        "t,policy,mean_rate,mean_cum_regret,stderr_cum_regret,mean_switches",
    ]
    for s in range(result.config.horizon if columns else 0):
        for policy, rate, regret, stderr, switches in columns:
            lines.append(
                f"{s + 1},{policy},{rate[s]:.6g},{regret[s]:.6g},"
                f"{stderr[s]:.6g},{switches[s]:.6g}"
            )
    lines.append("")
    return "\n".join(lines)


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, np.inf, -np.inf, np.nan,
                  123456.5, 1234567.0, 1e-5, 9.999995e-5, 0.1 + 0.2]


@pytest.mark.parametrize("horizon", [1, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("names", [("lfu",), POLICY_NAMES])
def test_emit_csv_matches_the_per_value_writer(horizon, names):
    # chunk edges at 1024 slots, and values whose text is easy to get wrong
    assert harness.CSV_CHUNK == 1024
    rng = np.random.default_rng(horizon)
    cfg = config(horizon=horizon, trials=3, policies=names)

    def column():
        values = rng.standard_normal(horizon) * 10.0 ** rng.integers(-12, 18, horizon)
        at = rng.integers(0, horizon, len(SPECIAL_VALUES))
        values[at] = SPECIAL_VALUES
        values[-1] = SPECIAL_VALUES[rng.integers(len(SPECIAL_VALUES))]
        return values

    aggregates = tuple(
        PolicyAggregate(name, column(), column(), column(), column()) for name in names
    )
    result = ExperimentResult(cfg, aggregates)
    buf = io.StringIO()
    emit_csv(result, buf)
    assert buf.getvalue() == reference_csv(result)
    # columns whose bits are constant in some chunks and not in others: the
    # writer formats those once per chunk, and only those
    chunk = harness.CSV_CHUNK
    steady = np.full(horizon, 2.5)
    steady[chunk:] = np.arange(horizon - chunk) * 0.25  # varies past chunk 0
    zeros = np.zeros(horizon)
    zeros[:chunk] = -0.0  # a chunk of -0.0 beside a chunk of 0.0
    mixed = np.zeros(horizon)
    mixed[::2] = -0.0  # equal values, different bits, in every chunk
    nans = np.full(horizon, np.nan)
    nans.view(np.uint64)[1::3] = 0x7FF8000000000001  # another payload
    nans.view(np.uint64)[2::3] = 0xFFF8000000000000  # and the sign bit
    infs = np.full(horizon, np.inf)
    kinds = itertools.cycle([steady, zeros, mixed, nans, infs])
    aggregates = tuple(
        PolicyAggregate(name, *(next(kinds) for _ in range(4))) for name in names
    )
    result = ExperimentResult(cfg, aggregates)
    buf = io.StringIO()
    emit_csv(result, buf)
    text = buf.getvalue()
    assert text == reference_csv(result)
    if horizon > 1:
        assert ",-0," in text and ",0," in text  # mixed holds both in one chunk
    empty = ExperimentResult(cfg, ())
    buf = io.StringIO()
    emit_csv(empty, buf)
    assert buf.getvalue() == reference_csv(empty)


def test_emit_csv_escapes_percent_in_a_policy_name():
    cfg = config(horizon=2, trials=1, policies=("uniform",))
    ones = np.ones(2)
    result = ExperimentResult(cfg, (PolicyAggregate("a%db", ones, ones, ones, ones),))
    buf = io.StringIO()
    emit_csv(result, buf)
    assert buf.getvalue() == reference_csv(result)


@settings(max_examples=500, deadline=None, database=None)
@given(st.floats(width=64))
def test_percent_format_is_format_spec(x):
    # the chunked writer's template relies on this identity for every float64
    assert "%.6g" % x == format(x, ".6g")


@pytest.mark.parametrize("m, text", [
    (2, "2"), (2.0, "2"), (20.0, "20"), (2.3, "2.3"), (0.07, "0.07"),
    (2.3456789, "2.3456789"), (1e-05, "1e-05"),
])
def test_config_line_records_the_exact_cache_size(m, text):
    # the # config: line's m= reads back as the M that was run
    cfg = config(params=SystemParams(20, 4, m), dist=make_zipf(20, 1.0), policies=("uniform",))
    fields = dict(tok.split("=", 1) for tok in config_summary(cfg).split())
    assert fields["m"] == text and float(fields["m"]) == m


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
