"""Tests for the policy decision rules and the LFU rate accounting."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcache.engine import build_delivery, sample_placement, slot_rates
from codedcache.harness import ExperimentConfig, _lfu_dedup_rates
from codedcache.model import (
    PopularityDistribution,
    RequestProfile,
    SystemParams,
    make_zipf,
    substream,
)
from codedcache import policies
from codedcache.policies import POLICY_NAMES, DecisionWalk, block_rows, count_floors, switch_flags
from histories import block_matrix, decision_blocks, decision_matrix, draw_requests


def decide(policy, requests, params, probs=None):
    """Cached sets and switch flags of ``policy`` over a scripted history."""
    if probs is None:
        probs = np.full(params.n_files, 1.0 / params.n_files)
    decisions = decision_matrix(policy, np.asarray(requests), probs, params)
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in decisions]
    return sets, switch_flags(decisions).tolist()


def lfu_config(params, probs, rate_mode="analytic"):
    return ExperimentConfig(
        params=params, dist=PopularityDistribution(probs), policies=("lfu",),
        horizon=1, trials=1, seed=0, rate_mode=rate_mode, lfu_accounting="dedup",
    )


def misses(decisions, requests):
    """Requests outside each slot's cached set."""
    return (~np.take_along_axis(decisions, requests, axis=1)).sum(axis=1)


def test_estimator_counts_and_frequencies():
    # after requests [0, 2] and [0, 0] the counts are [3, 0, 1] over 2 slots
    # of 2 users, so tracking thresholds the estimate [0.75, 0, 0.25]
    history = [[0, 2], [0, 0], [1, 1]]
    sets, _ = decide("tracking", history, SystemParams(3, 2, 2.0))  # threshold 1/4
    assert sets[2] == frozenset({0, 2})
    sets, _ = decide("tracking", history, SystemParams(3, 2, 1.5))  # threshold 1/3
    assert sets[2] == frozenset({0})


def test_popular_set_keeps_threshold_ties():
    params = SystemParams(4, 4, 1.0)  # threshold 0.25
    probs = np.array([0.4, 0.25, 0.25, 0.1])
    assert params.popular(probs).tolist() == [True, True, True, False]
    sets, _ = decide("oracle", [[3, 3, 3, 3]], params, probs)
    assert sets == [frozenset({0, 1, 2})]


def test_tracking_first_slot_caches_everything():
    sets, flags = decide("tracking", [[0, 0], [0, 1]], SystemParams(5, 2, 1.0))
    assert sets[0] == frozenset(range(5)) and not flags[0]


def test_tracking_follows_the_estimate():
    params = SystemParams(3, 2, 3.0)  # threshold 1/6
    sets, flags = decide("tracking", [[0, 0], [1, 2], [0, 0], [1, 1]], params)
    # estimates: none yet, [1, 0, 0], [0.5, 0.25, 0.25], [4, 1, 1]/6 (ties cache)
    assert sets == [frozenset({0, 1, 2}), frozenset({0}), frozenset({0, 1, 2}),
                    frozenset({0, 1, 2})]
    assert flags == [False, True, True, False]


def test_oracle_is_constant():
    params = SystemParams(4, 4, 1.0)
    probs = np.array([0.4, 0.35, 0.15, 0.10])
    sets, flags = decide("oracle", [[3, 3, 3, 3]] * 3, params, probs)
    assert sets == [frozenset({0, 1})] * 3
    assert flags == [False] * 3


def test_uniform_caches_all():
    sets, flags = decide("uniform", [[0, 1], [1, 1], [5, 5]], SystemParams(6, 2, 1.0))
    assert sets == [frozenset(range(6))] * 3
    assert flags == [False] * 3


def test_lfu_requires_integer_budget():
    with pytest.raises(ValueError, match="integer cache size"):
        decide("lfu", [[0, 1]], SystemParams(4, 2, 1.5))


def test_lfu_tie_break_and_switching():
    params = SystemParams(4, 2, 2.0)
    sets, flags = decide("lfu", [[3, 3], [2, 0], [1, 1]], params)
    assert sets[0] == frozenset({0, 1})  # zero counts tie to low ids
    assert sets[1] == frozenset({3, 0}) and flags[1]
    # counts [1, 0, 1, 2]: keep 3, tie 0 vs 2 -> 0
    assert sets[2] == frozenset({3, 0}) and not flags[2]


def test_factory_round_trip():
    # every name the harness accepts gives a (horizon, n_files) decision matrix
    params = SystemParams(4, 2, 1.0)
    requests = np.array([[0, 1], [2, 2], [3, 0]])
    for name in POLICY_NAMES:
        decisions = decision_matrix(name, requests, make_zipf(4, 1.0).probs, params)
        assert decisions.shape == (3, 4) and decisions.dtype == bool
    with pytest.raises(ValueError, match="unknown policy"):
        decision_matrix("mru", requests, make_zipf(4, 1.0).probs, params)


def test_decision_blocks_tile_the_history(monkeypatch):
    # 2-slot dense blocks over 5 slots: the blocks follow one another, the
    # first has block_rows rows, and the expanded blocks switch where the
    # whole matrix does
    monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
    monkeypatch.setattr(policies, "BLOCK_ELEMS", 8)
    params = SystemParams(4, 2, 1.0)
    probs = make_zipf(4, 1.0).probs
    requests = np.array([[0, 1], [2, 2], [3, 0], [3, 3], [1, 0]])
    assert policies.block_rows(4) == 2
    for name in POLICY_NAMES:
        blocks = list(decision_blocks(name, requests, probs, params))
        starts = [start for start, *_ in blocks]
        lengths = [len(part) for *_, part in blocks]
        assert starts == np.cumsum([0] + lengths[:-1]).tolist() and sum(lengths) == 5
        whole = decision_matrix(name, requests, probs, params)
        if name in ("oracle", "uniform"):
            assert lengths == [5]
            assert not any(fixed.flags.writeable for _, fixed, _, _ in blocks)
            assert all(len(varying) == 0 for _, _, varying, _ in blocks)
        else:
            assert lengths[0] == 2 and isinstance(blocks[0][2], slice)
        expanded = [block_matrix(fixed, varying, part) for _, fixed, varying, part in blocks]
        flags = [switch_flags(expanded[0])]
        flags += [switch_flags(b, a[-1]) for a, b in zip(expanded, expanded[1:])]
        assert np.concatenate(flags).tolist() == switch_flags(whole).tolist()
    with pytest.raises(ValueError, match="unknown policy"):
        next(decision_blocks("mru", requests, probs, params))


def reference_switch_flags(decisions, previous=None):
    """Row-wise switch flags: row t differs anywhere from row t - 1."""
    flags = np.zeros(len(decisions), dtype=bool)
    flags[1:] = (decisions[1:] != decisions[:-1]).any(axis=1)
    if previous is not None and len(decisions):
        flags[0] = (decisions[0] != previous).any()
    return flags


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    width=st.sampled_from([0, 1, 20, 64, 65, 1000]),
    rows=st.sampled_from([0, 1, 2, 3, 200]),
    flip=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
    previous=st.sampled_from([None, "same", "flipped", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_switch_flags_equal_the_row_wise_reference(width, rows, flip, previous, seed):
    # a row that changes flips one to three bits, at any column, the first
    # and last included, so a change in a row's last column and one in the
    # next row's first are told apart by the flat scan's row index
    rng = np.random.default_rng(seed)
    decisions = np.empty((rows, width), dtype=bool)
    row = rng.random(width) < 0.5
    for t in range(rows):
        if width and rng.random() < flip:
            row[rng.integers(width, size=rng.integers(1, 4))] ^= True
        decisions[t] = row
    before = decisions[0].copy() if rows else row
    if previous == "flipped" and width:
        before[rng.integers(width)] ^= True
    elif previous == "random":
        before = rng.random(width) < 0.5
    elif previous is None:
        before = None
    got = switch_flags(decisions, before)
    assert got.dtype == bool
    assert got.tolist() == reference_switch_flags(decisions, before).tolist()


def test_wide_history_is_decided_on_narrow_frontiers(monkeypatch):
    # the wide shape (N=1000, K=100, M=20, zipf:0.8): past the first 64-slot
    # block, fewer than N/10 files can change their LFU decision inside a
    # block, so LFU's blocks grow to hundreds of rows.  Tracking's floors
    # start low, so its early frontiers are wide (571 files at slot 64, where
    # its one dense block past the first starts); later blocks outgrow 64
    # rows too.  The blocks still equal a dense decision over every file
    params = SystemParams(1000, 100, 20.0)
    dist = make_zipf(1000, 0.8)
    cfg = ExperimentConfig(params=params, dist=dist, policies=("tracking", "lfu"),
                           horizon=2000, trials=1, seed=1)
    requests = draw_requests(cfg, 0)
    seen = []
    rule = policies._frontier

    def spy(*args):
        fixed, frontier = rule(*args)
        seen.append(np.count_nonzero(frontier))
        return fixed, frontier

    monkeypatch.setattr(policies, "_frontier", spy)
    before = np.zeros((2000, 1000), dtype=np.int64)
    np.add.at(before, (np.arange(1, 2000)[:, None], requests[:-1]), 1)
    np.cumsum(before, axis=0, out=before)
    key = before * 1000 + np.arange(999, -1, -1)
    want = {
        "tracking": before >= count_floors(np.arange(2000), params)[:, None],
        "lfu": key >= np.sort(key, axis=1)[:, 1000 - 20, None],
    }
    for name in ("tracking", "lfu"):
        seen.clear()
        blocks = list(decision_blocks(name, requests, dist.probs, params))
        expanded = [block_matrix(fixed, varying, part) for _, fixed, varying, part in blocks]
        assert np.concatenate(expanded).tolist() == want[name].tolist(), name
        starts = [start for start, *_ in blocks]
        dense = [start for start, _, varying, _ in blocks if isinstance(varying, slice)]
        rows = max(len(part) for *_, part in blocks)
        if name == "lfu":
            assert dense == [0] and len(blocks) <= 8 and rows >= 512
            assert max(part.shape[1] for *_, part in blocks[1:]) < 100
        else:
            assert dense == [0, 64] and seen[0] == 571 and rows >= 256
            late = [len(part) for start, *_, part in blocks[:-1] if start >= 1024]
            assert len(blocks) <= 16 and min(late) >= 128


def test_lfu_keys_at_the_int32_bound_decide_as_int64():
    # counts near 2**28 over N=8 files: file 0's key (2**28 - 1) * 8 + 7 is
    # 2**31 - 1, the largest int32, and ties between files are common
    n = 8
    before = np.random.default_rng(4).integers(2**28 - 4, 2**28, size=(200, n))
    before[0, 0] = 2**28 - 1
    narrow, wide = (np.arange(n - 1, -1, -1, dtype=width) for width in (np.int32, np.int64))
    assert policies._keys(before, n, narrow).max() == 2**31 - 1
    key = before * n + wide
    for m in range(1, n + 1):
        want = key >= np.sort(key, axis=1)[:, n - m, None]
        assert policies._decide("lfu", before, None, m, n, narrow).tolist() == want.tolist()
        assert policies._decide("lfu", before, None, m, n, wide).tolist() == want.tolist()


def test_lfu_walk_picks_int64_keys_one_past_the_int32_bound():
    # N=8 files for one user: a horizon of 2**28 - 1 slots keeps every key
    # count * 8 + (7 - id) at most 2**31 - 1, and one slot more could pass it.
    # Building the walk draws nothing
    params, probs = SystemParams(8, 1, 2.0), np.full(8, 1 / 8)
    for horizon, width in ((2**28 - 1, np.int32), (2**28, np.int64)):
        walk = policies.DecisionWalk("lfu", probs, params, horizon)
        assert walk._tie_break.dtype == width, horizon


def test_block_rows_are_multiples_of_the_row_rule():
    assert policies.block_rows(20) == 3264  # 65536 // 20 = 3276, rounded down
    assert policies.block_rows(1000) == 64  # 65 rounded down
    assert policies.block_rows(10**6) == 64  # never below one multiple


def test_lfu_realized_rate_accounting():
    # dedup charges each distinct missed file once; per-request charges each
    # miss, and the engine sends every request outside LFU's whole set whole
    params = SystemParams(3, 4, 1.0, 8)
    cfg = lfu_config(params, np.full(3, 1 / 3), "bitlevel")
    cached = np.array([[True, False, False]])
    requests = np.array([[0, 1, 1, 2]])
    assert _lfu_dedup_rates(cfg, cached, requests).tolist() == [2.0]
    assert _lfu_dedup_rates(cfg, np.ones((1, 3), dtype=bool), requests).tolist() == [0.0]
    assert misses(cached, requests).tolist() == [3]
    placement = sample_placement(params, [0], substream(0, 0))
    assert build_delivery(params, RequestProfile(requests[0]), placement, [0]).rate == 3.0


def test_lfu_expected_rate_accounting():
    # LFU caches exactly M files: one of three at M=1, all three at M=3
    probs = np.array([0.5, 0.3, 0.2])
    for m, sets, per_request, dedup in (
        (1.0, [[True, False, False], [False, True, False]], [2.0, 2.8],
         [(1 - 0.7**4) + (1 - 0.8**4), (1 - 0.5**4) + (1 - 0.8**4)]),
        (3.0, [[True, True, True]], [0.0], [0.0]),
    ):
        params = SystemParams(3, 4, m)
        sets = np.array(sets)
        assert slot_rates(sets, probs, params) == pytest.approx(per_request, abs=1e-12)
        # analytic mode reads no requests
        got = _lfu_dedup_rates(lfu_config(params, probs), sets, None)
        assert got == pytest.approx(dedup, abs=1e-12)


def test_lfu_expected_matches_simulated_mean():
    dist = make_zipf(5, 1.0)
    params = SystemParams(5, 3, 2.0)
    cached = np.broadcast_to([True, True, False, False, False], (20000, 5))
    rng = substream(41, 0)
    draws = rng.random((20000, 3))
    cdf = np.cumsum(dist.probs)
    reqs = np.searchsorted(cdf, draws, side="right").clip(max=4)
    expected = slot_rates(cached[:1], dist.probs, params)[0]
    assert misses(cached, reqs).mean() == pytest.approx(expected, abs=0.02)
    simulated = _lfu_dedup_rates(lfu_config(params, dist.probs, "bitlevel"), cached, reqs)
    expected = _lfu_dedup_rates(lfu_config(params, dist.probs), cached[:1], None)[0]
    assert simulated.mean() == pytest.approx(expected, abs=0.02)


def test_tracking_matches_oracle_inside_the_gap_tube():
    # whenever every estimate sits strictly closer to the truth than the
    # smallest distance from any popularity to the threshold, the tracked
    # set equals the oracle set
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, 5))
        m = float(rng.uniform(0.3, n))
        params = SystemParams(n, k, m)
        probs = rng.dirichlet(np.ones(n))
        gaps = np.abs(probs - params.threshold)
        if gaps.min() < 1e-6:
            continue
        target = params.popular(probs)
        shift = rng.uniform(-1.0, 1.0, size=n) * gaps * 0.999
        perturbed = probs + shift
        assert np.array_equal(params.popular(perturbed), target)


def test_tracking_walk_holds_nothing_per_slot_of_its_horizon():
    # at the README shape, a walk built for 10**6 slots and stepped once
    # computes the floors of its first block only; the int64 floors of the
    # whole horizon alone would take 8 MB
    params = SystemParams(20, 10, 2.0)
    probs = make_zipf(20, 1.0).probs
    requests = np.random.default_rng(0).choice(20, size=(2 * block_rows(20), 10), p=probs)
    tracemalloc.start()
    try:
        walk = DecisionWalk("tracking", probs, params, 10**6)
        walk.step(requests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk.start == block_rows(20)
    assert peak < 4 * 2**20
