"""plan_slots checked field by field against one-slot build_delivery.

A history is a run of slots with a placement drawn at the start of each
placement run.  It is planned in batches cut anywhere, so batches cross
placement runs, and every slot's plan must equal build_delivery's plan for
the same requests and placement.  The cached sets include the empty set,
sets smaller than M (stored whole, nothing else cached) and sets of exactly
M files (stored whole, as LFU's are).
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcache import engine, harness
from codedcache.engine import (
    Transmission,
    batch_slots,
    build_delivery,
    plan_slots,
    sample_placement,
)
from codedcache.harness import ExperimentConfig, _draw_requests, _policy_record
from codedcache.model import RequestProfile, SystemParams, make_zipf, substream
from codedcache.policies import POLICY_NAMES


def assert_same_transmission(got, want):
    for field in dataclasses.fields(Transmission):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def check_history(params, placements, run_starts, requests, cuts):
    """Plan slots ``cuts[i]:cuts[i + 1]`` as one batch each; placement run i
    starts at slot ``run_starts[i]``.  Returns the number of batches that
    span more than one placement."""
    run = np.searchsorted(run_starts, np.arange(len(requests)), side="right") - 1
    crossing = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        first = int(run[lo])
        batch = plan_slots(params, placements[first : run[hi - 1] + 1],
                           run[lo:hi] - first, requests[lo:hi])
        crossing += run[hi - 1] > first
        for b, s in enumerate(range(lo, hi)):
            placement = placements[run[s]]
            want = build_delivery(params, RequestProfile(requests[s]), placement,
                                  placement.cached)
            assert_same_transmission(batch.transmission(b), want)
            assert batch.rates[b] == want.rate
            assert batch.subpackets_sent[b] == want.subpackets_sent
    return crossing


def draw_cached(rng, params, kind):
    n, m = params.n_files, params.cache_size
    if kind == "empty":
        size = 0
    elif kind == "small":  # |S| < M: S whole, nothing else cached
        size = int(rng.integers(1, int(np.ceil(m))))
    elif kind == "whole":  # |S| == M, LFU's set: every file of S stored whole
        size = int(m)
    else:
        size = int(rng.integers(int(np.ceil(m)), n + 1))
    return sorted(int(i) for i in rng.choice(n, size=size, replace=False))


def random_history(rng, params, horizon, kinds):
    starts = np.unique(np.concatenate(
        ([0], rng.integers(1, horizon, size=len(kinds) - 1) if horizon > 1 else [])
    )).astype(np.int64)
    placements = [
        sample_placement(params, draw_cached(rng, params, kind), rng)
        for kind in kinds[: len(starts)]
    ]
    # users ask for any file, so some requests fall outside the cached set
    requests = rng.integers(0, params.n_files, size=(horizon, params.n_users))
    return placements, starts, requests


@pytest.mark.parametrize("k", [1, 10, 63, 64, 130])
def test_batches_across_runs_match_one_slot_plans(k):
    # every kind of cached set, in runs of a few slots, planned in batches
    # of 1 to 5 slots and in one batch over the whole history
    params = SystemParams(6, k, 3.0, 12 if k > 10 else 40)
    rng = substream(707, k)
    kinds = ["random", "empty", "small", "whole", "random", "whole", "small"]
    placements, starts, requests = random_history(rng, params, 14, kinds)
    assert len(placements) > 3
    cuts = [0]
    while cuts[-1] < 14:
        cuts.append(min(14, cuts[-1] + int(rng.integers(1, 6))))
    crossing = check_history(params, placements, starts, requests, cuts)
    crossing += check_history(params, placements, starts, requests, [0, 14])
    assert crossing > 1


@st.composite
def histories(draw):
    """Random shapes (K across the 63- and 126-user word edges), M often an
    integer so that LFU-like whole sets occur, runs of random cached sets,
    and random batch cuts."""
    k = draw(st.sampled_from([1, 2, 5, 9, 62, 63, 64, 127, 130]))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4 * n)) / draw(st.sampled_from([1, 1, 2, 4]))
    m = min(m, float(n))
    f = draw(st.integers(1, 24 if k < 60 else 8))
    horizon = draw(st.integers(1, 10))
    kinds = draw(st.lists(st.sampled_from(["empty", "small", "whole", "random"]),
                          min_size=1, max_size=5))
    if m != int(m):
        kinds = ["small" if kind == "whole" else kind for kind in kinds]
    if m <= 1:
        kinds = ["empty" if kind == "small" else kind for kind in kinds]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = SystemParams(n, k, m, f)
    placements, starts, requests = random_history(rng, params, horizon, kinds)
    inner = draw(st.sets(st.integers(1, horizon - 1), max_size=4)) if horizon > 1 else set()
    return params, placements, starts, requests, [0, *sorted(inner), horizon]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(histories())
def test_batched_plans_property(history):
    check_history(*history)


@pytest.mark.parametrize("elems", [1, 2 * 5 * 16, 7 * 5 * 16])
def test_bitlevel_record_unchanged_by_batch_budget(monkeypatch, elems):
    # batches of 1, 2 and 7 slots (5 users, F=16) against the default budget
    params = SystemParams(8, 5, 2.0, 16)
    cfg = ExperimentConfig(params=params, dist=make_zipf(8, 1.0), policies=POLICY_NAMES,
                           horizon=23, trials=1, seed=5, rate_mode="bitlevel",
                           lfu_accounting="per-request")
    requests = _draw_requests(cfg, 0)
    default = {name: _policy_record(cfg, name, 0, requests) for name in POLICY_NAMES}
    monkeypatch.setattr(engine, "PLAN_ELEMS", elems)
    assert batch_slots(params) == max(1, elems // (5 * 16))
    for name in POLICY_NAMES:
        got = _policy_record(cfg, name, 0, requests)
        for a, b in zip(got, default[name]):
            assert a.tolist() == b.tolist(), name


@pytest.mark.parametrize("policy", ["tracking", "uniform"])
def test_bitlevel_record_memory_does_not_grow_with_the_horizon(policy):
    # plans are held one bounded batch at a time, so 8x the slots leave the
    # peak where it was, up to how heavy the heaviest batch happens to be;
    # planned in one batch, the 400-slot record peaks near 8x the 50-slot one
    params = SystemParams(20, 10, 4.0, 200)
    peaks = {}
    for horizon in (50, 400):
        cfg = ExperimentConfig(params=params, dist=make_zipf(20, 1.0), policies=(policy,),
                               horizon=horizon, trials=1, seed=1, rate_mode="bitlevel")
        requests = _draw_requests(cfg, 0)
        _policy_record(cfg, policy, 0, requests)
        tracemalloc.start()
        try:
            _policy_record(cfg, policy, 0, requests)
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] < 1.25 * peaks[50]


def test_bitlevel_batch_ends_before_a_switch_once_its_placements_fill_the_budget(monkeypatch):
    # 2 users and F=8 make a slot cheap (12 per batch at this budget), while
    # tracking's first set, all 16 files, already holds 128 holder words
    params = SystemParams(16, 2, 2.0, 8)
    cfg = ExperimentConfig(params=params, dist=make_zipf(16, 0.5), policies=("tracking",),
                           horizon=40, trials=1, seed=5, rate_mode="bitlevel")
    requests = _draw_requests(cfg, 0)
    default = _policy_record(cfg, "tracking", 0, requests)
    monkeypatch.setattr(engine, "PLAN_ELEMS", 192)
    batches = []
    plan = harness.plan_slots

    def recording(params, placements, which, requests):
        batches.append(len(requests))
        return plan(params, placements, which, requests)

    monkeypatch.setattr(harness, "plan_slots", recording)
    got = _policy_record(cfg, "tracking", 0, requests)
    assert batch_slots(params) == 12 and sum(batches) == 40
    assert any(size < 12 for size in batches[:-1])
    for a, b in zip(got, default):
        assert a.tolist() == b.tolist()
