"""Tests for placement, delivery, decoding, and the analytic rate."""
import numpy as np
import pytest

from codedcache import engine
from codedcache.engine import (
    build_delivery,
    decode,
    run_decode_fuzz,
    sample_placement,
    slot_rates,
)
from codedcache.harness import ExperimentConfig, run_experiment
from codedcache.model import (
    PopularityDistribution,
    RequestProfile,
    SystemParams,
    make_zipf,
    sample_requests,
    substream,
)
from placements import cache_sizes, placement_of, subpackets_held, within_budget
from test_policy_reference import reference_slot_rate

A, B = 0, 1  # file indices of the two-file worked example


def two_file_params(f=2):
    return SystemParams(2, 2, 1.0, f)


def worked_placement(caches):
    return placement_of(two_file_params(), [A, B], caches)


def both_full_of_a():
    # both users cache all of file A and nothing else
    return worked_placement([{A: [0, 1]}, {A: [0, 1]}])


def split_by_file():
    return worked_placement([{A: [0, 1]}, {B: [0, 1]}])


def split_by_half():
    return worked_placement([{A: [0], B: [0]}, {A: [1], B: [1]}])


def rate_for(params, placement, requests):
    profile = RequestProfile(np.array(requests))
    return build_delivery(params, profile, placement, [A, B]).rate


# --- deterministic two-file worked example -------------------------------

def test_both_caches_hold_one_file():
    params = two_file_params()
    placement = both_full_of_a()
    rates = [rate_for(params, placement, r) for r in ([A, A], [A, B], [B, A], [B, B])]
    assert rates == [0.0, 1.0, 1.0, 1.0]
    assert sum(rates) / 4 == 0.75


def test_caches_split_by_file():
    params = two_file_params()
    placement = split_by_file()
    rates = [rate_for(params, placement, r) for r in ([A, A], [A, B], [B, A], [B, B])]
    assert rates == [1.0, 0.0, 1.0, 1.0]
    assert sum(rates) / 4 == 0.75


def test_caches_split_by_half():
    params = two_file_params()
    placement = split_by_half()
    rates = [rate_for(params, placement, r) for r in ([A, A], [A, B], [B, A], [B, B])]
    assert rates == [0.5, 0.5, 0.5, 0.5]
    assert sum(rates) / 4 == 0.5


def test_worked_example_decodes_everywhere():
    params = two_file_params()
    for placement in (both_full_of_a(), split_by_file(), split_by_half()):
        for requests in ([A, A], [A, B], [B, A], [B, B]):
            profile = RequestProfile(np.array(requests))
            tx = build_delivery(params, profile, placement, [A, B])
            for user in range(2):
                assert decode(params, user, profile, placement, tx)


def test_identical_demands_share_one_broadcast():
    # with only file A cached anywhere, two requests for B need B just once
    params = two_file_params()
    placement = both_full_of_a()
    profile = RequestProfile(np.array([B, B]))
    tx = build_delivery(params, profile, placement, [A, B])
    assert len(tx.coded) == 1 and tx.rate == 1.0


# --- direct sends ---------------------------------------------------------

def test_uncached_requests_sent_whole_per_request():
    params = SystemParams(4, 3, 1.0, 10)
    placement = sample_placement(params, [3], substream(0, 0))
    profile = RequestProfile(np.array([0, 1, 2]))
    tx = build_delivery(params, profile, placement, [3])
    assert len(tx.direct) == 3 and not tx.coded
    assert tx.rate == 3.0


def test_duplicate_uncached_requests_are_not_merged():
    params = SystemParams(2, 2, 1.0, 8)
    placement = sample_placement(params, [1], substream(0, 1))
    profile = RequestProfile(np.array([0, 0]))
    tx = build_delivery(params, profile, placement, [1])
    assert [d.file for d in tx.direct] == [0, 0]
    assert tx.rate == 2.0


def test_delivery_rejects_a_cached_set_other_than_the_placements():
    params = SystemParams(4, 3, 1.0, 10)
    placement = sample_placement(params, [1, 3], substream(0, 3))
    profile = RequestProfile(np.array([0, 1, 3]))
    assert build_delivery(params, profile, placement, (3, 1, 3)).rate > 0
    with pytest.raises(ValueError, match="differs from the placement"):
        build_delivery(params, profile, placement, [1])


def test_group_size_cap():
    # there is no group size cap: a 21-user group, one past the 20-user cap
    # that delivery once had, builds like any other
    params = SystemParams(1, 21, 1.0, 1)
    placement = sample_placement(params, [0], substream(0, 2))
    profile = RequestProfile(np.zeros(21, dtype=np.int64))
    tx = build_delivery(params, profile, placement, [0])
    assert tx.rate == 0.0  # a single fully cached file costs nothing


# --- placement ------------------------------------------------------------

def test_placement_full_budget_stores_everything():
    params = SystemParams(2, 2, 2.0, 4)
    placement = sample_placement(params, [0, 1], substream(1, 0))
    assert cache_sizes(params, placement).tolist() == [8, 8]
    for user in range(2):
        assert np.array_equal(subpackets_held(placement, user, 0), np.arange(4))


def test_placement_splits_budget_over_set():
    params = SystemParams(4, 2, 1.0, 100)
    placement = sample_placement(params, [0, 1], substream(1, 1))
    for user in range(2):
        assert [len(subpackets_held(placement, user, i)) for i in range(4)] == [50, 50, 0, 0]


def test_placement_small_set_stored_whole_draws_nothing():
    # a set of fewer than M files is stored whole, nothing outside it is
    # cached, and the generator is left as it was
    for params, cached in (
        (SystemParams(4, 1, 2.0, 100), [2]),
        (SystemParams(6, 3, 2.5, 30), [4]),
        (SystemParams(5, 70, 2.3, 10), [0, 1]),
    ):
        rng = substream(1, 2)
        state = rng.bit_generator.state
        placement = sample_placement(params, cached, rng)
        assert rng.bit_generator.state == state
        f = params.subpackets
        for user in range(params.n_users):
            for file in range(params.n_files):
                want = np.arange(f) if file in cached else np.arange(0)
                assert np.array_equal(subpackets_held(placement, user, file), want)


def test_placement_empty_set_and_bounds():
    params = SystemParams(3, 2, 1.0, 10)
    placement = sample_placement(params, [], substream(1, 3))
    assert placement.cached == [] and placement.holders.shape == (1, 0, 10)
    assert cache_sizes(params, placement).tolist() == [0, 0]
    with pytest.raises(ValueError, match="out of range"):
        sample_placement(params, [3], substream(1, 4))


def test_placement_respects_budget_everywhere():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        m = float(rng.uniform(0.1, n))
        f = int(rng.integers(1, 80))
        params = SystemParams(n, k, m, f)
        size = int(rng.integers(0, n + 1))
        cached = rng.choice(n, size=size, replace=False)
        assert within_budget(params, sample_placement(params, cached, substream(17, trial)))


def test_placement_floors_the_decimal_budget():
    # in floating point M*F/|S| lands just under 1 for these, so a float
    # floor would leave every cache empty
    for params, cached, per in (
        (SystemParams(60, 2, 0.57, 100), range(57), 1),
        (SystemParams(120, 2, 1.15, 100), range(115), 1),
    ):
        placement = sample_placement(params, list(cached), substream(1, 5))
        for user in range(params.n_users):
            sizes = [len(subpackets_held(placement, user, i)) for i in cached]
            assert sizes == [per] * len(cached)
        assert within_budget(params, placement)
    # a set below the budget is stored whole, and the rest of the budget
    # goes unused: nothing outside the set is cached
    placement = sample_placement(SystemParams(5, 1, 2.3, 10), [0, 1], substream(1, 6))
    assert [len(subpackets_held(placement, 0, i)) for i in range(5)] == [10, 10, 0, 0, 0]


def first_subpackets(params, count):
    """One user holding the first ``count`` subpackets, in file order."""
    files, idx = np.divmod(np.arange(count), params.subpackets)
    cache = {file: idx[files == file] for file in range(params.n_files)}
    return placement_of(params, range(params.n_files), [cache])


def test_budget_check_uses_the_decimal_cache_size():
    # the budget is the exact ceiling of M*F for every M of two decimals below
    # 6; in floating point 0.07 * 100 is 7.000000000000001, whose ceiling
    # would allow an eighth subpacket
    for cents in range(1, 600):
        for f in (10, 100, 200, 1000):
            params, budget = SystemParams(7, 1, cents / 100, f), -(-cents * f // 100)
            assert within_budget(params, first_subpackets(params, budget))
            assert not within_budget(params, first_subpackets(params, budget + 1))


def test_placement_draws_keys_user_by_user_and_file_by_file():
    # one rng.random(F) per (user, partly cached file), in that order, is the
    # draw sequence every placement has used
    for params, cached, plan in (
        (SystemParams(20, 10, 4.0, 200), list(range(12)), [(i, 66) for i in range(12)]),
        # |S| < M: file 4 whole, and nothing drawn
        (SystemParams(6, 3, 2.5, 30), [4], [(4, 30)]),
        (SystemParams(7, 4, 3.0, 9), [0, 2, 3, 5, 6], [(i, 5) for i in (0, 2, 3, 5, 6)]),
    ):
        f = params.subpackets
        rng = substream(31, 0)
        placement = sample_placement(params, cached, substream(31, 0))
        assert placement.cached == [i for i, _ in plan]
        for user in range(params.n_users):
            for i, take in plan:
                want = np.arange(f)
                if take < f:
                    want = np.sort(np.argpartition(rng.random(f), take)[:take])
                assert np.array_equal(subpackets_held(placement, user, i), want)


class TiedKeys:
    """Stands in for a generator: user 0's keys of file 1 tie at the
    threshold (take = 4 of 8), every other row is distinct."""

    def __init__(self):
        self.keys = np.random.default_rng(5).random((2, 4, 8))
        self.keys[0, 1] = [0.3, 0.1, 0.3, 0.3, 0.9, 0.3, 0.2, 0.3]

    def random(self, shape):
        assert shape == self.keys.shape
        return self.keys.copy()


def test_placement_at_a_tied_threshold_keeps_argpartitions_choice():
    params = SystemParams(4, 2, 2.0, 8)
    rng = TiedKeys()
    placement = sample_placement(params, range(4), rng)
    for user in range(2):
        for file in range(4):
            want = np.sort(np.argpartition(rng.keys[user, file], 4)[:4])
            assert np.array_equal(subpackets_held(placement, user, file), want)
    assert len(subpackets_held(placement, 0, 1)) == 4


@pytest.mark.parametrize("k", [1, 5, 63, 64, 130])
def test_placement_holder_words_match_the_cache_states(k):
    # user u is bit u % 63 of word u // 63, over the cached set's files in
    # order: each user's bits mark the subpackets of its `take` smallest
    # keys, for sets stored in part, stored whole, smaller than M, and empty
    params = SystemParams(6, k, 2.0, 10)
    for trial, (cached, take) in enumerate((([0, 2, 3, 5], 5), ([1, 4], 10), ([3], 10), ([], 0))):
        placement = sample_placement(params, cached, substream(12, k, trial))
        assert placement.cached == cached
        assert placement.holders.shape == (-(-k // 63), len(cached), 10)
        assert placement.holders.dtype == np.int64 and (placement.holders >= 0).all()
        keys = substream(12, k, trial).random((k, len(cached), 10)) if take < 10 else None
        for column, file in enumerate(cached):
            for user in range(k):
                want = np.arange(10)
                if keys is not None:
                    want = np.sort(np.argpartition(keys[user, column], take)[:take])
                assert np.array_equal(subpackets_held(placement, user, file), want)


def test_placement_deterministic():
    params = SystemParams(5, 3, 1.5, 64)
    a = sample_placement(params, [0, 1, 2], substream(8, 0))
    b = sample_placement(params, [0, 1, 2], substream(8, 0))
    assert a.cached == b.cached
    assert np.array_equal(a.holders, b.holders)


def test_decode_sets_up_the_plan_terms_once():
    # every user of a slot decodes against the same cached term arrays, and
    # they list one term per subpacket of every share row
    params = SystemParams(20, 10, 4.0, 200)
    cached = list(range(8))
    placement = sample_placement(params, cached, substream(9, 0))
    profile = RequestProfile(np.arange(10) % 9)
    tx = build_delivery(params, profile, placement, cached)
    assert "terms" not in vars(tx)
    assert all(decode(params, u, profile, placement, tx) for u in range(params.n_users))
    terms = vars(tx)["terms"]
    assert tx.terms is terms
    term_file, term_subpacket, position = terms
    segments = [seg for msg in tx.coded for seg in msg.segments]
    assert term_file.tolist() == [seg.file for seg in segments for _ in seg.indices]
    assert term_subpacket.tolist() == [i for seg in segments for i in seg.indices.tolist()]
    assert position.max() < tx.message_length.sum()


def test_plan_objects_are_built_only_on_demand(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("plan object built")

    monkeypatch.setattr(engine, "CodedMessage", refuse)
    monkeypatch.setattr(engine, "Segment", refuse)
    params = SystemParams(20, 10, 4.0, 200)
    cached = list(range(8))
    placement = sample_placement(params, cached, substream(9, 0))
    profile = RequestProfile(np.arange(10) % 9)
    tx = build_delivery(params, profile, placement, cached)
    assert tx.rate > 0 and tx.subpackets_sent > 0 and len(tx.message_length) > 0
    with pytest.raises(RuntimeError, match="plan object built"):
        tx.coded
    assert all(decode(params, u, profile, placement, tx) for u in range(params.n_users))
    assert run_decode_fuzz(200, 1).failures == 0
    result = run_experiment(ExperimentConfig(
        params=params,
        dist=make_zipf(20, 1.0),
        policies=("tracking", "oracle", "uniform"),
        horizon=5,
        trials=1,
        seed=1,
        rate_mode="bitlevel",
    ))
    assert all(np.isfinite(agg.mean_rate).all() for agg in result.aggregates)


# --- decoding -------------------------------------------------------------

def test_decode_fails_after_cache_corruption():
    params = SystemParams(1, 1, 0.5, 2)
    placement = sample_placement(params, [0], substream(2, 0))
    profile = RequestProfile(np.array([0]))
    tx = build_delivery(params, profile, placement, [0])
    assert decode(params, 0, profile, placement, tx)
    assert len(subpackets_held(placement, 0, 0)) == 1
    placement.holders[0, 0] &= ~1  # drop the cached subpacket
    assert not decode(params, 0, profile, placement, tx)


def test_fuzz_clean_and_corrupt():
    clean = run_decode_fuzz(150, seed=77)
    assert clean.failures == 0 and clean.users_checked > 0
    broken = run_decode_fuzz(150, seed=77, corrupt=True)
    assert broken.failures > 0


# --- analytic rate --------------------------------------------------------

def set_rate(params, cached, dist):
    """slot_rates of a single cached set."""
    row = np.zeros(params.n_files, dtype=bool)
    row[list(cached)] = True
    return float(slot_rates(row, dist.probs, params))


def test_approx_rate_large_set_branch():
    params = SystemParams(4, 5, 1.0)
    dist = PopularityDistribution(np.array([1 / 3, 1 / 3, 1 / 6, 1 / 6]))
    assert set_rate(params, [0, 1, 2], dist) == pytest.approx(2 + 5 / 6, abs=1e-12)


def test_approx_rate_small_set_branch():
    # a set smaller than M is stored whole: each outside request costs a file
    params = SystemParams(4, 2, 2.0)
    dist = make_zipf(4, 1.0)
    expected = 2 * (1.0 - float(dist.probs[0]))
    assert set_rate(params, [0], dist) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.04, abs=1e-12)


def test_approx_rate_everything_cached():
    params = SystemParams(3, 2, 3.0)
    assert set_rate(params, [0, 1, 2], make_zipf(3, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_approx_rate_boundary_sentinel():
    # at |S| == M < N there is no leftover budget to spread; the set is
    # stored whole and each outside request is charged a full file
    params = SystemParams(4, 2, 2.0)
    dist = make_zipf(4, 1.0)
    expected = 2 * float(dist.probs[2] + dist.probs[3])
    assert set_rate(params, [0, 1], dist) == pytest.approx(expected, abs=1e-12)


def uncoded_engine_mean(params, dist, cached, seed, slots=2000):
    """Mean and standard error of the engine's rate over ``slots`` slots of
    one set of at most M files, which is stored whole: every slot sends no
    coded message, only each outside request whole."""
    rates = []
    for t in range(slots):
        rng = substream(seed, t)
        placement = sample_placement(params, cached, rng)
        profile = sample_requests(dist, params.n_users, rng)
        tx = build_delivery(params, profile, placement, cached)
        assert len(tx.message_length) == 0
        outside = ~np.isin(profile.requests, cached)
        assert tx.rate == float(np.count_nonzero(outside))
        rates.append(tx.rate)
    return np.mean(rates), np.std(rates, ddof=1) / np.sqrt(slots)


def test_slot_rates_boundary_matches_engine():
    params = SystemParams(4, 3, 2.0, 8)
    dist = make_zipf(4, 1.0)
    mean, stderr = uncoded_engine_mean(params, dist, [0, 1], 37)
    assert abs(mean - set_rate(params, [0, 1], dist)) <= 4 * stderr


def test_slot_rates_below_the_budget_match_engine():
    # one file under M = 2 sends no coded message, so finite-F zero padding
    # does not apply and the analytic charge is the bit-level mean
    params = SystemParams(4, 2, 2.0, 8)
    dist = make_zipf(4, 1.0)
    mean, stderr = uncoded_engine_mean(params, dist, [0], 38)
    assert abs(mean - set_rate(params, [0], dist)) <= 4 * stderr


def test_expected_slot_rate_agrees_off_boundary():
    # one call over a batch of sets equals the scalar reference for each;
    # an integer budget puts some sets exactly on the |S| == M boundary
    rng = np.random.default_rng(9)
    for case in range(200):
        n = int(rng.integers(1, 10))
        m = float(rng.integers(1, n + 1)) if case % 2 else float(rng.uniform(0.2, n))
        params = SystemParams(n, int(rng.integers(1, 6)), m)
        dist = PopularityDistribution(rng.dirichlet(np.ones(n)))
        decisions = rng.random((8, n)) < rng.random()
        rates = slot_rates(decisions, dist.probs, params)
        for row, rate in zip(decisions, rates):
            cached = np.flatnonzero(row).tolist()
            assert rate == pytest.approx(reference_slot_rate(cached, dist.probs, params), abs=1e-12)


def test_realized_rate_never_beats_unicast():
    rng = np.random.default_rng(13)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        params = SystemParams(n, k, float(rng.uniform(0.2, n)), int(rng.integers(1, 33)))
        size = int(rng.integers(0, n + 1))
        cached = rng.choice(n, size=size, replace=False)
        placement = sample_placement(params, cached, substream(23, trial))
        profile = RequestProfile(rng.integers(0, n, size=k))
        tx = build_delivery(params, profile, placement, cached)
        assert 0.0 <= tx.rate <= k
        assert tx.subpackets_sent == sum(m.length for m in tx.coded) + sum(
            d.length for d in tx.direct
        )


def test_realized_rate_tracks_analytic_bound():
    # Monte Carlo sanity: uniform caching of everything stays below the
    # analytic upper bound (scaled-down version of the acceptance run)
    params = SystemParams(4, 4, 1.0, 2000)
    dist = make_zipf(4, 0.0)
    cached = [0, 1, 2, 3]
    bound = set_rate(params, cached, dist)
    total = 0.0
    slots = 200
    for t in range(slots):
        rng = substream(31, t)
        placement = sample_placement(params, cached, rng)
        profile = RequestProfile(rng.integers(0, 4, size=4))
        total += build_delivery(params, profile, placement, cached).rate
    assert 0.0 <= total / slots <= bound + 0.05
