"""Tests for the closed-form bounds against hand-evaluated oracles."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcache.bounds import (
    DegenerateGapError,
    _binomial_tails,
    bad_set_gap,
    bad_set_min_excess,
    is_bad_set,
    mismatch_tail_chernoff,
    mismatch_tail_dkw,
    pair_kl_per_slot,
    pair_kl_total,
    pair_oracle_rate,
    rate_lower_bound,
    regret_lower_bound,
    regret_lower_curve,
    switch_count_bound,
    switch_event_tails,
    switching_constants,
    threshold_gaps,
    tracking_regret_bound,
    verify_bad_set_gap,
)
from codedcache.model import (
    PopularityDistribution,
    SystemParams,
    _popular_split,
    make_two_level_pair,
    make_zipf,
    oracle_rate_upper,
    slot_rates,
)
from test_policy_reference import reference_slot_rate

WORKED = SystemParams(4, 4, 1.0)
WORKED_DIST = PopularityDistribution(np.array([0.40, 0.35, 0.15, 0.10]))


def random_sorted_dist(rng, n):
    p = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    return PopularityDistribution(p)


# --- rate sandwich ---------------------------------------------------------

def test_popular_count_and_gaps():
    assert np.count_nonzero(WORKED.popular(WORKED_DIST.probs)) == 2
    gv = threshold_gaps(WORKED_DIST, WORKED)
    assert np.allclose(gv.gaps, [0.15, 0.10, 0.10, 0.15], atol=1e-15)
    assert gv.min_gap == pytest.approx(0.10, abs=1e-15)


def test_oracle_rate_upper_worked_instance():
    assert oracle_rate_upper(WORKED_DIST, WORKED) == pytest.approx(2.0, abs=1e-12)


def test_oracle_rate_upper_small_popular_set():
    # one popular file, plenty of cache room: it is stored whole and every
    # other request is sent whole, K * 0.15, however many users there are
    dist = PopularityDistribution(np.array([0.85, 0.05, 0.05, 0.05]))
    few = SystemParams(4, 2, 3.0)  # threshold 1/6
    assert oracle_rate_upper(dist, few) == pytest.approx(0.3, abs=1e-12)
    many = SystemParams(4, 4, 3.0)  # threshold 1/12
    assert oracle_rate_upper(dist, many) == pytest.approx(0.6, abs=1e-12)


def test_oracle_rate_upper_everything_popular():
    dist = make_zipf(4, 0.0)
    params = SystemParams(4, 10, 3.0)
    assert oracle_rate_upper(dist, params) == pytest.approx(4 / 3 - 1, abs=1e-12)


def test_oracle_rate_rejects_mismatched_length():
    with pytest.raises(ValueError, match="does not match"):
        oracle_rate_upper(make_zipf(3, 1.0), SystemParams(2, 2, 1.0))


def test_rate_lower_bound_worked_instance():
    assert rate_lower_bound(WORKED_DIST, WORKED) == pytest.approx(1 / 29, abs=1e-15)


def test_rate_lower_bound_tail_route():
    dist = PopularityDistribution(np.array([0.55, 0.15, 0.15, 0.15]))
    params = SystemParams(4, 6, 1.0)  # threshold 1/6: only the head is popular
    assert rate_lower_bound(dist, params) == pytest.approx(0.7 / 58, abs=1e-12)


def test_rate_sandwich_on_random_instances():
    rng = np.random.default_rng(70)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        params = SystemParams(n, int(rng.integers(1, 9)), float(rng.uniform(0.2, n)))
        dist = random_sorted_dist(rng, n)
        assert oracle_rate_upper(dist, params) >= rate_lower_bound(dist, params) - 1e-12


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20_000),
    k=st.integers(1, 8),
    tenths=st.integers(1, 300),
)
def test_bounds_do_not_depend_on_file_order(seed, n, k, tenths):
    # the bounds read the popular files through a mask, so a shuffled
    # profile gives the sorted one's bounds up to summation order, and on a
    # sorted profile the masked tail is the plain tail bit for bit
    rng = np.random.default_rng(seed)
    probs = np.sort(rng.dirichlet(np.full(n, 0.5)))[::-1]
    ranked = PopularityDistribution(probs)
    shuffled = PopularityDistribution(rng.permutation(probs))
    params = SystemParams(n, k, min(n, tenths / 10))
    n1, tail = _popular_split(ranked, params)
    assert tail == float(probs[n1:].sum())
    for bound in (oracle_rate_upper, rate_lower_bound):
        assert bound(shuffled, params) == pytest.approx(bound(ranked, params), rel=1e-12)
    if threshold_gaps(ranked, params).min_gap == 0.0:
        return
    rate = oracle_rate_upper(ranked, params)
    want = tracking_regret_bound(ranked, params, rate)
    got = tracking_regret_bound(shuffled, params, rate)
    for field in ("chernoff_route", "dkw_route", "first_slot"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)
    assert switch_count_bound(shuffled, params) == pytest.approx(
        switch_count_bound(ranked, params), rel=1e-12
    )


# --- tracking regret bound -------------------------------------------------

def test_regret_bound_worked_instance():
    rb = tracking_regret_bound(WORKED_DIST, WORKED, 1 / 29)
    assert rb.chernoff_route == pytest.approx(2.5 * (4 - 1 / 29) / 0.04, rel=1e-12)
    assert rb.chernoff_route == pytest.approx(247.8448275862069, rel=1e-12)
    assert rb.dkw_route == pytest.approx(396.55172413793105, rel=1e-12)
    assert rb.first_slot == pytest.approx(3 - 1 / 29, rel=1e-12)
    assert rb.total == pytest.approx(rb.chernoff_route + rb.first_slot, rel=1e-12)


def test_regret_bound_vanishes_at_full_reference():
    rb = tracking_regret_bound(WORKED_DIST, WORKED, 4.0)
    assert rb.chernoff_route == 0.0 and rb.dkw_route == 0.0
    assert rb.total == pytest.approx(-1.0, abs=1e-12)


def test_regret_bound_degenerate_gap():
    dist = make_zipf(4, 0.0)  # uniform 0.25 equals 1/(KM) for K=4, M=1
    with pytest.raises(DegenerateGapError, match="equals the threshold"):
        tracking_regret_bound(dist, SystemParams(4, 4, 1.0), 0.5)


def test_regret_bound_monotone_in_reference():
    rng = np.random.default_rng(71)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 10))
        params = SystemParams(n, int(rng.integers(1, 8)), float(rng.uniform(0.3, n)))
        dist = random_sorted_dist(rng, n)
        if threshold_gaps(dist, params).min_gap == 0.0:
            continue
        hi = oracle_rate_upper(dist, params)
        lo = rate_lower_bound(dist, params)
        assert (
            tracking_regret_bound(dist, params, lo).total
            >= tracking_regret_bound(dist, params, hi).total - 1e-9
        )
        done += 1


# --- estimate tails --------------------------------------------------------

def test_chernoff_tail_example_and_monotonicity():
    params = SystemParams(1, 2, 1.0)
    one = PopularityDistribution(np.array([1.0]))
    assert mismatch_tail_chernoff(one, params, 1) == pytest.approx(1.0, abs=1e-15)
    assert mismatch_tail_chernoff(one, params, 2) == pytest.approx(
        math.exp(-0.2), rel=1e-12
    )
    vals = [mismatch_tail_chernoff(WORKED_DIST, WORKED, t) for t in range(1, 30)]
    assert vals[0] == pytest.approx(4.0, abs=1e-15)
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError, match="numbered from 1"):
        mismatch_tail_chernoff(one, params, 0)


def test_chernoff_tail_zero_popularity_limit():
    # a never-requested file decays like exp(-(t-1)K * gap)
    dist = PopularityDistribution(np.array([1.0, 0.0]))
    params = SystemParams(2, 3, 2.0)  # threshold 1/6
    t = 5
    total = mismatch_tail_chernoff(dist, params, t)
    gap_hot = 1.0 - 1 / 6
    hot = math.exp(-(gap_hot**2) * (t - 1) * 3 / (2 + gap_hot))
    cold = math.exp(-(t - 1) * 3 * (1 / 6))
    assert total == pytest.approx(hot + cold, rel=1e-12)


def test_dkw_tail_examples():
    assert mismatch_tail_dkw(0.1, 4, 1) == 2.0
    assert mismatch_tail_dkw(0.1, 4, 2) == pytest.approx(2 * math.exp(-0.02), rel=1e-12)
    single = -math.log(mismatch_tail_dkw(0.1, 4, 2) / 2)
    double = -math.log(mismatch_tail_dkw(0.2, 4, 2) / 2)
    assert double == pytest.approx(4 * single, rel=1e-12)
    with pytest.raises(ValueError, match="positive margin"):
        mismatch_tail_dkw(0.0, 4, 2)


# --- switching -------------------------------------------------------------

def test_switching_constants_example():
    dist = PopularityDistribution(np.array([0.9, 0.1]))
    params = SystemParams(2, 4, 1.0)  # threshold 0.25, gap for file 1 is 0.15
    const = switching_constants(dist, params)
    assert const.low_count[1] == pytest.approx(
        math.exp(0.045) * (0.6561 + 0.2916), rel=1e-12
    )


def test_switching_constants_split_the_scale():
    rng = np.random.default_rng(72)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        params = SystemParams(n, int(rng.integers(1, 7)), float(rng.uniform(0.2, n)))
        dist = PopularityDistribution(rng.dirichlet(np.ones(n)))
        const = switching_constants(dist, params)
        gaps = threshold_gaps(dist, params).gaps
        assert np.allclose(
            const.low_count + const.high_count, np.exp(2 * gaps**2), atol=1e-12
        )


def test_switching_constants_zero_popularity():
    dist = PopularityDistribution(np.array([1.0, 0.0]))
    params = SystemParams(2, 3, 1.0)
    const = switching_constants(dist, params)
    gap = 1 / 3
    assert const.low_count[1] == pytest.approx(math.exp(2 * gap**2), rel=1e-12)
    assert const.high_count[1] == 0.0


def test_binomial_tails_match_scipy():
    binom = pytest.importorskip("scipy.stats").binom
    probs = np.array([0.0, 1.0, 1e-12, 1 - 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.77, 0.999])
    for trials in (1, 2, 7, 100, 1000, 5000):
        for cut in (0, 1, 2, 5, 50, 100):
            low, high = _binomial_tails(trials, probs, cut)
            for got, want in ((low, binom.cdf(cut, trials, probs)),
                              (high, binom.sf(cut, trials, probs))):
                big = want > 1e-200
                assert got[big] == pytest.approx(want[big], rel=1e-11, abs=0)
                assert np.all(got[~big] <= 1e-190)


def test_binomial_tails_exact_cases():
    # certain outcomes are exact, and a tail past every outcome is empty
    low, high = _binomial_tails(4, np.array([0.0, 1.0, 0.5]), 1)
    assert low.tolist()[:2] == [1.0, 0.0] and high.tolist()[:2] == [0.0, 1.0]
    assert low[2] == pytest.approx(5 / 16, rel=1e-14)
    assert high[2] == pytest.approx(11 / 16, rel=1e-14)
    low, high = _binomial_tails(3, np.array([0.2]), 3)
    assert low[0] == pytest.approx(1.0, rel=1e-14) and high[0] == 0.0


def test_switch_count_bound_single_certain_file():
    params = SystemParams(1, 2, 1.0)
    dist = PopularityDistribution(np.array([1.0]))
    assert switch_count_bound(dist, params) == pytest.approx(
        2 + math.exp(0.5), rel=1e-12
    )


def test_switch_count_bound_at_least_one():
    rng = np.random.default_rng(73)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 8))
        params = SystemParams(n, int(rng.integers(1, 6)), float(rng.uniform(0.3, n)))
        dist = random_sorted_dist(rng, n)
        if threshold_gaps(dist, params).min_gap == 0.0:
            continue
        assert switch_count_bound(dist, params) >= 1.0
        done += 1
    with pytest.raises(DegenerateGapError):
        switch_count_bound(make_zipf(4, 0.0), SystemParams(4, 4, 1.0))


def test_switch_event_tails_example():
    dist = PopularityDistribution(np.array([0.8, 0.2]))
    params = SystemParams(2, 2, 1.0)  # threshold 0.5, gaps 0.3 each
    const = switching_constants(dist, params)
    decay = math.exp(-2 * 2 * 1 * 0.09)
    drop, add = switch_event_tails(dist, params, 2)
    assert drop == pytest.approx(decay * (1 + const.low_count[1]), rel=1e-12)
    assert add == pytest.approx(decay * (const.high_count[0] + 1), rel=1e-12)
    drop1, add1 = switch_event_tails(dist, params, 1)
    assert drop1 == pytest.approx(1 + const.low_count[1], rel=1e-12)
    assert add1 == pytest.approx(const.high_count[0] + 1, rel=1e-12)
    for t in range(1, 10):
        d_now, a_now = switch_event_tails(dist, params, t)
        d_next, a_next = switch_event_tails(dist, params, t + 1)
        assert d_next <= d_now + 1e-15 and a_next <= a_now + 1e-15


# --- lower-bound pair ------------------------------------------------------

PAIR = SystemParams(4, 5, 1.0)


def test_bad_set_gap_values():
    assert bad_set_gap(PAIR, 12.0) == pytest.approx(1 / 3, abs=1e-12)
    assert bad_set_gap(PAIR, 10.0) == 0.0  # 2/b exactly at the threshold
    with pytest.raises(ValueError, match="at most the caching threshold"):
        bad_set_gap(PAIR, 9.0)
    double = SystemParams(8, 5, 1.0)
    assert bad_set_gap(double, 12.0) == pytest.approx(2 / 3, abs=1e-12)


def test_is_bad_set_examples():
    assert is_bad_set({2, 3}, 4, "first")
    assert not is_bad_set({0, 2}, 4, "first")
    assert is_bad_set({0, 2}, 4, "second")
    assert not is_bad_set({2, 3}, 4, "second")
    with pytest.raises(ValueError, match="no leaning"):
        is_bad_set(set(), 4, "first")
    with pytest.raises(ValueError, match="even N"):
        is_bad_set({0}, 3, "first")
    with pytest.raises(ValueError, match="out of range"):
        is_bad_set({4}, 4, "first")
    with pytest.raises(ValueError, match="hot_half"):
        is_bad_set({0}, 4, "top")


def test_every_set_is_bad_somewhere():
    n = 6
    for mask in range(1, 1 << n):
        members = {i for i in range(n) if mask >> i & 1}
        assert is_bad_set(members, n, "first") or is_bad_set(members, n, "second")


def test_pair_kl_matches_direct_sum():
    assert pair_kl_per_slot(6, 12, 4) == pytest.approx((1 / 3) * math.log(2), rel=1e-12)
    head, tail = make_two_level_pair(4, 6, 12)
    direct = float(np.sum(head.probs * np.log(head.probs / tail.probs)))
    assert pair_kl_per_slot(6, 12, 4) == pytest.approx(direct, abs=1e-12)
    assert pair_kl_total(6, 12, 4, 7) == pytest.approx(7 * direct, abs=1e-12)
    assert pair_kl_per_slot(6, 6, 4) == 0.0


def test_pair_oracle_rate_matches_closed_form_rate():
    assert pair_oracle_rate(PAIR, 12.0) == pytest.approx(8 / 3, abs=1e-12)
    head, _ = make_two_level_pair(4, 6, 12)
    assert pair_oracle_rate(PAIR, 12.0) == pytest.approx(
        oracle_rate_upper(head, PAIR), abs=1e-12
    )


def test_regret_lower_bound_report():
    report = regret_lower_bound(PAIR, 6, 12)
    assert report.value == pytest.approx(1 / (4 * math.log(2)), rel=1e-12)
    assert report.oracle_rate == pytest.approx(8 / 3, abs=1e-12)
    assert report.gap == pytest.approx(1 / 3, abs=1e-12)
    assert report.kl_per_slot == pytest.approx((1 / 3) * math.log(2), rel=1e-12)
    assert report.peak_horizon == pytest.approx(3 / math.log(2), rel=1e-12)
    assert report.peak_value == pytest.approx(report.value / math.e, rel=1e-12)


def test_regret_lower_bound_preconditions():
    with pytest.raises(ValueError, match="N/K < M < N/2"):
        regret_lower_bound(SystemParams(4, 5, 2.0), 6, 12)
    with pytest.raises(ValueError, match="N/K < M < N/2"):
        regret_lower_bound(SystemParams(4, 5, 0.5), 6, 12)
    with pytest.raises(ValueError, match="separate"):
        regret_lower_bound(SystemParams(4, 5, 1.5), 6, 12)
    with pytest.raises(ValueError, match="1/a \\+ 1/b"):
        regret_lower_bound(PAIR, 6, 13)
    with pytest.raises(ValueError, match="even N"):
        regret_lower_bound(SystemParams(3, 5, 1.0), 5, 7)


def test_regret_lower_curve_peak():
    report = regret_lower_bound(PAIR, 6, 12)
    horizons = np.array([0.5 * report.peak_horizon, report.peak_horizon,
                         2.0 * report.peak_horizon])
    curve = regret_lower_curve(PAIR, 6, 12, horizons)
    assert curve[1] == pytest.approx(report.peak_value, rel=1e-12)
    assert curve[1] >= curve[0] and curve[1] >= curve[2]


def test_brute_force_gap_check_worked_instance():
    assert verify_bad_set_gap(PAIR, 6, 12)
    assert bad_set_min_excess(PAIR, 6, 12) == pytest.approx(1 / 3, abs=1e-12)


def test_brute_force_gap_check_small_instance():
    params = SystemParams(2, 3, 0.9)
    assert verify_bad_set_gap(params, 3, 6)
    assert bad_set_min_excess(params, 3, 6) == pytest.approx(1 / 9, abs=1e-12)
    assert bad_set_gap(params, 6) == pytest.approx(1 / 9, abs=1e-12)


def test_brute_force_size_guard():
    params = SystemParams(18, 12, 2.0)
    with pytest.raises(ValueError, match="limited to 16"):
        bad_set_min_excess(params, 27, 54)


def integer_budget_pairs():
    """Valid pair instances with an integer M, so sets of exactly M files exist."""
    rng = np.random.default_rng(76)
    for n in (4, 6, 8, 10):
        for k in range(3, 9):
            for m in range(1, n // 2 + 1):
                # the threshold 1/(KM) must separate 2(1-u)/N and 2u/N
                lo = max(0.5, n / (2 * k * m), 1 - n / (2 * k * m))
                if not n / k < m < n / 2 or lo >= 1:
                    continue
                u = float(rng.uniform(lo, 1))
                yield SystemParams(n, k, float(m)), n / u, n / (1 - u)


def test_brute_force_gap_random_valid_pairs():
    rng = np.random.default_rng(74)
    done = 0
    while done < 25:
        n = int(rng.integers(1, 6)) * 2
        k = int(rng.integers(3, 9))
        u = float(rng.uniform(0.55, 0.95))
        a, b = n / u, n / (1 - u)
        lo, hi = n / k, n / (2 * (1 - u) * k)
        if hi <= lo:
            continue
        m = float(rng.uniform(lo * 1.01, min(hi, n / 2) * 0.99))
        params = SystemParams(n, k, m)
        try:
            assert verify_bad_set_gap(params, a, b)
        except ValueError:
            continue
        done += 1
    pairs = list(integer_budget_pairs())
    assert len(pairs) >= 20
    for params, a, b in pairs:
        assert verify_bad_set_gap(params, a, b)


def hard_pair_grid(n):
    """The valid pair instances of N = n on a grid of K, M in halves and the
    hot half's mass u, with a = N/u and b = N/(1 - u)."""
    for k, halves, u in itertools.product(range(2, 9), range(1, 2 * n + 1), (0.6, 0.7, 0.8, 0.9)):
        params, a, b = SystemParams(n, k, halves / 2), n / u, n / (1 - u)
        try:
            regret_lower_bound(params, a, b)
        except ValueError:
            continue
        yield params, a, b


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_bad_set_gap_holds_on_a_grid_of_hard_pairs(n):
    # every set, smaller than M or not, is charged slot_rates, so a small
    # bad set competes with K * (mass outside) too
    pairs = list(hard_pair_grid(n))
    assert len(pairs) >= 10
    for params, a, b in pairs:
        assert verify_bad_set_gap(params, a, b)


def test_mask_rates_agree_with_scalar_rate():
    rng = np.random.default_rng(75)
    for case in range(30):
        n = int(rng.integers(1, 8))
        m = float(rng.integers(1, n + 1)) if case % 2 else float(rng.uniform(0.3, n))
        params = SystemParams(n, int(rng.integers(1, 6)), m)
        probs = rng.dirichlet(np.ones(n))
        masks = np.arange(1, 1 << n)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        rates = slot_rates(bits, probs, params)
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            expect = reference_slot_rate(members, probs, params)
            assert rates[mask - 1] == pytest.approx(expect, abs=1e-12)
