"""Whole-horizon policies and rate charging checked against a stepped reference.

The reference consumes a policy slot by slot, the way policies were once
written: ``decide`` the set for the coming slot, serve the slot, then
``observe`` its requests.  Rates are charged one set at a time with scalar
arithmetic.  The vectorized code in ``policies``, ``engine.slot_rates`` and
``harness`` must reproduce it slot for slot; other test modules import the
reference from here.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcache import policies
from codedcache.engine import build_delivery, sample_placement
from codedcache.harness import (
    POLICY_STREAM_KEYS,
    ExperimentConfig,
    _draw_requests,
    _lfu_dedup_rates,
    _policy_record,
    run_trial,
)
from codedcache.model import (
    PopularityDistribution,
    RequestProfile,
    SystemParams,
    make_zipf,
    substream,
)
from codedcache.policies import (
    POLICY_NAMES,
    block_matrix,
    count_floors,
    decision_blocks,
    decision_matrix,
    switch_flags,
)


class SteppedPolicy:
    """One policy played slot by slot over running per-file request counts."""

    def __init__(self, name, params, probs):
        self.name, self.params, self.probs = name, params, probs
        self.counts = np.zeros(params.n_files, dtype=np.int64)
        self.slots_seen = 0
        self.prev = None

    def _popular(self, probs):
        return frozenset(i for i, p in enumerate(probs) if p >= self.params.threshold)

    def decide(self):
        """The set cached for the coming slot, and whether it changed."""
        n = self.params.n_files
        if self.name == "uniform" or (self.name == "tracking" and self.slots_seen == 0):
            cached = frozenset(range(n))
        elif self.name == "oracle":
            cached = self._popular(self.probs)
        elif self.name == "tracking":
            cached = self._popular(self.counts / (self.slots_seen * self.params.n_users))
        else:  # lfu: most requested first, ties to the lower id
            ranked = sorted(range(n), key=lambda i: (-self.counts[i], i))
            cached = frozenset(ranked[: int(self.params.cache_size)])
        switched = self.prev is not None and cached != self.prev
        self.prev = cached
        return cached, switched

    def observe(self, requests):
        for r in requests:
            self.counts[int(r)] += 1
        self.slots_seen += 1


def stepped_decisions(name, params, probs, requests):
    """(horizon, n_files) indicators of the sets a stepped run caches."""
    pol = SteppedPolicy(name, params, probs)
    rows = np.zeros((len(requests), params.n_files), dtype=bool)
    for s, req in enumerate(requests):
        cached, _ = pol.decide()
        rows[s, sorted(cached)] = True
        pol.observe(req)
    return rows


def reference_slot_rate(cached, probs, params):
    """Expected coded-delivery rate of one set, per-request charged at |S| == M."""
    n, k, m = params.n_files, params.n_users, params.cache_size
    size = len(cached)
    if size >= m:
        return size / m - 1.0 + k * (1.0 - sum(float(probs[i]) for i in cached))
    return (n - size) / (m - size) - 1.0


def reference_lfu_rate(cached, probs, n_users, *, per_request):
    """Expected uncoded rate: one file per outside request, or per distinct
    outside file that at least one user requests."""
    outside = [float(p) for i, p in enumerate(probs) if i not in cached]
    if per_request:
        return n_users * sum(outside)
    return sum(1.0 - (1.0 - p) ** n_users for p in outside)


def reference_lfu_realized(cached, requests, *, per_request):
    """Files an uncoded server sends for one slot of requests."""
    misses = [int(r) for r in requests if int(r) not in cached]
    return float(len(misses) if per_request else len(set(misses)))


def test_block_decisions_match_stepped_reference(monkeypatch):
    # block sizes of 1 to 5 rows against random horizons, so blocks end
    # mid-horizon and the last one is short; few users over few files give
    # LFU count ties, and M == N is drawn too
    monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
    rng = np.random.default_rng(23)
    short_tail = 0
    for _ in range(40):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        params = SystemParams(n, k, float(rng.integers(1, n + 1)))
        probs = rng.dirichlet(np.ones(n))
        t_len = int(rng.integers(1, 24))
        requests = rng.choice(n, size=(t_len, k), p=probs)
        want = {name: stepped_decisions(name, params, probs, requests) for name in POLICY_NAMES}
        for elems in (1, 3, n - 1, n + 1, 2 * n + 1, 5 * n):
            monkeypatch.setattr(policies, "BLOCK_ELEMS", elems)
            short_tail += t_len % max(1, elems // n) != 0
            for name in POLICY_NAMES:
                got = decision_matrix(name, requests, probs, params)
                assert got.shape == (t_len, n)
                assert got.tolist() == want[name].tolist(), (name, elems)
    assert short_tail > 0


@pytest.mark.parametrize("budget", [0.7, 1.3, 2.3, 2.5])
def test_block_decisions_match_stepped_reference_fractional_budget(monkeypatch, budget):
    # tracking decides by integer count floors; with a fractional M and few
    # users, counts sit on and next to the threshold.  LFU needs an integer M.
    monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
    rng = np.random.default_rng(int(budget * 10))
    names = ("tracking", "oracle", "uniform")
    for k in (1, 2, 3):
        for _ in range(14):
            n = int(rng.integers(3, 8))
            params = SystemParams(n, k, budget)
            probs = rng.dirichlet(np.ones(n))
            t_len = int(rng.integers(1, 40))
            requests = rng.choice(n, size=(t_len, k), p=probs)
            for elems in (n, 3 * n + 1, 64 * n):
                monkeypatch.setattr(policies, "BLOCK_ELEMS", elems)
                for name in names:
                    got = decision_matrix(name, requests, probs, params)
                    want = stepped_decisions(name, params, probs, requests)
                    assert got.tolist() == want.tolist(), (name, k, elems)


def test_count_floors_decide_as_the_division():
    # the floor passes the float test and one request fewer fails it, so a
    # count compared with the floor is cached exactly when c / (t * K) clears
    # the threshold
    slots = np.arange(1, 3000)
    for k in range(1, 30):
        for tenths in range(1, 60):
            params = SystemParams(6, k, tenths / 10)
            floor = count_floors(slots, params)
            seen = slots * k
            assert params.popular(floor / seen).all(), (k, tenths)
            assert not params.popular((floor - 1) / seen)[floor > 0].any(), (k, tenths)
    assert count_floors(np.array([0, 1]), SystemParams(6, 1, 1.0)).tolist() == [0, 1]
    # K=1, M=2.3, t=23: 10 requests are exactly 1/(K*M), which the rule
    # caches, but fl(10/23) < fl(1/2.3), so the float test and the floor do not
    params = SystemParams(6, 1, 2.3)
    assert not params.popular(10 / 23)
    assert count_floors(np.array([23]), params).tolist() == [11]


def test_block_decisions_match_stepped_reference_wide_shape():
    # the default block holds 64 slots of N=1000 files: 200 slots make
    # three full blocks and an 8-slot remainder
    params = SystemParams(1000, 100, 20.0)
    probs = make_zipf(1000, 0.8).probs
    requests = np.random.default_rng(5).choice(1000, size=(200, 100), p=probs)
    assert policies.block_rows(1000) == 64
    for name in ("tracking", "lfu"):
        got = decision_matrix(name, requests, probs, params)
        assert got.tolist() == stepped_decisions(name, params, probs, requests).tolist()


def test_frontier_blocks_match_stepped_reference(monkeypatch):
    # 16-slot blocks over histories of hundreds of slots, so most blocks past
    # the first are decided on their frontier; uniform popularity and M == N
    # keep the frontier wide, which sends blocks to the dense path.  Every
    # column outside a block's varying set repeats its first row, and the
    # record's sizes and switches, counted on those columns, are the ones of
    # the whole matrix
    monkeypatch.setattr(policies, "BLOCK_ROW_MULTIPLE", 1)
    narrow = []
    rule = policies._frontier

    def spy(policy, running, end, floors, m):
        fixed, frontier = rule(policy, running, end, floors, m)
        narrow.append(2 * np.count_nonzero(frontier) <= len(frontier))
        return fixed, frontier

    monkeypatch.setattr(policies, "_frontier", spy)
    rng = np.random.default_rng(31)
    cases = [  # n, k, m, popularity, horizon
        (60, 8, 5.0, make_zipf(60, 1.0).probs, 405),
        (100, 20, 10.0, make_zipf(100, 1.2).probs, 290),
        (40, 1, 3.0, make_zipf(40, 0.8).probs, 333),
        (50, 4, 2.5, make_zipf(50, 1.0).probs, 517),
        (30, 6, 2.3, make_zipf(30, 0.6).probs, 260),
        (80, 10, 7.0, rng.dirichlet(np.full(80, 0.3)), 410),
        (40, 5, 4.0, np.full(40, 1 / 40), 300),
        (12, 3, 12.0, make_zipf(12, 1.0).probs, 250),
    ]
    for n, k, m, probs, t_len in cases:
        monkeypatch.setattr(policies, "BLOCK_ELEMS", 16 * n)
        params = SystemParams(n, k, m)
        requests = rng.choice(n, size=(t_len, k), p=probs)
        for name in ("tracking", "lfu") if m == int(m) else ("tracking",):
            got = decision_matrix(name, requests, probs, params)
            want = stepped_decisions(name, params, probs, requests)
            assert got.tolist() == want.tolist(), (name, n, k, m)
            for _, fixed, varying, part in decision_blocks(name, requests, probs, params):
                block = block_matrix(fixed, varying, part)
                still = np.ones(n, dtype=bool)
                still[varying] = False
                assert (block[:, still] == fixed[still]).all(), (name, n, k, m)
            cfg = ExperimentConfig(params=params, dist=PopularityDistribution(probs),
                                   policies=(name,), horizon=t_len, trials=1, seed=0,
                                   reference="paired")
            _, sizes, switches = _policy_record(cfg, name, 0, requests)
            assert sizes.tolist() == np.count_nonzero(got, axis=1).tolist(), (name, n, k, m)
            assert switches.tolist() == switch_flags(got).tolist(), (name, n, k, m)
    assert 2 * sum(narrow) > len(narrow) and not all(narrow)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_files_off_the_frontier_keep_one_decision(data):
    # the frontier rule itself: in every block, a file outside the frontier
    # takes its fixed decision in every row of the stepped reference
    n = data.draw(st.integers(1, 40), label="n")
    k = data.draw(st.integers(1, 6), label="k")
    name = data.draw(st.sampled_from(["tracking", "lfu"]), label="policy")
    if name == "lfu":
        m = float(data.draw(st.integers(1, n), label="m"))
    else:
        m = data.draw(st.floats(0.1, n), label="m")
    probs = make_zipf(n, data.draw(st.floats(0.0, 2.0), label="exponent")).probs
    t_len = data.draw(st.integers(1, 200), label="horizon")
    rows = data.draw(st.integers(1, 40), label="rows")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    params = SystemParams(n, k, m)
    requests = np.random.default_rng(seed).choice(n, size=(t_len, k), p=probs)
    want = stepped_decisions(name, params, probs, requests)
    counts = np.zeros((t_len + 1, n), dtype=np.int64)
    for s, req in enumerate(requests):
        counts[s + 1] = counts[s] + np.bincount(req, minlength=n)
    for start in range(0, t_len, rows):
        stop = min(start + rows, t_len)
        floors = count_floors(np.arange(start, stop), params)
        fixed, frontier = policies._frontier(name, counts[start], counts[stop], floors, int(m))
        assert (want[start:stop, ~frontier] == fixed[~frontier]).all(), (start, stop)
        if name == "lfu":
            assert np.count_nonzero(frontier) >= int(m)


def test_lfu_refuses_a_history_its_key_would_overflow():
    # T * K * N == 2**63: the ranking key before * N + (N - 1 - id) could
    # pass int64; a broadcast stub has the shape without the memory
    params = SystemParams(2**10, 2**10, 4.0)
    requests = np.broadcast_to(np.zeros(1, dtype=np.int64), (2**43, 2**10))
    with pytest.raises(ValueError, match="2\\*\\*63"):
        decision_matrix("lfu", requests, np.full(2**10, 2.0**-10), params)


def test_lfu_realized_rates_match_reference():
    # bit-level dedup accounting; per-request LFU goes through the engine and
    # is checked slot for slot by test_bitlevel_trial_matches_stepped_run
    rng = np.random.default_rng(17)
    for _ in range(30):
        n, k, t_len = int(rng.integers(1, 8)), int(rng.integers(1, 7)), 12
        cfg = ExperimentConfig(
            params=SystemParams(n, k, 1.0), dist=PopularityDistribution(np.full(n, 1 / n)),
            policies=("lfu",), horizon=t_len, trials=1, seed=0, rate_mode="bitlevel",
        )
        decisions = rng.random((t_len, n)) < 0.5
        requests = rng.integers(0, n, size=(t_len, k))
        got = _lfu_dedup_rates(cfg, decisions, requests)
        want = [
            reference_lfu_realized(
                frozenset(np.flatnonzero(row).tolist()), req, per_request=False
            )
            for row, req in zip(decisions, requests)
        ]
        assert got.tolist() == want


@pytest.mark.parametrize("lfu_accounting", ["auto", "per-request"])
def test_bitlevel_trial_matches_stepped_run(lfu_accounting):
    # placement is drawn in the first slot and on every switch, from the
    # policy's own substream, exactly as a stepped run draws it
    params = SystemParams(6, 4, 2.0, 24)
    cfg = ExperimentConfig(
        params=params, dist=make_zipf(6, 1.0), policies=POLICY_NAMES,
        horizon=15, trials=1, seed=8, rate_mode="bitlevel",
        lfu_accounting=lfu_accounting,
    )
    result = run_trial(cfg, 0)
    requests = _draw_requests(cfg, 0)
    for name in POLICY_NAMES:
        pol = SteppedPolicy(name, params, cfg.dist.probs)
        place_rng = substream(cfg.seed, 0, POLICY_STREAM_KEYS[name])
        placement = None
        rates, sizes, switches = [], [], []
        for s in range(cfg.horizon):
            cached, switched = pol.decide()
            if name == "lfu":
                rates.append(reference_lfu_realized(
                    cached, requests[s], per_request=cfg.lfu_per_request()))
            else:
                if placement is None or switched:
                    placement = sample_placement(params, sorted(cached), place_rng)
                profile = RequestProfile(requests[s])
                rates.append(build_delivery(params, profile, placement, sorted(cached)).rate)
            sizes.append(len(cached))
            switches.append(switched)
            pol.observe(requests[s])
        trace = result.trace(name)
        assert trace.rates.tolist() == rates
        assert trace.set_sizes.tolist() == sizes
        assert trace.switches.tolist() == switches
    assert result.trace("tracking").total_switches > 0
