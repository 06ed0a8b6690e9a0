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

from codedcache import policies
from codedcache.engine import build_delivery, sample_placement
from codedcache.harness import (
    POLICY_STREAM_KEYS,
    ExperimentConfig,
    _draw_requests,
    _lfu_dedup_rates,
    run_trial,
)
from codedcache.model import (
    PopularityDistribution,
    RequestProfile,
    SystemParams,
    make_zipf,
    substream,
)
from codedcache.policies import POLICY_NAMES, decision_matrix


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


def test_block_decisions_match_stepped_reference_wide_shape():
    # the default block holds 65 slots of N=1000 files: 200 slots make
    # three full blocks and a 5-slot remainder
    params = SystemParams(1000, 100, 20.0)
    probs = make_zipf(1000, 0.8).probs
    requests = np.random.default_rng(5).choice(1000, size=(200, 100), p=probs)
    assert 200 % (policies.BLOCK_ELEMS // 1000) != 0
    for name in ("tracking", "lfu"):
        got = decision_matrix(name, requests, probs, params)
        assert got.tolist() == stepped_decisions(name, params, probs, requests).tolist()


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
        caches = None
        rates, sizes, switches = [], [], []
        for s in range(cfg.horizon):
            cached, switched = pol.decide()
            if name == "lfu":
                rates.append(reference_lfu_realized(
                    cached, requests[s], per_request=cfg.lfu_per_request()))
            else:
                if caches is None or switched:
                    caches = sample_placement(params, sorted(cached), place_rng)
                profile = RequestProfile(requests[s])
                rates.append(build_delivery(params, profile, caches, sorted(cached)).rate)
            sizes.append(len(cached))
            switches.append(switched)
            pol.observe(requests[s])
        trace = result.trace(name)
        assert trace.rates.tolist() == rates
        assert trace.set_sizes.tolist() == sizes
        assert trace.switches.tolist() == switches
    assert result.trace("tracking").total_switches > 0
