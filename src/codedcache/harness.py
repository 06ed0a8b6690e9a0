"""Monte Carlo experiment harness.

A trial runs one request history for a fixed horizon and plays every
configured policy against the same requests (paired comparison), so
regret differences between policies are not inflated by independent
request noise.  Each mode charges every policy one way: analytically
(``engine.slot_rates``, the expected per-slot rate of the chosen cache
set) or bit-level (actual subpacket placement and coded delivery).  LFU
alone may instead be charged one file per distinct missed file (dedup
accounting, the bit-level default); per-request accounting, the analytic
default, charges it one file per request outside its set, as the shared
rate does.  Per-slot regret is the rate minus a reference oracle rate;
the reference is either the closed-form upper estimate or the simulated
oracle of the same trial.
Each policy is charged block by block as ``policies.decision_blocks``
yields its decisions, so no (horizon, n_files) array of any dtype is held.
Each block's set sizes and switches are counted on the columns that can
vary inside it.  A constant policy (oracle, uniform) repeats one row, so
in analytic mode it is charged once per distinct block length.  Bit-level
delivery is planned for a bounded batch of slots at a time.
"""
from __future__ import annotations

import dataclasses
import io
import itertools

import numpy as np

from .bounds import oracle_rate_upper
from .engine import batch_slots, holders_full, plan_slots, sample_placement, slot_rates
from .model import (
    PopularityDistribution,
    SystemParams,
    sample_requests,
    substream,
)
from .policies import (
    CONSTANT_POLICIES,
    POLICY_NAMES,
    check_policy,
    decision_blocks,
    switch_flags,
)

# placement substream index per policy; request stream uses index 0
POLICY_STREAM_KEYS = {name: i + 1 for i, name in enumerate(POLICY_NAMES)}

RATE_MODES = ("analytic", "bitlevel")
REFERENCES = ("closed-form", "paired")
LFU_ACCOUNTINGS = ("auto", "per-request", "dedup")

# slots of CSV rows formatted by one template, bounding the text held at once
CSV_CHUNK = 1024


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    dist: PopularityDistribution
    policies: tuple[str, ...]
    horizon: int
    trials: int
    seed: int
    rate_mode: str = "analytic"
    reference: str = "closed-form"
    lfu_accounting: str = "auto"
    dist_label: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        if self.dist.n_files != self.params.n_files:
            raise ValueError("popularity length does not match file count")
        if self.horizon < 1:
            raise ValueError("need at least one slot")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.policies:
            raise ValueError("need at least one policy")
        for name in self.policies:
            check_policy(name, self.params)
        if len(set(self.policies)) != len(self.policies):
            raise ValueError("duplicate policy names")
        if self.rate_mode not in RATE_MODES:
            raise ValueError(f"unknown rate mode: {self.rate_mode}")
        if self.reference not in REFERENCES:
            raise ValueError(f"unknown reference mode: {self.reference}")
        if self.lfu_accounting not in LFU_ACCOUNTINGS:
            raise ValueError(f"unknown LFU accounting: {self.lfu_accounting}")
        if self.reference == "closed-form" and not self.dist.is_sorted():
            raise ValueError("closed-form reference needs sorted popularities")

    def lfu_per_request(self) -> bool:
        """Analytic mode defaults to per-request charging, bit-level to dedup."""
        if self.lfu_accounting == "auto":
            return self.rate_mode == "analytic"
        return self.lfu_accounting == "per-request"


@dataclasses.dataclass(frozen=True)
class PolicyTrace:
    """One policy's slot-by-slot record within a single trial."""

    policy: str
    set_sizes: np.ndarray
    rates: np.ndarray
    cum_regret: np.ndarray
    switches: np.ndarray

    @property
    def total_switches(self) -> int:
        return int(self.switches.sum())


@dataclasses.dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    reference_rates: np.ndarray
    traces: tuple[PolicyTrace, ...]

    def trace(self, policy: str) -> PolicyTrace:
        for tr in self.traces:
            if tr.policy == policy:
                return tr
        raise KeyError(policy)


def _draw_requests(config: ExperimentConfig, trial: int) -> np.ndarray:
    """The trial's (horizon, n_users) request matrix, shared by all policies.

    It is a read-only view of the drawn profile's requests, not a copy.
    """
    rng = substream(config.seed, trial, 0)
    flat = sample_requests(
        config.dist, config.horizon * config.params.n_users, rng
    )
    return flat.requests.reshape(config.horizon, config.params.n_users)


def _lfu_dedup_rates(
    config: ExperimentConfig, decisions: np.ndarray, requests: np.ndarray
) -> np.ndarray:
    """LFU charged one file per distinct missed file, not one per request.

    Analytic mode charges the expected number of distinct files requested
    outside the set, bit-level mode the number the slot's requests miss.
    """
    if config.rate_mode == "analytic":
        weight = 1.0 - (1.0 - config.dist.probs) ** config.params.n_users
        return weight.sum() - decisions @ weight
    requested = np.zeros(decisions.shape, dtype=bool)
    requested[np.arange(len(requests))[:, None], requests] = True
    return (requested & ~decisions).sum(axis=1).astype(np.float64)


def _policy_record(
    config: ExperimentConfig, policy: str, trial: int, requests: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One policy's per-slot rates, cached-set sizes and switch flags.

    Each block of :func:`decision_blocks` is charged as it comes, so the
    record holds one block of the (horizon, n_files) decisions at a time.
    LFU under dedup accounting pays per distinct missed file; every other
    policy pays ``slot_rates`` in analytic mode, and in bit-level mode real
    delivery over a placement sampled in the first slot and on every switch,
    from the policy's own substream.  Bit-level slots are planned up to
    ``engine.batch_slots`` at a time by ``engine.plan_slots``; a batch
    holds the placement in force at its first slot and those sampled at its
    switches, and ends before a switch once those placements are
    ``engine.holders_full``.  Placements are sampled in slot order, so the
    draws are those of planning one slot at a time.

    Sizes and switches are counted on the block's varying columns: a row's
    size is the first row's size with the varying part recounted, and a row
    past the first switches iff its varying part differs from the row
    above.  A block with no varying column repeats its first row, so its
    sizes are that row's and only its first row can switch.  The block's
    first row is compared whole with the previous block's last, since a
    column that is fixed inside a block can still differ from the block
    before.  A constant policy's blocks are one row broadcast with no
    varying column, and blocks of one length share one ``slot_rates``
    charge: at most two per record, with the bits of a charge per block.
    """
    params, probs = config.params, config.dist.probs
    charge = "dedup" if policy == "lfu" and not config.lfu_per_request() else config.rate_mode
    if charge == "bitlevel":
        place_rng = substream(config.seed, trial, POLICY_STREAM_KEYS[policy])
        per_batch, placed = batch_slots(params), []
    rates = np.empty(config.horizon)
    sizes = np.empty(config.horizon, dtype=np.int64)
    switches = np.empty(config.horizon, dtype=bool)
    constant = policy in CONSTANT_POLICIES
    charged = {}  # a constant policy's analytic rates, by block length
    previous = None
    for start, block, varying in decision_blocks(policy, requests, probs, params):
        stop = start + len(block)
        first = block[0]
        if isinstance(varying, slice) or varying.size:
            part = block[:, varying]
            sizes[start:stop] = part.sum(axis=1)
            sizes[start:stop] += np.count_nonzero(first) - np.count_nonzero(first[varying])
            switches[start:stop] = switch_flags(part)
        else:  # every row repeats the first
            sizes[start:stop] = np.count_nonzero(first)
            switches[start + 1 : stop] = False
        switches[start] = previous is not None and (first != previous).any()
        previous = block[-1]
        if charge == "dedup":
            rates[start:stop] = _lfu_dedup_rates(config, block, requests[start:stop])
        elif charge == "analytic" and constant:
            if len(block) not in charged:
                charged[len(block)] = slot_rates(block, probs, params, sizes[start:stop])
            rates[start:stop] = charged[len(block)]
        elif charge == "analytic":
            rates[start:stop] = slot_rates(block, probs, params, sizes[start:stop])
        else:
            lo = start
            while lo < stop:
                # the placement in force before lo, unless lo draws its own
                placed = placed[-1:] if lo and not switches[lo] else []
                which = []
                for s in range(lo, min(lo + per_batch, stop)):
                    if s == 0 or switches[s]:
                        if which and holders_full(placed):
                            break
                        cached = np.flatnonzero(block[s - start]).tolist()
                        placed.append(sample_placement(params, cached, place_rng))
                    which.append(len(placed) - 1)
                hi = lo + len(which)
                rates[lo:hi] = plan_slots(params, placed, np.array(which), requests[lo:hi]).rates
                lo = hi
    return rates, sizes, switches


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    """Play every configured policy against one sampled request history."""
    requests = _draw_requests(config, trial)
    records = {}  # a paired reference is the oracle's record, reused for its trace
    if config.reference == "closed-form":
        ref = np.full(
            config.horizon, oracle_rate_upper(config.dist, config.params)
        )
    else:
        records["oracle"] = _policy_record(config, "oracle", trial, requests)
        ref = records["oracle"][0]
    traces = []
    for name in config.policies:
        if name not in records:
            records[name] = _policy_record(config, name, trial, requests)
        rates, sizes, switches = records[name]
        traces.append(
            PolicyTrace(
                policy=name,
                set_sizes=sizes,
                rates=rates,
                cum_regret=np.cumsum(rates - ref),
                switches=switches,
            )
        )
    return TrialResult(trial, config.seed, ref, tuple(traces))


@dataclasses.dataclass(frozen=True)
class PolicyAggregate:
    """Across-trial means per slot for one policy."""

    policy: str
    mean_rate: np.ndarray
    mean_cum_regret: np.ndarray
    stderr_cum_regret: np.ndarray
    mean_switches: np.ndarray


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    aggregates: tuple[PolicyAggregate, ...]

    def aggregate(self, policy: str) -> PolicyAggregate:
        for agg in self.aggregates:
            if agg.policy == policy:
                return agg
        raise KeyError(policy)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Independent trials, aggregated in trial order.

    The mean rate and mean switch count are streamed: each trial's per-slot
    rates and cumulative switches are added to one running sum per policy,
    in trial order, and divided by the trial count at the end, the same
    sequential sum, bit for bit, as a mean over the stacked trials.  The
    cumulative regrets are stacked, since their standard error takes a
    second pass over the trials.  mean_switches accumulates: its value at
    slot t is the mean number of cache rewrites up to and including t.
    """
    sums = {}  # per policy: running sums of rates and of cumulative switches
    regrets = {name: [] for name in config.policies}
    for trial in range(config.trials):
        for tr in run_trial(config, trial).traces:
            switched = np.cumsum(tr.switches)
            if tr.policy in sums:
                rate_sum, switch_sum = sums[tr.policy]
                rate_sum += tr.rates
                switch_sum += switched
            else:
                sums[tr.policy] = (tr.rates.copy(), switched.astype(float))
            regrets[tr.policy].append(tr.cum_regret)
    aggregates = []
    for name in config.policies:
        regret = np.stack(regrets.pop(name))
        if config.trials > 1:
            stderr = regret.std(axis=0, ddof=1) / np.sqrt(config.trials)
        else:
            stderr = np.zeros(config.horizon)
        rate_sum, switch_sum = sums[name]
        aggregates.append(
            PolicyAggregate(
                policy=name,
                mean_rate=rate_sum / config.trials,
                mean_cum_regret=regret.mean(axis=0),
                stderr_cum_regret=stderr,
                mean_switches=switch_sum / config.trials,
            )
        )
    return ExperimentResult(config, tuple(aggregates))


def config_summary(config: ExperimentConfig) -> str:
    p = config.params
    return (
        f"n={p.n_files} k={p.n_users} m={p.cache_size:g} f={p.subpackets} "
        f"dist={config.dist_label} policies={','.join(config.policies)} "
        f"horizon={config.horizon} trials={config.trials} seed={config.seed} "
        f"rate_mode={config.rate_mode} reference={config.reference} "
        f"lfu_accounting={config.lfu_accounting}"
    )


def emit_csv(result: ExperimentResult, destination) -> None:
    """Write per-slot aggregates, slot-major, 6 significant digits.

    ``destination`` is a path or a writable text stream.  One comment
    line records the full configuration before the header.  The rows are
    written ``CSV_CHUNK`` slots at a time, each chunk one printf-style
    template filled from a tuple of its values; ``%.6g`` gives the text
    of ``format(x, ".6g")``, both being the same float conversion.
    """
    if hasattr(destination, "write"):
        _write_csv(result, destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write_csv(result, fh)


def _write_csv(result: ExperimentResult, fh: io.TextIOBase) -> None:
    fh.write(
        f"# config: {config_summary(result.config)}\n"
        "t,policy,mean_rate,mean_cum_regret,stderr_cum_regret,mean_switches\n"
    )
    # one slot's rows; a '%' in a policy name is escaped for the template
    row = "".join(
        f"%d,{agg.policy.replace('%', '%%')},%.6g,%.6g,%.6g,%.6g\n"
        for agg in result.aggregates
    )
    horizon = result.config.horizon
    for lo in range(0, horizon, CSV_CHUNK):
        hi = min(lo + CSV_CHUNK, horizon)
        slots = range(lo + 1, hi + 1)
        # Python floats from .tolist() format faster than numpy scalars
        columns = []
        for agg in result.aggregates:
            columns.append(slots)
            columns.extend(
                values[lo:hi].tolist()
                for values in (agg.mean_rate, agg.mean_cum_regret,
                               agg.stderr_cum_regret, agg.mean_switches)
            )
        fh.write((row * (hi - lo)) % tuple(itertools.chain.from_iterable(zip(*columns))))
