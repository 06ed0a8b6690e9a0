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
"""
from __future__ import annotations

import dataclasses
import io

import numpy as np

from .bounds import oracle_rate_upper
from .engine import build_delivery, sample_placement, slot_rates
from .model import (
    PopularityDistribution,
    RequestProfile,
    SystemParams,
    sample_requests,
    substream,
)
from .policies import POLICY_NAMES, check_policy, decision_matrix, switch_flags

# placement substream index per policy; request stream uses index 0
POLICY_STREAM_KEYS = {name: i + 1 for i, name in enumerate(POLICY_NAMES)}

RATE_MODES = ("analytic", "bitlevel")
REFERENCES = ("closed-form", "paired")
LFU_ACCOUNTINGS = ("auto", "per-request", "dedup")


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
    """The trial's (horizon, n_users) request matrix, shared by all policies."""
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


def _bitlevel_rates(
    config: ExperimentConfig,
    policy: str,
    trial: int,
    requests: np.ndarray,
    decisions: np.ndarray,
    switches: np.ndarray,
) -> np.ndarray:
    """Realized per-slot rates with real placement and coded delivery.

    Placement is sampled in the first slot and again on every cache switch.
    """
    params = config.params
    place_rng = substream(config.seed, trial, POLICY_STREAM_KEYS[policy])
    rates = np.zeros(config.horizon)
    for s in range(config.horizon):
        if s == 0 or switches[s]:
            cached = np.flatnonzero(decisions[s]).tolist()
            caches = sample_placement(params, cached, place_rng)
        tx = build_delivery(params, RequestProfile(requests[s]), caches, cached)
        rates[s] = tx.rate
    return rates


def _policy_record(
    config: ExperimentConfig, policy: str, trial: int, requests: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One policy's per-slot rates, cached-set sizes and switch flags."""
    decisions = decision_matrix(policy, requests, config.dist.probs, config.params)
    switches = switch_flags(decisions)
    if policy == "lfu" and not config.lfu_per_request():
        rates = _lfu_dedup_rates(config, decisions, requests)
    elif config.rate_mode == "analytic":
        rates = slot_rates(decisions, config.dist.probs, config.params)
    else:
        rates = _bitlevel_rates(config, policy, trial, requests, decisions, switches)
    return rates, decisions.sum(axis=1), switches


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
        rates, decisions_sizes, switches = records[name]
        traces.append(
            PolicyTrace(
                policy=name,
                set_sizes=np.asarray(decisions_sizes, dtype=np.int64),
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

    mean_switches accumulates: its value at slot t is the mean number of
    cache rewrites up to and including t.
    """
    per_policy_rates = {name: [] for name in config.policies}
    per_policy_regret = {name: [] for name in config.policies}
    per_policy_switch = {name: [] for name in config.policies}
    for trial in range(config.trials):
        result = run_trial(config, trial)
        for tr in result.traces:
            per_policy_rates[tr.policy].append(tr.rates)
            per_policy_regret[tr.policy].append(tr.cum_regret)
            per_policy_switch[tr.policy].append(np.cumsum(tr.switches))
    aggregates = []
    for name in config.policies:
        regret = np.stack(per_policy_regret[name])
        if config.trials > 1:
            stderr = regret.std(axis=0, ddof=1) / np.sqrt(config.trials)
        else:
            stderr = np.zeros(config.horizon)
        aggregates.append(
            PolicyAggregate(
                policy=name,
                mean_rate=np.stack(per_policy_rates[name]).mean(axis=0),
                mean_cum_regret=regret.mean(axis=0),
                stderr_cum_regret=stderr,
                mean_switches=np.stack(per_policy_switch[name]).mean(axis=0).astype(float),
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
    line records the full configuration before the header.
    """
    if hasattr(destination, "write"):
        _write_csv(result, destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write_csv(result, fh)


def _write_csv(result: ExperimentResult, fh: io.TextIOBase) -> None:
    # Python floats from .tolist() format to the same '.6g' text as the
    # numpy scalars, at a fraction of the per-value cost
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
    fh.write("\n".join(lines))
