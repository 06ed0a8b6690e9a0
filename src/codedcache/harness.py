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
A trial draws its requests a chunk at a time, about ``REQUEST_CHUNK``
requests and a whole number of ``policies.block_rows`` slots, and hands each
chunk to every policy in turn, the paired oracle among them, before it
releases the chunk and draws the next.  Each policy's
``policies.DecisionWalk`` decides the chunk in factored blocks sized by
their frontier work, and its record charges each block as it comes.  So
neither a (horizon, n_users) request matrix nor a (horizon, n_files)
decision array of any dtype is held; a trial's memory grows with the
horizon only through its per-slot records.  The walks of a trial share one
counts holder, emptied with each chunk, so tracking and LFU count their
first block, which both decide densely, once between them.  Each block's
switches are found on the columns that can vary inside it, and its set
sizes are summed once per set change, not once per slot.  Analytic
rates are charged on slices of ``policies.block_rows`` slots, rebuilt as
float rows in one buffer that a record holds only while it is fed a chunk,
so every rate has the bits of charging the whole history a slice at a
time.  A constant policy (oracle, uniform) repeats one row, so in analytic
mode it is charged once per experiment and slice length.  Bit-level delivery is planned for a
bounded batch of slots at a time.
An experiment aggregates its trials in trial order: the means are running
sums, the switches one integer total per slot that is cumsummed once, and
each trial keeps its per-slot regrets as runs of equal values, from which
the standard error's second pass rebuilds the cumulative regrets one trial
at a time.  Its memory grows with the horizon plus the runs, not
with trials times horizon, and every aggregate has the bits of a stacked
(trials, horizon) array.
"""
from __future__ import annotations

import dataclasses
import functools
import io
import itertools
from typing import Iterable, Iterator

import numpy as np

from .bounds import oracle_rate_upper
from .engine import (
    batch_slots,
    holders_full,
    plan_slots,
    rates_of_mass,
    sample_placement,
    slot_rates,
)
from .model import (
    REQUEST_CHUNK,
    PopularityDistribution,
    SystemParams,
    sample_requests,
    substream,
)
from .policies import (
    CONSTANT_POLICIES,
    POLICY_NAMES,
    DecisionWalk,
    block_rows,
    check_policy,
    count_floors,
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

    @functools.cached_property
    def _constant_charges(self) -> dict[tuple[str, int], np.ndarray]:
        """Analytic rates of a constant policy's slice of rows, keyed by
        policy and slice length, charged once and shared by every trial."""
        return {}

    @functools.cached_property
    def _tracking_floors(self) -> np.ndarray:
        """Tracking's ``count_floors`` over the horizon, computed once and
        shared by every trial: they depend only on the slot and params."""
        floors = count_floors(np.arange(self.horizon), self.params)
        floors.setflags(write=False)
        return floors

    @functools.cached_property
    def _oracle_rate_upper(self) -> float:
        """The closed-form reference rate, computed once and shared by every
        trial: it depends only on the popularity and params."""
        return oracle_rate_upper(self.dist, self.params)


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
    """The trial's whole (horizon, n_users) request matrix, in one draw.

    It is a read-only view of the drawn profile's requests, not a copy.
    The trial itself draws the same substream a chunk at a time
    (:func:`_request_chunks`); joined, the chunks are this matrix.
    """
    rng = substream(config.seed, trial, 0)
    flat = sample_requests(
        config.dist, config.horizon * config.params.n_users, rng
    )
    return flat.requests.reshape(config.horizon, config.params.n_users)


def _request_chunks(config: ExperimentConfig, trial: int) -> Iterator[np.ndarray]:
    """The trial's requests, one (rows, n_users) chunk at a time.

    A chunk is about ``REQUEST_CHUNK`` requests, a whole number of
    ``policies.block_rows`` slots and at least one such slice, or the
    horizon's rest.  The chunks are drawn from the trial's request substream
    as they are asked for; consecutive draws continue one stream, so the
    chunks joined are :func:`_draw_requests`.  No reference to a chunk is
    kept here, so a consumer that drops it before asking for the next holds
    one chunk at a time.
    """
    k, step = config.params.n_users, block_rows(config.params.n_files)
    chunk = step * max(1, REQUEST_CHUNK // (step * k))
    rng = substream(config.seed, trial, 0)
    for lo in range(0, config.horizon, chunk):
        rows = min(chunk, config.horizon - lo)
        yield sample_requests(config.dist, rows * k, rng).requests.reshape(rows, k)


def _lfu_dedup_rates(
    config: ExperimentConfig, decisions: np.ndarray, requests: np.ndarray
) -> np.ndarray:
    """LFU charged one file per distinct missed file, not one per request.

    ``decisions`` holds the cached sets as bool or as 0/1 float rows.

    Analytic mode charges the expected number of distinct files requested
    outside the set, bit-level mode the number the slot's requests miss.
    """
    if config.rate_mode == "analytic":
        weight = 1.0 - (1.0 - config.dist.probs) ** config.params.n_users
        return weight.sum() - decisions @ weight
    requested = np.zeros(decisions.shape, dtype=bool)
    requested[np.arange(len(requests))[:, None], requests] = True
    return (requested & (decisions == 0)).sum(axis=1).astype(np.float64)


class _PolicyRecord:
    """One policy's per-slot rates, cached-set sizes and switch flags, filled
    as :meth:`feed` hands it the history's requests a chunk at a time.

    The record owns the policy's :class:`DecisionWalk`, built with the
    trial's first-block ``counts`` holder if it is given one, and charges each
    factored block ``(start, fixed_row, varying, part)`` as it is decided, so
    it never holds a (rows, n_files) bool block past the dense ones: between
    blocks it keeps its per-slot arrays, the walk's counts, the last decided
    row and, in bit-level mode, the placement in force.

    Sizes and switches are counted on ``part``, once per set change: a row
    past the first switches iff its row of ``part`` differs from the row
    above (``policies.switch_flags``), so the block's rows fall into runs
    that cache one set, each starting at row 0 or at a switch.  A run's
    size is the fixed row's size outside the varying columns plus the sum of
    its first row of ``part``, summed once and repeated over the run.
    LFU's keys are unique in a row, so it caches exactly M files in every
    row and its sizes are M, with nothing summed.  A block with no varying
    column repeats its fixed row, so its sizes are that row's and only its
    first row can switch.  The block's first row is compared whole with the
    previous block's last, since a column that is fixed inside a block can
    still differ from the block before.

    In analytic mode, and for LFU under dedup accounting, the rates are
    charged on the slices of ``policies.block_rows`` slots that start at its
    multiples, so every rate has the bits of charging the whole history a
    slice at a time.  Each slice is rebuilt in float rows the record
    allocates at a feed's first slice and drops when the feed ends, so the
    records of a trial hold one such buffer at a time: a dense block's rows
    are copied in, and a frontier block refills the rows with its fixed row
    once, after which each slice writes only its varying columns.  As the
    rows hold nothing between feeds, each feed must start on a slice, as
    :func:`_request_chunks` does.  LFU under dedup accounting pays per
    distinct missed file; every other policy pays ``slot_rates``: the mass
    inside each set is one ``decisions @ probs`` product per slice, and
    ``engine.rates_of_mass`` turns a feed's masses into rates at once.  A
    constant policy's slices repeat one row, so each slice length is charged
    once per experiment (``ExperimentConfig._constant_charges``).

    In bit-level mode each policy pays real delivery over a placement
    sampled in the first slot and on every switch, from the policy's own
    substream.  Bit-level slots are planned up to ``engine.batch_slots`` at a
    time by ``engine.plan_slots``, inside one block; a batch holds the
    placement in force at its first slot and those sampled at its switches,
    and ends before a switch once those placements are
    ``engine.holders_full``.  Placements are sampled in slot order, so the
    draws are those of planning one slot at a time.
    """

    def __init__(
        self, config: ExperimentConfig, policy: str, trial: int, counts: dict | None = None
    ):
        params = config.params
        floors = config._tracking_floors if policy == "tracking" else None
        self.walk = DecisionWalk(policy, config.dist.probs, params, config.horizon, floors, counts)
        self.config, self.policy = config, policy
        self.buffer = None  # the float rows of the slices a feed charges
        if policy == "lfu" and not config.lfu_per_request():
            self.charge = "dedup"
        else:
            self.charge = config.rate_mode
        if self.charge == "bitlevel":
            self.place_rng = substream(config.seed, trial, POLICY_STREAM_KEYS[policy])
            self.per_batch, self.placed = batch_slots(params), []
        self.constant = policy in CONSTANT_POLICIES
        self.previous = None  # the last decided row
        self.rates = np.empty(config.horizon)
        self.sizes = np.empty(config.horizon, dtype=np.int64)
        self.switches = np.empty(config.horizon, dtype=bool)

    def feed(self, requests: np.ndarray) -> None:
        """Decide and charge the next slots, given their requests: a whole
        number of rate slices, or the rest of the history."""
        first, done = self.walk.start, 0
        while done < len(requests):
            start, fixed, varying, part = self.walk.step(requests[done:])
            self._count(start, fixed, varying, part)
            if self.charge == "bitlevel":
                self._deliver(start, fixed, varying, part, requests[done:])
            elif self.constant:
                self._charge_constant(start, fixed, start + len(part))
            else:
                self._charge(start, fixed, varying, part, requests, first)
            done += len(part)
        self.buffer = None  # a trial's records hold one buffer at a time
        if self.charge == "analytic" and not self.constant:
            # _charge left the mass inside each set in the rates
            span = slice(first, self.walk.start)
            params = self.config.params
            self.rates[span] = rates_of_mass(self.rates[span], self.sizes[span], params)

    def _count(self, start, fixed, varying, part) -> None:
        """The block's set sizes and switch flags."""
        stop = start + len(part)
        sizes, switches = self.sizes[start:stop], self.switches[start:stop]
        if part.shape[1]:
            switches[:] = switch_flags(part)
            if self.policy == "lfu":  # unique keys: every row caches the top M
                sizes[:] = self.config.params.cache_size
            else:  # one sum per run of rows caching the same set
                switches[0] = True  # row 0 starts a run; its flag is set below
                starts = np.flatnonzero(switches)
                sums = part[starts].sum(axis=1)
                sums += np.count_nonzero(fixed) - np.count_nonzero(fixed[varying])
                sizes[:] = np.repeat(sums, np.diff(starts, append=len(part)))
        else:  # every row repeats the fixed row
            sizes[:] = np.count_nonzero(fixed)
            switches[1:] = False
        row = fixed.copy()
        row[varying] = part[0]
        switches[0] = self.previous is not None and (row != self.previous).any()
        row[varying] = part[-1]
        self.previous = row

    def _charge(self, start, fixed, varying, part, requests, first) -> None:
        """Charge the block's slots a rate slice at a time: the mass inside
        each set in analytic mode, the rate under dedup accounting.
        ``requests`` are the feed's, from slot ``first`` on."""
        config, probs, stale = self.config, self.config.dist.probs, 0
        if self.buffer is None:
            n = config.params.n_files
            self.buffer = np.empty((min(self.walk.rows, config.horizon), n))
        buffer, dense = self.buffer, isinstance(varying, slice)
        for base, end, lo, hi in _slices(start, start + len(part), self.walk.rows, config.horizon):
            rows = buffer[lo - base : hi - base]
            if dense:  # a plain copy
                rows[...] = part[lo - start : hi - start]
            else:
                if lo == start:  # rows above lo still hold the block before
                    buffer[lo - base :] = fixed
                    stale = lo - base
                elif stale:
                    buffer[:stale] = fixed
                    stale = 0
                rows[:, varying] = part[lo - start : hi - start]
            if hi < end:
                continue  # the next block completes the slice
            decisions = buffer[: end - base]
            if self.charge == "dedup":
                slots = requests[base - first : end - first]
                self.rates[base:end] = _lfu_dedup_rates(config, decisions, slots)
            else:
                np.matmul(decisions, probs, out=self.rates[base:end])

    def _charge_constant(self, start, row, stop) -> None:
        """A constant policy's analytic rates: each slice length is charged
        once per experiment."""
        config, charges = self.config, self.config._constant_charges
        for base, end, lo, hi in _slices(start, stop, self.walk.rows, config.horizon):
            key = (self.policy, end - base)
            if key not in charges:
                block = np.broadcast_to(row, (end - base, len(row)))
                charges[key] = slot_rates(block, config.dist.probs, config.params)
            self.rates[lo:hi] = charges[key][lo - base : hi - base]

    def _deliver(self, start, fixed, varying, part, requests) -> None:
        """Bit-level rates of the block's slots; ``requests`` start at its
        first slot."""
        config, rates, switches = self.config, self.rates, self.switches
        params, stop = config.params, start + len(part)
        lo, placed = start, self.placed
        while lo < stop:
            # the placement in force before lo, unless lo draws its own
            placed = placed[-1:] if lo and not switches[lo] else []
            which = []
            for s in range(lo, min(lo + self.per_batch, stop)):
                if s == 0 or switches[s]:
                    if which and holders_full(placed):
                        break
                    row = fixed.copy()
                    row[varying] = part[s - start]
                    cached = np.flatnonzero(row).tolist()
                    placed.append(sample_placement(params, cached, self.place_rng))
                which.append(len(placed) - 1)
            hi = lo + len(which)
            slots = requests[lo - start : hi - start]
            rates[lo:hi] = plan_slots(params, placed, np.array(which), slots).rates
            lo = hi
        # the placement in force carries into the next block, if any
        self.placed = placed[-1:] if stop < config.horizon else []


def _slices(start: int, stop: int, step: int, horizon: int) -> Iterator[tuple[int, int, int, int]]:
    """``(base, end, lo, hi)`` for each rate slice that slots ``start`` to
    ``stop`` meet: the slice [base, end) starts at a multiple of ``step``
    and ends ``step`` slots on or at the horizon, and [lo, hi) is the part
    of the slots inside it."""
    lo = start
    while lo < stop:
        base = lo - lo % step
        end = min(base + step, horizon)
        hi = min(stop, end)
        yield base, end, lo, hi
        lo = hi


def _policy_record(
    config: ExperimentConfig, policy: str, trial: int, requests: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One policy's per-slot rates, cached-set sizes and switch flags over a
    whole (horizon, n_users) history held in memory: a :class:`_PolicyRecord`
    fed the history in one piece."""
    record = _PolicyRecord(config, policy, trial)
    record.feed(requests)
    return record.rates, record.sizes, record.switches


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    """Play every configured policy against one sampled request history.

    The history is drawn a chunk at a time (:func:`_request_chunks`), and
    each chunk goes to every policy's record in turn, the paired oracle's
    among them, and is released before the next is drawn, so no (horizon,
    n_users) request matrix is held.  The records' walks share one counts
    holder, so the first block, which tracking and LFU both decide densely,
    is counted once; it is emptied with each chunk.
    """
    names = config.policies
    if config.reference == "paired" and "oracle" not in names:
        names += ("oracle",)
    counts = {}  # the first block's counts while the first chunk is fed
    records = {name: _PolicyRecord(config, name, trial, counts) for name in names}
    for requests in _request_chunks(config, trial):
        for record in records.values():
            record.feed(requests)
        counts.clear()
        del requests  # the chunk is freed before the next is drawn
    if config.reference == "closed-form":
        ref = np.full(config.horizon, config._oracle_rate_upper)
    else:
        ref = records["oracle"].rates
    traces = []
    for name in config.policies:
        record = records[name]
        traces.append(
            PolicyTrace(
                policy=name,
                set_sizes=record.sizes,
                rates=record.rates,
                cum_regret=np.cumsum(record.rates - ref),
                switches=record.switches,
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

    The means are streamed: each trial's per-slot rates and cumulative
    regrets are added to one running sum per policy, in trial order, and
    divided by the trial count at the end, the same sequential sum, bit for
    bit, as a mean over the stacked trials.  Each trial's switch flags are
    added to one int64 total per slot and policy, which is cumsummed once
    per experiment: the totals are exact integers, so ``cumsum(total) /
    trials`` has the bits of the mean of each trial's cumulative switches.
    The standard error of the cumulative regret takes a second pass over the
    trials (:func:`_stderr`), so each trial keeps its per-slot regrets as
    runs of equal values (:func:`_runs`), and pass two rebuilds its
    cumulative regrets one trial at a time.  An analytic rate changes only
    when the cached set switches, so a trial keeps a few runs where it has
    thousands of slots, and the memory grows with the horizon plus the runs,
    not with trials times horizon; a bit-level trial, whose rate changes from
    slot to slot, keeps its per-slot regrets as they are.  mean_switches
    accumulates: its value at slot t is the mean number of cache rewrites up
    to and including t.
    """
    sums = {}  # per policy: running sums of rates, switches and cumulative regrets
    runs = {name: [] for name in config.policies}  # per policy: each trial's runs
    for trial in range(config.trials):
        result = run_trial(config, trial)
        for tr in result.traces:
            if tr.policy in sums:
                rate_sum, switch_sum, regret_sum = sums[tr.policy]
                rate_sum += tr.rates
                switch_sum += tr.switches
                regret_sum += tr.cum_regret
            else:  # the sums start as the first trial's own rows, which nothing keeps
                sums[tr.policy] = (tr.rates, tr.switches.astype(np.int64), tr.cum_regret)
            runs[tr.policy].append(_runs(tr.rates - result.reference_rates))
    aggregates = []
    for name in config.policies:
        rate_sum, switch_sum, regret_sum = sums[name]
        mean = regret_sum / config.trials
        # the cumsum of run_trial, over the same per-slot regrets
        regrets = (np.cumsum(np.repeat(*trial)) for trial in runs.pop(name))
        aggregates.append(
            PolicyAggregate(
                policy=name,
                mean_rate=rate_sum / config.trials,
                mean_cum_regret=mean,
                stderr_cum_regret=_stderr(regrets, mean),
                mean_switches=np.cumsum(switch_sum) / config.trials,
            )
        )
    return ExperimentResult(config, tuple(aggregates))


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | int]:
    """``values`` as ``(run values, run lengths)``, runs of equal bits, so that
    ``np.repeat`` of the pair gives back ``values`` bit for bit.  When there
    are more runs than half the slots, the pair is ``(values, 1)``, which
    keeps no more than ``values`` itself."""
    bits, slots = values.view(np.int64), len(values)
    starts = np.empty(slots, dtype=bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    starts = starts.nonzero()[0]
    if 2 * len(starts) > slots:
        return values, 1
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = slots - starts[-1]
    return values[starts], lengths


def _stderr(rows: Iterable[np.ndarray], mean: np.ndarray) -> np.ndarray:
    """Standard error of the across-row ``mean``: the std (ddof=1) of the
    ``rows`` over sqrt(rows), 0 for a single row.

    ``rows`` is any iterable of rows, such as a (rows, columns) array or a
    generator that rebuilds one row at a time.  The squared deviations are
    summed row by row in row order, the order of numpy's reduction over axis
    0, so the result has the bits of ``np.stack(rows).std(axis=0, ddof=1) /
    sqrt(rows)`` without holding the rows or ``std``'s (rows, columns)
    temporary.
    """
    squares = np.zeros(len(mean))
    deviation = np.empty(len(mean))
    trials = 0
    for row in rows:
        np.subtract(row, mean, out=deviation)
        deviation *= deviation
        squares += deviation
        trials += 1
    if trials == 1:
        return np.zeros(len(mean))
    return np.sqrt(squares / (trials - 1)) / np.sqrt(trials)


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
