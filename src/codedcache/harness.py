"""Monte Carlo experiment harness.

A trial runs one request history for a fixed horizon and plays every
configured policy against the same requests (paired comparison), so
regret differences between policies are not inflated by independent
request noise.  Each mode charges every policy one way: analytically
(``model.slot_rates``, the expected per-slot rate of the chosen cache
set) or bit-level (actual subpacket placement and coded delivery, from
``engine``, which only the bit-level code imports).  LFU alone may
instead be charged one file per distinct missed file (dedup accounting,
the bit-level default); per-request accounting, the analytic default,
charges it one file per request outside its set, as the shared rate
does.  Per-slot regret is the rate minus a reference oracle rate;
the reference is either the closed-form upper estimate or the simulated
oracle of the same trial.
A trial draws its requests a chunk at a time, about ``REQUEST_CHUNK``
requests and a whole number of ``policies.block_rows`` slots, and hands each
chunk to every policy in turn, the paired oracle among them, before it
releases the chunk and draws the next.  Each policy's
``policies.DecisionWalk`` decides the chunk in factored blocks sized by
their frontier work, tracking computing the exact count floors of each
block's slots as it goes, and its record charges each block as it comes.  So
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
mode its whole trace, and the closed-form reference, are built once per
experiment and shared read-only by every trial; such a policy has no
record and is handed no requests.  Bit-level delivery is planned for a
bounded batch of slots at a time, for every policy, since each trial draws
its own placements.
An experiment aggregates its trials in trial order: the means are running
sums, the switches one integer total per slot that is cumsummed once, and
each trial keeps its per-slot regrets as runs of equal values, from which
the standard error's second pass rebuilds the cumulative regrets one trial
at a time.  A shared constant trace is aggregated once, after the trials,
with the bits of adding it trial by trial.  Its memory grows with the
horizon plus the runs, not with trials times horizon, and every aggregate
has the bits of a stacked (trials, horizon) array.  The CSV is written a
chunk of slots at a time, and a column that is constant over a chunk is
formatted once for it.
"""
from __future__ import annotations

import dataclasses
import functools
import io
import itertools
from typing import Iterable, Iterator

import numpy as np

from .model import (
    REQUEST_CHUNK,
    PopularityDistribution,
    SystemParams,
    oracle_rate_upper,
    rates_of_mass,
    sample_requests,
    slot_rates,
    substream,
)
from .policies import (
    CONSTANT_POLICIES,
    POLICY_NAMES,
    DecisionWalk,
    block_rows,
    check_policy,
    constant_row,
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

    def lfu_per_request(self) -> bool:
        """Analytic mode defaults to per-request charging, bit-level to dedup."""
        if self.lfu_accounting == "auto":
            return self.rate_mode == "analytic"
        return self.lfu_accounting == "per-request"

    @functools.cached_property
    def _constant_traces(self) -> dict[str, PolicyTrace]:
        """In analytic mode, the traces of the constant policies, those
        listed and the paired oracle, built once and shared read-only by
        every trial (:func:`_constant_traces`).  Empty in bit-level mode,
        where each trial pays delivery over its own placements."""
        return _constant_traces(self) if self.rate_mode == "analytic" else {}

    @functools.cached_property
    def _closed_form_rates(self) -> np.ndarray:
        """The closed-form reference rate of every slot, one read-only row
        computed once and shared by every trial: it depends only on the
        popularity, params and horizon."""
        rates = np.full(self.horizon, oracle_rate_upper(self.dist, self.params))
        rates.setflags(write=False)
        return rates


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


def _request_chunks(config: ExperimentConfig, trial: int) -> Iterator[np.ndarray]:
    """The trial's requests, one (rows, n_users) chunk at a time.

    A chunk is about ``REQUEST_CHUNK`` requests, a whole number of
    ``policies.block_rows`` slots and at least one such slice, or the
    horizon's rest.  The chunks are drawn from the trial's request substream
    as they are asked for; consecutive draws continue one stream, so the
    chunks joined are one draw of the whole history.  No reference to a
    chunk is kept here, so a consumer that drops it before asking for the
    next holds one chunk at a time.
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
    its first row of ``part``, summed once and repeated over the run; a
    block with no varying column is one run of its fixed row.  The block's
    first row is compared whole with the previous block's last, since a
    column that is fixed inside a block can still differ from the block
    before.

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
    ``model.rates_of_mass`` turns a feed's masses into rates at once.  In
    analytic mode a trial keeps no record of a constant policy: it shares
    the experiment's trace (:func:`_constant_traces`).

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
        self.walk = DecisionWalk(policy, config.dist.probs, params, config.horizon, counts)
        self.config, self.policy = config, policy
        self.buffer = None  # the float rows of the slices a feed charges
        if policy == "lfu" and not config.lfu_per_request():
            self.charge = "dedup"
        else:
            self.charge = config.rate_mode
        if self.charge == "bitlevel":
            from .engine import batch_slots  # only bit-level records load the engine

            self.place_rng = substream(config.seed, trial, POLICY_STREAM_KEYS[policy])
            self.per_batch, self.placed = batch_slots(params), []
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
            else:
                self._charge(start, fixed, varying, part, requests, first)
            done += len(part)
        self.buffer = None  # a trial's records hold one buffer at a time
        if self.charge == "analytic":
            # _charge left the mass inside each set in the rates
            span = slice(first, self.walk.start)
            params = self.config.params
            self.rates[span] = rates_of_mass(self.rates[span], self.sizes[span], params)

    def _count(self, start, fixed, varying, part) -> None:
        """The block's set sizes and switch flags."""
        stop = start + len(part)
        sizes, switches = self.sizes[start:stop], self.switches[start:stop]
        # one sum per run of rows caching the same set
        switches[:] = switch_flags(part)
        switches[0] = True  # row 0 starts a run; its flag is set below
        starts = np.flatnonzero(switches)
        sums = part[starts].sum(axis=1)
        sums += np.count_nonzero(fixed) - np.count_nonzero(fixed[varying])
        sizes[:] = np.repeat(sums, np.diff(starts, append=len(part)))
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

    def _deliver(self, start, fixed, varying, part, requests) -> None:
        """Bit-level rates of the block's slots; ``requests`` start at its
        first slot."""
        from .engine import holders_full, plan_slots, sample_placement

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


def _constant_traces(config: ExperimentConfig) -> dict[str, PolicyTrace]:
    """The analytic traces of the constant policies, those listed and the
    paired oracle, which every trial would rebuild the same: a constant
    policy never switches, its size is fixed, and its reference, the
    closed-form row or the paired oracle's rates, is itself constant.  Its
    rates are charged on the slices of ``policies.block_rows`` slots from
    slot 0, as a record's are, and every slice repeats one row, so each
    slice length, a whole slice and the horizon's rest, is charged once by
    ``slot_rates``.  Every array is read-only; the sizes and switches are
    broadcast views of one value."""
    names = [name for name in config.policies if name in CONSTANT_POLICIES]
    if config.reference == "paired" and "oracle" not in names:
        names.append("oracle")
    if not names:
        return {}
    horizon, probs, params = config.horizon, config.dist.probs, config.params
    step, rates, sizes = block_rows(params.n_files), {}, {}
    for name in names:
        row = constant_row(name, probs, params)
        rates[name], charged = np.empty(horizon), {}  # slice length: its rates
        for lo in range(0, horizon, step):
            rows = min(step, horizon - lo)
            if rows not in charged:
                charged[rows] = slot_rates(np.broadcast_to(row, (rows, len(row))), probs, params)
            rates[name][lo : lo + rows] = charged[rows]
        rates[name].setflags(write=False)
        sizes[name] = np.broadcast_to(np.int64(np.count_nonzero(row)), (horizon,))
    ref = rates["oracle"] if config.reference == "paired" else config._closed_form_rates
    switches = np.broadcast_to(False, (horizon,))
    traces = {}
    for name in names:
        cum_regret = np.cumsum(rates[name] - ref)
        cum_regret.setflags(write=False)
        traces[name] = PolicyTrace(name, sizes[name], rates[name], cum_regret, switches)
    return traces


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    """Play every configured policy against one sampled request history.

    The history is drawn a chunk at a time (:func:`_request_chunks`), and
    each chunk goes to every policy's record in turn, the paired oracle's
    among them, and is released before the next is drawn, so no (horizon,
    n_users) request matrix is held.  The records' walks share one counts
    holder, so the first block, which tracking and LFU both decide densely,
    is counted once; it is emptied with each chunk.  In analytic mode the
    constant policies, oracle and uniform, have no record: their traces are
    the experiment's shared read-only ones
    (``ExperimentConfig._constant_traces``), the same objects in every
    trial, and when no other policy needs the requests none are drawn.  The
    closed-form reference is one read-only row per experiment.
    """
    names = config.policies
    if config.reference == "paired" and "oracle" not in names:
        names += ("oracle",)
    shared = config._constant_traces
    counts = {}  # the first block's counts while the first chunk is fed
    records = {
        name: _PolicyRecord(config, name, trial, counts) for name in names if name not in shared
    }
    for requests in _request_chunks(config, trial) if records else ():
        for record in records.values():
            record.feed(requests)
        counts.clear()
        del requests  # the chunk is freed before the next is drawn
    if config.reference == "closed-form":
        ref = config._closed_form_rates
    elif "oracle" in shared:
        ref = shared["oracle"].rates
    else:
        ref = records["oracle"].rates
    traces = []
    for name in config.policies:
        if name in shared:
            traces.append(shared[name])
            continue
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

    In analytic mode a constant policy's trace is the same shared row in
    every trial (``ExperimentConfig._constant_traces``), so the trial loop
    adds nothing for it.  After the loop its rate and regret sums are the
    row plus trials - 1 sequential adds of the same row, which is the
    running sum bit for bit, pass two yields the one cumulative regret row
    once per trial, and its switches are zeros.
    """
    shared = config._constant_traces
    sums = {}  # per policy: running sums of rates, switches and cumulative regrets
    runs = {name: [] for name in config.policies if name not in shared}  # each trial's runs
    for trial in range(config.trials):
        result = run_trial(config, trial)
        for tr in result.traces:
            if tr.policy in shared:
                continue  # the same trace in every trial, summed after the loop
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
        if name in shared:
            tr = shared[name]
            rate_sum = _sum_of_copies(tr.rates, config.trials)
            regret_sum = _sum_of_copies(tr.cum_regret, config.trials)
            regrets = itertools.repeat(tr.cum_regret, config.trials)
            switches = np.zeros(config.horizon)
        else:
            rate_sum, switch_sum, regret_sum = sums[name]
            # the cumsum of run_trial, over the same per-slot regrets
            regrets = (np.cumsum(np.repeat(*trial)) for trial in runs.pop(name))
            switches = np.cumsum(switch_sum) / config.trials
        mean = regret_sum / config.trials
        aggregates.append(
            PolicyAggregate(
                policy=name,
                mean_rate=rate_sum / config.trials,
                mean_cum_regret=mean,
                stderr_cum_regret=_stderr(regrets, mean),
                mean_switches=switches,
            )
        )
    return ExperimentResult(config, tuple(aggregates))


def _sum_of_copies(row: np.ndarray, copies: int) -> np.ndarray:
    """``copies`` of ``row`` added one after another: the running sum, bit for
    bit, of that many trials that each give ``row``."""
    total = row.copy()
    for _ in range(copies - 1):
        total += row
    return total


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
    """The fields of the CSV's ``# config:`` line.  M is written as the
    decimal it is read as, with no trailing ``.0``, so it parses back exactly."""
    p = config.params
    m = str(p.cache_size).removesuffix(".0")
    return (
        f"n={p.n_files} k={p.n_users} m={m} f={p.subpackets} "
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
    of ``format(x, ".6g")``, both being the same float conversion.  A value
    column whose bits are the same in every slot of a chunk, such as a
    constant policy's rate or switches, is formatted once, into the chunk's
    template as text.  Its bits are compared, not its values, so a chunk
    that mixes -0.0 and 0.0, or NaNs of different payloads, is formatted
    value by value.
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
    # a '%' in a policy name is escaped for the template
    policies = [agg.policy.replace("%", "%%") for agg in result.aggregates]
    horizon = result.config.horizon
    for lo in range(0, horizon, CSV_CHUNK):
        hi = min(lo + CSV_CHUNK, horizon)
        slots = range(lo + 1, hi + 1)
        # one slot's rows, and the columns that fill them; Python floats
        # from .tolist() format faster than numpy scalars
        row, columns = [], []
        for policy, agg in zip(policies, result.aggregates):
            row.append(f"%d,{policy}")
            columns.append(slots)
            for values in (agg.mean_rate, agg.mean_cum_regret,
                           agg.stderr_cum_regret, agg.mean_switches):
                chunk = values[lo:hi]
                bits = chunk.view(np.int64)
                if (bits == bits[0]).all():  # constant over the chunk
                    row.append(",%.6g" % chunk[0])
                else:
                    row.append(",%.6g")
                    columns.append(chunk.tolist())
            row.append("\n")
        template = "".join(row) * (hi - lo)
        fh.write(template % tuple(itertools.chain.from_iterable(zip(*columns))))
