"""Closed-form performance bounds for threshold caching.

Everything here is a pure function of the popularity profile and the
system parameters: the benchmark rate sandwich, the tracking-policy
regret bound with its two concentration routes, the switching-cost
bound, and the minimax lower-bound machinery built on a mirrored pair
of two-level instances.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .engine import slot_rates
from .model import PopularityDistribution, SystemParams, make_two_level_pair
from .policies import BLOCK_ELEMS


class DegenerateGapError(ValueError):
    """A popularity sits exactly on the caching threshold.

    The concentration arguments divide by the distance between each
    popularity and the threshold, so a zero distance leaves the bound
    undefined rather than merely loose.
    """


@dataclasses.dataclass(frozen=True)
class GapVector:
    """Per-file distance to the caching threshold and its minimum."""

    gaps: np.ndarray
    min_gap: float

    def __post_init__(self):
        self.gaps.flags.writeable = False


def threshold_gaps(dist: PopularityDistribution, params: SystemParams) -> GapVector:
    gaps = np.abs(dist.probs - params.threshold)
    return GapVector(gaps, float(gaps.min()))


def _positive_gaps(dist: PopularityDistribution, params: SystemParams) -> GapVector:
    gv = threshold_gaps(dist, params)
    if gv.min_gap == 0.0:
        raise DegenerateGapError(
            "regret bound inapplicable: a popularity equals the threshold"
        )
    return gv


def _popular_split(dist: PopularityDistribution, params: SystemParams) -> tuple[int, float]:
    """``(n1, tail)`` of a profile of N files: the number of popular files
    and the popularity mass of the rest."""
    if dist.n_files != params.n_files:
        raise ValueError("popularity length does not match file count")
    popular = params.popular(dist.probs)
    return int(np.count_nonzero(popular)), float(dist.probs[~popular].sum())


def oracle_rate_upper(dist: PopularityDistribution, params: SystemParams) -> float:
    """Upper estimate of the benchmark's expected per-slot rate.

    The benchmark caches the popular files, so this is
    :func:`slot_rates` of that set: max(n1/M - 1, 0) for the popular
    files plus K times the mass of the rest, each of whose requests is sent
    whole.
    """
    n1, tail = _popular_split(dist, params)
    return max(n1 / params.cache_size - 1.0, 0.0) + params.n_users * tail


def rate_lower_bound(dist: PopularityDistribution, params: SystemParams) -> float:
    """Information-theoretic floor under the benchmark's rate."""
    n1, tail = _popular_split(dist, params)
    head_route = max(n1 / params.cache_size - 1.0, 0.0) / 29.0
    tail_route = max(params.n_users * tail - 2.0, 0.0) / 58.0
    return max(head_route, tail_route)


@dataclasses.dataclass(frozen=True)
class RegretBound:
    """Cumulative-regret ceiling for the tracking policy, any horizon.

    Two interchangeable concentration routes bound the slots spent on a
    wrong cache set; the total takes the better one and adds the cost
    of the cache-everything first slot.
    """

    chernoff_route: float
    dkw_route: float
    first_slot: float
    total: float


def tracking_regret_bound(
    dist: PopularityDistribution, params: SystemParams, oracle_rate: float
) -> RegretBound:
    """Horizon-free regret bound relative to the given oracle rate.

    ``oracle_rate`` is whatever per-slot reference the caller charges
    regret against, typically :func:`oracle_rate_upper` or the looser
    :func:`rate_lower_bound`; a smaller reference gives a larger bound.
    """
    gv = _positive_gaps(dist, params)
    k = params.n_users
    excess = k - oracle_rate
    scale = k * gv.min_gap**2
    chernoff_route = (2.0 + float(gv.gaps.sum())) * excess / scale
    dkw_route = 4.0 * excess / scale
    first_slot = params.n_files / params.cache_size - 1.0 - oracle_rate
    return RegretBound(
        chernoff_route,
        dkw_route,
        first_slot,
        min(chernoff_route, dkw_route) + first_slot,
    )


def mismatch_tail_chernoff(
    dist: PopularityDistribution, params: SystemParams, t: int
) -> float:
    """Chance any file sits on the wrong side of the threshold at slot t.

    Per-file multiplicative Chernoff terms, summed.  A zero-popularity
    file contributes through the natural limit of the exponent.
    """
    if t < 1:
        raise ValueError("slots are numbered from 1")
    gaps = threshold_gaps(dist, params).gaps
    expo = gaps**2 * (t - 1) * params.n_users / (2.0 * dist.probs + gaps)
    return float(np.exp(-expo).sum())


def mismatch_tail_dkw(delta: float, n_users: int, t: int) -> float:
    """Uniform-estimate tail with margin delta; raw bound, may exceed 1."""
    if t < 1:
        raise ValueError("slots are numbered from 1")
    if delta <= 0:
        raise ValueError("need a positive margin")
    return 2.0 * math.exp(-(t - 1) * n_users * delta**2 / 2.0)


@dataclasses.dataclass(frozen=True)
class SwitchingConstants:
    """Scaled binomial tails of one slot's request count per file.

    ``low_count[i]`` weights outcomes where file i draws at most
    floor(1/M) requests in a slot, ``high_count[i]`` the complement;
    the two always sum to exp(2 gap_i^2).
    """

    low_count: np.ndarray
    high_count: np.ndarray

    def __post_init__(self):
        self.low_count.flags.writeable = False
        self.high_count.flags.writeable = False


def _binomial_tails(trials: int, probs: np.ndarray, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """P(X <= cut) and P(X > cut) for X ~ Binomial(trials, p), per entry p of probs.

    Each tail is the sum of its own terms, each term exp(log C(trials, j) +
    j log p + (trials - j) log1p(-p)), so neither is formed as 1 minus the
    other and a tiny tail keeps its relative precision.  The work is
    len(probs) * (trials + 1) terms, summed over blocks of entries of about
    ``BLOCK_ELEMS`` terms each.
    """
    probs = np.asarray(probs, dtype=np.float64)
    j = np.arange(trials + 1)
    log_fact = np.array([math.lgamma(i + 1) for i in range(trials + 1)])
    log_comb = log_fact[-1] - log_fact - log_fact[::-1]
    low, high = np.empty(len(probs)), np.empty(len(probs))
    step = max(1, BLOCK_ELEMS // (trials + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(probs), step):
            p = probs[start : start + step, None]
            # j log p and (trials - j) log(1 - p) with 0 * log 0 taken as 0
            hits = np.where(j > 0, j * np.log(p), 0.0)
            misses = np.where(j < trials, (trials - j) * np.log1p(-p), 0.0)
            terms = np.exp(log_comb + hits + misses)
            low[start : start + step] = terms[:, : cut + 1].sum(axis=1)
            high[start : start + step] = terms[:, cut + 1 :].sum(axis=1)
    return low, high


def switching_constants(
    dist: PopularityDistribution, params: SystemParams
) -> SwitchingConstants:
    gaps = threshold_gaps(dist, params).gaps
    cut = math.floor(1.0 / params.cache_size)
    scale = np.exp(2.0 * gaps**2)
    low, high = _binomial_tails(params.n_users, dist.probs, cut)
    return SwitchingConstants(scale * low, scale * high)


def switch_count_bound(dist: PopularityDistribution, params: SystemParams) -> float:
    """Expected number of cache rewrites over any horizon, plus the first."""
    gv = _positive_gaps(dist, params)
    const = switching_constants(dist, params)
    popular = params.popular(dist.probs)
    weight = np.where(popular, 1.0 + const.high_count, 1.0 + const.low_count)
    return 1.0 + float((weight / (2.0 * params.n_users * gv.gaps**2)).sum())


def switch_event_tails(
    dist: PopularityDistribution, params: SystemParams, t: int
) -> tuple[float, float]:
    """Bounds on the chance slot t drops, resp. adds, a cached file."""
    if t < 1:
        raise ValueError("slots are numbered from 1")
    gaps = threshold_gaps(dist, params).gaps
    const = switching_constants(dist, params)
    popular = params.popular(dist.probs)
    decay = np.exp(-2.0 * params.n_users * (t - 1) * gaps**2)
    drop = float(np.where(popular, decay, const.low_count * decay).sum())
    add = float(np.where(popular, const.high_count * decay, decay).sum())
    return drop, add


# --- minimax lower bound on a mirrored two-level pair ----------------------

def bad_set_gap(params: SystemParams, b: float) -> float:
    """Per-slot rate excess any wrong-half-heavy cache set must pay."""
    if 2.0 / b > params.threshold:
        raise ValueError("need 2/b at most the caching threshold")
    return params.n_files * params.n_users / 2.0 * (params.threshold - 2.0 / b)


def _leans_cold(sizes, in_first, hot_half: str):
    """The bad-set rule, elementwise over sets of ``sizes`` files of which
    ``in_first`` lie in the catalog's first half: more than half of the set
    lies in the cold half, or, when the second half is hot, half of it
    does."""
    if hot_half == "first":
        return 2 * (sizes - in_first) > sizes
    if hot_half == "second":
        return 2 * in_first >= sizes
    raise ValueError("hot_half must be 'first' or 'second'")


def is_bad_set(cached, n_files: int, hot_half: str) -> bool:
    """Whether a cache set leans toward the unpopular half of the catalog.

    ``hot_half`` names the popular half ("first" or "second").  The tie
    rule is asymmetric on purpose: an evenly split set counts as bad
    when the second half is hot, so every set is bad for at least one
    of the two mirrored instances.
    """
    members = {int(i) for i in cached}
    if not members:
        raise ValueError("empty cache set has no leaning")
    if n_files % 2:
        raise ValueError("lower-bound instance requires even N")
    if min(members) < 0 or max(members) >= n_files:
        raise ValueError("file index out of range")
    in_first = sum(1 for i in members if i < n_files // 2)
    return _leans_cold(len(members), in_first, hot_half)


def pair_kl_per_slot(a: float, b: float, n_files: int) -> float:
    """Divergence between the two mirrored instances per request slot."""
    return n_files * (1.0 / a - 1.0 / b) * math.log(b / a)


def pair_kl_total(a: float, b: float, n_files: int, horizon: int) -> float:
    return horizon * pair_kl_per_slot(a, b, n_files)


def pair_oracle_rate(params: SystemParams, b: float) -> float:
    """Benchmark rate on either instance of the pair: cache the hot half."""
    n, m = params.n_files, params.cache_size
    return n / (2.0 * m) - 1.0 + params.n_users * n / b


def _require_hard_pair(params: SystemParams, a: float, b: float) -> None:
    make_two_level_pair(params.n_files, a, b)  # validates N even, a<b, levels
    n, k, m = params.n_files, params.n_users, params.cache_size
    if not n / k < m < n / 2:
        raise ValueError("need N/K < M < N/2")
    if not 2.0 / b < params.threshold < 2.0 / a:
        raise ValueError("threshold must separate the two popularity levels")


@dataclasses.dataclass(frozen=True)
class LowerBoundReport:
    """Minimax regret floor for the mirrored pair, with its ingredients."""

    value: float
    oracle_rate: float
    gap: float
    kl_per_slot: float
    peak_horizon: float
    peak_value: float


def regret_lower_bound(params: SystemParams, a: float, b: float) -> LowerBoundReport:
    """No policy beats this worst-case regret on the instance pair."""
    _require_hard_pair(params, a, b)
    gap = bad_set_gap(params, b)
    kl = pair_kl_per_slot(a, b, params.n_files)
    return LowerBoundReport(
        value=gap / (4.0 * kl),
        oracle_rate=pair_oracle_rate(params, b),
        gap=gap,
        kl_per_slot=kl,
        peak_horizon=1.0 / kl,
        peak_value=gap / (4.0 * kl * math.e),
    )


def regret_lower_curve(
    params: SystemParams, a: float, b: float, horizons: np.ndarray
) -> np.ndarray:
    """Horizon-indexed regret floor; peaks at peak_value at peak_horizon."""
    _require_hard_pair(params, a, b)
    gap = bad_set_gap(params, b)
    kl = pair_kl_per_slot(a, b, params.n_files)
    t = np.asarray(horizons, dtype=np.float64)
    return t * gap / 4.0 * np.exp(-t * kl)


def bad_set_min_excess(params: SystemParams, a: float, b: float) -> float:
    """Smallest rate excess over the benchmark among all bad cache sets.

    Every nonempty set is charged :func:`slot_rates`, as the engine sends it.
    A set of at most M files is stored whole, so it competes with
    K * (mass outside) alone.
    """
    _require_hard_pair(params, a, b)
    n = params.n_files
    if n > 16:
        raise ValueError("exhaustive check limited to 16 files")
    head, tail = make_two_level_pair(n, a, b)
    oracle = pair_oracle_rate(params, b)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    in_first = bits[:, : n // 2].sum(axis=1)
    best = math.inf
    for dist, hot_half in ((head, "first"), (tail, "second")):
        bad = _leans_cold(sizes, in_first, hot_half)
        if not bad.any():
            continue
        excess = slot_rates(bits, dist.probs, params)[bad] - oracle
        best = min(best, float(excess.min()))
    return best


def verify_bad_set_gap(params: SystemParams, a: float, b: float) -> bool:
    """Exhaustively confirm every bad set pays at least the claimed gap, up to
    1e-12 of rounding."""
    return bad_set_min_excess(params, a, b) >= bad_set_gap(params, b) - 1e-12
