"""System model: network parameters, popularity distributions, the analytic
slot rate, request sampling.

:func:`slot_rates` is the one analytic rate rule: the rate a cached set is
charged per slot, which the harness charges every analytic policy and
:func:`oracle_rate_upper` applies to the popular set.  It needs only numpy,
so an analytic run never loads the bit-level ``engine``.
Requests are drawn by inverse cdf through a guide table over the cdf, in
chunks that continue one generator stream, so a draw of any length gives
the indices of a plain ``searchsorted`` over one ``rng.random`` call, and so
do consecutive draws from one generator, joined.  A distribution builds its
cdf, guide table and positive-mass cap once, on its first draw, and every
later draw reuses them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

# tolerance for "sums to one" style checks on probability vectors
PMF_TOL = 1e-12

# uniforms drawn and resolved at a time by sample_requests
REQUEST_CHUNK = 2**16
# guide-table buckets per file (rounded up to a power of two), and the most
# cdf edges a bucket may hold before its uniforms fall back to searchsorted
GUIDE_PER_FILE = 4
GUIDE_SPAN = 4


@dataclass(frozen=True)
class SystemParams:
    """Static description of one caching network.

    cache_size is measured in files and may be fractional.  Its exact value
    M is the decimal its float prints as (:attr:`exact_cache_size`), so
    ``2.3`` is 23/10, not the binary float nearest it; the threshold,
    tracking's count floors and the placement budget read M.  subpackets is
    the number of equal pieces each file is split into for bit-level
    simulation; analytic computations ignore it.
    """

    n_files: int
    n_users: int
    cache_size: float
    subpackets: int = 1000

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not 0 < self.cache_size <= self.n_files:
            raise ValueError("cache_size must lie in (0, n_files]")
        if self.subpackets < 1:
            raise ValueError("subpackets must be >= 1")

    @cached_property
    def exact_cache_size(self) -> tuple[int, int]:
        """M as coprime ``(num, den)`` with M = num / den exactly, the value of
        the decimal text of cache_size, as ``Fraction(str(cache_size))``.

        The text is parsed here, not by ``fractions``: importing that module
        during a run raised the ``wide`` benchmark's warm peak RSS by 4%.
        """
        mantissa, _, exponent = str(self.cache_size).partition("e")
        whole, _, digits = mantissa.partition(".")
        scale = len(digits) - int(exponent or 0)
        num = int(whole + digits) * 10 ** max(0, -scale)
        den = 10 ** max(0, scale)
        gcd = math.gcd(num, den)
        return num // gcd, den // gcd

    @cached_property
    def threshold(self) -> float:
        """Popularity level at which caching a file starts to pay off:
        1/(K*M), correctly rounded from the exact M."""
        num, den = self.exact_cache_size
        return den / (self.n_users * num)  # int / int rounds correctly

    def popular(self, probs: np.ndarray) -> np.ndarray:
        """Mask of the popularities that clear the threshold; ties cache."""
        return np.asarray(probs) >= self.threshold


@dataclass(frozen=True)
class PopularityDistribution:
    """A pmf over file indices 0..N-1.  Sortedness is not required."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a nonempty vector")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > PMF_TOL:
            raise ValueError("probabilities must sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_files(self) -> int:
        return int(self.probs.size)

    @cached_property
    def _inverse_cdf(self) -> _InverseCdf:
        """The tables :func:`sample_requests` searches, built on first use."""
        return _InverseCdf.build(self.probs)


@dataclass(frozen=True)
class RequestProfile:
    """One slot of demands: requests[k] is the file index user k asks for.

    ``requests`` is kept as a read-only int64 array that only the profile
    holds: whatever the constructor is given is copied, so writing to the
    caller's array afterwards, even after turning its writes back on,
    leaves the profile unchanged.  :func:`sample_requests` hands over its
    own draw without a copy, through the private :meth:`_owning`.
    """

    requests: np.ndarray

    def __post_init__(self) -> None:
        req = np.array(self.requests, dtype=np.int64)
        if req.ndim != 1 or req.size < 1:
            raise ValueError("requests must be a nonempty vector")
        if (req < 0).any():
            raise ValueError("file indices must be nonnegative")
        req.setflags(write=False)
        object.__setattr__(self, "requests", req)

    @classmethod
    def _owning(cls, requests: np.ndarray) -> RequestProfile:
        """A profile of ``requests`` as is: a valid, read-only int64 draw
        that no other code holds."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "requests", requests)
        return profile

    def __len__(self) -> int:
        return int(self.requests.size)


def slot_rates(decisions: np.ndarray, probs: np.ndarray, params: SystemParams) -> np.ndarray:
    """Analytic one-slot coded-delivery rate of each cached set, over the last axis.

    ``decisions`` is a boolean array of shape (..., N), one row per set S,
    each charged max(|S|/M - 1, 0) + K * (mass outside S).  Every request
    outside S is sent whole.  A set of more than M files is charged
    |S|/M - 1 for its coded delivery (the decentralized scheme of
    Maddah-Ali & Niesen), an upper estimate of what the bit-level engine
    sends for it as the subpacket count grows; at finite counts zero
    padding sends more.  A set of at most M files is stored whole by
    ``engine.sample_placement``, so its requests cost nothing.

    Each row is charged on its own, so a caller may pass a history a slice of
    rows at a time; the mass inside S is one ``decisions @ probs`` product,
    whose bits match the whole history's when the slices start at multiples
    of ``policies.BLOCK_ROW_MULTIPLE`` rows.  :func:`rates_of_mass` is the
    rate given that mass, for a caller that takes the products itself.
    """
    sizes = np.count_nonzero(decisions, axis=-1)
    return rates_of_mass(decisions @ probs, sizes, params)


def rates_of_mass(inside: np.ndarray, sizes: np.ndarray, params: SystemParams) -> np.ndarray:
    """:func:`slot_rates` of sets of ``sizes`` files holding ``inside`` of the
    popularity mass; each element is charged on its own."""
    m = params.cache_size
    return np.maximum(sizes / m - 1.0, 0.0) + params.n_users * (1.0 - inside)


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


def make_zipf(n_files: int, exponent: float) -> PopularityDistribution:
    """Zipf popularity: p_i proportional to rank**-exponent.

    A nonnegative exponent puts the most popular file first.  A negative one
    reverses the order, and its weights are taken relative to the last rank,
    (rank / N)**-exponent, so they stay at most 1 and cannot overflow; the
    smallest may underflow to zero, a file that is never requested.
    """
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    ranks = np.arange(1, n_files + 1, dtype=float)
    exponent = float(exponent)
    weights = ranks ** -exponent if exponent >= 0 else (ranks / n_files) ** -exponent
    return PopularityDistribution(weights / weights.sum())


def make_two_level_pair(
    n_files: int, a: float, b: float
) -> tuple[PopularityDistribution, PopularityDistribution]:
    """Mirrored pair of two-level pmfs used for worst-case regret analysis.

    The first pmf puts 2/a on each file in the front half and 2/b on the back
    half; the second swaps the halves.  Requires a < b and 1/a + 1/b = 1/N so
    each half fills exactly half the mass.
    """
    if n_files < 2 or n_files % 2:
        raise ValueError("lower-bound instance requires even N")
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if abs(1.0 / a + 1.0 / b - 1.0 / n_files) > PMF_TOL:
        raise ValueError("need 1/a + 1/b = 1/n_files")
    half = n_files // 2
    hot = np.full(half, 2.0 / a)
    cold = np.full(half, 2.0 / b)
    head = PopularityDistribution(np.concatenate([hot, cold]))
    tail = PopularityDistribution(np.concatenate([cold, hot]))
    return head, tail


def popularity_from_counts(
    rows: Iterable[tuple[int, float]]
) -> tuple[PopularityDistribution, dict[int, int]]:
    """Empirical pmf from (file_id, count) rows, most requested first.

    Returns the pmf and a map from original file id to rank (0-based position
    in the pmf).  Ties are broken toward the lower file id.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no count rows")
    ids = [int(i) for i, _ in rows]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate file ids")
    counts = np.array([float(c) for _, c in rows])
    if not np.isfinite(counts).all():
        raise ValueError("counts must be finite")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    total = float(counts.sum())
    if total <= 0:
        raise ValueError("total count is zero")
    order = sorted(range(len(rows)), key=lambda j: (-counts[j], ids[j]))
    rank = {ids[j]: r for r, j in enumerate(order)}
    return PopularityDistribution(counts[order] / total), rank


def read_counts_csv(path) -> list[tuple[int, float]]:
    """Read file_id,count rows from a CSV file; one header line is allowed."""
    import csv  # here, so only a counts file loads the csv module

    out: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row or not "".join(row).strip():
                continue
            try:
                parsed = (int(row[0]), float(row[1]))
            except (ValueError, IndexError):
                if lineno == 0:
                    continue  # optional header
                raise ValueError(f"bad counts row {lineno + 1}: {row!r}") from None
            out.append(parsed)
    return out


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (seed, key...) coordinate.

    Trials and purposes get disjoint spawn keys, so adding trials or streams
    never perturbs draws that already exist.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def sample_requests(
    dist: PopularityDistribution, n_users: int, rng: np.random.Generator
) -> RequestProfile:
    """One i.i.d. request per user, drawn by inverse cdf on a single uniform each.

    A uniform u gets the number of cdf edges at or below it, found through
    :func:`_guide_table`.  The uniforms are drawn and resolved
    ``REQUEST_CHUNK`` at a time; consecutive ``rng.random`` calls continue
    one stream, so the indices are those of a single call, with small
    temporaries, and consecutive draws from one ``rng`` joined are one draw
    of their total length.  The cdf, guide table and cap are the
    distribution's, built on its first draw.  A zero-probability file is
    never drawn.  The cumsum can end just below 1, and a uniform past it
    goes to the last file with positive mass.  The filled array is made
    read-only and becomes the profile's ``requests`` without a copy; no
    other reference to it is kept.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    edges, buckets, first, span, wide, any_wide, padded, cap = dist._inverse_cdf
    idx = np.empty(n_users, dtype=np.int64)
    for start in range(0, n_users, REQUEST_CHUNK):
        u = rng.random(min(REQUEST_CHUNK, n_users - start))
        bucket = (u * buckets).astype(np.intp)
        got = idx[start : start + u.size]
        np.take(first, bucket, out=got)
        # the edges are sorted, so those at or below u come first
        for _ in range(span):
            got += padded[got] <= u
        if any_wide:
            many = np.flatnonzero(wide[bucket])
            got[many] = np.searchsorted(edges, u[many], side="right")
    np.minimum(idx, cap, out=idx)
    idx.setflags(write=False)
    return RequestProfile._owning(idx)


class _InverseCdf(NamedTuple):
    """A distribution's cdf ``edges``, its :func:`_guide_table` (``buckets``,
    ``first``, ``span``, ``wide`` and whether any bucket is wide), the edges
    padded with ``span`` infs for reads past the last file, and ``cap``, the
    last file with positive mass."""

    edges: np.ndarray
    buckets: int
    first: np.ndarray
    span: int
    wide: np.ndarray
    any_wide: bool
    padded: np.ndarray
    cap: int

    @classmethod
    def build(cls, probs: np.ndarray) -> _InverseCdf:
        edges = np.cumsum(probs)
        buckets, first, span, wide = _guide_table(edges)
        padded = np.concatenate([edges, np.full(span, np.inf)])
        for table in (edges, first, wide, padded):
            table.setflags(write=False)
        cap = int(np.flatnonzero(probs)[-1])
        return cls(edges, buckets, first, span, wide, bool(wide.any()), padded, cap)


def _guide_table(edges: np.ndarray) -> tuple[int, np.ndarray, int, np.ndarray]:
    """Buckets over [0, 1) that narrow the inverse-cdf search of each uniform.

    There are ``buckets`` = g buckets, a power of two of at least
    ``GUIDE_PER_FILE`` per file, so a uniform's bucket b = floor(u * g) is
    exact and every uniform in it lies in [b/g, (b+1)/g).  ``first[b]``
    counts the edges at or below b/g, and the edges from there up to
    ``first[b + 1]`` are the ones inside the bucket; every later edge
    exceeds any uniform of the bucket.  So the search for u is ``first[b]``
    plus the number of those inside edges at or below u.  Buckets holding at
    most ``GUIDE_SPAN`` edges are searched by ``span`` comparisons (the most
    any of them holds); ``wide`` marks the others, searched by
    ``searchsorted``.
    """
    buckets = 1 << (GUIDE_PER_FILE * edges.size - 1).bit_length()
    first = np.searchsorted(edges, np.arange(buckets + 1) / buckets, side="right")
    held = np.diff(first)
    wide = held > GUIDE_SPAN
    span = int(held[~wide].max(initial=0))
    return buckets, first, span, wide
