"""System model: network parameters, popularity distributions, request sampling."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# tolerance for "sums to one" style checks on probability vectors
PMF_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Static description of one caching network.

    cache_size is measured in files and may be fractional.  subpackets is the
    number of equal pieces each file is split into for bit-level simulation;
    analytic computations ignore it.
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

    @property
    def threshold(self) -> float:
        """Popularity level at which caching a file starts to pay off: 1/(K*M)."""
        return 1.0 / (self.n_users * self.cache_size)

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

    def is_sorted(self) -> bool:
        """True when ranks agree with indices (most popular first)."""
        return bool((np.diff(self.probs) <= 0).all())


@dataclass(frozen=True)
class RequestProfile:
    """One slot of demands: requests[k] is the file index user k asks for."""

    requests: np.ndarray

    def __post_init__(self) -> None:
        req = np.array(self.requests, dtype=np.int64)
        if req.ndim != 1 or req.size < 1:
            raise ValueError("requests must be a nonempty vector")
        if (req < 0).any():
            raise ValueError("file indices must be nonnegative")
        req.setflags(write=False)
        object.__setattr__(self, "requests", req)

    def __len__(self) -> int:
        return int(self.requests.size)


def make_zipf(n_files: int, exponent: float) -> PopularityDistribution:
    """Zipf popularity: p_i proportional to rank**-exponent, most popular first."""
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    ranks = np.arange(1, n_files + 1, dtype=float)
    weights = ranks ** -float(exponent)
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

    A zero-probability file is never drawn.  The cumsum can end just below 1,
    and a uniform past it goes to the last file with positive mass.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    edges = np.cumsum(dist.probs)
    idx = np.searchsorted(edges, rng.random(n_users), side="right")
    return RequestProfile(np.minimum(idx, np.flatnonzero(dist.probs)[-1]))
