"""Cache-content policies.

A policy decides, at the start of every slot, which files each user
should cache.  All users apply the same decision; randomness enters
only through the subpacket sampling done elsewhere.  A decision depends
on the requests only through the per-file counts of the slots already
served, so :func:`decision_blocks` decides a whole request history in one
walk: it yields the (slots, n_files) cached-set indicators a block of slots
at a time, row t being the set cached during slot t, decided before its
requests arrive.  :func:`decision_matrix` joins the blocks for callers
that want the (horizon, n_files) matrix whole.  Tracking compares each
count with one integer per slot, :func:`count_floors`, the least count
whose empirical popularity clears the threshold.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .model import SystemParams

POLICY_NAMES = ("tracking", "oracle", "uniform", "lfu")
# policies whose cached set never changes: their blocks repeat one row
CONSTANT_POLICIES = ("oracle", "uniform")

# slot-by-file counts held at once while deciding tracking and LFU
BLOCK_ELEMS = 2**16

# Every block but the last has a multiple of this many rows.  The last bits
# of a row of ``decisions @ probs`` depend on how the BLAS gemv tiles and
# threads the rows; blocks of 64 rows reproduce the rows of the
# whole-horizon product, where blocks of 65 (BLOCK_ELEMS // N at N=1000)
# move the last bits of some tracking and uniform rates.
BLOCK_ROW_MULTIPLE = 64


def check_policy(name: str, params: SystemParams) -> None:
    """Reject an unknown policy name, and LFU with a fractional budget.

    LFU caches whole files, which only makes sense for an integer budget.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy: {name}")
    if name == "lfu" and params.cache_size != int(params.cache_size):
        raise ValueError("LFU needs an integer cache size")


def block_rows(n_files: int) -> int:
    """Slots per decision block: about ``BLOCK_ELEMS`` slot-by-file entries,
    rounded down to a multiple of ``BLOCK_ROW_MULTIPLE``, and at least that."""
    rows = BLOCK_ROW_MULTIPLE
    return max(rows, BLOCK_ELEMS // n_files // rows * rows)


def count_floors(slots: np.ndarray, params: SystemParams) -> np.ndarray:
    """Per slot t, the least request count c that tracking caches at t.

    A file with c requests in the t slots seen is cached iff
    ``params.popular(c / (t * K))``.  The rounded quotient never falls as c
    grows, so the test holds exactly for the counts at or above the floor.
    With no data yet, at t = 0, the floor is 0 and every file is cached.
    The estimate ceil(t * K * threshold) is stepped to the least c that
    passes the float test itself, so the decisions are those of the
    division, ties included.
    """
    seen = np.asarray(slots, dtype=np.int64) * params.n_users
    fresh = seen == 0
    seen = np.where(fresh, 1, seen)
    floor = np.ceil(seen * params.threshold).astype(np.int64)
    while (short := ~params.popular(floor / seen)).any():
        floor += short
    while (slack := (floor > 0) & params.popular((floor - 1) / seen)).any():
        floor -= slack
    floor[fresh] = 0
    return floor


def decision_blocks(
    policy: str, requests: np.ndarray, probs: np.ndarray, params: SystemParams
) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, block)`` pairs covering a (horizon, n_users) history in order.

    ``block`` holds the cached-set indicators of slots ``start`` to ``start +
    len(block)``, :func:`block_rows` slots except possibly the last.

    - ``tracking`` caches the files whose empirical popularity, the request
      count so far over slots seen times K, clears the threshold (ties
      cache); with no data yet, in the first slot, it caches every file.
      Each count is compared with its slot's :func:`count_floors`, which
      decides exactly as the division would.
    - ``oracle`` thresholds the true popularity ``probs`` and never switches.
    - ``uniform`` caches every file.
    - ``lfu`` caches the M most-requested files so far, breaking ties
      toward lower ids.

    Oracle and uniform blocks are read-only broadcast views of one row.
    Tracking and LFU count each block's requests with one ``bincount`` and
    carry the running counts to the next block, so the walk holds O(block)
    memory.  When the first block is asked for, an invalid policy is
    refused, and so is an LFU history whose requests times n_files reaches
    2**63, where its int64 ranking key would overflow.
    """
    check_policy(policy, params)
    t_len, n = len(requests), params.n_files
    if policy == "lfu" and requests.size * n >= 2**63:
        raise ValueError("LFU history too long: requests * n_files must stay below 2**63")
    step = block_rows(n)
    if policy in CONSTANT_POLICIES:
        row = params.popular(probs) if policy == "oracle" else np.ones(n, dtype=bool)
        for start in range(0, t_len, step):
            yield start, np.broadcast_to(row, (min(step, t_len - start), n))
        return
    m = int(params.cache_size)
    # LFU ranks by the key before * N + (N - 1 - id): more requests first,
    # then the lower id.  Keys are unique in a row, so the M keys at or
    # above the (N - M)-th order statistic are exactly the top M.
    tie_break = np.arange(n - 1, -1, -1)
    running = np.zeros(n, dtype=np.int64)
    for start in range(0, t_len, step):
        block = requests[start : start + step]
        rows = len(block)
        # Each slot's counts land one row down, under the carried counts in
        # row 0, so the cumsum's row r is the count before slot start + r,
        # and its last row is the carry to the next block.
        flat = (np.arange(1, rows + 1)[:, None] * n + block).ravel()
        before = np.bincount(flat, minlength=(rows + 1) * n).reshape(rows + 1, n)
        before[0] = running
        np.cumsum(before, axis=0, out=before)
        before, running = before[:rows], before[rows]
        if policy == "tracking":
            decisions = before >= count_floors(np.arange(start, start + rows), params)[:, None]
        else:
            key = before * n + tie_break
            kth = np.partition(key, n - m, axis=1)[:, n - m, None]
            decisions = key >= kth
        yield start, decisions


def decision_matrix(
    policy: str, requests: np.ndarray, probs: np.ndarray, params: SystemParams
) -> np.ndarray:
    """(horizon, n_files) cached-set indicators: :func:`decision_blocks`,
    concatenated."""
    blocks = [block for _, block in decision_blocks(policy, requests, probs, params)]
    return np.concatenate([np.zeros((0, params.n_files), dtype=bool), *blocks])


def switch_flags(decisions: np.ndarray, previous: np.ndarray | None = None) -> np.ndarray:
    """Per-slot flags: the cached set differs from the previous slot's.

    ``previous`` is the set cached in the slot before the first row, for a
    block that continues a history; without it the first row is no switch.
    """
    flags = np.zeros(len(decisions), dtype=bool)
    flags[1:] = np.any(decisions[1:] != decisions[:-1], axis=1)
    if previous is not None and len(decisions):
        flags[0] = np.any(decisions[0] != previous)
    return flags
