"""Cache-content policies.

A policy decides, at the start of every slot, which files each user
should cache.  All users apply the same decision; randomness enters
only through the subpacket sampling done elsewhere.  A decision depends
on the requests only through the per-file counts of the slots already
served, so :func:`decision_matrix` decides a whole request history at
once: row t is the set cached during slot t, decided before its
requests arrive.
"""
from __future__ import annotations

import numpy as np

from .model import SystemParams

POLICY_NAMES = ("tracking", "oracle", "uniform", "lfu")

# slot-by-file counts held at once while deciding tracking and LFU
BLOCK_ELEMS = 2**16


def check_policy(name: str, params: SystemParams) -> None:
    """Reject an unknown policy name, and LFU with a fractional budget.

    LFU caches whole files, which only makes sense for an integer budget.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy: {name}")
    if name == "lfu" and params.cache_size != int(params.cache_size):
        raise ValueError("LFU needs an integer cache size")


def decision_matrix(
    policy: str, requests: np.ndarray, probs: np.ndarray, params: SystemParams
) -> np.ndarray:
    """(horizon, n_files) cached-set indicators for a (horizon, n_users) history.

    - ``tracking`` caches the files whose empirical popularity, the request
      count so far over slots seen times K, clears the threshold (ties
      cache); with no data yet, in the first slot, it caches every file.
    - ``oracle`` thresholds the true popularity ``probs`` and never switches.
    - ``uniform`` caches every file.
    - ``lfu`` caches the M most-requested files so far, breaking ties
      toward lower ids.

    Tracking and LFU walk the horizon in blocks of about ``BLOCK_ELEMS``
    slot-by-file counts, carrying the running counts from block to block, so
    beyond the (horizon, n_files) bool result they hold O(BLOCK_ELEMS)
    memory.  LFU refuses a history whose requests times n_files reaches
    2**63, where its int64 ranking key would overflow.
    """
    check_policy(policy, params)
    t_len, n = len(requests), params.n_files
    if policy == "oracle":
        return np.broadcast_to(params.popular(probs), (t_len, n))
    if policy == "uniform":
        return np.ones((t_len, n), dtype=bool)
    if policy == "lfu" and requests.size * n >= 2**63:
        raise ValueError("LFU history too long: requests * n_files must stay below 2**63")

    decisions = np.empty((t_len, n), dtype=bool)
    m = int(params.cache_size)
    # LFU ranks by the key before * N + (N - 1 - id): more requests first,
    # then the lower id.  Keys are unique in a row, so the M keys at or
    # above the (N - M)-th order statistic are exactly the top M.
    tie_break = np.arange(n - 1, -1, -1)
    running = np.zeros(n, dtype=np.int64)
    step = max(1, BLOCK_ELEMS // n)
    for start in range(0, t_len, step):
        block = requests[start : start + step]
        rows = len(block)
        flat = (np.arange(rows)[:, None] * n + block).ravel()
        counts = np.bincount(flat, minlength=rows * n).reshape(rows, n)
        before = np.cumsum(counts, axis=0)
        before -= counts
        before += running
        running = before[-1] + counts[-1]
        if policy == "tracking":
            # slot 0 divides by 1 here and is overwritten below
            seen = np.arange(start, start + rows)[:, None] * params.n_users
            decisions[start : start + rows] = params.popular(before / np.maximum(seen, 1))
        else:
            key = before * n + tie_break
            kth = np.partition(key, n - m, axis=1)[:, n - m, None]
            np.greater_equal(key, kth, out=decisions[start : start + rows])
    if policy == "tracking":
        decisions[:1] = True
    return decisions


def switch_flags(decisions: np.ndarray) -> np.ndarray:
    """Per-slot flags: the cached set differs from the previous slot's."""
    flags = np.zeros(len(decisions), dtype=bool)
    flags[1:] = np.any(decisions[1:] != decisions[:-1], axis=1)
    return flags
