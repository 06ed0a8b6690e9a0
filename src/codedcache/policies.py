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
    """
    check_policy(policy, params)
    t_len, n = len(requests), params.n_files
    if policy == "oracle":
        return np.broadcast_to(params.popular(probs), (t_len, n))
    if policy == "uniform":
        return np.ones((t_len, n), dtype=bool)

    slot_counts = np.zeros((t_len, n), dtype=np.int64)
    rows = np.repeat(np.arange(t_len), params.n_users)
    np.add.at(slot_counts, (rows, requests.ravel()), 1)
    before = np.zeros_like(slot_counts)
    np.cumsum(slot_counts[:-1], axis=0, out=before[1:])

    if policy == "tracking":
        seen = np.arange(t_len)[:, None] * params.n_users
        with np.errstate(invalid="ignore"):
            est = np.where(seen > 0, before / np.maximum(seen, 1), 0.0)
        decisions = params.popular(est)
        decisions[0, :] = True
        return decisions
    # lfu: a stable sort on negated counts sends ties to the lower file id
    order = np.argsort(-before, axis=1, kind="stable")[:, : int(params.cache_size)]
    decisions = np.zeros((t_len, n), dtype=bool)
    np.put_along_axis(decisions, order, True, axis=1)
    return decisions


def switch_flags(decisions: np.ndarray) -> np.ndarray:
    """Per-slot flags: the cached set differs from the previous slot's."""
    flags = np.zeros(len(decisions), dtype=bool)
    flags[1:] = np.any(decisions[1:] != decisions[:-1], axis=1)
    return flags
