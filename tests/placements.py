"""Test helpers that read and write a placement's holder words by user.

User u is bit u % 63 of holder word u // 63, over the cached set's files in
order: :func:`placement_of` sets the words from per-user index lists, and
:func:`subpackets_held` reads one user's indices of one file back.
"""
import math
from fractions import Fraction

import numpy as np

from codedcache.engine import Placement

WORD = 63  # users per holder word


def placement_of(params, cached, caches):
    """The placement over ``cached`` in which user u holds the subpackets
    ``caches[u][file]`` of each file; users past ``caches`` hold nothing."""
    cached = sorted(cached)
    shape = (-(-params.n_users // WORD), len(cached), params.subpackets)
    holders = np.zeros(shape, dtype=np.int64)
    for user, cache in enumerate(caches):
        for file, idx in cache.items():
            holders[user // WORD, cached.index(file), idx] |= 1 << user % WORD
    return Placement(cached, holders)


def subpackets_held(placement, user, file):
    """Ascending subpacket indices of ``file`` that ``user`` holds."""
    if file not in placement.cached:
        return np.empty(0, dtype=np.int64)
    words = placement.holders[user // WORD, placement.cached.index(file)]
    return np.flatnonzero(words >> user % WORD & 1)


def cache_sizes(params, placement):
    """Subpackets each user holds: the popcount of its bit over the words."""
    users = np.arange(params.n_users)
    bits = placement.holders[users // WORD] >> (users % WORD)[:, None, None] & 1
    return bits.sum(axis=(1, 2))


def within_budget(params, placement):
    """True iff no user holds more than the ceiling of M*F, M taken exactly
    from its decimal text."""
    budget = math.ceil(Fraction(str(params.cache_size)) * params.subpackets)
    return bool((cache_sizes(params, placement) <= budget).all())
