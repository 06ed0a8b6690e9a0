"""Bit-level cache placement, XOR multicast delivery, decoding, and the slot rate.

Files are split into `subpackets` equal pieces and caches are tracked as index
sets, so delivery plans carry exact lengths without simulating payload bytes.
:func:`slot_rates` is the analytic (upper) estimate of that delivery's rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .model import RequestProfile, SystemParams

# a holder set is stored as int64 words of this many members each, so any
# group size fits and no word's sign bit is ever set
_WORD_MEMBERS = 63

# run_decode_fuzz draws each instance's shape below these limits
FUZZ_MAX_FILES = 6
FUZZ_MAX_USERS = 5
FUZZ_MAX_CACHE = 3.0
FUZZ_MAX_SUBPACKETS = 64

_EMPTY_INT = np.empty(0, dtype=np.int64)


@dataclass
class CacheState:
    """Subpacket indices one user holds, keyed by file; missing key = none cached."""

    files: dict[int, np.ndarray] = field(default_factory=dict)

    def subpackets(self, file: int) -> np.ndarray:
        return self.files.get(file, _EMPTY_INT)

    def total_cached(self) -> int:
        return int(sum(len(v) for v in self.files.values()))

    def within_budget(self, params: SystemParams) -> bool:
        return self.total_cached() <= math.ceil(params.cache_size * params.subpackets)


@dataclass(frozen=True)
class Segment:
    """One user's share of a coded message: the subpackets of its file it misses."""

    user: int
    file: int
    indices: np.ndarray


@dataclass(frozen=True)
class CodedMessage:
    """Position-wise XOR of the segments, zero-padded to the longest one."""

    users: tuple[int, ...]
    length: int
    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class DirectSend:
    """A whole requested file broadcast uncoded for one user."""

    user: int
    file: int
    length: int


@dataclass(frozen=True)
class Transmission:
    coded: tuple[CodedMessage, ...]
    direct: tuple[DirectSend, ...]
    subpackets_sent: int
    rate: float


def _check_files(params: SystemParams, files: Iterable[int]) -> list[int]:
    out = sorted(set(int(i) for i in files))
    if out and (out[0] < 0 or out[-1] >= params.n_files):
        raise ValueError("cached file index out of range")
    return out


def sample_placement(
    params: SystemParams, cached: Iterable[int], rng: np.random.Generator
) -> list[CacheState]:
    """Independent random placement of every user's cache over the cached set.

    When the set is at least the budget, each user keeps min(F, floor(M*F/|S|))
    uniformly random subpackets of every file in it.  A smaller set is stored
    whole and the leftover budget is split evenly over the remaining files.
    """
    S = _check_files(params, cached)
    n, f, m = params.n_files, params.subpackets, params.cache_size
    states = [CacheState() for _ in range(params.n_users)]
    if not S:
        return states
    if len(S) >= m:
        per = min(f, int(m * f / len(S)))
        plan = [(i, per) for i in S]
    else:
        leftover = int((m - len(S)) * f / (n - len(S)))
        chosen = set(S)
        plan = [(i, f) for i in S]
        plan += [(i, leftover) for i in range(n) if i not in chosen]
    full = np.arange(f, dtype=np.int64)
    for state in states:
        for i, take in plan:
            if take <= 0:
                continue
            if take >= f:
                state.files[i] = full
            else:
                keys = rng.random(f)
                pick = np.argpartition(keys, take)[:take]
                state.files[i] = np.sort(pick).astype(np.int64)
    return states


def build_delivery(
    params: SystemParams,
    profile: RequestProfile,
    caches: Sequence[CacheState],
    cached: Iterable[int],
) -> Transmission:
    """Multicast plan for one slot.

    Users whose request lies in the cached set form the coded group.  The
    subpackets of each requested file are bucketed by exactly which members
    hold them.  A member k and a bucket W of k's file with k not in W give k's
    share of the subgroup W | {k}: the subpackets k misses and exactly W holds.
    Each subgroup that receives at least one share sends one message, in
    ascending bit order of the subgroup, XOR-ing its members' shares in group
    order (zero-padded, so the message is as long as the largest share).  Any
    other subgroup would carry nothing, so none is enumerated.  A message whose
    (file, holder set) shares repeat an earlier message's payload is not sent.
    Every request outside the cached set is sent whole, one transmission per
    request, with duplicates not merged.

    Each member has at most one share per holder bucket of its file, and a
    file has at most min(F, 2**|group|) buckets, so a slot sends at most
    |group| * min(F, 2**|group|) coded messages.  The cost grows with the
    group size times F, and a group of any size is built.
    """
    req = profile.requests
    n, f = params.n_files, params.subpackets
    if len(req) != params.n_users:
        raise ValueError("profile size != n_users")
    if int(req.max()) >= n:
        raise ValueError("request index out of range")
    S = set(_check_files(params, cached))
    group = [k for k in range(params.n_users) if int(req[k]) in S]

    # Bucket the subpackets of each requested cached file by exactly which
    # group members hold them.  Member j is bit j % 63 of word j // 63; the
    # stable lexsort, last word first, orders the holder sets ascending and
    # leaves each run of equal sets in ascending index order, so a bucket is a
    # slice order[a:b].  Its key folds the words back into one int, bit j set
    # for member j.
    bit = {k: 1 << j for j, k in enumerate(group)}
    n_words = -(-len(group) // _WORD_MEMBERS)
    buckets: dict[int, tuple[np.ndarray, list[tuple[int, int, int]]]] = {}
    for file in sorted({int(req[k]) for k in group}):
        holders = np.zeros((n_words, f), dtype=np.int64)
        for j, k in enumerate(group):
            idx = caches[k].subpackets(file)
            if len(idx):
                word, offset = divmod(j, _WORD_MEMBERS)
                holders[word][idx] |= 1 << offset
        order = np.lexsort(holders)
        ranked = holders.take(order, axis=1)
        change = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
        cuts = [0, *(np.flatnonzero(change) + 1).tolist(), f]
        heads = ranked[:, cuts[:-1]].tolist()
        keys = heads[0]
        for word in range(1, n_words):
            keys = [key | head << word * _WORD_MEMBERS for key, head in zip(keys, heads[word])]
        buckets[file] = order, list(zip(keys, cuts, cuts[1:]))

    # Key every share by its subgroup; members are visited in group order, so
    # each subgroup's shares come out in segment order.
    shares: dict[int, list[tuple[int, Segment]]] = {}
    for k in group:
        file = int(req[k])
        order, runs = buckets[file]
        own = bit[k]
        for held, a, b in runs:
            if not held & own:
                shares.setdefault(held | own, []).append((held, Segment(k, file, order[a:b])))

    coded: list[CodedMessage] = []
    seen: set[frozenset] = set()
    total = 0
    for sbits in sorted(shares):
        entries = shares[sbits]
        # two messages with the same (file, holder-set) shares carry the same
        # payload, so broadcasting the second one would be pure waste
        signature = frozenset([(seg.file, held) for held, seg in entries])
        if signature in seen:
            continue
        seen.add(signature)
        segments = tuple([seg for _, seg in entries])
        length = max([len(seg.indices) for seg in segments])
        total += length
        members = tuple([k for k in group if sbits & bit[k]])
        coded.append(CodedMessage(members, length, segments))

    direct = []
    in_group = set(group)
    for k in range(params.n_users):
        if k not in in_group:
            direct.append(DirectSend(k, int(req[k]), f))
            total += f
    return Transmission(tuple(coded), tuple(direct), total, total / f)


def decode(
    params: SystemParams,
    user: int,
    profile: RequestProfile,
    caches: Sequence[CacheState],
    transmission: Transmission,
) -> bool:
    """Peel the slot's transmissions against one user's cache.

    True iff every subpacket of the user's requested file is recovered.  XOR
    terms are modeled symbolically: a position is solved once all but one of
    its terms are known.
    """
    want = int(profile.requests[user])
    known: set[tuple[int, int]] = set()
    for file, idx in caches[user].files.items():
        known.update((file, int(j)) for j in idx)
    for send in transmission.direct:
        known.update((send.file, j) for j in range(send.length))

    pending = list(transmission.coded)
    progress = True
    while progress and pending:
        progress = False
        stuck = []
        for msg in pending:
            unsolved = False
            for pos in range(msg.length):
                terms = [
                    (seg.file, int(seg.indices[pos]))
                    for seg in msg.segments
                    if pos < len(seg.indices)
                ]
                unknown = [t for t in terms if t not in known]
                if len(unknown) == 1:
                    known.add(unknown[0])
                    progress = True
                elif unknown:
                    unsolved = True
            if unsolved:
                stuck.append(msg)
        pending = stuck
    return all((want, j) in known for j in range(params.subpackets))


def slot_rates(decisions: np.ndarray, probs: np.ndarray, params: SystemParams) -> np.ndarray:
    """Analytic one-slot coded-delivery rate of each cached set, over the last axis.

    ``decisions`` is a boolean array of shape (..., N), one row per set S.  A
    set at least as large as the budget is charged |S|/M - 1 + K * (mass
    outside S); a smaller one is stored whole with the leftover budget spread
    over the other files, giving (N - |S|)/(M - |S|) - 1.  At |S| == M < N the
    spread vanishes, and the first branch gives K * (mass outside S), which is
    what the engine charges there: placement stores S whole, so every request
    outside S is sent whole and every request inside it costs nothing.
    """
    n, k, m = params.n_files, params.n_users, params.cache_size
    sizes = decisions.sum(axis=-1).astype(np.float64)
    inside = decisions @ probs
    with np.errstate(divide="ignore", invalid="ignore"):
        coded = sizes / m - 1.0 + k * (1.0 - inside)
        leftover = (n - sizes) / (m - sizes) - 1.0
    return np.where(sizes >= m, coded, leftover)


@dataclass(frozen=True)
class FuzzResult:
    trials: int
    users_checked: int
    failures: int


def run_decode_fuzz(
    n_trials: int,
    seed: int,
    *,
    corrupt: bool = False,
) -> FuzzResult:
    """Random placement/delivery/decode round trips; failures should stay at zero.

    With corrupt=True, one cached subpacket of a served request is dropped
    after the delivery plan is built, so decode failures become the expected
    outcome (a working checker must report some).
    """
    from .model import substream  # local import keeps module load cheap

    failures = 0
    users_checked = 0
    for trial in range(n_trials):
        rng = substream(seed, trial)
        n = int(rng.integers(1, FUZZ_MAX_FILES + 1))
        k = int(rng.integers(1, FUZZ_MAX_USERS + 1))
        m = float(rng.uniform(0.2, min(FUZZ_MAX_CACHE, n)))
        f = int(rng.integers(1, FUZZ_MAX_SUBPACKETS + 1))
        params = SystemParams(n, k, m, f)
        size = int(rng.integers(0, n + 1))
        cached = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        states = sample_placement(params, cached, rng)
        profile = RequestProfile(rng.integers(0, n, size=k))
        tx = build_delivery(params, profile, states, cached)
        if corrupt:
            in_set = set(cached)
            victims = [
                u
                for u in range(k)
                if int(profile.requests[u]) in in_set
                and len(states[u].subpackets(int(profile.requests[u])))
            ]
            if not victims:
                continue  # nothing cached to break in this draw
            victim = int(rng.choice(victims))
            file = int(profile.requests[victim])
            held = states[victim].files[file]
            drop = int(rng.choice(held))
            states[victim].files[file] = held[held != drop]
        for u in range(k):
            users_checked += 1
            if not decode(params, u, profile, states, tx):
                failures += 1
    return FuzzResult(n_trials, users_checked, failures)
