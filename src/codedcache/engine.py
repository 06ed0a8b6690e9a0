"""Bit-level cache placement, XOR multicast delivery, decoding, and the slot rate.

Files are split into `subpackets` equal pieces and caches are tracked as index
sets, so delivery plans carry exact lengths without simulating payload bytes.
:func:`build_delivery` computes a slot's plan as flat numpy arrays: holder
sets as int64 words, one share row per (member, holder bucket), messages as
runs of sorted subgroup keys, and the payload dedup as one rule over the
single-share messages, and :func:`decode` peels those arrays; only reading
``Transmission.coded`` builds a :class:`CodedMessage`/:class:`Segment` view.
:func:`slot_rates` is the analytic (upper) estimate of that delivery's rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .model import RequestProfile, SystemParams
from .policies import BLOCK_ELEMS

# a holder set is stored as int64 words of this many members each, so any
# group size fits and no word's sign bit is ever set
_WORD_MEMBERS = 63

# run_decode_fuzz draws each instance's shape below these limits
FUZZ_MAX_FILES = 6
FUZZ_MAX_USERS = 5
FUZZ_MAX_CACHE = 3.0
FUZZ_MAX_SUBPACKETS = 64

_EMPTY_INT = np.empty(0, dtype=np.int64)


def _decimal_cache_size(params: SystemParams):
    """M as an exact Fraction of its decimal text: as floats, 0.07 * 100 > 7."""
    from fractions import Fraction  # local import keeps module load cheap
    return Fraction(str(params.cache_size))


@dataclass
class CacheState:
    """Subpacket indices one user holds, keyed by file; missing key = none cached."""

    files: dict[int, np.ndarray] = field(default_factory=dict)

    def subpackets(self, file: int) -> np.ndarray:
        return self.files.get(file, _EMPTY_INT)

    def total_cached(self) -> int:
        return int(sum(len(v) for v in self.files.values()))

    def within_budget(self, params: SystemParams) -> bool:
        return self.total_cached() <= math.ceil(_decimal_cache_size(params) * params.subpackets)


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


@dataclass(frozen=True, eq=False)
class Transmission:
    """One slot's broadcast: the direct sends and the coded plan as flat arrays.

    Coded message i XORs the share rows ``message_offsets[i]:message_offsets[i
    + 1]``, zero-padded to ``message_length[i]``, for the coded-group positions
    set in column i of ``message_key`` (63 positions per int64 word; position j
    is user ``group[j]``).  Share row r is user ``share_user[r]``'s piece of
    file ``share_file[r]``: subpacket indices ``subpackets[share_start[r]:
    share_stop[r]]``.  The rate, the counts and :func:`decode` read only these
    arrays.  ``coded`` builds the same plan as a tuple of :class:`CodedMessage`
    on first access and caches it, for callers that want message objects.
    """

    direct: tuple[DirectSend, ...]
    subpackets_sent: int
    rate: float
    group: np.ndarray
    message_key: np.ndarray
    message_offsets: np.ndarray
    message_length: np.ndarray
    share_user: np.ndarray
    share_file: np.ndarray
    share_start: np.ndarray
    share_stop: np.ndarray
    subpackets: np.ndarray

    @cached_property
    def coded(self) -> tuple[CodedMessage, ...]:
        """The coded messages in send order, each member list read from the
        set bits of its subgroup key."""
        count = len(self.message_length)
        if not count:
            return ()
        key = np.ascontiguousarray(self.message_key.T, dtype="<i8")
        bits = np.unpackbits(key.view(np.uint8), axis=1, bitorder="little")
        bits = bits.reshape(count, -1, 64)[:, :, :_WORD_MEMBERS].reshape(count, -1)
        rows, positions = np.nonzero(bits)
        users = self.group[positions].tolist()
        member_cuts = [0, *np.cumsum(np.bincount(rows, minlength=count)).tolist()]
        sub = self.subpackets
        segments = [
            Segment(user, file, sub[a:b])
            for user, file, a, b in zip(
                self.share_user.tolist(),
                self.share_file.tolist(),
                self.share_start.tolist(),
                self.share_stop.tolist(),
            )
        ]
        share_cuts = self.message_offsets.tolist()
        return tuple([
            CodedMessage(
                tuple(users[member_cuts[i]:member_cuts[i + 1]]),
                length,
                tuple(segments[share_cuts[i]:share_cuts[i + 1]]),
            )
            for i, length in enumerate(self.message_length.tolist())
        ])


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
    Both floors are taken from the decimal M, not its binary float.  The
    random keys of every (user, file) draw come user by user and file by file
    from ``rng.random`` calls over blocks of users of about ``BLOCK_ELEMS``
    keys each, which draw the same stream as one call.
    """
    S = _check_files(params, cached)
    n, f = params.n_files, params.subpackets
    m = _decimal_cache_size(params)
    if not S:
        return [CacheState() for _ in range(params.n_users)]
    if len(S) >= m:
        whole, part, take = [], S, min(f, math.floor(m * f / len(S)))
    else:
        chosen = set(S)
        whole, part = S, [i for i in range(n) if i not in chosen]
        take = math.floor((m - len(S)) * f / (n - len(S)))
    if take >= f:
        whole, part = whole + part, []
    full = np.arange(f, dtype=np.int64)
    if take > 0 and part:
        step, picks = max(1, BLOCK_ELEMS // (len(part) * f)), []
        for start in range(0, params.n_users, step):
            keys = rng.random((min(step, params.n_users - start), len(part), f))
            picks.extend(np.sort(np.argpartition(keys, take, axis=-1)[..., :take], axis=-1))
    else:
        part, picks = [], [()] * params.n_users
    return [
        CacheState({**dict.fromkeys(whole, full), **dict(zip(part, row))}) for row in picks
    ]


def build_delivery(
    params: SystemParams,
    profile: RequestProfile,
    caches: Sequence[CacheState],
    cached: Iterable[int],
) -> Transmission:
    """Multicast plan for one slot, computed as flat arrays.

    Users whose request lies in the cached set form the coded group.  The
    subpackets of each requested file are bucketed by exactly which members
    hold them.  A member k and a bucket W of k's file with k not in W give k's
    share of the subgroup W | {k}: the subpackets k misses and exactly W holds.
    Each subgroup that receives at least one share sends one message, in
    ascending bit order of the subgroup, XOR-ing its members' shares in group
    order (zero-padded, so the message is as long as the largest share).  Any
    other subgroup would carry nothing, so none is enumerated.  Every request
    outside the cached set is sent whole, one transmission per request, with
    duplicates not merged.

    A message whose payload, the set of its shares' (file, holder set) pairs,
    repeats an earlier message's is not sent.  Only single-share messages can
    repeat: if subgroups A != B carried the same pairs (f, H) and (f', H')
    with H != H', then H = A - {a} = B - {b} and H' = A - {a'} = B - {b'};
    a != a' puts a in H', a subset of B, and a is not in H, so a = b and
    A = B.  A (file, holder set) pair is one bucket, so the rule is: among
    single-share subgroups, keep the first of each bucket in ascending
    subgroup order.

    Each member has at most one share per holder bucket of its file, and a
    file has at most min(F, 2**|group|) buckets, so a slot sends at most
    |group| * min(F, 2**|group|) coded messages.  The cost grows with the
    group size times F, and a group of any size is built.  The returned
    :class:`Transmission` holds the plan as arrays; its ``coded`` tuple of
    message objects is built only when read.
    """
    req = profile.requests
    n, f = params.n_files, params.subpackets
    if len(req) != params.n_users:
        raise ValueError("profile size != n_users")
    if int(req.max()) >= n:
        raise ValueError("request index out of range")
    in_set = np.zeros(n, dtype=bool)
    in_set[_check_files(params, cached)] = True
    coded = in_set[req]
    group = np.flatnonzero(coded)
    direct = tuple([DirectSend(k, int(req[k]), f) for k in np.flatnonzero(~coded).tolist()])
    plan = _coded_plan(f, req, caches, group)
    total = int(plan["message_length"].sum()) + f * len(direct)
    return Transmission(direct, total, total / f, group, **plan)


def _coded_plan(
    f: int, req: np.ndarray, caches: Sequence[CacheState], group: np.ndarray
) -> dict[str, np.ndarray]:
    """The coded part of :func:`build_delivery` as Transmission's array fields."""
    members = len(group)
    n_words = -(-members // _WORD_MEMBERS)
    if not members:
        return _empty_plan(n_words)
    files, member_file = np.unique(req[group], return_inverse=True)
    word, offset = np.divmod(np.arange(members), _WORD_MEMBERS)

    # Bucket the subpackets of every requested file by exactly which members
    # hold them.  Member j is bit j % 63 of holder word j // 63.  The stable
    # lexsort along each file's row, last word primary, orders the file's
    # holder sets ascending and leaves each run of equal sets in ascending
    # index order, so a bucket is a slice of the flattened order.
    holders = np.zeros((n_words, len(files), f), dtype=np.int64)
    file_list = files.tolist()
    for j, k in enumerate(group.tolist()):
        words = holders[j // _WORD_MEMBERS]
        bit = 1 << j % _WORD_MEMBERS
        for rank, file in enumerate(file_list):
            idx = caches[k].subpackets(file)
            if len(idx):
                words[rank][idx] |= bit
    order = np.lexsort(holders, axis=-1)
    ranked = np.take_along_axis(holders, order[None], axis=-1)
    new = np.ones((len(files), f), dtype=bool)
    new[:, 1:] = (ranked[:, :, 1:] != ranked[:, :, :-1]).any(axis=0)
    bucket_start = np.flatnonzero(new)
    bucket_stop = np.append(bucket_start[1:], new.size)
    bucket_rank = bucket_start // f
    heads = ranked.reshape(n_words, -1)[:, bucket_start]

    # One share row per (member, bucket of its file without it), generated
    # in group order; its subgroup key is the bucket's holder words with the
    # member's bit set.
    n_buckets = np.bincount(bucket_rank, minlength=len(files))
    per_member = n_buckets[member_file]
    first_bucket = (np.cumsum(n_buckets) - n_buckets)[member_file]
    first_row = np.cumsum(per_member) - per_member
    pos = np.repeat(np.arange(members), per_member)
    bucket = np.arange(pos.size) + np.repeat(first_bucket - first_row, per_member)
    free = (heads[word[pos], bucket] >> offset[pos]) & 1 == 0
    pos, bucket = pos[free], bucket[free]
    if not pos.size:
        return _empty_plan(n_words)
    subgroup = heads[:, bucket]
    subgroup[word[pos], np.arange(pos.size)] |= 1 << offset[pos]

    # Sort the rows by subgroup, last word primary; the sort is stable, so
    # each subgroup's rows stay in group order.  Each run of equal subgroup
    # words is one message.
    perm = np.lexsort(subgroup)
    subgroup = subgroup[:, perm]
    change = (subgroup[:, 1:] != subgroup[:, :-1]).any(axis=0)
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    sizes = (bucket_stop - bucket_start)[bucket[perm]]
    length = np.maximum.reduceat(sizes, starts)
    count = np.diff(np.append(starts, perm.size))

    # Payload dedup: multi-share messages are all kept, and single-share ones
    # keep the first message of each bucket.
    keep = count > 1
    single = np.flatnonzero(~keep)
    _, first = np.unique(bucket[perm[starts[single]]], return_index=True)
    keep[single[first]] = True
    rows = perm[np.repeat(keep, count)]
    share_bucket = bucket[rows]
    return {
        "message_key": subgroup[:, starts[keep]],
        "message_offsets": np.concatenate(([0], np.cumsum(count[keep]))),
        "message_length": length[keep],
        "share_user": group[pos[rows]],
        "share_file": files[bucket_rank[share_bucket]],
        "share_start": bucket_start[share_bucket],
        "share_stop": bucket_stop[share_bucket],
        "subpackets": order.ravel(),
    }


def _empty_plan(n_words: int) -> dict[str, np.ndarray]:
    return {
        "message_key": np.zeros((n_words, 0), dtype=np.int64),
        "message_offsets": np.zeros(1, dtype=np.int64),
        **dict.fromkeys(
            ("message_length", "share_user", "share_file", "share_start", "share_stop",
             "subpackets"),
            _EMPTY_INT,
        ),
    }


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
    its terms are known.  Subpacket i of file n is entry n*F + i of a mask of
    what the user knows, and the p-th subpacket of a share row is a term at
    position p of its message.  Each round learns every unknown term alone at
    its position; the rule only adds terms, so rounds reach the known set
    that peeling one position at a time does.
    """
    f, tx = params.subpackets, transmission
    known = np.zeros(params.n_files * f, dtype=bool)
    for file, idx in caches[user].files.items():
        known[file * f + idx] = True
    for send in tx.direct:
        known[send.file * f : send.file * f + send.length] = True
    sizes = tx.share_stop - tx.share_start
    row = np.repeat(np.arange(len(sizes)), sizes)
    offset = np.arange(row.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    term = tx.share_file[row] * f + tx.subpackets[tx.share_start[row] + offset]
    message = np.repeat(np.arange(len(tx.message_length)), np.diff(tx.message_offsets))
    position = (np.cumsum(tx.message_length) - tx.message_length)[message[row]] + offset
    while True:
        unknown = np.flatnonzero(~known[term])
        at = position[unknown]
        learned = unknown[np.bincount(at)[at] == 1]
        if not learned.size:
            return bool(known.reshape(-1, f)[profile.requests[user]].all())
        known[term[learned]] = True


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
