"""Bit-level cache placement, XOR multicast delivery, and decoding.

Files are split into `subpackets` equal pieces and caches are tracked as
holder sets, so delivery plans carry exact lengths without simulating payload
bytes.  :func:`sample_placement` draws a :class:`Placement`: the holder set
of every subpacket of the cached set as words, one bit per user id, ⌈K/63⌉
int64 words per (file, subpacket); the words are the only record of the
caches.  One holder-bucket planner computes the coded plans of a batch of
slots as flat numpy arrays: each slot's group masks the words of its
requested files, each (slot, file)'s subpackets are bucketed by their masked
words, one share row per (member, holder bucket) carries its subgroup key,
and one stable sort over (slot, subgroup key) yields every slot's messages
and the payload dedup.  :func:`plan_slots` runs it on a batch of slots, and
:func:`build_delivery` is its one-slot call; :func:`decode` peels one slot's
arrays against a user's bits in the words, and only reading
``Transmission.coded`` builds a :class:`CodedMessage`/:class:`Segment` view.
Only bit-level runs and the decode fuzzer load this module; the analytic
estimate of this delivery's rate, ``model.slot_rates``, lives with the model.
"""
from __future__ import annotations

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
    + 1]``, zero-padded to ``message_length[i]``, for the users whose bits are
    set in column i of ``message_key``: user u is bit u % 63 of word u // 63,
    so a key has ⌈K/63⌉ int64 words.  ``group`` lists the coded group, the
    users whose request is in the cached set.  Share row r is user
    ``share_user[r]``'s piece of file ``share_file[r]``: subpacket indices
    ``subpackets[share_start[r]:share_stop[r]]``.  The rate, the counts and
    :func:`decode` read only these arrays.  ``terms`` lists the plan's XOR
    terms for :func:`decode`, and ``coded`` builds the same plan as a tuple
    of :class:`CodedMessage` for callers that want message objects.  Each is
    computed on first access and cached, so decoding every user of a slot
    sets the terms up once.
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
    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every XOR term of the coded plan as (file, subpacket, position)
        arrays: the p-th subpacket of a share row is a term at position p of
        its message, positions counted across the messages in send order."""
        sizes = self.share_stop - self.share_start
        row = np.repeat(np.arange(len(sizes)), sizes)
        offset = np.arange(row.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        message = np.repeat(np.arange(len(self.message_length)), np.diff(self.message_offsets))
        first = np.cumsum(self.message_length) - self.message_length
        return (
            self.share_file[row],
            self.subpackets[self.share_start[row] + offset],
            first[message[row]] + offset,
        )

    @cached_property
    def coded(self) -> tuple[CodedMessage, ...]:
        """The coded messages in send order, each member list read from the
        set bits of its subgroup key, which are user ids."""
        count = len(self.message_length)
        if not count:
            return ()
        key = np.ascontiguousarray(self.message_key.T, dtype="<i8")
        bits = np.unpackbits(key.view(np.uint8), axis=1, bitorder="little")
        bits = bits.reshape(count, -1, 64)[:, :, :_WORD_MEMBERS].reshape(count, -1)
        rows, users = np.nonzero(bits)
        users = users.tolist()
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


@dataclass(frozen=True, eq=False)
class Placement:
    """One placement of every user's cache over the cached set, as holder words.

    ``cached`` lists the cached set's files in ascending order.  Bit u % 63
    of ``holders[u // 63, c, i]`` is set iff user u holds subpacket i of file
    ``cached[c]``: ⌈K/63⌉ int64 words per (file, subpacket), and no sign bit
    is ever set.  A user holds nothing outside the cached set.
    """

    cached: list[int]
    holders: np.ndarray


def sample_placement(
    params: SystemParams, cached: Iterable[int], rng: np.random.Generator
) -> Placement:
    """Independent random placement of every user's cache over the cached set.

    Each user keeps min(F, floor(M*F/|S|)) uniformly random subpackets of
    every file in S, the floor taken from the exact decimal M
    (``params.exact_cache_size``), not its binary float, so a set of at
    most M files is stored whole and draws nothing from ``rng``.  The
    random keys of every (user, file) draw come user by user and file by
    file from ``rng.random`` calls over blocks of users of about
    ``BLOCK_ELEMS`` keys each, which draw the same stream as one call.
    A draw keeps the subpackets of its ``take`` smallest keys
    (:func:`_smallest`), and its mask sets the user's bit in the words.
    """
    S = _check_files(params, cached)
    k, f = params.n_users, params.subpackets
    holders = np.zeros((-(-k // _WORD_MEMBERS), len(S), f), dtype=np.int64)
    num, den = params.exact_cache_size
    take = min(f, num * f // (den * len(S))) if S else 0
    if take == f:  # every user holds the whole set
        holders[:] = np.array(
            [(1 << min(_WORD_MEMBERS, k - lo)) - 1 for lo in range(0, k, _WORD_MEMBERS)],
            dtype=np.int64,
        )[:, None, None]
    elif take > 0:
        step = max(1, BLOCK_ELEMS // (len(S) * f))
        for start in range(0, k, step):
            held = _smallest(rng.random((min(step, k - start), len(S), f)), take)
            for user, mask in enumerate(held, start):
                holders[user // _WORD_MEMBERS] |= np.left_shift(
                    mask, user % _WORD_MEMBERS, dtype=np.int64
                )
    return Placement(S, holders)


def _smallest(keys: np.ndarray, take: int) -> np.ndarray:
    """Mask of the ``take`` smallest keys of every row (last axis): the set
    ``np.argpartition(keys, take)[..., :take]`` picks.

    Unless a row's take-th smallest key is tied, that set is exactly its keys
    at or below the take-th smallest; a row with such a tie, which holds
    more, is given argpartition's own set.
    """
    held = keys <= np.partition(keys, take - 1, axis=-1)[..., take - 1, None]
    rows = held.reshape(-1, keys.shape[-1])
    tied = np.flatnonzero(np.count_nonzero(rows, axis=1) != take)
    if tied.size:
        picked = np.argpartition(keys.reshape(rows.shape)[tied], take, axis=-1)[:, :take]
        rows[tied] = False
        rows[tied[:, None], picked] = True
    return held


def build_delivery(
    params: SystemParams,
    profile: RequestProfile,
    placement: Placement,
    cached: Iterable[int],
) -> Transmission:
    """Multicast plan for one slot: the one-slot call of :func:`plan_slots`.

    Users whose request lies in the cached set form the coded group.  The
    subpackets of each requested file are bucketed by exactly which members
    hold them.  A member k and a bucket W of k's file with k not in W give k's
    share of the subgroup W | {k}: the subpackets k misses and exactly W holds.
    Each subgroup that receives at least one share sends one message, in
    ascending order of the subgroup's users, compared from the highest user
    id down, XOR-ing its members' shares in group order (zero-padded, so the
    message is as long as the largest share).  Any other subgroup would carry
    nothing, so none is enumerated.  Every request outside the cached set is
    sent whole, one transmission per request, with duplicates not merged.

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
    group size times F, and a group of any size is built.  ``cached`` must
    be the placement's cached set.
    """
    req = profile.requests
    if len(req) != params.n_users:
        raise ValueError("profile size != n_users")
    if int(req.max()) >= params.n_files:
        raise ValueError("request index out of range")
    # `cached` repeats placement.cached because the benchmark's counting hook
    # on this function reads the cached set by argument name
    if _check_files(params, cached) != placement.cached:
        raise ValueError("cached set differs from the placement's")
    return plan_slots(params, [placement], [0], req[None]).transmission(0)


# a planner batch holds about this many masked holder-word entries and
# share rows (a slot takes at most K * F * ceil(K / 63) of each), and its
# placements about this many holder-word entries
PLAN_ELEMS = 2**14


def batch_slots(params: SystemParams) -> int:
    """Slots per :func:`plan_slots` batch, so its plans stay within ``PLAN_ELEMS``."""
    k, f = params.n_users, params.subpackets
    return max(1, PLAN_ELEMS // (k * f * -(-k // _WORD_MEMBERS)))


def holders_full(placements: Sequence[Placement]) -> bool:
    """True once ``placements`` hold ``PLAN_ELEMS`` holder-word entries: a
    batch that holds them takes no further placement."""
    return sum(placement.holders.size for placement in placements) >= PLAN_ELEMS


def plan_slots(
    params: SystemParams,
    placements: Sequence[Placement],
    which: np.ndarray,
    requests: np.ndarray,
) -> SlotPlans:
    """Delivery plans of a batch of slots: slot b serves the requests
    ``requests[b]`` under ``placements[which[b]]``.

    The placements' holder words are stacked once, and every slot's plan
    comes from one planner pass (see :class:`SlotPlans`); a batch may span
    several placements; :func:`build_delivery` is the call on one slot.
    """
    column = np.full((len(placements), params.n_files), -1, dtype=np.int64)
    base = 0
    for row, placement in zip(column, placements):
        row[placement.cached] = np.arange(base, base + len(placement.cached))
        base += len(placement.cached)
    if len(placements) == 1:
        holders = placements[0].holders
    else:
        holders = np.concatenate([placement.holders for placement in placements], axis=1)
    return _plan(params, holders, column[np.asarray(which)[:, None], requests], requests)


def _sorted_runs(
    words: np.ndarray, major: np.ndarray, n_major: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable order of the columns of (``words``; ``major``), ``major``
    primary, then the last word; and the sorted position where each run of
    equal columns starts.

    ``major`` lies below ``n_major`` and the words hold the bits of users
    below ``k``.  While one word and the major fit in the 63 value bits of
    an int64, they are sorted as one key; a key below 2**16 is sorted as
    uint16, which numpy radix-sorts, several times faster than its stable
    int64 sort on the few thousand keys of a batch.  Otherwise the columns
    are lexsorted.
    """
    if len(words) == 1 and n_major <= 1 << (_WORD_MEMBERS - k):
        keys = (words[0] | major << k)[None]
        order = np.argsort(
            keys[0].astype(np.uint16) if n_major << k <= 1 << 16 else keys[0], kind="stable"
        )
    else:
        keys = np.vstack((words, major))
        order = np.lexsort(keys)
    ordered = keys[:, order]
    change = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return order, np.flatnonzero(np.concatenate(([order.size > 0], change)))


@dataclass(frozen=True, eq=False)
class SlotPlans:
    """The coded plans of a batch of slots, from one planner pass.

    ``subpackets_sent[b]`` is slot b's total: the lengths of its kept coded
    messages plus F per direct send, and ``rates`` divides it by F.  The
    plan arrays are built only when :meth:`transmission` first asks for
    them: messages are sorted by (slot, subgroup), so each slot's members,
    messages, share rows and subpackets are one slice of the batch arrays,
    and a slot's :class:`Transmission` is cut out of them.
    """

    params: SystemParams
    requests: np.ndarray
    column: np.ndarray
    subpackets_sent: np.ndarray
    parts: dict[str, np.ndarray] = field(repr=False)

    @property
    def rates(self) -> np.ndarray:
        return self.subpackets_sent / self.params.subpackets

    @cached_property
    def _arrays(self) -> dict[str, np.ndarray]:
        """The batch's Transmission arrays, and the cuts between its slots."""
        p, f, cuts = self.parts, self.params.subpackets, np.arange(len(self.requests) + 1)
        keep, count = p["keep"], p["count"]
        first_rows = p["perm"][p["starts"][keep]]
        rows = p["perm"][np.repeat(keep, count)]
        member, bucket = p["pos"][rows], p["bucket"][rows]
        slot, user = p["slot"], p["user"]
        return {
            "member_cut": np.searchsorted(slot, cuts),
            "message_cut": np.searchsorted(slot[p["pos"][first_rows]], cuts),
            "subpacket_cut": np.searchsorted(p["pair_slot"], cuts) * f,
            "group": user,
            "message_key": p["subgroup"][:, first_rows],
            "message_offsets": np.concatenate(([0], np.cumsum(count[keep]))),
            "message_length": p["length"][keep],
            "share_user": user[member],
            "share_file": self.requests[slot[member], user[member]],
            "share_start": p["bucket_start"][bucket],
            "share_stop": p["bucket_stop"][bucket],
            "subpackets": p["order"] % f,
        }

    def transmission(self, slot: int) -> Transmission:
        """Slot ``slot``'s plan, with offsets into its own share rows and
        subpackets."""
        f, a = self.params.subpackets, self._arrays
        req = self.requests[slot]
        m0, m1 = a["message_cut"][slot : slot + 2].tolist()
        offsets = a["message_offsets"][m0 : m1 + 1]
        r0, r1 = offsets[0], offsets[-1]
        s0, s1 = a["subpacket_cut"][slot : slot + 2]
        total = int(self.subpackets_sent[slot])
        outside = np.flatnonzero(self.column[slot] < 0).tolist()
        return Transmission(
            tuple([DirectSend(k, int(req[k]), f) for k in outside]),
            total,
            total / f,
            a["group"][a["member_cut"][slot] : a["member_cut"][slot + 1]],
            message_key=a["message_key"][:, m0:m1],
            message_offsets=offsets - r0,
            message_length=a["message_length"][m0:m1],
            share_user=a["share_user"][r0:r1],
            share_file=a["share_file"][r0:r1],
            share_start=a["share_start"][r0:r1] - s0,
            share_stop=a["share_stop"][r0:r1] - s0,
            subpackets=a["subpackets"][s0:s1],
        )


def _plan(
    params: SystemParams, holders: np.ndarray, column: np.ndarray, requests: np.ndarray
) -> SlotPlans:
    """The holder-bucket planner over a batch of slots.

    ``holders`` holds (words, columns, F) holder words by user id, and
    ``column[b, k]`` is the column of user k's request in slot b, or -1 for
    a request outside that slot's cached set.  A slot's group is masked out
    of the words of its requested files, the subpackets of each (slot, file)
    pair are bucketed by their masked words, and every slot's share rows are
    ordered by one stable sort over (slot, subgroup key).
    """
    k, f = params.n_users, params.subpackets
    n_words, slots = len(holders), len(requests)
    # Members, slot-major in ascending user id: each slot's group in order.
    # User u is bit u % 63 of holder word u // 63.
    slot, user = np.nonzero(column >= 0)
    word, offset = np.divmod(user, _WORD_MEMBERS)
    bit = np.left_shift(1, offset)
    group = np.zeros((n_words, slots), dtype=np.int64)
    np.bitwise_or.at(group, (word, slot), bit)

    # One (slot, column) pair per requested file of a slot, in column order,
    # which is file order within a placement.  A stable sort of the pairs'
    # subpackets by (pair, masked holder words) orders each pair's holder
    # sets ascending and keeps each run of equal sets in ascending index
    # order, so a bucket is a run of the sorted order.
    width = holders.shape[1]
    present = np.zeros(slots * width, dtype=bool)
    member_key = slot * width + column[slot, user]
    present[member_key] = True
    pair_key = np.flatnonzero(present)
    member_pair = (np.cumsum(present) - 1)[member_key]
    pair_slot, pair_column = np.divmod(pair_key, width)
    pairs = len(pair_key)
    masked = (holders[:, pair_column] & group[:, pair_slot, None]).reshape(n_words, -1)
    order, bucket_start = _sorted_runs(masked, np.arange(pairs * f) // f, pairs, k)
    bucket_stop = np.append(bucket_start[1:], order.size)
    heads = masked[:, order[bucket_start]]

    # One share row per (member, bucket of its pair without it): rows are
    # generated in group order for every bucket of the member's pair, and
    # those whose bucket holds the member are dropped.  A row's subgroup key
    # is its bucket's holder words with the member's bit set.
    n_buckets = np.bincount(order[bucket_start] // f, minlength=pairs)
    per_member = n_buckets[member_pair]
    first_bucket = (np.cumsum(n_buckets) - n_buckets)[member_pair]
    first_row = np.cumsum(per_member) - per_member
    pos = np.repeat(np.arange(len(user)), per_member)
    bucket = np.arange(pos.size) + np.repeat(first_bucket - first_row, per_member)
    subgroup = heads.take(bucket, axis=1)  # C-contiguous, so `flat` is a view
    flat = subgroup.reshape(-1)
    own = word[pos] * pos.size + np.arange(pos.size)
    row_bit = bit[pos]
    free = np.flatnonzero(flat[own] & row_bit == 0)
    flat[own] |= row_bit
    pos, bucket, subgroup = pos[free], bucket[free], subgroup[:, free]

    # Sort the rows by (slot, subgroup), last word primary; the sort is
    # stable, so each subgroup's rows stay in group order.  Each run of
    # equal keys is one message, as long as its longest share.
    row_slot = slot[pos]
    perm, starts = _sorted_runs(subgroup, row_slot, slots, k)
    sizes = (bucket_stop - bucket_start)[bucket[perm]]
    length = np.maximum.reduceat(sizes, starts)
    count = np.diff(np.append(starts, perm.size))

    # Payload dedup: multi-share messages are all kept, and single-share ones
    # keep the first message of each bucket; a bucket belongs to one slot.
    keep = count > 1
    single = np.flatnonzero(~keep)
    single_bucket = bucket[perm[starts[single]]]
    rank = np.arange(len(single))
    first = np.full(len(bucket_start), len(single))
    np.minimum.at(first, single_bucket, rank)
    keep[single[first[single_bucket] == rank]] = True

    # each slot's total is far below 2**53, so the float weights are exact
    kept_slot = row_slot[perm[starts[keep]]]
    sent = np.bincount(kept_slot, weights=length[keep], minlength=slots).astype(np.int64)
    sent += f * (k - np.bincount(slot, minlength=slots))
    return SlotPlans(
        params,
        requests,
        column,
        sent,
        {
            "slot": slot, "user": user, "pair_slot": pair_slot, "order": order,
            "bucket_start": bucket_start, "bucket_stop": bucket_stop, "pos": pos,
            "bucket": bucket, "subgroup": subgroup, "perm": perm, "starts": starts,
            "length": length, "count": count, "keep": keep,
        },
    )


def decode(
    params: SystemParams,
    user: int,
    profile: RequestProfile,
    placement: Placement,
    transmission: Transmission,
) -> bool:
    """Peel the slot's transmissions against one user's cache.

    True iff every subpacket of the user's requested file is recovered.  XOR
    terms are modeled symbolically: a position is solved once all but one of
    its terms are known.  Subpacket i of file n is entry n*F + i of a mask of
    what the user knows, starting from the subpackets whose holder words
    carry the user's bit and from the direct sends.  The terms and their
    message positions are the plan's ``Transmission.terms``, set up once per
    plan.  Each round learns every unknown term alone at its position; the
    rule only adds terms, so rounds reach the known set that peeling one
    position at a time does.
    """
    f, tx = params.subpackets, transmission
    word, bit = divmod(user, _WORD_MEMBERS)
    known = np.zeros((params.n_files, f), dtype=bool)
    known[placement.cached] = placement.holders[word] >> bit & 1
    known = known.reshape(-1)
    for send in tx.direct:
        known[send.file * f : send.file * f + send.length] = True
    term_file, term_subpacket, position = tx.terms
    term = term_file * f + term_subpacket
    while True:
        unknown = np.flatnonzero(~known[term])
        at = position[unknown]
        learned = unknown[np.bincount(at)[at] == 1]
        if not learned.size:
            return bool(known.reshape(-1, f)[profile.requests[user]].all())
        known[term[learned]] = True


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
    (its holder bit cleared) after the delivery plan is built, so decode
    failures become the expected outcome (a working checker must report
    some).
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
        placement = sample_placement(params, cached, rng)
        profile = RequestProfile(rng.integers(0, n, size=k))
        tx = build_delivery(params, profile, placement, cached)
        if corrupt:
            # each served user's holder words of its requested file (views
            # into the placement), holding its bit where it caches a subpacket
            words = {
                u: placement.holders[u // _WORD_MEMBERS, cached.index(r)]
                for u, r in enumerate(profile.requests.tolist())
                if r in cached
            }
            victims = [u for u, w in words.items() if (w & 1 << u % _WORD_MEMBERS).any()]
            if not victims:
                continue  # nothing cached to break in this draw
            victim = int(rng.choice(victims))
            held, bit = words[victim], 1 << victim % _WORD_MEMBERS
            held[int(rng.choice(np.flatnonzero(held & bit)))] &= ~bit
        for u in range(k):
            users_checked += 1
            if not decode(params, u, profile, placement, tx):
                failures += 1
    return FuzzResult(n_trials, users_checked, failures)
