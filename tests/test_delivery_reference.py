"""build_delivery checked field by field against two references.

The first walks every nonempty subgroup of the coded group in ascending bit
order, which is how delivery plans were once built.  It is exponential in the
group size, so it only runs on groups of up to 12 users here.  The second
builds each subpacket's holder set as one Python int and follows the same
(member, holder bucket) rule as build_delivery, so it reaches groups wider
than the engine's 63-member holder words.

decode is checked user by user against reference_decode, the peel decode
once ran: one message position at a time over Python sets of (file, index)
pairs, reading the plan's CodedMessage/Segment view.
"""
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedcache.engine import (
    CodedMessage,
    DirectSend,
    Segment,
    build_delivery,
    decode,
    sample_placement,
)
from codedcache.model import (
    RequestProfile,
    SystemParams,
    make_zipf,
    sample_requests,
    substream,
)
from placements import placement_of, subpackets_held

# what the references return: the fields a Transmission plan is compared on
ReferencePlan = namedtuple("ReferencePlan", "coded direct subpackets_sent rate")


def reference_delivery(params, profile, placement, cached):
    """Exhaustive subgroup walk: the plan build_delivery must reproduce."""
    req = profile.requests
    f = params.subpackets
    S = {int(i) for i in cached}
    group = [k for k in range(params.n_users) if int(req[k]) in S]
    bit = {k: 1 << j for j, k in enumerate(group)}
    buckets = {}
    for file in sorted({int(req[k]) for k in group}):
        holders = np.zeros(f, dtype=np.int64)
        for k in group:
            idx = subpackets_held(placement, k, file)
            if len(idx):
                holders[idx] |= bit[k]
        order = np.argsort(holders, kind="stable")
        cuts = np.flatnonzero(np.diff(holders[order])) + 1
        buckets[file] = {
            int(holders[chunk[0]]): np.sort(chunk) for chunk in np.split(order, cuts)
        }

    coded = []
    seen = set()
    total = 0
    for sbits in range(1, 1 << len(group)):
        members = [group[j] for j in range(len(group)) if sbits >> j & 1]
        segments = []
        for k in members:
            share = buckets[int(req[k])].get(sbits & ~bit[k])
            if share is not None and len(share):
                segments.append(Segment(k, int(req[k]), share))
        if not segments:
            continue
        signature = frozenset((s.file, sbits & ~bit[s.user]) for s in segments)
        if signature in seen:
            continue
        seen.add(signature)
        length = max(len(s.indices) for s in segments)
        total += length
        coded.append(CodedMessage(tuple(members), length, tuple(segments)))

    direct = []
    for k in range(params.n_users):
        if k not in bit:
            direct.append(DirectSend(k, int(req[k]), f))
            total += f
    return ReferencePlan(tuple(coded), tuple(direct), total, total / f)


def bucket_reference_delivery(params, profile, placement, cached):
    """Holder sets as Python ints, one subpacket at a time; a message per
    subgroup W | {k} for a member k and a holder set W of k's file without k."""
    req = profile.requests
    f = params.subpackets
    S = {int(i) for i in cached}
    group = [k for k in range(params.n_users) if int(req[k]) in S]
    bit = {k: 1 << j for j, k in enumerate(group)}
    buckets = {}
    for file in sorted({int(req[k]) for k in group}):
        holders = [0] * f
        for k in group:
            for i in subpackets_held(placement, k, file).tolist():
                holders[i] |= bit[k]
        by_set = {}
        for i, held in enumerate(holders):
            by_set.setdefault(held, []).append(i)
        buckets[file] = by_set

    shares = {}
    for k in group:
        file = int(req[k])
        for held, idx in buckets[file].items():
            if not held & bit[k]:
                segment = Segment(k, file, np.array(idx, dtype=np.int64))
                shares.setdefault(held | bit[k], []).append((held, segment))

    coded = []
    seen = set()
    total = 0
    for sbits in sorted(shares):
        signature = frozenset((seg.file, held) for held, seg in shares[sbits])
        if signature in seen:
            continue
        seen.add(signature)
        segments = tuple(seg for _, seg in shares[sbits])
        length = max(len(seg.indices) for seg in segments)
        total += length
        members = tuple(k for k in group if sbits & bit[k])
        coded.append(CodedMessage(members, length, segments))

    direct = []
    for k in range(params.n_users):
        if k not in bit:
            direct.append(DirectSend(k, int(req[k]), f))
            total += f
    return ReferencePlan(tuple(coded), tuple(direct), total, total / f)


def reference_decode(params, user, profile, placement, transmission):
    """Peel the slot's transmissions against one user's cache, one position
    at a time over a set of (file, index) pairs: what decode must reproduce.

    True iff every subpacket of the user's requested file is recovered.  XOR
    terms are modeled symbolically: a position is solved once all but one of
    its terms are known.
    """
    want = int(profile.requests[user])
    known: set[tuple[int, int]] = set()
    for file in placement.cached:
        known.update((file, int(j)) for j in subpackets_held(placement, user, file))
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


def assert_decodes_like_reference(params, profile, placement, tx):
    """decode agrees with reference_decode for every user; their verdicts."""
    got = [decode(params, u, profile, placement, tx) for u in range(params.n_users)]
    want = [reference_decode(params, u, profile, placement, tx) for u in range(params.n_users)]
    assert got == want
    return got


def corrupted(params, placement, rng):
    """A copy of the placement with a random part of some users' subpackets gone."""
    caches = [
        {file: subpackets_held(placement, u, file) for file in placement.cached}
        for u in range(params.n_users)
    ]
    for u, cache in enumerate(caches):
        if rng.random() < 0.5:
            caches[u] = {file: idx[rng.random(len(idx)) < 0.8] for file, idx in cache.items()}
    return placement_of(params, placement.cached, caches)


def assert_same_plan(got, want):
    assert len(got.coded) == len(want.coded)
    for a, b in zip(got.coded, want.coded):
        assert a.users == b.users
        assert a.length == b.length
        assert len(a.segments) == len(b.segments)
        for sa, sb in zip(a.segments, b.segments):
            assert (sa.user, sa.file) == (sb.user, sb.file)
            assert sa.indices.dtype == sb.indices.dtype
            assert np.array_equal(sa.indices, sb.indices)
    assert got.direct == want.direct
    assert got.subpackets_sent == want.subpackets_sent
    assert got.rate == want.rate


def check_instance(params, cached, placement, requests):
    profile = RequestProfile(np.asarray(requests))
    got = build_delivery(params, profile, placement, cached)
    assert_same_plan(got, reference_delivery(params, profile, placement, cached))
    return profile, got


def test_matches_reference_on_random_instances():
    groups = []
    for trial in range(700):
        rng = substream(101, trial)
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 13))
        params = SystemParams(n, k, float(rng.uniform(0.1, n)), int(rng.integers(1, 65)))
        size = int(rng.integers(0, n + 1))
        cached = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        placement = sample_placement(params, cached, rng)
        requests = rng.integers(0, n, size=k)
        check_instance(params, cached, placement, requests)
        groups.append(int(np.isin(requests, cached).sum()))
    # at least 500 draws code something, and they reach groups of 12 users
    assert sum(g > 0 for g in groups) >= 500 and max(groups) == 12


def test_decode_matches_reference_on_random_instances():
    # groups of up to 29 users; every other instance loses cached
    # subpackets after its plan is built, so some users cannot decode
    verdicts = []
    for trial in range(200):
        rng = substream(606, trial)
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 30))
        params = SystemParams(n, k, float(rng.uniform(0.1, n)), int(rng.integers(1, 65)))
        size = int(rng.integers(0, n + 1))
        cached = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        placement = sample_placement(params, cached, rng)
        profile = RequestProfile(rng.integers(0, n, size=k))
        tx = build_delivery(params, profile, placement, cached)
        if trial % 2:
            placement = corrupted(params, placement, rng)
        verdicts += assert_decodes_like_reference(params, profile, placement, tx)
    assert 0 < verdicts.count(False) < verdicts.count(True)


def test_matches_reference_at_bitlevel_shape():
    # the shape of the bit-level benchmark run: N=20, K=10, M=4, F=200
    params = SystemParams(20, 10, 4.0, 200)
    dist = make_zipf(20, 1.0)
    for trial in range(6):
        rng = substream(202, trial)
        cached = list(range(5 + 3 * trial))
        placement = sample_placement(params, cached, rng)
        requests = sample_requests(dist, params.n_users, rng).requests
        profile, tx = check_instance(params, cached, placement, requests)
        assert tx.coded
        assert all(decode(params, u, profile, placement, tx) for u in range(params.n_users))


def test_matches_reference_when_every_user_holds_everything():
    params = SystemParams(3, 8, 3.0, 16)
    cached = [0, 1, 2]
    placement = sample_placement(params, cached, substream(303, 0))
    _, tx = check_instance(params, cached, placement, [0, 1, 2, 0, 1, 2, 0, 1])
    assert tx.coded == () and tx.rate == 0.0


def test_matches_reference_when_nobody_holds_anything():
    # every subpacket sits in the empty holder bucket, so each distinct
    # requested file goes out once, to the first user asking for it
    params = SystemParams(4, 7, 1.0, 12)
    placement = placement_of(params, [0, 1, 2], [])
    _, tx = check_instance(params, [0, 1, 2], placement, [2, 0, 2, 3, 1, 0, 2])
    assert [m.users for m in tx.coded] == [(0,), (1,), (4,)]
    assert [d.user for d in tx.direct] == [3]
    assert tx.rate == 4.0


def test_groups_at_and_above_one_mask_word_build():
    # 63 members fill one holder word and 64 spill into a second
    for users, trial in ((63, 0), (64, 1)):
        params = SystemParams(1, users, 1.0, 1)
        placement = sample_placement(params, [0], substream(404, trial))
        profile = RequestProfile(np.zeros(users, dtype=np.int64))
        tx = build_delivery(params, profile, placement, [0])
        assert tx.rate == 0.0


@pytest.mark.parametrize("k", [62, 63, 64, 126, 127, 130])
def test_decode_across_the_holder_word_edges(k):
    # every user, in every holder word, decodes a sampled placement's plan
    # as the reference does.  The last user, bit (K - 1) % 63 of the last
    # word, alone asks for file 2: no other share carries that file, so once
    # one of its held subpackets is dropped it alone cannot decode
    params = SystemParams(4, k, 1.5, 8)
    cached = [0, 1, 2]
    rng = substream(808, k)
    placement = sample_placement(params, cached, rng)
    requests = np.append(rng.choice([0, 1, 3], size=k - 1, p=[0.45, 0.45, 0.1]), 2)
    profile = RequestProfile(requests)
    tx = build_delivery(params, profile, placement, cached)
    assert 0 < len(tx.direct) < k - 1
    assert all(assert_decodes_like_reference(params, profile, placement, tx))
    victim = k - 1
    held = subpackets_held(placement, victim, 2)
    assert 0 < len(held) < params.subpackets
    placement.holders[victim // 63, 2, held[0]] &= ~(1 << victim % 63)
    verdicts = assert_decodes_like_reference(params, profile, placement, tx)
    assert not verdicts[victim] and verdicts.count(False) == 1


def shared_holder_caches(params, cached, group, rng):
    """Caches in which every subpacket of one kind has the same holders.

    The kinds sit at scattered indices, so a holder set repeats across
    non-adjacent subpackets, and kinds 0 and 1 agree on the first 63 group
    members, so only the later holder words tell them apart.
    """
    kind = rng.integers(0, 3, size=params.subpackets)
    held = rng.random((params.n_users, 3)) < 0.5
    first_word = group[:63]
    held[first_word, 1] = held[first_word, 0]
    caches = [
        {file: np.flatnonzero(held[k][kind]) for file in cached} for k in range(params.n_users)
    ]
    return placement_of(params, cached, caches)


def test_matches_bucket_reference_past_the_word_boundaries():
    # coded groups of 60-140 users straddle the 63- and 126-member word
    # boundaries of the engine's holder sets; decode agrees with the
    # reference there, also once some caches lose subpackets
    groups, verdicts = [], []
    for trial in range(24):
        rng = substream(505, trial)
        n = int(rng.integers(2, 6))
        width = int(rng.integers(60, 141))
        outside = int(rng.integers(0, 4))
        f = int(rng.integers(4, 25))
        params = SystemParams(n, width + outside, float(rng.uniform(0.2, n - 1)), f)
        cached = list(range(n - 1))
        requests = np.concatenate(
            [rng.integers(0, n - 1, size=width), np.full(outside, n - 1)]
        )
        requests = rng.permutation(requests)
        if trial % 2:
            group = np.flatnonzero(requests < n - 1)
            placement = shared_holder_caches(params, cached, group, rng)
        else:
            placement = sample_placement(params, cached, rng)
        profile = RequestProfile(requests)
        tx = build_delivery(params, profile, placement, cached)
        assert_same_plan(tx, bucket_reference_delivery(params, profile, placement, cached))
        assert tx.coded
        assert all(decode(params, u, profile, placement, tx) for u in range(params.n_users))
        broken = corrupted(params, placement, rng)
        verdicts += assert_decodes_like_reference(params, profile, broken, tx)
        groups.append(width)
    assert min(groups) < 63 and 63 < 126 < max(groups)
    assert False in verdicts


def reference_duplicate_share_counts(params, profile, placement, cached):
    """Share count of every subgroup whose payload repeats an earlier one's.

    Subgroups, shares and signatures are the bucket reference's, built here
    from Python-int holder sets so the engine's lemma can be checked against
    them: only single-share payloads ever repeat.
    """
    req = profile.requests
    group = [k for k in range(params.n_users) if int(req[k]) in set(cached)]
    bit = {k: 1 << j for j, k in enumerate(group)}
    holder_sets = {}
    for file in {int(req[k]) for k in group}:
        holders = [0] * params.subpackets
        for k in group:
            for i in subpackets_held(placement, k, file).tolist():
                holders[i] |= bit[k]
        holder_sets[file] = set(holders)
    signatures = {}
    for k in group:
        file = int(req[k])
        for held in holder_sets[file]:
            if not held & bit[k]:
                signatures.setdefault(held | bit[k], set()).add((file, held))
    seen = set()
    counts = []
    for sbits in sorted(signatures):
        signature = frozenset(signatures[sbits])
        if signature in seen:
            counts.append(len(signature))
        seen.add(signature)
    return counts


@st.composite
def delivery_instances(draw):
    """Coded groups of 1-140 users over 1-5 cached files (so requests repeat),
    F of 1-64, a few users asking for the one uncached file, and caches that
    are either sampled or built so that holder sets repeat."""
    width = draw(st.integers(1, 140))
    outside = draw(st.integers(0, 3))
    n = draw(st.integers(2, 6))
    f = draw(st.integers(1, 64))
    m = (n - 1) * draw(st.integers(1, 20)) / 20
    repeated = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = SystemParams(n, width + outside, m, f)
    cached = list(range(n - 1))
    requests = rng.permutation(
        np.concatenate([rng.integers(0, n - 1, size=width), np.full(outside, n - 1)])
    )
    if repeated:
        placement = shared_holder_caches(params, cached, np.flatnonzero(requests < n - 1), rng)
    else:
        placement = sample_placement(params, cached, rng)
    return params, cached, placement, RequestProfile(requests)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(delivery_instances())
def test_plan_property_against_bucket_reference(instance):
    params, cached, placement, profile = instance
    tx = build_delivery(params, profile, placement, cached)
    assert_same_plan(tx, bucket_reference_delivery(params, profile, placement, cached))
    counts = reference_duplicate_share_counts(params, profile, placement, cached)
    assert all(c == 1 for c in counts)
    assert all(decode(params, u, profile, placement, tx) for u in range(params.n_users))
