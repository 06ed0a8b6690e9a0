"""Cache-content policies.

A policy decides, at the start of every slot, which files each user
should cache.  All users apply the same decision; randomness enters
only through the subpacket sampling done elsewhere.  A decision depends
on the requests only through the per-file counts of the slots already
served, so a :class:`DecisionWalk` decides a request history in one walk
that is fed the requests as they are drawn and decides them a block of slots
at a time, row t of a block being the set cached during slot t, decided
before its requests arrive.  A block comes factored: the files whose
decision cannot change inside it share one fixed row, and only the rest,
the block's ``varying`` columns, are decided per slot.  Tracking compares
each count with one integer per slot, :func:`count_floors`, the least count
whose empirical popularity clears the threshold.

Counts and count floors never fall, so within a block most files keep one
decision in every row: tracking caches a file whose count already reaches
the block's last floor, and no file that stays below its first floor; LFU
caches no file whose count at the block's end still ranks below the M-th
key at its start.  Past the first block, the walk counts and compares only
the rest, the block's frontier (:func:`_frontier`), typically a few
percent of the files when popularity is skewed.  Such a block is sized by
its frontier work, not by n_files: it grows while the frontier stays
narrow, so one O(n_files) frontier pass serves many slots.

The counts before a slot are the same for every policy, and every adaptive
walk decides its first block densely, every file in every row, so walks
over one history can share a holder in which that block is counted once
for tracking and LFU.  LFU ranks on int32 keys when the horizon keeps
every key below 2**31, and on int64 keys otherwise.
"""
from __future__ import annotations

import numpy as np

from .model import SystemParams

POLICY_NAMES = ("tracking", "oracle", "uniform", "lfu")
# policies whose cached set never changes: their blocks repeat one row
CONSTANT_POLICIES = ("oracle", "uniform")

# slot-by-file counts held at once while deciding tracking and LFU
BLOCK_ELEMS = 2**16

# Every decision block but a history's last has a multiple of this many rows,
# and so does every slice of ``block_rows`` rows that ``model.slot_rates`` is
# charged on.  The last bits of a row of ``decisions @ probs`` depend on how
# the BLAS gemv tiles and threads the rows; slices of 64 rows reproduce the
# rows of the whole-horizon product, where slices of 65 (BLOCK_ELEMS // N at
# N=1000) move the last bits of some tracking and uniform rates.
BLOCK_ROW_MULTIPLE = 64


def check_policy(name: str, params: SystemParams) -> None:
    """Reject an unknown policy name, and LFU with a fractional budget.

    LFU caches whole files, which only makes sense for an integer budget.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy: {name}")
    if name == "lfu" and params.cache_size != int(params.cache_size):
        raise ValueError("LFU needs an integer cache size")


def constant_row(policy: str, probs: np.ndarray, params: SystemParams) -> np.ndarray:
    """The one set a constant policy caches in every slot, as a read-only
    bool row: the oracle thresholds the true popularity ``probs``, uniform
    caches every file."""
    if policy == "oracle":
        row = params.popular(probs)
    else:
        row = np.ones(params.n_files, dtype=bool)
    row.setflags(write=False)
    return row


def block_rows(n_files: int) -> int:
    """Slots per dense decision block and per rate slice: about
    ``BLOCK_ELEMS`` slot-by-file entries, rounded down to a multiple of
    ``BLOCK_ROW_MULTIPLE``, and at least that."""
    rows = BLOCK_ROW_MULTIPLE
    return max(rows, BLOCK_ELEMS // n_files // rows * rows)


def count_floors(slots: np.ndarray, params: SystemParams) -> np.ndarray:
    """Per slot t, the least request count c that tracking caches at t.

    A file with c requests in the t slots seen is cached iff its empirical
    popularity c / (t * K) reaches the threshold 1 / (K * M), ties included,
    that is iff c * M >= t; K cancels.  With the exact M = num / den
    (``params.exact_cache_size``) the floor is ceil(t * den / num), computed
    in integers, so it is exact; at t = 0 it is 0 and every file is cached.
    The floors are int64 while every t * den, and num and den themselves,
    stay below 2**63, and Python ints in an object array otherwise.  They
    never fall as t grows.
    """
    num, den = params.exact_cache_size
    t = np.asarray(slots, dtype=np.int64)
    if max(1, int(t.max(initial=0))) * den + num >= 2**63:
        t = t.astype(object)
    return -(-(t * den) // num)


def _frontier(
    policy: str,
    running: np.ndarray,
    end: np.ndarray,
    floors: np.ndarray,
    m: int,
    tie_break: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(fixed, frontier)`` masks over the files for one block of slots.

    ``running`` and ``end`` are the per-file counts before the block's first
    slot and after its last, ``floors`` the :func:`count_floors` of the
    block's slots (tracking), ``m`` the budget and ``tie_break`` the walk's
    N - 1 - id per file, in its key width (LFU).  Every file outside
    ``frontier`` takes the decision ``fixed`` in every row of the block; the
    frontier holds the files whose decision can differ between rows.

    A file's count in any row lies between ``running`` and ``end``, and the
    floors, ceil(t / M) in exact arithmetic, never fall through the block.
    Tracking caches a file with ``running >= floors[-1]`` in every row and
    one with ``end < floors[0]`` in none.  LFU ranks by ``count * N + (N -
    1 - id)``; the M files at or above the (N - M)-th order statistic
    ``kth0`` of the first row's keys keep keys of at least ``kth0`` in every
    row, so no row's M-th key is below ``kth0`` and a file whose key at the
    end is still below it is never cached.  The LFU frontier therefore
    holds the first row's top M and always has at least M files.
    """
    if policy == "tracking":
        fixed = running >= floors[-1]
        return fixed, ~fixed & (end >= floors[0])
    n = len(running)
    kth0 = np.partition(_keys(running, n, tie_break), n - m)[n - m]
    return np.zeros(n, dtype=bool), _keys(end, n, tie_break) >= kth0


def _counts_before(slot_columns: np.ndarray, carried: np.ndarray, width: int) -> np.ndarray:
    """(rows + 1, width) counts: row r the count before the block's slot r.

    ``slot_columns`` is the (rows, K) block of requests as column ids below
    ``width``, an int64 array that is overwritten, and ``carried`` the counts
    before the block, in the first columns.  Each slot's counts land one row
    down, under the carried counts in row 0, so the cumsum's row r is the
    count before slot r and its last row is the count after the block.
    """
    rows = len(slot_columns)
    slot_columns += np.arange(1, rows + 1)[:, None] * width
    counts = np.bincount(slot_columns.ravel(), minlength=(rows + 1) * width)
    counts = counts.reshape(rows + 1, width)
    counts[0, : len(carried)] = carried
    return np.cumsum(counts, axis=0, out=counts)


def _keys(counts: np.ndarray, n: int, tie_break: np.ndarray) -> np.ndarray:
    """LFU's ranking keys ``counts * n + tie_break``, in the dtype of
    ``tie_break``, which the walk makes wide enough for every key."""
    key = counts.astype(tie_break.dtype)
    key *= n
    key += tie_break
    return key


def _decide(
    policy: str, before: np.ndarray, floors: np.ndarray, m: int, n: int, tie_break: np.ndarray
) -> np.ndarray:
    """Tracking or LFU decisions on the columns of ``before``, the counts
    before each slot; LFU caches the top ``m`` of those columns."""
    if policy == "tracking":
        return before >= floors[:, None]
    # LFU ranks by the key before * N + (N - 1 - id): more requests first,
    # then the lower id.  Keys are unique in a row, so the m keys at or
    # above the (width - m)-th order statistic are exactly the top m.
    key = _keys(before, n, tie_break)
    cut = key.shape[1] - m
    return key >= np.partition(key, cut, axis=1)[:, cut, None]


class DecisionWalk:
    """One policy's decisions over a history whose requests arrive in chunks.

    Each :meth:`step` is given the (slots, n_users) requests of the slots from
    ``start`` on, decides a block from a prefix of them and returns it
    factored, as ``(start, fixed_row, varying, part)``.  The block covers
    slots ``start`` to ``start + len(part)``; ``varying`` indexes the columns
    whose decision can differ between its rows, ``part``, (rows, |varying|),
    holds their decisions, and every other column takes its ``fixed_row``
    value in every row.  Row t of the block, ``fixed_row`` with ``part[t]``
    written into its varying columns, is the set cached during slot
    ``start + t``, decided before its requests arrive.
    The next step is given the requests after the block's.

    - ``tracking`` caches the files whose empirical popularity, the request
      count so far over slots seen times K, clears the threshold (ties
      cache); with no data yet, in the first slot, it caches every file.
      Each count is compared with its slot's :func:`count_floors`, the
      exact least count c with c * M >= t.
    - ``oracle`` thresholds the true popularity ``probs`` and never switches.
    - ``uniform`` caches every file.
    - ``lfu`` caches the M most-requested files so far, breaking ties
      toward lower ids.

    Oracle and uniform decide every slot they are given in one block whose
    ``fixed_row`` is one read-only row and whose ``varying`` is empty.
    Tracking and LFU carry the running counts from block to block, and
    between steps the walk holds nothing else of a block, so it takes
    O(n_files) memory.  The first block, which starts with no counts, is
    decided densely, every file in every row, over :func:`block_rows` slots:
    its ``varying`` is ``slice(None)``, so indexing with it makes a view, and
    ``part`` is the whole block.  A later block takes the counts at its end
    from one ``bincount`` and finds its :func:`_frontier`.  Only the
    frontier's columns are counted per slot, cumsummed and compared or
    ranked, and ``varying`` is their column ids.  Counts and floors never
    fall, which is what makes the fixed decisions exact (see
    :func:`_frontier` and :func:`count_floors`).

    A frontier block is sized by its frontier work, not by n_files: its
    height is a multiple of ``BLOCK_ROW_MULTIPLE`` with rows * |frontier| at
    most ``BLOCK_ELEMS``, and it counts at most about ``BLOCK_ELEMS``
    requests.  A height whose frontier is too wide shrinks to at most half
    and the block is decided again; a block whose frontier still holds more
    than half the files at ``BLOCK_ROW_MULTIPLE`` rows is decided densely,
    over :func:`block_rows` slots.  The height doubles after a block whose
    frontier would still fit the budget at twice the height and twice the
    width, since tracking's frontier widens with the height.  A block never
    takes more slots than the step is given, so when the requests come in
    multiples of ``BLOCK_ROW_MULTIPLE`` slots, as the harness draws them,
    every block but the history's last has a multiple of that many rows.

    The walk is built for a ``horizon`` of slots.  Tracking computes the
    :func:`count_floors` of each block's slots as it decides the block, so
    it holds no per-slot array of the horizon.  LFU ranks on int32 keys
    when every key fits, that is when (horizon * n_users + 1) * n_files <=
    2**31, and on int64 keys otherwise.
    An invalid policy is refused, and so is an LFU walk whose horizon *
    n_users * n_files reaches 2**63, where even an int64 key could overflow.

    Walks over one history may also share a ``counts`` holder, a dict.  The
    counts before each slot are the same for every policy, since they count
    the same requests, and every adaptive walk decides its first block
    densely, so the first walk to decide it stores the block's counts there
    under its rows, and the other walks read them instead of counting
    again.  Later blocks are counted by each walk alone, as few of them are
    dense for both policies.  Whoever feeds the walks empties the holder
    once every walk has passed the requests it was given; a walk built
    without one shares nothing.
    """

    def __init__(
        self,
        policy: str,
        probs: np.ndarray,
        params: SystemParams,
        horizon: int,
        counts: dict | None = None,
    ):
        check_policy(policy, params)
        n = params.n_files
        if policy == "lfu" and horizon * params.n_users * n >= 2**63:
            raise ValueError("LFU history too long: requests * n_files must stay below 2**63")
        self.policy, self.n_files, self.start = policy, n, 0
        self.rows = block_rows(n)
        if policy in CONSTANT_POLICIES:
            self._row = constant_row(policy, probs, params)
            return
        self._params, self._counts = params, counts
        self._m = int(params.cache_size)
        # the largest key is horizon * n_users * n + n - 1
        width = np.int32 if (horizon * params.n_users + 1) * n <= 2**31 else np.int64
        self._tie_break = np.arange(n - 1, -1, -1, dtype=width)
        self._running = np.zeros(n, dtype=np.int64)
        self._height = self.rows  # the next frontier block's height
        most = BLOCK_ELEMS // params.n_users // BLOCK_ROW_MULTIPLE * BLOCK_ROW_MULTIPLE
        self._most = max(self.rows, most)

    def step(
        self, requests: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray | slice, np.ndarray]:
        """Decide the next block from a prefix of ``requests``, those of the
        slots from ``start`` on."""
        start, n = self.start, self.n_files
        if self.policy in CONSTANT_POLICIES:
            self.start += len(requests)
            none = np.empty((len(requests), 0), dtype=bool)
            return start, self._row, np.empty(0, dtype=np.intp), none
        policy, m, running, tie_break = self.policy, self._m, self._running, self._tie_break
        dense = not start
        if start:
            rows, multiple = min(self._height, len(requests)), BLOCK_ROW_MULTIPLE
            while True:
                end = running + np.bincount(requests[:rows].ravel(), minlength=n)
                floors = self._floors_of(rows)
                fixed, frontier = _frontier(policy, running, end, floors, m, tie_break)
                cols = np.flatnonzero(frontier)
                dense = 2 * len(cols) > n
                if rows <= multiple or not dense and rows * len(cols) <= BLOCK_ELEMS:
                    break
                rows = min(rows // 2, BLOCK_ELEMS // len(cols)) // multiple * multiple
                rows = self._height = max(multiple, rows)
        if dense:
            rows = min(self.rows, len(requests))
            before = self._dense_counts(rows, requests)
            part = _decide(policy, before[:rows], self._floors_of(rows), m, n, tie_break)
            self._running = before[rows].copy()
            self.start += rows
            return start, part[0], slice(None), part
        if rows == self._height and 4 * rows * len(cols) <= BLOCK_ELEMS:
            # twice the rows fit even if the frontier doubles with them
            self._height = min(2 * rows, self._most)
        # files off the frontier are counted in one spare last column
        column = np.full(n, len(cols))
        column[cols] = np.arange(len(cols))
        before = _counts_before(np.take(column, requests[:rows]), running[cols], len(cols) + 1)
        part = _decide(policy, before[:rows, :-1], floors, m, n, tie_break[cols])
        self._running = end
        self.start += rows
        return start, fixed, cols, part

    def _dense_counts(self, rows: int, requests: np.ndarray) -> np.ndarray:
        """The :func:`_counts_before` of a dense block of ``rows`` slots from
        ``start``; the first block's are read from the holder if another walk
        counted them."""
        if self.start or self._counts is None:
            return _counts_before(requests[:rows].astype(np.int64), self._running, self.n_files)
        if rows not in self._counts:
            slots = requests[:rows].astype(np.int64)
            self._counts[rows] = _counts_before(slots, self._running, self.n_files)
        return self._counts[rows]

    def _floors_of(self, rows: int) -> np.ndarray | None:
        """Tracking's count floors for the ``rows`` slots from ``start``."""
        if self.policy == "tracking":
            return count_floors(np.arange(self.start, self.start + rows), self._params)
        return None


def switch_flags(decisions: np.ndarray, previous: np.ndarray | None = None) -> np.ndarray:
    """Per-slot flags: the cached set differs from the previous slot's.

    ``previous`` is the set cached in the slot before the first row, for a
    block that continues a history; without it the first row is no switch.
    The rows are compared in one flat scan whose nonzero entries, few
    because a cache changes rarely, give the rows that switch.  This is the
    one switch detector: the harness's records count switches with it too.
    """
    flags = np.zeros(len(decisions), dtype=bool)
    changed = np.flatnonzero(decisions[1:] != decisions[:-1])
    flags[changed // decisions.shape[1] + 1] = True
    if previous is not None and len(decisions):
        flags[0] = (decisions[0] != previous).any()
    return flags
