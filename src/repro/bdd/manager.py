"""Complement-edge ROBDD kernel: integer handles, Apply, Restrict, Compose.

This is the computational substrate of the whole library (paper Sec. V-A),
rebuilt in the style of CUDD/BuDDy: nodes are integer indices into
manager-owned parallel arrays (:attr:`_level`, :attr:`_low`,
:attr:`_high`), and an *edge* is a tagged integer ``(index << 1) | c``
whose low bit ``c`` marks complementation.  Consequences:

* **one terminal** — the constant ``1`` lives at index 0; ``0`` is its
  complemented edge.  The classical "exactly two terminals" invariant
  becomes "exactly two terminal *edges*";
* **negation is free** — complementing a function flips the low bit of
  its handle.  No traversal, no memo table, no unique-table insertions
  (:meth:`BDDManager.negate`, counted in ``op_stats.negations``);
* **canonical form** — every *stored* high edge is regular
  (uncomplemented).  ``mk`` pushes a complemented high edge onto both
  children and returns a complemented handle instead, so each function
  has exactly one representation and identity tests keep working.

The manager still owns a totally ordered set of named variables (Def. 5
requires ``Vars`` to carry a total order ``<``) and guarantees the ROBDD
invariants on top of the complement-edge form:

* *ordered* — on every root-to-terminal path variables appear in strictly
  increasing level order (``mk`` enforces ``level < child levels``);
* *reduced* — no node has identical children (``mk`` short-circuits) and
  no two distinct indices share ``(level, low, high)`` (the
  open-addressed unique table).

The storage layer is *array-native*: the parallel node arrays are
contiguous ``array.array('q')`` buffers (``_level``, ``_low``,
``_high``), the unique table is an open-addressed hash
table over those buffers (power-of-two capacity, linear probing,
tombstone-free rebuild on GC), and the operation memo tables are lossy
direct-mapped computed tables with packed integer keys in the
CUDD tradition.  Because nodes are flat int64 buffers, bulk passes —
the multi-profile :meth:`BDDManager.probability_many` sweep, snapshot
compaction/validation, the unique-table bulk rehash — vectorise over
zero-copy numpy views when numpy is importable (``_nputil``), with a
pure-Python fallback keeping every feature available without it.

The public currency is the interned :class:`~repro.bdd.ref.Ref` handle;
all recursions below run on raw integer edges and only wrap at the API
boundary.  Because reduction is maintained incrementally by ``mk``, the
textbook ``Apply``+``Reduce`` pipeline referenced by the paper (Ben-Ari
Algs. 5.15 and 5.3) collapses into the memoised binary cores plus the
standard-triple-normalised :meth:`BDDManager.ite`.

Two memory-management facilities sit on top of the node store (both in
the CUDD/BuDDy tradition):

* **garbage collection** — refs are interned *weakly*, so the interning
  table alone records which nodes user code holds: an entry vanishes
  when the last handle for its edge dies.  A mark-and-sweep
  :meth:`BDDManager.collect` reclaims every node unreachable from a live
  Ref into a free list that :meth:`_mk` reuses, so node indices are no
  longer append-only and long-lived sessions stay flat;
* **in-place dynamic reordering** — :meth:`BDDManager.swap` exchanges
  two adjacent levels by rewiring only the nodes on those levels (every
  pre-existing index keeps denoting the same Boolean function, so live
  Refs survive reordering untouched), and :meth:`BDDManager.sift_inplace`
  runs Rudell's sifting (ICCAD'93) on top of it.  Automatic triggers for
  both fire at :meth:`BDDManager.checkpoint` safe points.

The node store is also *portable*: :meth:`BDDManager.save_snapshot`
compacts the live parallel arrays plus named root edges into a dict of
raw int64 columns, and :meth:`BDDManager.load_snapshot` rebuilds a fresh
manager from one (re-validating every canonical-form invariant).
:func:`encode_snapshot` / :func:`decode_snapshot` are the one on-disk
form of such a dict: a JSON header line followed by the raw columns.
Snapshots carry no memo tables — see the method docstrings and DESIGN.md
for why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import weakref
from array import array
from dataclasses import dataclass, fields
from math import nan
from typing import Container, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..errors import (
    ExecutionError,
    ManagerMismatchError,
    MissingWeightError,
    SnapshotError,
    SnapshotIntegrityError,
    VariableError,
)
from . import _nputil
from .ref import TERMINAL_LEVEL, Ref

#: The two terminal edges: index 0 is the stored ``1`` terminal.
_TRUE = 0
_FALSE = 1

#: Level sentinel marking a reclaimed (free-listed) node slot.
_FREE_LEVEL = -1

#: Constructions (or sweep iterations) between full governor checks.
#: An armed governor costs one decrement and compare per ``_mk``; the
#: full tick — live-node count, budget compares, amortised clock read —
#: runs every stride and credits the governor with this many steps.
#: Budget/deadline overshoot is bounded by one stride of work.
_GOV_STRIDE = 64


#: Opcodes for the packed-key binary operation cache.  Only AND and
#: XOR run a recursion; every other connective is an O(1) complement
#: rewrite of one of them (De Morgan and friends).
_OP_AND = 0
_OP_XOR = 1

#: Binary Boolean connectives supported by :meth:`BDDManager.apply`.
_OP_NAMES = ("and", "or", "xor", "xnor", "nand", "nor", "implies")

#: Weight profiles whose probability caches are retained (LRU beyond).
_PROB_PROFILE_LIMIT = 4

#: Bits reserved per tagged edge in packed computed-table keys.  2^44
#: edges = 2^43 stored nodes; at 32 bytes/node that is ~256 TiB of node
#: store, far beyond anything a single manager can hold, so the packing
#: never truncates in practice.
_EDGE_BITS = 44

#: Knuth/Fibonacci-style multipliers for the open-addressed tables.
_H1 = 0x9E3779B1
_H2 = 0x85EBCA6B

#: Unique-table sizing: power-of-two capacity, load factor kept <= 0.5.
_UT_MIN_CAPACITY = 1 << 10


def _ut_capacity(live: int) -> int:
    """Unique-table capacity for ``live`` nodes (load <= 1/2)."""
    return max(_UT_MIN_CAPACITY, 1 << (2 * live).bit_length())


#: Computed-table sizing (per op cache): direct-mapped and lossy, so a
#: full table evicts rather than grows — but while a cache keeps
#: missing, capacity doubles up to the max (CUDD's "reward" policy,
#: crudely: one doubling per capacity-many insertions).
_CACHE_MIN_BITS = 12
_CACHE_MAX_BITS = 20

#: Marker / version of the portable kernel snapshot format (see
#: :meth:`BDDManager.save_snapshot`).  The three node columns travel as
#: raw native-endian int64 ``bytes``, which a loading manager adopts
#: wholesale as buffers; :meth:`BDDManager.load_snapshot` rejects any
#: other format or version.
SNAPSHOT_FORMAT = "repro-bdd-kernel"
SNAPSHOT_VERSION = 2

#: The node columns of a snapshot, in checksum and file order.
_COLUMNS = ("levels", "lows", "highs")


def snapshot_checksum(data: Mapping[str, object]) -> str:
    """Canonical sha256 content digest of a snapshot payload.

    Covers everything that determines the reconstructed kernel —
    version, variable order, the raw bytes of the three node columns,
    and the named roots — and deliberately nothing else, so adding
    metadata keys to a snapshot never invalidates existing checksums.
    The columns must be bytes-like (:meth:`BDDManager.load_snapshot`
    checks that before it asks for the digest).
    """
    h = hashlib.sha256()
    h.update(str(data.get("version")).encode())
    for name in data.get("variables") or ():
        h.update(b"\x00")
        h.update(str(name).encode())
    for column in _COLUMNS:
        h.update(b"\x01")
        h.update(data[column])
    roots = data.get("roots")
    if isinstance(roots, Mapping):
        for name in sorted(str(key) for key in roots):
            h.update(b"\x02")
            h.update(f"{name}={roots.get(name)}".encode())
    return h.hexdigest()


def encode_snapshot(snapshot: Mapping[str, object], **header: object) -> bytes:
    """The on-disk form of a :meth:`BDDManager.save_snapshot` dict.

    One JSON header line — every non-column key of ``snapshot``, the
    extra ``header`` keys (e.g. the store's ``tree`` fingerprint), and
    the byte length of each column under ``"columns"`` — followed by
    the three raw columns back to back.  :func:`decode_snapshot`
    reverses it; the sha256 inside the header still covers the columns,
    so bit rot anywhere in the file is caught on load.
    """
    columns = [bytes(snapshot[column]) for column in _COLUMNS]
    head = {
        key: value for key, value in snapshot.items() if key not in _COLUMNS
    }
    head.update(header)
    head["columns"] = {
        column: len(raw) for column, raw in zip(_COLUMNS, columns)
    }
    # json.dumps escapes every newline inside strings, so the header is
    # exactly one line and the first b"\n" ends it.
    return b"".join([json.dumps(head).encode("utf-8"), b"\n", *columns])


def decode_snapshot(data: bytes) -> Dict[str, object]:
    """Split :func:`encode_snapshot` bytes back into a snapshot dict
    (header keys plus ``bytes`` columns).

    Only the framing is checked here; the payload itself is validated
    by :meth:`BDDManager.load_snapshot`.

    Raises:
        SnapshotError: If the header line is missing or is not a JSON
            object, if a column length is missing or negative, or if
            the lengths do not add up to exactly the bytes that follow.
    """
    data = bytes(data)
    newline = data.find(b"\n")
    if newline < 0:
        raise SnapshotError("snapshot bytes have no header line")
    try:
        head = json.loads(data[:newline])
    except (ValueError, RecursionError) as exc:
        raise SnapshotError(f"snapshot header is not JSON: {exc}") from exc
    if not isinstance(head, dict):
        raise SnapshotError(
            f"snapshot header must be a JSON object, got {type(head).__name__}"
        )
    lengths = head.pop("columns", None)
    if not isinstance(lengths, dict) or not all(
        type(lengths.get(column)) is int and lengths[column] >= 0
        for column in _COLUMNS
    ):
        raise SnapshotError(
            f"snapshot header has no valid column lengths: {lengths!r}"
        )
    offset = newline + 1
    if offset + sum(lengths[column] for column in _COLUMNS) != len(data):
        raise SnapshotError(
            f"snapshot column lengths {lengths!r} do not match the "
            f"{len(data) - offset} bytes after the header"
        )
    for column in _COLUMNS:
        head[column] = data[offset:offset + lengths[column]]
        offset += lengths[column]
    return head


def _stamp_snapshot(payload: Dict[str, object]) -> Dict[str, object]:
    """Embed the content checksum into a freshly built snapshot dict."""
    payload["sha256"] = snapshot_checksum(payload)
    return payload


_manager_counter = itertools.count()


@dataclass
class OperationCacheStats:
    """Counters for the manager's memo tables and free negations.

    A *miss* is a recursive call that had to compute its result; a *hit*
    found it in the memo table.  Terminal short-circuits (e.g.
    ``and(0, x)``) never consult a cache and count as neither.
    ``negations`` counts O(1) complement-bit flips — the operation that
    used to be a cached recursive rebuild and is now free; it is kept
    separate from the hit/miss totals because no table is involved.  The
    counters only ever grow, so callers can snapshot/diff them to
    attribute work to a batch of queries.
    """

    apply_hits: int = 0
    apply_misses: int = 0
    ite_hits: int = 0
    ite_misses: int = 0
    restrict_hits: int = 0
    restrict_misses: int = 0
    #: Substitution (``BDDManager.compose``) memo table; the incremental
    #: translator's splice path is built on this primitive, so sweeps of
    #: many variants over one base tree show up as compose hits.
    compose_hits: int = 0
    compose_misses: int = 0
    #: Weighted-evaluation cache (``BDDManager.probability``): a hit is a
    #: traversal cut off at an already-valued node, a miss is one node
    #: whose probability had to be computed.
    prob_hits: int = 0
    prob_misses: int = 0
    #: O(1) complement flips (never a lookup, never an insertion).
    negations: int = 0
    #: Open-addressed unique-table counters: ``ut_collisions`` counts
    #: probe steps beyond the home slot on inserts (probe-length sum),
    #: ``ut_resizes`` counts capacity doublings and GC rebuilds.  They
    #: describe the node store, not a memo table, so they stay outside
    #: the ``hits``/``misses`` totals.
    ut_collisions: int = 0
    ut_resizes: int = 0
    #: Computed-table counters: ``cache_evictions`` counts entries
    #: overwritten by a colliding insert (the tables are lossy and
    #: direct-mapped), ``cache_resizes`` counts capacity doublings.
    cache_evictions: int = 0
    cache_resizes: int = 0

    @property
    def hits(self) -> int:
        """Total memo-table hits across all operations."""
        return (
            self.apply_hits
            + self.ite_hits
            + self.restrict_hits
            + self.compose_hits
            + self.prob_hits
        )

    @property
    def misses(self) -> int:
        """Total memo-table misses across all operations."""
        return (
            self.apply_misses
            + self.ite_misses
            + self.restrict_misses
            + self.compose_misses
            + self.prob_misses
        )

    @property
    def hit_ratio(self) -> float:
        """``hits / (hits + misses)``, or 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (per-op counters plus the totals)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["hits"] = self.hits
        data["misses"] = self.misses
        return data

    def delta(self, earlier: "OperationCacheStats") -> Dict[str, int]:
        """Counter increments since ``earlier`` (an older snapshot view)."""
        return {
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)
        }

    def copy(self) -> "OperationCacheStats":
        return OperationCacheStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )


class _OpCache:
    """One lossy, direct-mapped computed table (CUDD style).

    ``keys``/``vals`` are parallel lists of power-of-two length; an
    entry's slot is a caller-supplied multiplicative hash of the operands
    masked to the table, and its key is the operands packed into one
    integer (``_EDGE_BITS`` bits per edge), so a hit is two list reads
    and an int compare — no tuple allocation, no probing.  Colliding
    inserts simply overwrite (``cache_evictions``): a computed table
    trades completeness for constant-time, constant-memory operation,
    and a dropped entry only ever costs a recomputation.  Sustained
    insert pressure doubles the capacity up to ``_CACHE_MAX_BITS``
    (``cache_resizes``); growth drops the contents rather than rehash —
    slots are derived from the caller's unmasked hash, and the table is
    lossy anyway.

    ``size`` is the capacity; the slots are allocated by the first
    :meth:`put`.  Until then ``keys`` is the one slot ``[None]`` with
    ``mask`` 0, so lookups stay branch-free and always miss, and a
    kernel that never computes (a rewarmed snapshot answering from its
    nodes) holds no slots for the cyclic collector to walk.  Growth and
    :meth:`clear` return to that state, keeping the learned capacity.
    """

    __slots__ = ("keys", "vals", "mask", "size", "occupied", "inserts")

    def __init__(self, bits: int = _CACHE_MIN_BITS) -> None:
        self.size = 1 << bits
        self.clear()

    def __len__(self) -> int:
        return self.occupied

    def put(
        self, stats: OperationCacheStats, h: int, key: int, value: int
    ) -> None:
        """Store ``key -> value`` at the slot of unmasked hash ``h``."""
        if not self.mask:
            self.keys = [None] * self.size
            self.vals = [0] * self.size
            self.mask = self.size - 1
        self.inserts += 1
        keys = self.keys
        slot = h & self.mask
        prior = keys[slot]
        if prior is None:
            self.occupied += 1
        elif prior != key:
            stats.cache_evictions += 1
        keys[slot] = key
        self.vals[slot] = value
        if self.inserts > self.size and self.size < (1 << _CACHE_MAX_BITS):
            self.size *= 2
            self.clear()
            stats.cache_resizes += 1

    def clear(self) -> None:
        self.keys: List[Optional[int]] = [None]
        self.vals: List[int] = [0]
        self.mask = 0
        self.occupied = 0
        self.inserts = 0


class BDDManager:
    """Factory and owner of complement-edge ROBDDs over a named, totally
    ordered variable set.

    Args:
        variables: Initial variable names, in order (level 0 first).

    Example:
        >>> m = BDDManager(["a", "b"])
        >>> f = m.or_(m.var("a"), m.var("b"))
        >>> m.evaluate(f, {"a": False, "b": True})
        True
    """

    def __init__(self, variables: Iterable[str] = ()) -> None:
        self._id = next(_manager_counter)
        self._order: List[str] = []
        self._levels: Dict[str, int] = {}
        # Parallel node arrays: contiguous, growable int64 buffers.
        # Index 0 is the `1` terminal; its child slots are unused
        # placeholders.  Being real buffers (not Python lists), bulk
        # passes can view them zero-copy via numpy and snapshots can
        # serialise them with one memcpy.
        self._level = array("q", [TERMINAL_LEVEL])
        self._low = array("q", [0])
        self._high = array("q", [0])
        # Open-addressed unique table over the node arrays: slots hold a
        # node index or -1 (empty); the key of an occupied slot is the
        # node's (level, low, high) read straight from the arrays.
        # Power-of-two capacity, linear probing, load kept <= 1/2;
        # deletes backward-shift, GC rebuilds tombstone-free.
        self._ut_slots = array("q", [-1]) * _UT_MIN_CAPACITY
        self._ut_mask = _UT_MIN_CAPACITY - 1
        self._ut_count = 0
        self._ut_max_probe = 0
        # Set by a snapshot load, which leaves the slots for the first
        # missing _mk or slot-editing pass (reorder, collect) to build.
        self._ut_unbuilt = False
        # Computed tables (lossy, direct-mapped, packed int keys).  Kept
        # per-operation so clearing one kind of cache (e.g. after
        # reordering) does not touch the others.
        self._apply_cache = _OpCache(_CACHE_MIN_BITS + 2)
        self._ite_cache = _OpCache(_CACHE_MIN_BITS + 2)
        self._restrict_cache = _OpCache()
        self._compose_cache = _OpCache()
        self._exists_cache = _OpCache()
        # Quantified level sets are interned to small ints so the exists
        # computed table can pack (edge, set) into one integer key.
        self._exists_sets: Dict[FrozenSet[int], int] = {}
        self._support_cache: Dict[int, FrozenSet[int]] = {}
        # Weighted-evaluation (probability) caches: per weight *profile*
        # (sorted name->weight tuple), a dense float64 array parallel to
        # the node store mapping *regular* node index -> P[node = 1]
        # (NaN marks "not valued yet").  Keyed on the regular index
        # because P(~f) = 1 - P(f) is free on complement edges, so a
        # function and its negation share one entry.  A bounded LRU of
        # profiles keeps mixed batteries (base profile interleaved with
        # per-query settings) from thrashing each other's entries.  All
        # of it participates in the GC/reordering lifecycle via
        # clear_caches (reclaimed indices may be reused; swaps allocate
        # fresh functions into old slots).  Each array travels with its
        # count of valued entries, so stats never scan for NaNs.
        self._prob_caches: Dict[Tuple[Tuple[str, float], ...], Tuple[array, int]] = {}
        # Fast paths for the hot case of one mapping reused call after
        # call: skip rebuilding the sorted profile key when the weights
        # compare equal to the previous call's (a dict compare in C),
        # and memoise the level->weight projection of the last profile
        # (valid until a swap remaps levels — reset in clear_caches —
        # or a declare appends variables, hence the order-length key).
        self._prob_last_weights: Optional[Dict[str, float]] = None
        self._prob_last_profile: Tuple[Tuple[str, float], ...] = ()
        self._prob_lw_key: Optional[Tuple[Tuple[Tuple[str, float], ...], int]] = None
        self._prob_lw: Dict[int, float] = {}
        # Ref interning: one Ref object per live edge, so identity
        # comparison (`u is manager.false`) works across the public API.
        # The interning is *weak* and callback-free (edge -> weakref.ref):
        # when user code drops the last handle its entry goes stale, and
        # _live_edges sweeps stale entries to yield the collector's roots.
        self._refs: Dict[int, "weakref.ref[Ref]"] = {}
        #: _wrap sweeps at this size: twice what the last sweep kept.
        self._refs_limit = 4
        #: Reclaimed node indices available for reuse by ``_mk``.
        self._free: List[int] = []
        self.true = self._wrap(_TRUE)
        self.false = self._wrap(_FALSE)
        #: High-water mark of *live* stored nodes (stored minus free).
        self._peak_nodes = 1
        #: Hit/miss counters for the memo tables above (monotone).
        self.op_stats = OperationCacheStats()
        # Garbage-collection state (off until configure_memory enables
        # the automatic trigger; collect() always works on demand).
        self._gc_enabled = False
        self._gc_min_trigger = 2048
        self._gc_growth = 2.0
        self._gc_trigger = self._gc_min_trigger
        self._gc_runs = 0
        self._reclaimed = 0
        # Dynamic-reordering state.
        self._auto_reorder = False
        self._reorder_min_trigger = 4096
        self._reorder_trigger = self._reorder_min_trigger
        self._reorder_max_growth = 1.2
        self._auto_reorders = 0
        self._sift_runs = 0
        self._swaps = 0
        # Resource governance (repro.runtime.limits.Governor, or any
        # object with the same tick/check_deadline duck type).  None
        # means ungoverned: the kernel's safe points reduce to one
        # ``is not None`` branch.
        self._governor = None
        self._gov_countdown = 1
        self._gov_stride = _GOV_STRIDE
        self.declare(*variables)

    # ------------------------------------------------------------------
    # Handle plumbing
    # ------------------------------------------------------------------

    def _wrap(self, edge: int) -> Ref:
        """The interned :class:`Ref` for ``edge``.

        The interning entry pins the underlying node for the garbage
        collector for as long as the handle lives.
        """
        entry = self._refs.get(edge)
        ref = entry() if entry is not None else None
        if ref is None:  # no entry, or a stale one to overwrite
            if len(self._refs) >= self._refs_limit:
                self._live_edges()
            ref = Ref(self, edge)
            self._refs[edge] = weakref.ref(ref)
        return ref

    def _live_edges(self) -> Dict[int, "weakref.ref[Ref]"]:
        """Drop interning entries whose Ref died; the rest, keyed by the
        edges of the live handles (the collector's external roots)."""
        refs = {edge: entry for edge, entry in self._refs.items()
                if entry() is not None}
        self._refs = refs
        self._refs_limit = 2 * len(refs)
        return refs

    def _unwrap(self, ref: Ref) -> int:
        """Edge of ``ref``, verifying ownership."""
        try:
            if ref.manager is self:
                return ref.edge
        except AttributeError:
            raise TypeError(f"expected a BDD Ref, got {ref!r}") from None
        raise ManagerMismatchError(
            "combining nodes that belong to different BDD managers"
        )

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def declare(self, *names: str) -> None:
        """Append ``names`` (in the given order) to the variable order.

        Raises:
            VariableError: If a name is already declared or empty.
        """
        for name in names:
            if not name:
                raise VariableError("variable names must be non-empty")
            if name in self._levels:
                raise VariableError(f"variable {name!r} already declared")
            self._levels[name] = len(self._order)
            self._order.append(name)

    @property
    def variables(self) -> Tuple[str, ...]:
        """The current variable order, level 0 first."""
        return tuple(self._order)

    def level_of(self, name: str) -> int:
        """Level (order position) of variable ``name``."""
        try:
            return self._levels[name]
        except KeyError:
            raise VariableError(f"unknown variable {name!r}") from None

    def name_of(self, level: int) -> str:
        """Variable name at ``level``."""
        try:
            return self._order[level]
        except IndexError:
            raise VariableError(f"no variable at level {level}") from None

    def var(self, name: str) -> Ref:
        """Elementary BDD ``B(v)`` with ``Low = 0`` and ``High = 1``
        (the building block of Def. 6)."""
        return self._wrap(self._mk(self.level_of(name), _FALSE, _TRUE))

    def nvar(self, name: str) -> Ref:
        """Elementary negated BDD for ``not name`` (one bit-flip away)."""
        return self._wrap(self._mk(self.level_of(name), _FALSE, _TRUE) ^ 1)

    def constant(self, value: bool) -> Ref:
        """The ``0`` or ``1`` terminal edge."""
        return self.true if value else self.false

    # ------------------------------------------------------------------
    # Open-addressed unique table
    # ------------------------------------------------------------------
    #
    # The table is an ``array('q')`` of slots holding a node index or -1
    # (empty); an occupied slot's key is the node's (level, low, high)
    # read straight from the parallel arrays, so the table itself stores
    # no keys and rebuilding it is pure recomputation.  Capacity is a
    # power of two, probing is linear, and the load factor stays <= 1/2
    # (growth doubles).  Deletion backward-shifts the cluster (Knuth
    # 6.4 R) so the table never accumulates tombstones; GC does a full
    # tombstone-free rebuild sized to the surviving population instead.
    # After a snapshot load that rebuild waits for first use
    # (``_ut_unbuilt``): the first missing ``_mk``, reordering,
    # ``check_invariants`` or a reclaiming ``collect``.

    def _ut_find(self, level: int, low: int, high: int) -> int:
        """Index of the node with this key, or a negative value on miss
        (``-slot - 1`` of the first empty slot probed; node indices in
        the table are always >= 1, so the encodings cannot collide)."""
        slots = self._ut_slots
        mask = self._ut_mask
        lv_a, lo_a, hi_a = self._level, self._low, self._high
        slot = (level * _H1 + low * _H2 + high) & mask
        while True:
            idx = slots[slot]
            if idx < 0:
                return -slot - 1
            if lv_a[idx] == level and lo_a[idx] == low and hi_a[idx] == high:
                return idx
            slot = (slot + 1) & mask

    def _ut_insert(self, level: int, low: int, high: int, index: int) -> None:
        """Insert ``index`` under its key (which the node arrays must
        already hold).  The key must not be present."""
        if (self._ut_count + 1) * 2 > len(self._ut_slots):
            self._ut_grow()
        slots = self._ut_slots
        mask = self._ut_mask
        slot = (level * _H1 + low * _H2 + high) & mask
        probe = 0
        while slots[slot] >= 0:
            probe += 1
            slot = (slot + 1) & mask
        slots[slot] = index
        self._ut_count += 1
        if probe:
            self.op_stats.ut_collisions += probe
            if probe > self._ut_max_probe:
                self._ut_max_probe = probe

    def _ut_delete(self, level: int, low: int, high: int) -> None:
        """Remove the entry with this key (KeyError if absent), closing
        the probe cluster by backward shifting."""
        slots = self._ut_slots
        mask = self._ut_mask
        lv_a, lo_a, hi_a = self._level, self._low, self._high
        slot = (level * _H1 + low * _H2 + high) & mask
        while True:
            idx = slots[slot]
            if idx < 0:
                raise KeyError((level, low, high))
            if lv_a[idx] == level and lo_a[idx] == low and hi_a[idx] == high:
                break
            slot = (slot + 1) & mask
        self._ut_count -= 1
        j = slot
        k = slot
        while True:
            slots[j] = -1
            while True:
                k = (k + 1) & mask
                idx = slots[k]
                if idx < 0:
                    return
                home = (lv_a[idx] * _H1 + lo_a[idx] * _H2 + hi_a[idx]) & mask
                # An entry may fill the hole iff its home slot does not
                # lie (cyclically) strictly between the hole and it.
                if (k - home) & mask >= (k - j) & mask:
                    slots[j] = idx
                    j = k
                    break

    def _ut_grow(self) -> None:
        """Double the capacity, rehashing the *current slot contents*.

        Re-placing what the slots hold (rather than sweeping the store)
        keeps growth safe mid-:meth:`_swap_adjacent`, where the table
        deliberately holds only part of the live store for a moment.
        """
        old = self._ut_slots
        size = len(old) * 2
        slots = array("q", [-1]) * size
        mask = size - 1
        lv_a, lo_a, hi_a = self._level, self._low, self._high
        for idx in old:
            if idx < 0:
                continue
            slot = (lv_a[idx] * _H1 + lo_a[idx] * _H2 + hi_a[idx]) & mask
            while slots[slot] >= 0:
                slot = (slot + 1) & mask
            slots[slot] = idx
        self._ut_slots = slots
        self._ut_mask = mask
        self.op_stats.ut_resizes += 1

    def _ut_rebuild(self) -> None:
        """Tombstone-free rebuild from the live store, sized to the
        surviving population (used by :meth:`collect` and the first
        build after a snapshot load).  With numpy available the per-node
        home slots are precomputed in one vectorised pass over the array
        buffers."""
        level = self._level
        nslots = len(level)
        live = nslots - len(self._free) - 1
        capacity = _ut_capacity(live)
        slots = array("q", [-1]) * capacity
        mask = capacity - 1
        np_mod = _nputil.np
        if np_mod is not None and nslots > 2048:
            lv = np_mod.frombuffer(self._level, dtype=np_mod.int64)
            lo = np_mod.frombuffer(self._low, dtype=np_mod.int64)
            hi = np_mod.frombuffer(self._high, dtype=np_mod.int64)
            # int64 products wrap mod 2^64, which preserves the low
            # ``mask`` bits — identical to the arbitrary-precision slot.
            homes = ((lv * _H1 + lo * _H2 + hi) & mask).tolist()
        else:
            lo_a, hi_a = self._low, self._high
            homes = None
        collisions = 0
        max_probe = self._ut_max_probe
        for idx in range(1, nslots):
            if level[idx] == _FREE_LEVEL:
                continue
            if homes is not None:
                slot = homes[idx]
            else:
                slot = (level[idx] * _H1 + lo_a[idx] * _H2 + hi_a[idx]) & mask
            probe = 0
            while slots[slot] >= 0:
                probe += 1
                slot = (slot + 1) & mask
            slots[slot] = idx
            if probe:
                collisions += probe
                if probe > max_probe:
                    max_probe = probe
        self._ut_slots = slots
        self._ut_mask = mask
        self._ut_count = live
        self._ut_max_probe = max_probe
        self._ut_unbuilt = False
        self.op_stats.ut_collisions += collisions
        self.op_stats.ut_resizes += 1

    # ------------------------------------------------------------------
    # Resource governance
    # ------------------------------------------------------------------

    @property
    def governor(self):
        """The installed :class:`~repro.runtime.limits.Governor`
        (``None`` = ungoverned).  Install one around a unit of work and
        remove it after; the kernel consults it at cheap safe points —
        :meth:`_mk`, the entries of :meth:`ite` / :meth:`compose`, the
        probability sweeps, and between :meth:`sift_inplace` swaps — and
        a tripped budget surfaces as a structured
        :class:`~repro.errors.ResourceLimitError` /
        :class:`~repro.errors.QueryDeadlineError` with the manager left
        consistent (:meth:`check_invariants` passes)."""
        return self._governor

    @governor.setter
    def governor(self, governor) -> None:
        self._governor = governor
        # Deadline/step governors amortise the full check over
        # _GOV_STRIDE allocations (the armed cost per _mk is a
        # decrement and a compare); a node budget wants allocation
        # precision, so it checks every allocation and overshoots by
        # at most one node.  The first governed _mk always runs a full
        # check either way.
        self._gov_stride = (
            1
            if governor is not None
            and getattr(governor, "node_budget", None) is not None
            else _GOV_STRIDE
        )
        self._gov_countdown = 1

    def _governed_abort(self) -> None:
        """Restore cache consistency before a governor trip propagates.

        The node store itself is always consistent at a safe point (the
        tick runs *before* any mutation in :meth:`_mk`, and between
        whole swaps while sifting), but an aborted operation may leave
        memo-table entries for intermediate results whose nodes no Ref
        pins — dropping the caches makes those nodes ordinary GC fodder
        and guarantees no stale entry survives the abort."""
        self.clear_caches()

    def _governed_point(self, live_nodes: int = 0, weight: int = 1) -> None:
        """One governed safe point: tick the installed governor (if
        any), running the abort protocol before a trip propagates."""
        governor = self._governor
        if governor is not None:
            try:
                governor.tick(live_nodes, weight)
            except ExecutionError:
                self._governed_abort()
                raise

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        """The unique reduced edge for ``(level, low, high)``.

        Applies both reduction rules (identical children collapse;
        structurally equal nodes are shared via the unique table) and the
        complement-edge canonical form: a complemented high edge is pushed
        onto both children, and the complement bit returns on the handle.

        Find, allocate and insert run in this one frame: the missed
        find's probe distance is the insert's collision count, and the
        table grows before the slot is allocated.

        Raises:
            VariableError: If the node would violate the variable order.
        """
        if low == high:
            return low
        c = high & 1
        if c:
            # Canonical form: stored high edges are regular.
            low ^= 1
            high ^= 1
        slots, mask = self._ut_slots, self._ut_mask
        lv_a, lo_a, hi_a = self._level, self._low, self._high
        home = slot = (level * _H1 + low * _H2 + high) & mask
        index = slots[slot]
        while index >= 0:
            if lv_a[index] == level and lo_a[index] == low and hi_a[index] == high:
                return (index << 1) | c
            slot = (slot + 1) & mask
            index = slots[slot]
        if self._ut_unbuilt:
            # First miss after a snapshot load: build, look again.
            self._ut_rebuild()
            return self._mk(level, low, high) | c
        # Governed safe point before any mutation, on the allocation
        # path only (node budgets move exactly when nodes are allocated);
        # full checks every _GOV_STRIDE allocations, 1 under a budget.
        if self._governor is not None:
            countdown = self._gov_countdown - 1
            self._gov_countdown = countdown
            if countdown <= 0:
                self._gov_countdown = stride = self._gov_stride
                self._governed_point(len(lv_a) - len(self._free), stride)
        if level >= lv_a[low >> 1] or level >= lv_a[high >> 1]:
            raise VariableError(
                f"node at level {level} must precede its children "
                f"(levels {lv_a[low >> 1]}, {lv_a[high >> 1]})"
            )
        count = self._ut_count + 1
        if count * 2 > mask + 1:
            self._ut_grow()
            slots, mask = self._ut_slots, self._ut_mask
            home = (level * _H1 + low * _H2 + high) & mask
            slot = -self._ut_find(level, low, high) - 1
        free = self._free
        if free:
            index = free.pop()
            lv_a[index] = level
            lo_a[index] = low
            hi_a[index] = high
            live = len(lv_a) - len(free)
        else:
            index = live = len(lv_a)
            lv_a.append(level)
            lo_a.append(low)
            hi_a.append(high)
            live += 1
        slots[slot] = index
        self._ut_count = count
        probe = (slot - home) & mask
        if probe:
            self.op_stats.ut_collisions += probe
            if probe > self._ut_max_probe:
                self._ut_max_probe = probe
        if live > self._peak_nodes:
            self._peak_nodes = live
        return (index << 1) | c

    def mk(self, level: int, low: Ref, high: Ref) -> Ref:
        """Public ``mk``: unique reduced node over :class:`Ref` handles."""
        return self._wrap(self._mk(level, self._unwrap(low), self._unwrap(high)))

    # ------------------------------------------------------------------
    # Core recursions (raw integer edges)
    # ------------------------------------------------------------------

    def _top_key(self, edge: int) -> Tuple[int, int]:
        """Sort key (level, index) for standard-triple normalisation."""
        index = edge >> 1
        return (self._level[index], index)

    def _and_e(self, u: int, v: int) -> int:
        """Conjunction core (the only binary AND-family recursion)."""
        # Terminal / absorption short-cuts keep the cache small.
        if u == v:
            return u
        if u ^ v == 1:  # f and not f
            return _FALSE
        if u == _TRUE:
            return v
        if v == _TRUE:
            return u
        if u == _FALSE or v == _FALSE:
            return _FALSE
        if u > v:  # commutative: one cache entry per unordered pair
            u, v = v, u
        cache = self._apply_cache
        h = u * _H1 + v * _H2
        slot = h & cache.mask
        key = ((u << _EDGE_BITS) | v) << 1  # | _OP_AND (0)
        if cache.keys[slot] == key:
            self.op_stats.apply_hits += 1
            return cache.vals[slot]
        self.op_stats.apply_misses += 1

        level = self._level
        ui, vi = u >> 1, v >> 1
        lu, lv = level[ui], level[vi]
        top = lu if lu < lv else lv
        if lu == top:
            uc = u & 1
            u0, u1 = self._low[ui] ^ uc, self._high[ui] ^ uc
        else:
            u0 = u1 = u
        if lv == top:
            vc = v & 1
            v0, v1 = self._low[vi] ^ vc, self._high[vi] ^ vc
        else:
            v0 = v1 = v
        result = self._mk(top, self._and_e(u0, v0), self._and_e(u1, v1))
        cache.put(self.op_stats, h, key, result)
        return result

    def _xor_e(self, u: int, v: int) -> int:
        """Exclusive-or core; complements of both operands normalise out."""
        # xor(~a, b) == xor(a, ~b) == ~xor(a, b): strip the bits up front.
        out = (u ^ v) & 1
        u &= -2
        v &= -2
        if u == v:
            return _FALSE ^ out
        if u == _TRUE:  # a stripped terminal is the 1 constant
            return v ^ 1 ^ out
        if v == _TRUE:
            return u ^ 1 ^ out
        if u > v:
            u, v = v, u
        cache = self._apply_cache
        h = u * _H1 + v * _H2 + _OP_XOR
        slot = h & cache.mask
        key = (((u << _EDGE_BITS) | v) << 1) | _OP_XOR
        if cache.keys[slot] == key:
            self.op_stats.apply_hits += 1
            return cache.vals[slot] ^ out
        self.op_stats.apply_misses += 1

        level = self._level
        ui, vi = u >> 1, v >> 1
        lu, lv = level[ui], level[vi]
        top = lu if lu < lv else lv
        if lu == top:
            u0, u1 = self._low[ui], self._high[ui]
        else:
            u0 = u1 = u
        if lv == top:
            v0, v1 = self._low[vi], self._high[vi]
        else:
            v0 = v1 = v
        result = self._mk(top, self._xor_e(u0, v0), self._xor_e(u1, v1))
        cache.put(self.op_stats, h, key, result)
        return result ^ out

    def _or_e(self, u: int, v: int) -> int:
        """Disjunction by De Morgan over the AND core (no extra table)."""
        return self._and_e(u ^ 1, v ^ 1) ^ 1

    def _ite_e(self, f: int, g: int, h: int) -> int:
        """If-then-else with Brace/Rudell/Bryant standard-triple
        normalisation over complement edges."""
        # Terminal and absorption rules keep the recursion shallow.
        if f == _TRUE:
            return g
        if f == _FALSE:
            return h
        if g == h:
            return g
        if g == f:  # ite(f, f, h) == ite(f, 1, h)
            g = _TRUE
        elif g == f ^ 1:  # ite(f, ~f, h) == ite(f, 0, h)
            g = _FALSE
        if h == f:  # ite(f, g, f) == ite(f, g, 0)
            h = _FALSE
        elif h == f ^ 1:  # ite(f, g, ~f) == ite(f, g, 1)
            h = _TRUE
        if g == h:
            return g
        if g == _TRUE and h == _FALSE:
            return f
        if g == _FALSE and h == _TRUE:
            return f ^ 1

        # Standard triples: rewrite equivalent calls to one representative
        # so e.g. or(f, h) and or(h, f) share a cache line.
        if g == _TRUE:  # or(f, h) == or(h, f)
            if self._top_key(h) < self._top_key(f):
                f, h = h, f
        elif h == _FALSE:  # and(f, g) == and(g, f)
            if self._top_key(g) < self._top_key(f):
                f, g = g, f
        elif g == _FALSE:  # ite(f, 0, h) == ite(~h, 0, ~f)
            if self._top_key(h) < self._top_key(f):
                f, h = h ^ 1, f ^ 1
        elif h == _TRUE:  # ite(f, g, 1) == ite(~g, ~f, 1)
            if self._top_key(g) < self._top_key(f):
                f, g = g ^ 1, f ^ 1

        # Canonical complement form: regular condition, regular then-branch.
        if f & 1:  # ite(~f, g, h) == ite(f, h, g)
            f ^= 1
            g, h = h, g
        out = g & 1
        if out:  # ite(f, ~g, h) == ~ite(f, g, ~h)
            g ^= 1
            h ^= 1

        cache = self._ite_cache
        ch = f * _H1 + g * _H2 + h
        slot = ch & cache.mask
        key = (((f << _EDGE_BITS) | g) << _EDGE_BITS) | h
        if cache.keys[slot] == key:
            self.op_stats.ite_hits += 1
            return cache.vals[slot] ^ out
        self.op_stats.ite_misses += 1

        level = self._level
        fi, gi, hi = f >> 1, g >> 1, h >> 1
        top = min(level[fi], level[gi], level[hi])
        if level[fi] == top:
            f0, f1 = self._low[fi], self._high[fi]  # f is regular here
        else:
            f0 = f1 = f
        if level[gi] == top:
            g0, g1 = self._low[gi], self._high[gi]  # g is regular here
        else:
            g0 = g1 = g
        if level[hi] == top:
            hc = h & 1
            h0, h1 = self._low[hi] ^ hc, self._high[hi] ^ hc
        else:
            h0 = h1 = h
        result = self._mk(
            top, self._ite_e(f0, g0, h0), self._ite_e(f1, g1, h1)
        )
        cache.put(self.op_stats, ch, key, result)
        return result ^ out

    # ------------------------------------------------------------------
    # Boolean combinators (public surface)
    # ------------------------------------------------------------------

    def apply(self, op: str, u: Ref, v: Ref) -> Ref:
        """Ben-Ari's ``Apply``; result is reduced by construction.

        Only ``and`` and ``xor`` run a recursion; the other connectives
        are O(1) complement rewrites of those two cores, which is the
        complement-edge kernel's structural win over the old per-operator
        recursions.

        Args:
            op: One of ``and or xor xnor nand nor implies``.
            u: Left operand.
            v: Right operand.
        """
        a = self._unwrap(u)
        b = self._unwrap(v)
        if op == "and":
            return self._wrap(self._and_e(a, b))
        if op == "or":
            return self._wrap(self._or_e(a, b))
        if op == "xor":
            return self._wrap(self._xor_e(a, b))
        if op == "xnor":
            return self._wrap(self._xor_e(a, b) ^ 1)
        if op == "nand":
            return self._wrap(self._and_e(a, b) ^ 1)
        if op == "nor":
            return self._wrap(self._or_e(a, b) ^ 1)
        if op == "implies":
            return self._wrap(self._and_e(a, b ^ 1) ^ 1)
        raise ValueError(f"unknown BDD operator {op!r}")

    def and_(self, u: Ref, v: Ref) -> Ref:
        """Conjunction of two BDDs."""
        return self._wrap(self._and_e(self._unwrap(u), self._unwrap(v)))

    def or_(self, u: Ref, v: Ref) -> Ref:
        """Disjunction of two BDDs."""
        return self._wrap(self._or_e(self._unwrap(u), self._unwrap(v)))

    def xor(self, u: Ref, v: Ref) -> Ref:
        """Exclusive or of two BDDs."""
        return self._wrap(self._xor_e(self._unwrap(u), self._unwrap(v)))

    def implies(self, u: Ref, v: Ref) -> Ref:
        """Implication ``u => v`` (``not (u and not v)``)."""
        return self._wrap(
            self._and_e(self._unwrap(u), self._unwrap(v) ^ 1) ^ 1
        )

    def equiv(self, u: Ref, v: Ref) -> Ref:
        """Bi-implication ``u <=> v``."""
        return self._wrap(self._xor_e(self._unwrap(u), self._unwrap(v)) ^ 1)

    def conjoin(self, nodes: Iterable[Ref]) -> Ref:
        """AND of arbitrarily many BDDs (empty conjunction is ``1``)."""
        result = _TRUE
        for node in nodes:
            result = self._and_e(result, self._unwrap(node))
        return self._wrap(result)

    def disjoin(self, nodes: Iterable[Ref]) -> Ref:
        """OR of arbitrarily many BDDs (empty disjunction is ``0``).

        Folded through De Morgan: the accumulator holds the complement of
        the disjunction so far, one AND per operand, one final bit-flip.
        """
        acc = _TRUE
        for node in nodes:
            acc = self._and_e(acc, self._unwrap(node) ^ 1)
        return self._wrap(acc ^ 1)

    def negate(self, u: Ref) -> Ref:
        """Complement a BDD: flip the handle's complement bit.

        O(1) — no traversal, no cache lookup, and crucially **no
        unique-table insertions**: negating never grows the node store
        (the old pointer-linked kernel rebuilt the whole DAG).  The flip
        count is tracked in ``op_stats.negations``.
        """
        edge = self._unwrap(u)
        self.op_stats.negations += 1
        return self._wrap(edge ^ 1)

    def ite(self, cond: Ref, then: Ref, other: Ref) -> Ref:
        """If-then-else ``(cond and then) or (not cond and other)`` as a
        *ternary apply*.

        A single memoised recursion over the three operands (Brace,
        Rudell & Bryant's ``ITE``) with standard-triple normalisation:
        the condition and then-branch of every cached triple are regular
        edges, and commuting forms (``or``, ``and`` expressed as ITE) are
        rewritten to one representative before the lookup.
        """
        self._governed_point()
        return self._wrap(
            self._ite_e(
                self._unwrap(cond), self._unwrap(then), self._unwrap(other)
            )
        )

    def threshold(self, operands: Sequence[Ref], k: int) -> Ref:
        """BDD for "at least ``k`` of ``operands`` hold".

        Implements the VOT(k/N) semantics of Def. 2 / Def. 6 by dynamic
        programming over partial counts instead of the exponential
        disjunction-of-subsets expansion, which it is equivalent to.
        """
        n = len(operands)
        if k <= 0:
            return self.true
        if k > n:
            return self.false
        edges = [self._unwrap(operand) for operand in operands]
        # rows[j] = edge for "at least j of the operands seen so far
        # hold", folded right-to-left.
        rows: List[int] = [_TRUE] + [_FALSE] * k
        for operand in reversed(edges):
            new_rows = [_TRUE]
            for j in range(1, k + 1):
                new_rows.append(self._ite_e(operand, rows[j - 1], rows[j]))
            rows = new_rows
        return self._wrap(rows[k])

    # ------------------------------------------------------------------
    # Restrict / Compose / Rename
    # ------------------------------------------------------------------

    def restrict(self, u: Ref, name: str, value: bool) -> Ref:
        """Ben-Ari's ``Restrict``: fix variable ``name`` to ``value``.

        This implements the BFL evidence operator ``phi[e -> value]``
        (Algorithm 1).
        """
        return self._wrap(
            self._restrict_e(self._unwrap(u), self.level_of(name), int(value))
        )

    def _restrict_e(self, u: int, level: int, value: int) -> int:
        # Restriction commutes with complement; cache on the regular edge.
        c = u & 1
        u ^= c
        if self._level[u >> 1] > level:
            # Terminals and nodes below `level` cannot mention the variable.
            return u ^ c
        cache = self._restrict_cache
        h = u * _H1 + level * _H2 + value
        slot = h & cache.mask
        # Levels are < TERMINAL_LEVEL = 2^31, so 33 bits hold (level,
        # value) and the edge sits above them.
        key = (u << 33) | (level << 1) | value
        if cache.keys[slot] == key:
            self.op_stats.restrict_hits += 1
            return cache.vals[slot] ^ c
        self.op_stats.restrict_misses += 1
        index = u >> 1
        if self._level[index] == level:
            result = self._high[index] if value else self._low[index]
        else:
            result = self._mk(
                self._level[index],
                self._restrict_e(self._low[index], level, value),
                self._restrict_e(self._high[index], level, value),
            )
        cache.put(self.op_stats, h, key, result)
        return result ^ c

    def restrict_many(self, u: Ref, assignment: Mapping[str, bool]) -> Ref:
        """Restrict several variables at once."""
        edge = self._unwrap(u)
        for name, value in assignment.items():
            edge = self._restrict_e(edge, self.level_of(name), int(value))
        return self._wrap(edge)

    def compose(self, u: Ref, name: str, g: Ref) -> Ref:
        """Substitute BDD ``g`` for variable ``name`` in ``u``
        (Shannon expansion: ``ite(g, u[name:=1], u[name:=0])``).

        Runs a dedicated single-pass memoised recursion rather than the
        restrict/restrict/ITE expansion, so repeated substitutions at one
        site (the incremental translator's variant-splice pattern) are a
        cache walk after the first call.  The memo table participates in
        the GC/reordering lifecycle via :meth:`clear_caches`, which makes
        the primitive safe to use across :meth:`checkpoint` boundaries.
        """
        self._governed_point()
        return self._wrap(
            self._compose_e(
                self._unwrap(u), self.level_of(name), self._unwrap(g)
            )
        )

    def _compose_e(self, u: int, level: int, g: int) -> int:
        # Substitution commutes with complement on the host function
        # (compose(~f, x, g) == ~compose(f, x, g)); cache on the regular
        # edge so a function and its negation share entries.  ``g``'s
        # complement bit stays in the key — it changes the result.
        c = u & 1
        u ^= c
        index = u >> 1
        if self._level[index] > level:
            # Terminals and nodes ordered below `level` cannot mention
            # the substituted variable.
            return u ^ c
        if level not in self._support_levels(u):
            # Subgraphs independent of the substituted variable pass
            # through untouched.  The support sets are memoised globally
            # (and survive across compose calls), so a variant sweep
            # substituting many different ``g`` at one site only ever
            # walks the spine that actually depends on it.
            return u ^ c
        cache = self._compose_cache
        h = u * _H1 + level * _H2 + g
        slot = h & cache.mask
        key = (((u << 32) | level) << _EDGE_BITS) | g
        if cache.keys[slot] == key:
            self.op_stats.compose_hits += 1
            return cache.vals[slot] ^ c
        self.op_stats.compose_misses += 1
        top = self._level[index]
        if top == level:
            # Shannon expansion at the substituted variable (stored high
            # edges are regular; the low edge may carry a complement).
            result = self._ite_e(g, self._high[index], self._low[index])
        else:
            r0 = self._compose_e(self._low[index], level, g)
            r1 = self._compose_e(self._high[index], level, g)
            # ``g`` may mention variables ordered *above* `top`, so the
            # branches cannot simply hang under a fresh `top` node;
            # recombining through ITE on the branch variable restores
            # the global order invariant.
            result = self._ite_e(self._mk(top, _FALSE, _TRUE), r1, r0)
        cache.put(self.op_stats, h, key, result)
        return result ^ c

    # -- existential-quantification computed table (used by quantify.py)

    def _exists_set_id(self, levels: FrozenSet[int]) -> int:
        """Intern a quantified level set to a small integer, so the
        exists computed table can use packed ``(edge, set)`` int keys.
        The interning map is dropped with the caches — level sets are
        meaningless across a reorder anyway."""
        sets = self._exists_sets
        sid = sets.get(levels)
        if sid is None:
            if len(sets) >= (1 << 20):
                # Keys reserve 20 bits for the set id; recycling the id
                # space must drop the cache or stale keys could alias.
                sets.clear()
                self._exists_cache.clear()
            sid = len(sets)
            sets[levels] = sid
        return sid

    def _exists_get(self, edge: int, sid: int) -> Optional[int]:
        """Cached exists result for ``(edge, sid)``, or None."""
        cache = self._exists_cache
        slot = (edge * _H1 + sid * _H2) & cache.mask
        key = (edge << 20) | sid
        if cache.keys[slot] == key:
            return cache.vals[slot]
        return None

    def _exists_put(self, edge: int, sid: int, result: int) -> None:
        """Store an exists result for ``(edge, sid)``."""
        self._exists_cache.put(
            self.op_stats, edge * _H1 + sid * _H2, (edge << 20) | sid, result
        )

    def rename(self, u: Ref, mapping: Mapping[str, str]) -> Ref:
        """Rename variables (the paper's ``B[V -> V']`` primed copy).

        The mapping must be *monotone*: if ``a`` is ordered before ``b`` then
        ``mapping[a]`` must be ordered before ``mapping[b]``.  Monotone
        renaming preserves the BDD shape, so it is a linear-time rebuild.
        Use :meth:`compose` repeatedly for non-monotone substitutions.

        Raises:
            VariableError: If the mapping is not monotone.
        """
        edge = self._unwrap(u)
        level_map: Dict[int, int] = {
            self.level_of(src): self.level_of(dst) for src, dst in mapping.items()
        }
        pairs = sorted(level_map.items())
        for (_, prev_dst), (_, next_dst) in zip(pairs, pairs[1:]):
            if prev_dst >= next_dst:
                raise VariableError(
                    "rename mapping must preserve the variable order"
                )
        cache: Dict[int, int] = {}
        return self._wrap(self._rename_e(edge, level_map, cache))

    def _rename_e(
        self, u: int, level_map: Dict[int, int], cache: Dict[int, int]
    ) -> int:
        # Renaming commutes with complement; cache on the regular edge.
        c = u & 1
        u ^= c
        index = u >> 1
        if index == 0:
            return u ^ c
        cached = cache.get(u)
        if cached is not None:
            return cached ^ c
        result = self._mk(
            level_map.get(self._level[index], self._level[index]),
            self._rename_e(self._low[index], level_map, cache),
            self._rename_e(self._high[index], level_map, cache),
        )
        cache[u] = result
        return result ^ c

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def support(self, u: Ref) -> Set[str]:
        """``VarB``: the set of variables occurring in the BDD.

        On a reduced BDD this is exactly the set of variables the function
        *depends on*, which is why Algorithm 1 may implement ``IDP`` via
        support intersection.  Iterative (explicit stack), so deep BDDs
        never hit Python's recursion limit.
        """
        return {
            self.name_of(level)
            for level in self._support_levels(self._unwrap(u))
        }

    def _support_levels(self, edge: int) -> FrozenSet[int]:
        # Support ignores complement bits entirely: work on indices.
        root = edge >> 1
        if root == 0:
            return frozenset()
        cache = self._support_cache
        cached = cache.get(root)
        if cached is not None:
            return cached
        # Fold the uncached part of the DAG bottom-up.
        for index in self._below(edge, known=cache):
            cache[index] = (
                frozenset({self._level[index]})
                | cache.get(self._low[index] >> 1, frozenset())
                | cache.get(self._high[index] >> 1, frozenset())
            )
        return cache[root]

    def evaluate(self, u: Ref, assignment: Mapping[str, bool]) -> bool:
        """Walk from the root following ``assignment`` (Algorithm 2's loop).

        Variables missing from ``assignment`` may only be skipped if the BDD
        does not branch on them.

        Raises:
            KeyError: If the walk reaches a variable not in ``assignment``.
        """
        edge = self._unwrap(u)
        level, low, high, order = self._level, self._low, self._high, self._order
        while edge > _FALSE:
            index = edge >> 1
            child = high[index] if assignment[order[level[index]]] else low[index]
            edge = child ^ (edge & 1)
        return edge == _TRUE

    def _below(self, *roots: int, known: Container[int] = ()) -> List[int]:
        """Indices of the internal nodes reachable from the edges
        ``roots`` without passing through ``known`` ones, deepest level
        first, so every child comes before its parents (children sit at
        strictly greater levels).  Under an installed governor it ticks
        every ``_GOV_STRIDE`` nodes."""
        low, high = self._low, self._high
        seen = {0}
        stack = [root >> 1 for root in roots]
        governed = self._governor is not None
        while stack:
            index = stack.pop()
            if index not in seen and index not in known:
                seen.add(index)
                if governed and not len(seen) % _GOV_STRIDE:
                    self._governed_point(weight=_GOV_STRIDE)
                stack.append(low[index] >> 1)
                stack.append(high[index] >> 1)
        seen.discard(0)
        level = self._level
        return sorted(seen, key=lambda i: -level[i])

    def sat_count(self, u: Ref, over: Optional[Sequence[str]] = None) -> int:
        """Number of satisfying assignments over the variables ``over``
        (default: the manager's full variable set).

        Iterative: reachable nodes are counted in one level-descending
        sweep, so deep BDDs never hit Python's recursion limit.  Counts
        of complemented edges fall out of ``|~f| = 2^k - |f|``.
        """
        root = self._unwrap(u)
        names = list(over) if over is not None else list(self._order)
        levels = sorted(self.level_of(name) for name in names)
        position = {level: i for i, level in enumerate(levels)}
        n = len(levels)

        reachable = self._below(root)
        for index in reachable:
            if self._level[index] not in position:
                raise VariableError(
                    f"BDD mentions {self.name_of(self._level[index])!r}, "
                    "which is outside the counting scope"
                )

        # counts[i] = satisfying assignments of the *regular* edge of node
        # i over levels[position(i):].
        counts: Dict[int, int] = {}

        def edge_count(edge: int, from_pos: int) -> int:
            if edge == _TRUE:
                return 1 << (n - from_pos)
            if edge == _FALSE:
                return 0
            index = edge >> 1
            pos = position[self._level[index]]
            value = counts[index] << (pos - from_pos)
            if edge & 1:
                value = (1 << (n - from_pos)) - value
            return value

        for index in reachable:
            pos = position[self._level[index]]
            counts[index] = edge_count(self._low[index], pos + 1) + edge_count(
                self._high[index], pos + 1
            )
        return edge_count(root, 0)

    def probability(self, u: Ref, weights: Mapping[str, float]) -> float:
        """P[f = 1] under independent per-variable success weights.

        The weighted model count of Rauzy's classical algorithm, run
        directly on raw integer edges: for a node at level ``x`` with
        weight ``p``, ``P(node) = p * P(high) + (1 - p) * P(low)``, and a
        complemented edge costs nothing because ``P(~f) = 1 - P(f)``.

        Iterative (explicit stack + level-descending sweep, the same
        shape as :meth:`sat_count`), so deep BDDs never hit Python's
        recursion limit.  Results are memoised in a *manager-level* cache
        keyed on the regular node index: repeated queries against the
        same weight profile — the batch-service hot path — only ever pay
        for nodes not already valued.  A small LRU of per-profile caches
        is kept, so a battery that interleaves a base profile with
        per-query setting overrides does not thrash; GC and in-place
        reordering drop all of them at their existing safe points (part
        of :meth:`clear_caches`).

        Args:
            u: The function to measure.
            weights: Per-variable probability of being ``1``.  Variables
                outside the BDD's support may be omitted.

        Raises:
            MissingWeightError: If the BDD branches on a variable that
                has no weight.
        """
        root = self._unwrap(u)
        index = root >> 1
        if index == 0:
            return 0.0 if root & 1 else 1.0
        if self._prob_last_weights == weights:
            profile = self._prob_last_profile
        else:
            profile = tuple(
                sorted((name, float(p)) for name, p in weights.items())
            )
            self._prob_last_weights = dict(weights)
            self._prob_last_profile = profile
        lw_key = (profile, len(self._order))
        if self._prob_lw_key == lw_key:
            level_weight = self._prob_lw
        else:
            level_weight = {}
            for name, p in profile:
                lv = self._levels.get(name)
                if lv is not None:
                    level_weight[lv] = p
            self._prob_lw_key = lw_key
            self._prob_lw = level_weight
        caches = self._prob_caches
        # Popped for LRU recency; (re-)inserted only after a successful
        # sweep, so a MissingWeightError neither evicts a populated
        # profile nor registers a useless empty one.  Each cache is a
        # dense float64 array parallel to the node store (NaN = not
        # valued), extended when the store has grown since last use.
        entry = caches.pop(profile, None)
        fresh = entry is None
        nslots = len(self._level)
        cache, valued = entry or (array("d", [nan]) * nslots, 0)
        if len(cache) < nslots:
            cache.extend(array("d", [nan]) * (nslots - len(cache)))
        stats = self.op_stats
        governed = self._governor is not None
        if cache[index] == cache[index]:  # NaN-check: valued already?
            stats.prob_hits += 1
        else:
            try:
                level, low, high = self._level, self._low, self._high
                # Phase 1: collect the reachable *uncached* part of the
                # DAG (descent stops at valued nodes, like the support
                # sweep).
                pending: List[int] = []
                seen = {index}
                stack = [index]
                while stack:
                    i = stack.pop()
                    if i == 0:
                        continue
                    if cache[i] == cache[i]:
                        stats.prob_hits += 1
                        continue
                    if level[i] not in level_weight:
                        raise MissingWeightError(
                            f"no weight for BDD variable "
                            f"{self.name_of(level[i])!r}"
                        )
                    pending.append(i)
                    if governed and not len(pending) % _GOV_STRIDE:
                        # Strided safe point: nothing mutated yet this
                        # sweep.
                        self._governed_point(weight=_GOV_STRIDE)
                    for child_edge in (low[i], high[i]):
                        child = child_edge >> 1
                        if child not in seen:
                            seen.add(child)
                            stack.append(child)
            except MissingWeightError:
                if not fresh:
                    # Phase 1 wrote nothing: the popped cache is intact.
                    caches[profile] = entry
                raise
            # Phase 2: children sit at strictly greater levels, so a
            # level-descending sweep values them before their parents.
            pending.sort(key=lambda i: -level[i])
            for start in range(0, len(pending), _GOV_STRIDE):
                if governed:
                    # Strided safe point: an abort drops the popped
                    # cache whole (it is only re-registered after a
                    # full sweep).
                    self._governed_point(weight=_GOV_STRIDE)
                for i in pending[start : start + _GOV_STRIDE]:
                    p = level_weight[level[i]]
                    lo = low[i]
                    lv = 1.0 if lo >> 1 == 0 else cache[lo >> 1]
                    if lo & 1:
                        lv = 1.0 - lv
                    hi = high[i]  # stored high edges are regular
                    hv = 1.0 if hi >> 1 == 0 else cache[hi >> 1]
                    cache[i] = p * hv + (1.0 - p) * lv
            stats.prob_misses += len(pending)
            valued += len(pending)
        if fresh:
            while len(caches) >= _PROB_PROFILE_LIMIT:
                del caches[next(iter(caches))]  # evict least recently used
        caches[profile] = (cache, valued)  # (re-)insert as most recent
        value = cache[index]
        return 1.0 - value if root & 1 else value

    def probability_many(
        self,
        u: Union[Ref, Sequence[Ref]],
        profiles: Sequence[Mapping[str, float]],
    ) -> List:
        """P[f = 1] under **many** weight profiles in one traversal.

        The vectorised counterpart of :meth:`probability`: the reachable
        DAG is collected once, sorted children-first (descending level),
        and then every profile is evaluated simultaneously — with numpy,
        one ``(nodes, profiles)`` value matrix is filled level block by
        level block (``V = w * V[high] + (1 - w) * V[low]``, complement
        edges folded as ``c + (1 - 2c) * V``), so the per-node Python
        interpreter cost is paid once rather than once per profile.
        Without numpy a single pure-Python traversal still evaluates all
        profiles per node, which beats repeated :meth:`probability`
        calls on traversal overhead alone.

        ``u`` may also be a *sequence* of Refs: the union of their
        reachable DAGs is swept once (shared nodes are evaluated once
        for the whole battery) and one row of probabilities is returned
        per root — the shape a multi-root battery wants, since profile
        validation and the weight matrix are likewise paid once.

        Deliberately stateless: results are not written to the
        per-profile :meth:`probability` caches (a sweep's profiles are
        typically one-shot — variant batteries, sensitivity grids — and
        would only thrash the LRU).

        Args:
            u: The function to measure, or a sequence of functions.
            profiles: Per-profile mappings of variable name -> weight.
                Variables outside the BDDs' support may be omitted.

        Returns:
            One probability per profile, in order — or, for a sequence
            of roots, one such list per root.

        Raises:
            MissingWeightError: If a BDD branches on a variable some
                profile carries no weight for.
        """
        single = isinstance(u, Ref)
        roots = [self._unwrap(u)] if single else [self._unwrap(r) for r in u]
        profiles = list(profiles)
        nprof = len(profiles)

        def _shape(rows: List[List[float]]):
            return rows[0] if single else rows

        if not roots:
            return []
        if nprof == 0:
            return _shape([[] for _ in roots])
        level, low, high = self._level, self._low, self._high
        # Phase 1: the union of the reachable DAGs.  Descending-level
        # order is children-first, and nodes of one level block never
        # reference each other: the block recurrence below is
        # well-defined.
        pending = self._below(*roots)
        if not pending:
            # Every root is a terminal edge.
            return _shape(
                [[0.0 if root & 1 else 1.0] * nprof for root in roots]
            )
        # Per-profile weight rows over the used levels, validated before
        # any arithmetic so a missing weight fails like probability().
        lv_sorted = sorted({level[i] for i in pending})
        names = [self.name_of(lv) for lv in lv_sorted]
        weight_rows: List[List[float]] = []
        for j, weights in enumerate(profiles):
            row = []
            for name in names:
                if name not in weights:
                    raise MissingWeightError(
                        f"no weight for BDD variable {name!r} "
                        f"in profile {j}"
                    )
                row.append(float(weights[name]))
            weight_rows.append(row)
        lvrow = {lv: r for r, lv in enumerate(lv_sorted)}
        np_mod = _nputil.np
        if np_mod is not None:
            np = np_mod
            n = len(pending)
            pos = {0: 0}
            for k, i in enumerate(pending):
                pos[i] = k + 1
            lowpos = np.empty(n, dtype=np.intp)
            lowc = np.empty(n, dtype=np.float64)
            highpos = np.empty(n, dtype=np.intp)
            wrow = np.empty(n, dtype=np.intp)
            for k, i in enumerate(pending):
                le = low[i]
                he = high[i]  # stored high edges are regular (invariant)
                lowpos[k] = pos[le >> 1]
                lowc[k] = le & 1
                highpos[k] = pos[he >> 1]
                wrow[k] = lvrow[level[i]]
            # Row 0 is the terminal (value 1.0); node k fills row k + 1.
            value = np.empty((n + 1, nprof), dtype=np.float64)
            value[0] = 1.0
            weight = np.asarray(weight_rows, dtype=np.float64).T[wrow]
            lv_arr = [level[i] for i in pending]
            start = 0
            while start < n:
                lv = lv_arr[start]
                end = start + 1
                while end < n and lv_arr[end] == lv:
                    end += 1
                sl = slice(start, end)
                lval = value[lowpos[sl]]
                comp = lowc[sl][:, None]
                lval = comp + (1.0 - 2.0 * comp) * lval
                hval = value[highpos[sl]]
                w = weight[sl]
                value[start + 1 : end + 1] = w * hval + (1.0 - w) * lval
                start = end
            rows = []
            for root in roots:
                out = value[pos[root >> 1]]
                if root & 1:
                    out = 1.0 - out
                rows.append([float(x) for x in out])
            return _shape(rows)
        # Pure-Python fallback: same sweep, a list of per-profile values
        # per node (all profiles advanced in one traversal).
        level_w = {
            lv: [weight_rows[p][r] for p in range(nprof)]
            for r, lv in enumerate(lv_sorted)
        }
        vals: Dict[int, List[float]] = {0: [1.0] * nprof}
        for i in pending:
            le = low[i]
            he = high[i]
            lval = vals[le >> 1]
            if le & 1:
                lval = [1.0 - x for x in lval]
            hval = vals[he >> 1]
            ws = level_w[level[i]]
            vals[i] = [
                w * hv + (1.0 - w) * lv_
                for w, hv, lv_ in zip(ws, hval, lval)
            ]
        rows = []
        for root in roots:
            out_list = vals[root >> 1]
            if root & 1:
                out_list = [1.0 - x for x in out_list]
            rows.append([float(x) for x in out_list])
        return _shape(rows)

    def node_count(self) -> int:
        """Number of live stored nodes (unique table plus the ``1``
        terminal); free-listed slots are not counted.

        With complement edges a function and its negation share every
        node, so this is typically about half the size the pre-refactor
        pointer kernel reported for negation-heavy workloads.
        """
        return len(self._level) - len(self._free)

    def peak_node_count(self) -> int:
        """High-water mark of :meth:`node_count` over the manager's
        lifetime.  With garbage collection reclaiming dead nodes, this can
        sit well below the total number of slots ever allocated."""
        return self._peak_nodes

    def check_invariants(self) -> None:
        """Verify the kernel's canonical-form invariants; raise
        ``AssertionError`` on violation.

        Checked for every live stored node: the high edge is regular
        (complement bits only ever sit on low edges and external
        handles), children are distinct and live, levels strictly
        increase towards the leaves, and the unique table maps back to
        the node.  Free-listed slots must be exactly the holes in the
        index space, and every externally referenced index must be live.
        Used by the property-test suite; cheap enough to call in
        debugging sessions (O(nodes)).
        """
        if self._ut_unbuilt:
            self._ut_rebuild()
        assert len(self._level) == len(self._low) == len(self._high), "node columns differ in length"
        holes = 0
        for index in range(1, len(self._level)):
            level = self._level[index]
            if level == _FREE_LEVEL:
                holes += 1
                continue
            low, high = self._low[index], self._high[index]
            assert high & 1 == 0, f"node {index} stores a complemented high edge"
            assert low != high, f"node {index} has identical children"
            assert self._level[low >> 1] != _FREE_LEVEL, (
                f"node {index} references the freed slot {low >> 1}"
            )
            assert self._level[high >> 1] != _FREE_LEVEL, (
                f"node {index} references the freed slot {high >> 1}"
            )
            assert level < self._level[low >> 1], f"node {index} breaks the order"
            assert level < self._level[high >> 1], f"node {index} breaks the order"
            assert self._ut_find(level, low, high) == index, (
                f"node {index} missing from the unique table"
            )
        assert holes == len(self._free), "free list out of sync with the store"
        assert len(self._free) == len(set(self._free)), "free list has duplicates"
        for index in self._free:
            assert self._level[index] == _FREE_LEVEL, (
                f"free-listed slot {index} still holds a live node"
            )
        assert self._ut_count == self.node_count() - 1
        entries = [idx for idx in self._ut_slots if idx >= 0]
        assert len(entries) == self._ut_count, (
            "unique-table slot population out of sync with its count"
        )
        assert len(set(entries)) == len(entries), (
            "unique table holds duplicate slot entries"
        )
        for idx in entries:
            assert self._level[idx] != _FREE_LEVEL, (
                f"unique table references the freed slot {idx}"
            )
        assert len(self._ut_slots) >= 2 * self._ut_count, (
            "unique table over its load factor"
        )
        for edge, entry in self._live_edges().items():
            ref = entry()
            assert ref is None or ref.edge == edge, (
                "interning table maps an edge to a foreign Ref"
            )
            index = edge >> 1
            assert index == 0 or self._level[index] != _FREE_LEVEL, (
                f"live Ref points at the freed slot {index}"
            )

    def cache_stats(self) -> Dict[str, int]:
        """Operation-cache counters plus current table sizes.

        The hit/miss counters are :attr:`op_stats` (monotone for the
        manager's lifetime, even across :meth:`clear_caches`); the
        ``*_cache_size`` entries are the live memo-table populations, and
        ``unique_table_size`` / ``live_nodes`` / ``peak_live_nodes``
        describe the node store itself; ``gc_runs`` / ``reclaimed`` /
        ``swaps`` / ``sift_runs`` / ``auto_reorders`` are the monotone
        memory-management counters.  Every entry is a kept count: O(1)
        per call.  What the next :meth:`collect` would reclaim needs a
        mark pass: ``node_count() - reachable_node_count()``.
        """
        data = self.op_stats.snapshot()
        data["apply_cache_size"] = len(self._apply_cache)
        data["ite_cache_size"] = len(self._ite_cache)
        data["restrict_cache_size"] = len(self._restrict_cache)
        data["compose_cache_size"] = len(self._compose_cache)
        data["prob_cache_size"] = sum(
            valued for _, valued in self._prob_caches.values()
        )
        data["prob_profiles"] = len(self._prob_caches)
        data["unique_table_size"] = self._ut_count
        data["unique_capacity"] = (  # as the first build will size it
            _ut_capacity(self._ut_count)
            if self._ut_unbuilt else len(self._ut_slots)
        )
        data["ut_max_probe"] = self._ut_max_probe
        data["cache_capacity"] = (
            self._apply_cache.size
            + self._ite_cache.size
            + self._restrict_cache.size
            + self._compose_cache.size
            + self._exists_cache.size
        )
        data["live_nodes"] = self.node_count()
        data["peak_live_nodes"] = self._peak_nodes
        data["free_list"] = len(self._free)
        data["gc_runs"] = self._gc_runs
        data["reclaimed"] = self._reclaimed
        data["swaps"] = self._swaps
        data["sift_runs"] = self._sift_runs
        data["auto_reorders"] = self._auto_reorders
        return data

    def clear_caches(self) -> None:
        """Drop all operation memo tables (the unique table is kept).

        The probability cache is keyed on node indices, so it must go
        whenever indices can be reclaimed or rewired — :meth:`collect`
        (after any reclaim), :meth:`swap` and :meth:`sift_inplace` all
        come through here.
        """
        self._apply_cache.clear()
        self._ite_cache.clear()
        self._restrict_cache.clear()
        self._compose_cache.clear()
        self._exists_cache.clear()
        self._exists_sets.clear()
        self._support_cache.clear()
        self._prob_caches.clear()
        # The level->weight memo maps *levels*, whose meaning a swap
        # just changed; the profile fast path (name-keyed) stays valid.
        self._prob_lw_key = None
        self._prob_lw = {}

    # ------------------------------------------------------------------
    # Portable kernel snapshots
    # ------------------------------------------------------------------

    def save_snapshot(
        self, roots: Optional[Mapping[str, Ref]] = None
    ) -> Dict[str, object]:
        """Serialise the node store into a portable snapshot dict.

        The snapshot captures exactly the canonical kernel state — the
        variable order and the ``(level, low, high)`` parallel arrays —
        plus a mapping of *named root edges* so callers can find their
        functions again after :meth:`load_snapshot`.  Complement bits
        travel inside the tagged edges, so a complemented root reloads
        complemented.  Deliberately **excluded**: every memo table (apply/
        ITE/restrict/exists/support/probability caches) and all GC/
        reordering counters — caches are keyed on node indices and level
        meanings that only hold inside one process lifetime, and they are
        pure accelerators the target manager rebuilds on demand (see
        DESIGN.md).

        Node slots are compacted on the way out: free-list holes vanish
        and live indices are remapped to a dense, children-first
        (descending-level) numbering, which is what lets
        :meth:`load_snapshot` rebuild the store in one append-only pass.
        The three node arrays are emitted as raw native-endian int64
        ``bytes`` — one ``memcpy`` out of the compacted buffers, adopted
        wholesale on load — and the payload records ``sys.byteorder`` so
        a foreign-endian payload fails loudly instead of silently
        misreading.  :func:`encode_snapshot` turns the dict into file
        bytes; pickle carries it across process boundaries as is.

        Args:
            roots: Named handles to preserve.  When given, only nodes
                reachable from these roots are saved (dead and unrelated
                nodes are left behind); when omitted, every live stored
                node is saved and ``roots`` is empty in the result.

        Returns:
            A version-2 snapshot dict with a ``sha256`` content checksum.
        """
        level, low, high = self._level, self._low, self._high
        root_edges: Dict[str, int] = {}
        marked = None
        if roots is not None:
            for name, ref in roots.items():
                root_edges[str(name)] = self._unwrap(ref)
            marked, _ = self._mark(edge >> 1 for edge in root_edges.values())
        # Children sit at strictly greater levels, so descending-level
        # order lists every child before its parents; ties (one level)
        # cannot be related, and the index tie-break keeps it stable.
        np_mod = _nputil.np
        if np_mod is not None:
            np = np_mod
            lv_view = np.frombuffer(level, dtype=np.int64)
            if marked is not None:
                keep = np.frombuffer(marked, dtype=np.uint8) != 0
            else:
                keep = lv_view != _FREE_LEVEL
            live = np.nonzero(keep)[0][1:]
            # lexsort: last key is primary (descending level, then index).
            live = live[np.lexsort((live, -lv_view[live]))]
            remap = np.zeros(len(level), dtype=np.int64)
            remap[live] = np.arange(1, len(live) + 1)
            lo_live = np.frombuffer(low, dtype=np.int64)[live]
            hi_live = np.frombuffer(high, dtype=np.int64)[live]
            columns = (
                lv_view[live],
                (remap[lo_live >> 1] << 1) | (lo_live & 1),
                (remap[hi_live >> 1] << 1) | (hi_live & 1),
            )
        else:
            if marked is None:
                marked = [lv != _FREE_LEVEL for lv in level]
            live = [index for index in range(1, len(level)) if marked[index]]
            live.sort(key=lambda i: (-level[i], i))
            remap = {0: 0}
            for position, index in enumerate(live):
                remap[index] = position + 1
            columns = (
                array("q", [level[i] for i in live]),
                array("q", [
                    (remap[low[i] >> 1] << 1) | (low[i] & 1) for i in live
                ]),
                array("q", [
                    (remap[high[i] >> 1] << 1) | (high[i] & 1) for i in live
                ]),
            )
        payload: Dict[str, object] = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "variables": list(self._order),
            "byteorder": sys.byteorder,
            "roots": {
                name: int((remap[edge >> 1] << 1) | (edge & 1))
                for name, edge in root_edges.items()
            },
        }
        for column, values in zip(_COLUMNS, columns):
            payload[column] = values.tobytes()
        return _stamp_snapshot(payload)

    @classmethod
    def load_snapshot(
        cls, data: Mapping[str, object]
    ) -> Tuple["BDDManager", Dict[str, Ref]]:
        """Rebuild a fresh manager (plus its named roots) from a
        :meth:`save_snapshot` dict.

        The mandatory ``sha256`` content checksum is verified first, so
        a truncated or bit-flipped payload is reported as corruption
        (:class:`~repro.errors.SnapshotIntegrityError`), not as whichever
        shape check it happens to trip.  Then every canonical-form
        invariant is re-validated — regular stored high edges, distinct
        children, strictly increasing levels, no duplicate ``(level,
        low, high)`` triples, children preceding parents — so a reloaded
        manager passes :meth:`check_invariants` or the load fails loudly.
        Caches start cold and automatic GC/reordering starts disarmed
        (configure them via :meth:`configure_memory` as usual).

        Raises:
            SnapshotError: On any malformed or foreign payload.
        """
        if not isinstance(data, Mapping):
            raise SnapshotError(
                f"snapshot must be a mapping, got {type(data).__name__}"
            )
        if data.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"not a kernel snapshot (format={data.get('format')!r}, "
                f"expected {SNAPSHOT_FORMAT!r})"
            )
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version!r} "
                f"(this kernel reads version {SNAPSHOT_VERSION})"
            )
        declared = data.get("sha256")
        if not isinstance(declared, str):
            raise SnapshotIntegrityError(
                "snapshot payload carries no sha256 content checksum"
            )
        variables = data.get("variables")
        if not isinstance(variables, list) or not all(
            isinstance(name, str) for name in variables
        ):
            raise SnapshotError("snapshot 'variables' must be a list of names")
        for column in _COLUMNS:
            if not isinstance(data.get(column), (bytes, bytearray)):
                raise SnapshotError(f"snapshot {column!r} must be bytes")
        actual = snapshot_checksum(data)
        if declared != actual:
            raise SnapshotIntegrityError(
                "snapshot payload failed its sha256 content checksum "
                f"(stored {declared[:16]}…, computed {actual[:16]}…): "
                "corrupt or truncated snapshot"
            )
        byteorder = data.get("byteorder")
        if byteorder != sys.byteorder:
            raise SnapshotError(
                f"snapshot byte order {byteorder!r} does not match this "
                f"host ({sys.byteorder!r})"
            )
        decoded = []
        for column in _COLUMNS:
            raw = data[column]
            if len(raw) % 8:
                raise SnapshotError(
                    f"snapshot {column!r} is not a whole number of int64 "
                    "values"
                )
            decoded.append(array("q", raw))
        levels, lows, highs = decoded
        raw_roots = data.get("roots", {})
        if not isinstance(raw_roots, Mapping):
            raise SnapshotError("snapshot 'roots' must be a mapping")
        if not len(levels) == len(lows) == len(highs):
            raise SnapshotError(
                "snapshot node arrays disagree in length "
                f"({len(levels)}/{len(lows)}/{len(highs)})"
            )

        try:
            manager = cls(variables)
        except VariableError as exc:  # empty or duplicate names
            raise SnapshotError(f"snapshot 'variables': {exc}") from exc
        n_vars = len(manager._order)
        np_mod = _nputil.np
        if np_mod is not None and len(levels) and cls._validate_arrays_np(
            np_mod, levels, lows, highs, n_vars
        ):
            # Bulk adoption: every invariant vectorised-verified above,
            # so the three buffers append onto the node arrays in one
            # memcpy each.  The unique table waits for its first use
            # (``_ut_unbuilt``); answers read off the adopted roots never
            # probe it.
            manager._level.extend(levels)
            manager._low.extend(lows)
            manager._high.extend(highs)
            manager._peak_nodes = len(levels) + 1
            manager._ut_slots = array("q", [-1])
            manager._ut_mask = 0
            manager._ut_count = len(levels)
            manager._ut_unbuilt = True
        else:
            # Pure-Python path (and the precise-diagnosis path when the
            # vectorised validator saw anything suspect): node-by-node
            # checks with exact per-node error messages.
            for position, (lv, lo, hi) in enumerate(zip(levels, lows, highs)):
                index = position + 1
                if not 0 <= lv < n_vars:
                    raise SnapshotError(
                        f"node {index}: level {lv} outside the "
                        f"{n_vars}-variable order"
                    )
                for label, edge in (("low", lo), ("high", hi)):
                    if edge < 0 or (edge >> 1) >= index:
                        raise SnapshotError(
                            f"node {index}: {label} edge {edge} does not "
                            "reference an earlier snapshot node"
                        )
                if hi & 1:
                    raise SnapshotError(
                        f"node {index}: stored high edge is complemented"
                    )
                if lo == hi:
                    raise SnapshotError(f"node {index}: identical children")
                if (
                    lv >= manager._level[lo >> 1]
                    or lv >= manager._level[hi >> 1]
                ):
                    raise SnapshotError(
                        f"node {index}: level {lv} does not precede its "
                        "children"
                    )
                prior = manager._mk(lv, lo, hi) >> 1
                if prior != index:
                    raise SnapshotError(f"node {index}: duplicates node {prior}")
        roots: Dict[str, Ref] = {}
        # Every root stays live in ``roots``: no sweep while interning.
        manager._refs_limit = 2 * (len(raw_roots) + len(manager._refs))
        for name, edge in raw_roots.items():
            # bool is an int subclass; a root carrying `true` where an
            # edge belongs is corrupt, not convertible.
            if isinstance(edge, bool) or not isinstance(edge, int):
                raise SnapshotError(
                    f"root {name!r} must be an integer, got {edge!r}"
                )
            if edge < 0 or (edge >> 1) > len(levels):
                raise SnapshotError(
                    f"root {name!r}: edge {edge} points outside the store"
                )
            roots[str(name)] = manager._wrap(edge)
        return manager, roots

    @staticmethod
    def _validate_arrays_np(np, levels, lows, highs, n_vars: int) -> bool:
        """Vectorised snapshot validation: True iff every node passes
        every canonical-form check.  Returns False (never raises) on any
        violation, handing off to the per-node Python loop for an exact
        diagnostic."""
        lv = np.frombuffer(levels, dtype=np.int64)
        lo = np.frombuffer(lows, dtype=np.int64)
        hi = np.frombuffer(highs, dtype=np.int64)
        n = len(lv)
        positions = np.arange(n, dtype=np.int64)
        if not (
            bool(((lv >= 0) & (lv < n_vars)).all())
            and bool((lo >= 0).all())
            and bool((hi >= 0).all())
            and bool(((lo >> 1) <= positions).all())
            and bool(((hi >> 1) <= positions).all())
            and bool((hi & 1 == 0).all())
            and bool((lo != hi).all())
        ):
            return False
        # Strict level order: children (earlier snapshot positions, or
        # the terminal at pseudo-position 0) sit at greater levels.
        full = np.empty(n + 1, dtype=np.int64)
        full[0] = TERMINAL_LEVEL
        full[1:] = lv
        if not (
            bool((lv < full[lo >> 1]).all())
            and bool((lv < full[hi >> 1]).all())
        ):
            return False
        # No two nodes may share a (level, low, high) key.
        order = np.lexsort((hi, lo, lv))
        slv, slo, shi = lv[order], lo[order], hi[order]
        dup = (
            (slv[1:] == slv[:-1])
            & (slo[1:] == slo[:-1])
            & (shi[1:] == shi[:-1])
        )
        return not bool(dup.any())

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _mark(self, roots: Iterable[int]) -> Tuple[bytearray, int]:
        """Mark every node reachable from the node indices ``roots``.

        Returns ``(marked, count)`` where ``marked[index]`` is 1 for
        reachable indices (the terminal always counts) and ``count`` is
        the number of marked indices.
        """
        low, high = self._low, self._high
        marked = bytearray(len(self._level))
        marked[0] = 1
        count = 1
        stack = []
        for index in roots:
            if not marked[index]:
                marked[index] = 1
                count += 1
                stack.append(index)
        while stack:
            index = stack.pop()
            for child in (low[index] >> 1, high[index] >> 1):
                if not marked[child]:
                    marked[child] = 1
                    count += 1
                    stack.append(child)
        return marked, count

    def _mark_external(self) -> Tuple[bytearray, int]:
        """:meth:`_mark` from every node with a live external Ref.

        Roots are the edges of the live interned handles.
        """
        return self._mark([edge >> 1 for edge in self._live_edges()])

    def reachable_node_count(self) -> int:
        """Stored nodes reachable from live external Refs (terminal
        included) — the exact post-:meth:`collect` value of
        ``node_count``."""
        return self._mark_external()[1]

    def collect(self) -> int:
        """Mark-and-sweep garbage collection; returns the reclaim count.

        Roots are the node indices with at least one live :class:`Ref`
        handle (of either polarity) in the interning table.
        Every unreachable node leaves the unique table and its index goes
        on the free list for :meth:`_mk` to reuse.  Operation memo tables
        are dropped whenever anything was reclaimed — cached entries may
        mention reclaimed indices, and a reused index would otherwise
        alias a stale result.  The unique table itself only ever holds
        live keys afterwards, so lookups stay exact with holes in the
        index space.
        """
        marked, _ = self._mark_external()
        level = self._level
        free = self._free
        dead = 0
        for index in range(1, len(level)):
            if level[index] != _FREE_LEVEL and not marked[index]:
                level[index] = _FREE_LEVEL
                free.append(index)
                dead += 1
        if dead:
            self.clear_caches()
            # Tombstone-free rebuild sized to the survivors: reclaiming
            # per-key would backward-shift every cluster the dead nodes
            # sat in; one sweep over the store is cheaper and leaves a
            # collision-free table.
            self._ut_rebuild()
        self._gc_runs += 1
        self._reclaimed += dead
        self._gc_trigger = max(
            self._gc_min_trigger, int(self._gc_growth * self.node_count())
        )
        return dead

    def maybe_collect(self) -> int:
        """Run :meth:`collect` iff automatic GC is on and the live count
        has crossed the adaptive trigger (``gc_growth`` times the working
        set left by the previous collection)."""
        if self._gc_enabled and self.node_count() >= self._gc_trigger:
            return self.collect()
        return 0

    def configure_memory(
        self,
        *,
        auto_gc: Optional[bool] = None,
        gc_trigger: Optional[int] = None,
        gc_growth: Optional[float] = None,
        auto_reorder: Optional[bool] = None,
        reorder_trigger: Optional[int] = None,
        reorder_max_growth: Optional[float] = None,
    ) -> None:
        """Tune the automatic memory-management triggers.

        Args:
            auto_gc: Enable/disable the :meth:`maybe_collect` trigger.
            gc_trigger: Live-node count that arms the next collection
                (default: ``gc_growth`` x the current working set).
            gc_growth: Headroom factor applied after every collection
                (peak live nodes stay below roughly this multiple of the
                steady-state working set).
            auto_reorder: Enable/disable the :meth:`maybe_reorder`
                trigger.
            reorder_trigger: Live-node count that arms the next automatic
                :meth:`sift_inplace`.
            reorder_max_growth: Max-growth factor handed to the sifter.
        """
        if gc_growth is not None:
            if gc_growth <= 1.0:
                raise ValueError("gc_growth must be > 1")
            self._gc_growth = gc_growth
        if auto_gc is not None:
            self._gc_enabled = auto_gc
        if gc_trigger is not None:
            self._gc_min_trigger = max(1, int(gc_trigger))
            self._gc_trigger = self._gc_min_trigger
        elif auto_gc:
            self._gc_trigger = max(
                self._gc_min_trigger, int(self._gc_growth * self.node_count())
            )
        if auto_reorder is not None:
            self._auto_reorder = auto_reorder
        if reorder_trigger is not None:
            self._reorder_min_trigger = max(2, int(reorder_trigger))
            self._reorder_trigger = self._reorder_min_trigger
        if reorder_max_growth is not None:
            if reorder_max_growth <= 1.0:
                raise ValueError("reorder_max_growth must be > 1")
            self._reorder_max_growth = reorder_max_growth

    def maybe_reorder(self) -> bool:
        """Run one automatic :meth:`sift_inplace` round iff auto-reorder
        is on and live nodes crossed the trigger; the next trigger then
        backs off (CUDD-style) so reordering amortises."""
        if not self._auto_reorder or self.node_count() < self._reorder_trigger:
            return False
        self._auto_reorders += 1
        self.sift_inplace(max_rounds=1, max_growth=self._reorder_max_growth)
        self._reorder_trigger = max(
            self._reorder_min_trigger, 4 * self.node_count()
        )
        return True

    def checkpoint(self) -> None:
        """Safe point for automatic memory management.

        Node indices held as raw integers inside an in-flight recursion
        must never be reclaimed or rewired under it, so the automatic
        triggers only ever fire here — between whole operations — where
        every live function is pinned by a Ref.  The translation layers
        (:class:`~repro.ft.to_bdd.TreeTranslator`,
        :class:`~repro.service.batch.BatchAnalyzer`) call this between
        elements/queries; a no-op (two int compares) while both automatic
        features are disabled.
        """
        if self._gc_enabled:
            self.maybe_collect()
        if self._auto_reorder:
            self.maybe_reorder()

    # ------------------------------------------------------------------
    # In-place dynamic reordering (adjacent-level swap + Rudell sifting)
    # ------------------------------------------------------------------

    def _reorder_context(self) -> Tuple[List[int], Dict[int, Set[int]]]:
        """Parent counts and per-level membership for a reordering
        session (O(nodes) to build, maintained incrementally across
        swaps).  Each live Ref counts as one more parent of its node, so
        a node is dead exactly when its count reaches zero."""
        if self._ut_unbuilt:  # swaps edit the slots directly
            self._ut_rebuild()
        nslots = len(self._level)
        parents = [0] * nslots
        for edge in self._live_edges():
            parents[edge >> 1] += 1
        members: Dict[int, Set[int]] = {}
        level, low, high = self._level, self._low, self._high
        for index in range(1, nslots):
            lv = level[index]
            if lv == _FREE_LEVEL:
                continue
            members.setdefault(lv, set()).add(index)
            parents[low[index] >> 1] += 1
            parents[high[index] >> 1] += 1
        return parents, members

    def _swap_alloc(
        self, level: int, low: int, high: int, parents: List[int]
    ) -> int:
        """Allocate a node slot during a swap (a hole reclaimed by
        :meth:`collect` first), maintaining peak-live and parent counts;
        unique-table insertion is the caller's job."""
        free = self._free
        if free:
            index = free.pop()
            self._level[index] = level
            self._low[index] = low
            self._high[index] = high
        else:
            index = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
        self._peak_nodes = max(self._peak_nodes, len(self._level) - len(free))
        if index >= len(parents):
            parents.extend([0] * (index + 1 - len(parents)))
        parents[index] = 0
        parents[low >> 1] += 1
        parents[high >> 1] += 1
        return index

    def _swap_mk(
        self,
        level: int,
        low: int,
        high: int,
        parents: List[int],
        bucket: Set[int],
    ) -> int:
        """``mk`` restricted to swap rewiring: unique-table sharing plus
        the canonical complement push, no order validation (the caller
        guarantees children sit strictly below ``level``)."""
        if low == high:
            return low
        c = high & 1
        if c:
            low ^= 1
            high ^= 1
        index = self._ut_find(level, low, high)
        if index < 0:
            index = self._swap_alloc(level, low, high, parents)
            self._ut_insert(level, low, high, index)
            bucket.add(index)
        return (index << 1) | c

    def _swap_adjacent(
        self, i: int, parents: List[int], members: Dict[int, Set[int]]
    ) -> None:
        """Exchange variable levels ``i`` and ``i + 1`` in place.

        The correctness argument (see docs/ARCHITECTURE.md for the long
        form): every pre-existing index keeps denoting the same Boolean
        function, so parents above and external Refs never need
        forwarding.  Nodes of the lower level move up unchanged (their
        children sit strictly below both levels); upper-level nodes that
        do not branch on the swapped variable move down unchanged; the
        interacting ones are rewired through the Shannon quadrants
        ``F = y ? (x ? F11 : F01) : (x ? F10 : F00)``.  The rewired high
        child is always regular — its high quadrant comes from a stored
        high edge — so the stored polarity of the rewired node (what
        parents and Refs see) never flips.  Lower-level nodes that lose
        their last parent are reclaimed immediately, which keeps memory
        flat across a sifting session.
        """
        j = i + 1
        level, low, high = self._level, self._low, self._high
        x_nodes = members.get(i, set())
        y_nodes = members.get(j, set())
        # Both levels leave the unique table; everything re-enters below
        # under its post-swap key.
        for idx in x_nodes:
            self._ut_delete(i, low[idx], high[idx])
        for idx in y_nodes:
            self._ut_delete(j, low[idx], high[idx])
        # Lower-level nodes keep their children and move up one level
        # (their variable now sits at level i).
        for idx in y_nodes:
            level[idx] = i
            self._ut_insert(i, low[idx], high[idx], idx)
        new_i = set(y_nodes)
        new_j: Set[int] = set()
        members[i] = new_i
        members[j] = new_j
        # Upper-level nodes independent of the swapped variable move down
        # unchanged; the rest are rewired in place.
        rewire: List[int] = []
        for idx in x_nodes:
            if (low[idx] >> 1) in y_nodes or (high[idx] >> 1) in y_nodes:
                rewire.append(idx)
            else:
                level[idx] = j
                assert self._ut_find(j, low[idx], high[idx]) < 0
                self._ut_insert(j, low[idx], high[idx], idx)
                new_j.add(idx)
        for idx in rewire:
            e0, e1 = low[idx], high[idx]  # e1 is regular (invariant)
            i0, i1 = e0 >> 1, e1 >> 1
            if i0 in y_nodes:
                c0 = e0 & 1
                f00, f01 = low[i0] ^ c0, high[i0] ^ c0
            else:
                f00 = f01 = e0
            if i1 in y_nodes:
                f10, f11 = low[i1], high[i1]
            else:
                f10 = f11 = e1
            h0 = self._swap_mk(j, f00, f10, parents, new_j)
            h1 = self._swap_mk(j, f01, f11, parents, new_j)
            # f11 is a stored high edge (or e1 itself), hence regular —
            # so h1 is regular and idx keeps its canonical stored form.
            low[idx] = h0
            high[idx] = h1
            assert self._ut_find(i, h0, h1) < 0
            self._ut_insert(i, h0, h1, idx)
            new_i.add(idx)
            parents[h0 >> 1] += 1
            parents[h1 >> 1] += 1
            parents[i0] -= 1
            parents[i1] -= 1
        # The two levels exchange variables.
        a, b = self._order[i], self._order[j]
        self._order[i], self._order[j] = b, a
        self._levels[a], self._levels[b] = j, i
        self._swaps += 1
        # Old lower-level nodes that lost their last parent (a live Ref
        # counts as one) are dead; reclaim them now.  The cascade can
        # only reach strictly deeper nodes, whose other parents keep them
        # alive in the common case.
        free = self._free
        stack = [idx for idx in y_nodes if parents[idx] == 0]
        while stack:
            idx = stack.pop()
            lv = level[idx]
            self._ut_delete(lv, low[idx], high[idx])
            members[lv].discard(idx)
            for child_edge in (low[idx], high[idx]):
                child = child_edge >> 1
                if child:
                    parents[child] -= 1
                    if parents[child] == 0:
                        stack.append(child)
            level[idx] = _FREE_LEVEL
            free.append(idx)

    def swap(self, level: int) -> None:
        """Swap adjacent variable levels ``level`` and ``level + 1`` in
        place (the primitive under :meth:`sift_inplace`).

        Only nodes on the two affected levels are *rewired*; every
        pre-existing node index keeps denoting the same Boolean function,
        so live :class:`Ref` handles remain valid without remapping.  All
        operation memo tables are dropped: restrict/exists entries are
        keyed on levels whose meaning just changed, and reclaimed indices
        may be reused.

        Note the per-call overhead: this public convenience rebuilds the
        parent-count/membership context with one O(nodes) sweep and
        clears the memo tables each time.  A custom schedule of many
        swaps should go through :meth:`sift_inplace` (or its
        ``variables`` restriction), which shares one context across the
        whole session.

        Raises:
            VariableError: If ``level`` is not an adjacent pair start.
        """
        if not 0 <= level < len(self._order) - 1:
            raise VariableError(
                f"no adjacent level pair at {level} "
                f"(have {len(self._order)} variables)"
            )
        parents, members = self._reorder_context()
        self._swap_adjacent(level, parents, members)
        self.clear_caches()

    def move_to_level(self, name: str, level: int) -> None:
        """Move ``name`` to position ``level`` via in-place adjacent
        swaps; variables in between shift one position toward the
        vacated slot.

        Like :meth:`swap`, every pre-existing node index keeps denoting
        the same Boolean function, so live :class:`Ref` handles stay
        valid.  Moving a variable with no nodes (e.g. a placeholder the
        splice path just declared) only relabels the levels it crosses
        — no node is rewired — which is what makes "declare at the end,
        park where it belongs" a cheap idiom.  A no-op move keeps all
        memo tables; a real one drops them (they are keyed on levels).

        Raises:
            VariableError: If ``name`` is undeclared or ``level`` is out
                of range.
        """
        current = self._levels.get(name)
        if current is None:
            raise VariableError(f"cannot move undeclared variable {name!r}")
        if not 0 <= level < len(self._order):
            raise VariableError(
                f"target level {level} out of range "
                f"(have {len(self._order)} variables)"
            )
        if current == level:
            return
        parents, members = self._reorder_context()
        while current > level:
            self._swap_adjacent(current - 1, parents, members)
            current -= 1
        while current < level:
            self._swap_adjacent(current, parents, members)
            current += 1
        self.clear_caches()

    def sift_inplace(
        self,
        *,
        max_rounds: int = 2,
        max_growth: float = 1.2,
        variables: Optional[Sequence[str]] = None,
        lower_bound: bool = True,
        order_by_size: bool = False,
    ) -> int:
        """Rudell's sifting (ICCAD'93) on the in-place swap primitive.

        Each variable in turn is moved through every position of the
        order via adjacent swaps — nearer end first, then the other end —
        and parked at the best position seen.  Rounds repeat until no
        variable improves the total or ``max_rounds`` is exhausted.
        Unlike the rebuild-based search this never reconstructs the BDD:
        a full sift of n variables costs O(n) swaps per variable, each
        touching two levels only.

        A :meth:`collect` runs first so the size metric counts live nodes
        only, and swaps reclaim nodes that die under them, so memory
        stays flat for the whole session.

        Args:
            max_rounds: Maximum number of passes over all variables.
            max_growth: Abort a direction once the total grows past this
                factor of the variable's starting size (Rudell's
                ``maxGrowth``).
            variables: Restrict sifting to these variables (default:
                all).  Useful when part of the order is pinned by an
                external contract (e.g. primed-copy pairing).
                Undeclared names raise ``VariableError`` (consistent
                with every other name-taking manager API).
            lower_bound: Stop a direction early when even deleting every
                node of the sifted variable could not beat the best size
                seen (cheap version of CUDD's lower bound; exact for the
                give-up decision, heuristic in that later positions could
                in principle shrink other levels).
            order_by_size: Process variables most-populated-first
                (Rudell's original schedule; prunes more aggressively on
                big managers).  The default processes them in the current
                variable order, which follows the search trajectory of
                the historical rebuild-based ``sift`` closely — hill
                climbing is path-dependent, so this is what keeps the
                results comparable to (and on the reference trees no
                larger than) the rebuild search, as the benchmark gate
                checks *empirically*; with pruning active there is no
                universal never-larger guarantee.

        Returns:
            The live node count after sifting.
        """
        n = len(self._order)
        if n < 2:
            return self.node_count()
        self.collect()
        self.clear_caches()
        parents, members = self._reorder_context()
        self._sift_runs += 1
        for _ in range(max_rounds):
            improved = False
            if variables is None:
                candidates = list(self._order)
            else:
                known = set(self._order)
                unknown = [v for v in variables if v not in known]
                if unknown:
                    raise VariableError(
                        f"cannot sift undeclared variables: {unknown!r}"
                    )
                candidates = list(dict.fromkeys(variables))
            if order_by_size:
                # Rudell's schedule: most populated variables first.
                candidates.sort(
                    key=lambda v: -len(members.get(self._levels[v], ()))
                )
            for name in candidates:
                # Governed safe point between whole variables: a trip
                # here leaves the order mid-sift but every invariant
                # intact (swaps are atomic; the session context is
                # discarded with the abort).
                self._governed_point(self.node_count())
                before = self.node_count()
                self._sift_one(name, parents, members, max_growth, lower_bound)
                if self.node_count() < before:
                    improved = True
            if not improved:
                break
        self.clear_caches()
        return self.node_count()

    def _sift_one(
        self,
        name: str,
        parents: List[int],
        members: Dict[int, Set[int]],
        max_growth: float,
        lower_bound: bool,
    ) -> None:
        """Move ``name`` through the order and park it at the best
        position seen (one step of Rudell sifting)."""
        n = len(self._order)
        lvl = self._levels[name]
        size = self.node_count()
        best_size, best_lvl = size, lvl
        limit = max(int(size * max_growth), size + 2)

        def run(direction: int, stop: int) -> None:
            nonlocal lvl, size, best_size, best_lvl
            while lvl != stop:
                at = lvl if direction > 0 else lvl - 1
                self._swap_adjacent(at, parents, members)
                lvl += direction
                size = self.node_count()
                # Between whole swaps the store is consistent: a
                # governed abort here skips the park-back but leaves a
                # valid (if unoptimised) order behind.
                self._governed_point(size)
                if size < best_size:
                    best_size, best_lvl = size, lvl
                if size > limit:
                    break
                if (
                    lower_bound
                    and size - len(members.get(lvl, ())) >= best_size
                ):
                    break

        if lvl <= n - 1 - lvl:  # nearer the top: explore upwards first
            run(-1, 0)
            run(+1, n - 1)
        else:
            run(+1, n - 1)
            run(-1, 0)
        # Park the variable at the best position seen.
        while lvl < best_lvl:
            self._swap_adjacent(lvl, parents, members)
            lvl += 1
        while lvl > best_lvl:
            self._swap_adjacent(lvl - 1, parents, members)
            lvl -= 1
