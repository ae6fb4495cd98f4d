"""Hostile bytes against the two snapshot parse surfaces.

Kernel snapshots reach disk (and come back) only through
:func:`~repro.bdd.manager.encode_snapshot` /
:func:`~repro.bdd.manager.decode_snapshot`, and the warm cache tier
reads them back as ``<fingerprint>.snap`` store entries.  Both surfaces
must treat any byte string as data, never as a crash:

* ``decode_snapshot`` followed by ``BDDManager.load_snapshot`` either
  yields a manager that passes ``check_invariants`` or raises a
  :class:`~repro.errors.SnapshotError` (the integrity subclass included)
  with a structured ``error_kind``;
* ``SnapshotStore.get`` either returns an entry or returns ``None`` and
  counts the file under ``malformed``.

The inputs are real encoded snapshots, truncated, bit-flipped, spliced
with random bytes, or with one header value replaced by arbitrary JSON.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from repro.bdd.manager import decode_snapshot, encode_snapshot
from repro.casestudy import build_covid_tree
from repro.errors import SnapshotError, error_kind
from repro.ft import TreeTranslator, figure1_tree
from repro.service import SnapshotStore, tree_fingerprint

HOSTILE = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _encoded(fault_tree, **header):
    manager = BDDManager(fault_tree.basic_events)
    translator = TreeTranslator(fault_tree, manager)
    translator.element(fault_tree.top)
    snapshot = manager.save_snapshot(roots=translator.export_cache())
    return encode_snapshot(snapshot, **header)


COVID = build_covid_tree()
FINGERPRINT = tree_fingerprint(COVID)
#: Intact inputs: bare snapshots of two trees and one store entry.
SNAPSHOTS = (_encoded(figure1_tree()), _encoded(COVID))
ENTRY = _encoded(COVID, tree=FINGERPRINT)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
HEADER_KEYS = (
    "format", "version", "variables", "byteorder", "roots", "sha256",
    "columns", "tree",
)


def _flip(data, flips):
    mutable = bytearray(data)
    for position, mask in flips:
        mutable[position % len(mutable)] ^= mask
    return bytes(mutable)


def _replace_header_value(data, key, value):
    newline = data.index(b"\n")
    head = json.loads(data[:newline])
    head[key] = value
    return json.dumps(head).encode() + data[newline:]


def hostile(data):
    """Strategy: damaged variants of the intact encoding ``data``."""
    size = len(data)
    positions = st.integers(0, size - 1)
    return st.one_of(
        positions.map(lambda cut: data[:cut]),
        st.lists(
            st.tuples(positions, st.integers(1, 255)), min_size=1, max_size=8
        ).map(lambda flips: _flip(data, flips)),
        st.tuples(positions, positions, st.binary(max_size=64)).map(
            lambda s: data[: min(s[:2])] + s[2] + data[max(s[:2]):]
        ),
        st.tuples(st.sampled_from(HEADER_KEYS), JSON_VALUES).map(
            lambda kv: _replace_header_value(data, *kv)
        ),
        st.binary(max_size=256),
    )


class TestHostileSnapshotBytes:
    @pytest.mark.parametrize("data", SNAPSHOTS, ids=["fig1", "covid"])
    def test_intact_encoding_loads(self, data):
        manager, roots = BDDManager.load_snapshot(decode_snapshot(data))
        manager.check_invariants()
        assert roots

    @HOSTILE
    @given(data=st.sampled_from(SNAPSHOTS).flatmap(hostile))
    def test_decode_then_load_loads_or_raises_snapshot_error(self, data):
        _load_or_snapshot_error(data)

    @HOSTILE
    @given(
        data=st.sampled_from(SNAPSHOTS),
        key=st.sampled_from(HEADER_KEYS),
        value=JSON_VALUES,
    )
    def test_any_header_value_loads_or_raises_snapshot_error(
        self, data, key, value
    ):
        _load_or_snapshot_error(_replace_header_value(data, key, value))


def _load_or_snapshot_error(data):
    try:
        manager, _ = BDDManager.load_snapshot(decode_snapshot(data))
    except SnapshotError as exc:
        assert error_kind(exc)
    else:
        manager.check_invariants()


class TestHostileStoreEntries:
    def test_intact_entry_is_a_hit(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.entry_path(FINGERPRINT).write_bytes(ENTRY)
        entry = store.get(FINGERPRINT)
        assert entry["tree"] == FINGERPRINT
        BDDManager.load_snapshot(entry["kernel"])

    @HOSTILE
    @given(data=hostile(ENTRY))
    def test_get_returns_entry_or_counts_malformed(
        self, tmp_path_factory, data
    ):
        store = SnapshotStore(tmp_path_factory.mktemp("store"))
        store.entry_path(FINGERPRINT).write_bytes(data)
        entry = store.get(FINGERPRINT)
        stats = store.stats()
        if entry is None:
            assert stats["malformed"] == 1
        else:
            assert stats["hits"] == 1 and stats["malformed"] == 0
            assert entry["tree"] == FINGERPRINT
            assert isinstance(entry["kernel"], dict)
