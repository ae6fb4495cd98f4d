"""The session pool's write decision: eviction and drain write a kernel
into the snapshot store only when the store does not already hold it.

A session loaded from its store entry, or last written to it, is clean
while its element roots and variable order are unchanged and the entry
file still exists; evicting a clean session drops it without a write.
"""

from __future__ import annotations

import pytest

from repro.ft import figure1_tree
from repro.errors import SnapshotError
from repro.service import AnalysisSession, SnapshotStore, kernel_key
from repro.service.pool import SessionPool, build_session
from repro.testing.chaos import corrupt_store_entry


@pytest.fixture()
def store(tmp_path):
    return SnapshotStore(tmp_path / "kernels")


@pytest.fixture()
def trees(covid):
    return {"covid": covid, "fig1": figure1_tree()}


def puts(store):
    return store.stats()["puts"]


def cold(tree, name="s"):
    """A cold-built session with its whole tree translated."""
    session = AnalysisSession(name, tree)
    session.checker.translator.tree_translator.top()
    return session


def rewarm(store, tree, name="s"):
    """A session warm-started from ``tree``'s store entry."""
    entry = store.get(kernel_key(tree))
    assert entry is not None
    return AnalysisSession(name, tree, snapshot=entry["kernel"])


def seed(store, tree):
    """Write ``tree``'s fully translated kernel into the store."""
    store.put(kernel_key(tree), cold(tree).kernel_snapshot())


def evict(pool, key, session, tree):
    """Adopt ``session`` into a capacity-1 pool and push it out again by
    adopting a filler under another key.  Returns the pool's stats
    delta (evictions, persisted)."""
    before = pool.stats()
    pool.adopt(key, session, fingerprint=kernel_key(tree))
    pool.release(key)
    filler = f"{key}-filler"
    pool.adopt(filler, AnalysisSession("filler", tree))
    pool.release(filler)
    pool.discard(filler)
    after = pool.stats()
    assert key not in pool
    return (
        after["evictions"] - before["evictions"],
        after["persisted"] - before["persisted"],
    )


class TestEvictionWrites:
    def test_rewarmed_unchanged_session_is_not_rewritten(self, store, covid):
        seed(store, covid)
        session = rewarm(store, covid)
        assert session.checker.check(f"exists {covid.top}")
        pool = SessionPool(1, store=store)
        before = puts(store)
        assert evict(pool, "covid", session, covid) == (1, 0)
        assert puts(store) == before

    def test_translating_a_new_element_makes_the_eviction_write(
        self, store, covid
    ):
        # The entry holds one gate's subtree; the battery then
        # translates the whole tree.
        partial = AnalysisSession("s", covid)
        gate = covid.children(covid.top)[0]
        partial.checker.translator.tree_translator.element(gate)
        store.put(kernel_key(covid), partial.kernel_snapshot())
        session = rewarm(store, covid)
        held = set(session.checker.translator.tree_translator.cached_elements)
        session.checker.check(f"exists {covid.top}")
        pool = SessionPool(1, store=store)
        before = puts(store)
        assert evict(pool, "covid", session, covid) == (1, 1)
        assert puts(store) == before + 1
        roots = rewarm(store, covid).checker.translator.tree_translator
        assert set(roots.cached_elements) > held
        assert covid.top in roots.cached_elements

    def test_entry_deleted_after_the_load_is_written_again(
        self, store, covid
    ):
        seed(store, covid)
        session = rewarm(store, covid)
        assert store.delete(kernel_key(covid))
        pool = SessionPool(1, store=store)
        assert evict(pool, "covid", session, covid) == (1, 1)
        assert kernel_key(covid) in store

    def test_reordered_kernel_is_written(self, store, covid):
        seed(store, covid)
        session = rewarm(store, covid)
        manager = session.checker.manager
        manager.move_to_level(manager.variables[0], 1)
        pool = SessionPool(1, store=store)
        assert evict(pool, "covid", session, covid) == (1, 1)

    def test_written_session_is_clean_until_it_changes(self, store, covid):
        pool = SessionPool(1, store=store)
        session = cold(covid)
        assert evict(pool, "covid", session, covid) == (1, 1)
        # Pooled again after its write: nothing new, nothing written.
        assert evict(pool, "covid", session, covid) == (1, 0)

    def test_cold_built_session_always_writes(self, store, covid):
        seed(store, covid)
        pool = SessionPool(1, store=store)
        before = puts(store)
        assert evict(pool, "covid", cold(covid), covid) == (1, 1)
        assert puts(store) == before + 1

    def test_snapshot_degraded_to_cold_always_writes(self, store, covid):
        seed(store, covid)
        corrupt_store_entry(store, kernel_key(covid), seed=3)
        warnings = []
        session, warm = build_session(
            "s",
            covid,
            snapshot=store.get(kernel_key(covid))["kernel"],
            warnings=warnings,
        )
        assert not warm and warnings
        assert session.stored_state is None
        pool = SessionPool(1, store=store)
        assert evict(pool, "covid", session, covid) == (1, 1)
        # The write repaired the rotted entry.
        assert rewarm(store, covid).stored_state is not None


class TestPersistAll:
    def test_drain_writes_only_the_changed_sessions(self, store, trees):
        for tree in trees.values():
            seed(store, tree)
        pool = SessionPool(4, store=store)
        covid, fig1 = trees["covid"], trees["fig1"]
        clean = rewarm(store, covid, "covid")
        clean_key = kernel_key(covid)
        pool.adopt(clean_key, clean, fingerprint=clean_key)
        # fig1: rewarmed from an entry without the top event's BDD.
        partial = AnalysisSession("fig1", fig1)
        partial.checker.translator.tree_translator.element(
            fig1.children(fig1.top)[0]
        )
        fig1_key = kernel_key(fig1)
        store.put(fig1_key, partial.kernel_snapshot())
        dirty = rewarm(store, fig1, "fig1")
        dirty.checker.translator.tree_translator.top()
        pool.adopt(fig1_key, dirty, fingerprint=fig1_key)
        # A cold session under an overrides-salted key of the same tree.
        pool.adopt(f"{clean_key}:w", cold(covid), fingerprint=clean_key)
        before = puts(store)
        assert pool.persist_all() == 2
        assert puts(store) == before + 2
        assert pool.stats()["persisted"] == 2
        # A second drain finds nothing left to write.
        assert pool.persist_all() == 0
        assert puts(store) == before + 2


class TestStoreKeys:
    """Only a lowercase sha256 hex digest names an entry: keys double as
    file names, so anything else could reach outside the directory."""

    @pytest.mark.parametrize("key", [
        "A" * 64, "a" * 63, "a" * 65, "a" * 64 + "\n", "../" + "a" * 61,
        "٠" * 64, "g" * 64, "",
    ])
    def test_other_keys_are_refused(self, store, key):
        with pytest.raises(SnapshotError, match="not a kernel key"):
            store.entry_path(key)

    def test_digest_names_its_entry_file(self, store, covid):
        key = kernel_key(covid)
        assert store.entry_path(key).name == f"{key}.snap"
        assert key not in store
        seed(store, covid)
        assert key in store and store.fingerprints() == [key]
