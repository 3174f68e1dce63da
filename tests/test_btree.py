"""Unit and property tests: Foster B-tree (Figures 2 and 3)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree.keys import common_prefix, shortest_separator, strip_prefix
from repro.btree.node import BTreeNode
from repro.btree.verify import collect_leaf_coverage, verify_tree
from repro.errors import BTreeError, DuplicateKey, KeyNotFound
from repro.engine.database import Database
from tests.conftest import fast_config


@pytest.fixture
def db() -> Database:
    return Database(fast_config(page_size=1024, capacity_pages=2048,
                                buffer_capacity=256))


@pytest.fixture
def tree(db):
    return db.create_index()


class TestKeyArithmetic:
    def test_common_prefix(self):
        assert common_prefix(b"abcdef", b"abcxyz") == b"abc"
        assert common_prefix(b"abc", b"abc") == b"abc"
        assert common_prefix(b"abc", b"xyz") == b""
        assert common_prefix(b"", b"abc") == b""

    def test_shortest_separator_basic(self):
        sep = shortest_separator(b"apple", b"banana")
        assert b"apple" < sep <= b"banana"
        assert sep == b"b"

    def test_shortest_separator_shared_prefix(self):
        sep = shortest_separator(b"userAAA", b"userBBB")
        assert sep == b"userB"

    def test_shortest_separator_left_is_prefix(self):
        sep = shortest_separator(b"abc", b"abcd")
        assert b"abc" < sep <= b"abcd"

    def test_shortest_separator_requires_order(self):
        with pytest.raises(ValueError):
            shortest_separator(b"b", b"a")
        with pytest.raises(ValueError):
            shortest_separator(b"same", b"same")

    @given(left=st.binary(min_size=1, max_size=20),
           right=st.binary(min_size=1, max_size=20))
    def test_separator_property(self, left, right):
        if left == right:
            return
        lo, hi = min(left, right), max(left, right)
        sep = shortest_separator(lo, hi)
        assert lo < sep <= hi
        assert len(sep) <= len(hi)

    def test_strip_prefix(self):
        assert strip_prefix(b"abcdef", b"abc") == b"def"
        with pytest.raises(ValueError):
            strip_prefix(b"xyz", b"abc")


class TestBasicOperations:
    def test_insert_lookup(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"hello", b"world")
        db.commit(txn)
        assert tree.lookup(b"hello") == b"world"

    def test_lookup_missing_raises(self, tree):
        with pytest.raises(KeyNotFound):
            tree.lookup(b"ghost")

    def test_duplicate_insert_rejected(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"k", b"1")
        with pytest.raises(DuplicateKey):
            tree.insert(txn, b"k", b"2")
        db.commit(txn)

    def test_empty_key_rejected(self, db, tree):
        txn = db.begin()
        with pytest.raises(BTreeError):
            tree.insert(txn, b"", b"v")
        db.commit(txn)

    def test_oversized_entry_rejected(self, db, tree):
        txn = db.begin()
        with pytest.raises(BTreeError):
            tree.insert(txn, b"k", b"v" * 2000)
        db.commit(txn)

    def test_update_changes_value(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"k", b"old")
        tree.update(txn, b"k", b"new")
        db.commit(txn)
        assert tree.lookup(b"k") == b"new"

    def test_update_missing_raises(self, db, tree):
        txn = db.begin()
        with pytest.raises(KeyNotFound):
            tree.update(txn, b"nope", b"v")
        db.commit(txn)

    def test_delete_hides_key(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        tree.delete(txn, b"k")
        db.commit(txn)
        with pytest.raises(KeyNotFound):
            tree.lookup(b"k")

    def test_delete_is_ghosting(self, db, tree):
        """Logical deletion leaves a ghost record (Section 5.1.5)."""
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        tree.delete(txn, b"k")
        db.commit(txn)
        root = db.get_root(tree.index_id)
        page = db.fix(root)
        node = BTreeNode(page)
        ghosts = [i for i in range(node.nrecs) if node.is_ghost(i)]
        db.unfix(root)
        assert len(ghosts) == 1

    def test_insert_revives_ghost(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"k", b"v1")
        tree.delete(txn, b"k")
        tree.insert(txn, b"k", b"v2")
        db.commit(txn)
        assert tree.lookup(b"k") == b"v2"

    def test_delete_missing_raises(self, db, tree):
        txn = db.begin()
        with pytest.raises(KeyNotFound):
            tree.delete(txn, b"nope")
        db.commit(txn)

    def test_contains(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"yes", b"v")
        db.commit(txn)
        assert tree.contains(b"yes")
        assert not tree.contains(b"no")


class TestSplitsAndStructure:
    def fill(self, db, tree, n, prefix=b"key"):
        txn = db.begin()
        for i in range(n):
            tree.insert(txn, b"%s%06d" % (prefix, i), b"val%d" % i)
        db.commit(txn)

    def test_many_inserts_split_and_stay_sorted(self, db, tree):
        self.fill(db, tree, 500)
        assert tree.depth() >= 2
        keys = [k for k, _v in tree.range_scan()]
        assert keys == sorted(keys)
        assert len(keys) == 500

    def test_structure_verifies_after_splits(self, db, tree):
        self.fill(db, tree, 800)
        report = verify_tree(tree)
        assert report.ok, report.problems
        assert report.nodes_verified >= 3

    def test_leaf_coverage_partitions_keyspace(self, db, tree):
        """Leaf fence ranges tile (-inf, +inf) with no gaps/overlaps."""
        self.fill(db, tree, 600)
        coverage = collect_leaf_coverage(tree)
        assert coverage[0][0] == b""          # -infinity
        assert coverage[-1][2] is True        # +infinity
        for (lo, hi, _inf), (nlo, _nhi, _ninf) in zip(coverage, coverage[1:]):
            assert hi == nlo, f"gap between {hi!r} and {nlo!r}"

    def test_adoption_eventually_clears_foster_chains(self, db, tree):
        self.fill(db, tree, 600)
        # Writing traffic performs opportunistic adoption; after the
        # fill, chains may exist but more traffic shortens them.
        txn = db.begin()
        for i in range(600):
            tree.update(txn, b"key%06d" % i, b"u%d" % i)
        db.commit(txn)
        report = verify_tree(tree)
        assert report.ok, report.problems
        assert db.stats.get("btree_adoptions") > 0

    def test_root_growth_increases_depth(self, db, tree):
        assert tree.depth() == 1
        self.fill(db, tree, 2500)
        assert tree.depth() >= 3
        assert db.stats.get("btree_root_growths") >= 2
        assert verify_tree(tree).ok

    def test_reverse_insertion_order(self, db, tree):
        txn = db.begin()
        for i in reversed(range(400)):
            tree.insert(txn, b"key%06d" % i, b"v")
        db.commit(txn)
        assert verify_tree(tree).ok
        assert tree.count() == 400

    def test_fence_keys_match_parent_separators(self, db, tree):
        """Figure 2/3: child fences equal adjacent parent key values."""
        self.fill(db, tree, 700)
        root_pid = db.get_root(tree.index_id)
        page = db.fix(root_pid)
        node = BTreeNode(page)
        assert not node.is_leaf
        for i in range(node.nrecs):
            low, high, inf = node.child_boundaries(i)
            child = db.fix(node.child_pid(i))
            child_node = BTreeNode(child)
            assert child_node.low_fence == low
            assert child_node.high_inf == inf
            if not inf:
                assert child_node.high_fence == high
            db.unfix(child.page_id)
        db.unfix(root_pid)

    def test_prefix_truncation_active(self, db, tree):
        """With a long shared prefix, stored keys are truncated."""
        txn = db.begin()
        shared = b"tenant/0000000042/table/orders/"
        for i in range(300):
            tree.insert(txn, shared + b"%06d" % i, b"v")
        db.commit(txn)
        # Find a leaf deep in the shared range and check its prefix.
        found_truncation = False
        root_pid = db.get_root(tree.index_id)
        page = db.fix(root_pid)
        node = BTreeNode(page)
        stack = []
        if node.is_leaf:
            stack.append(node)
        else:
            for i in range(node.nrecs):
                child_page = db.fix(node.child_pid(i))
                stack.append(BTreeNode(child_page))
        for child in stack:
            if child.prefix:
                found_truncation = True
            if child is not node:
                db.unfix(child.page.page_id)
        db.unfix(root_pid)
        assert found_truncation

    def test_range_scan_bounds(self, db, tree):
        self.fill(db, tree, 300)
        subset = list(tree.range_scan(b"key000100", b"key000110"))
        assert len(subset) == 10
        assert subset[0][0] == b"key000100"
        assert subset[-1][0] == b"key000109"

    def test_range_scan_skips_ghosts(self, db, tree):
        self.fill(db, tree, 50)
        txn = db.begin()
        tree.delete(txn, b"key000025")
        db.commit(txn)
        keys = [k for k, _v in tree.range_scan()]
        assert b"key000025" not in keys
        assert len(keys) == 49

    def test_ghost_removal_reclaims_slots(self, db, tree):
        self.fill(db, tree, 30)
        txn = db.begin()
        for i in range(10):
            tree.delete(txn, b"key%06d" % i)
        db.commit(txn)
        root = db.get_root(tree.index_id)
        removed = tree.remove_ghosts(root)
        assert removed == 10
        assert tree.count() == 20
        assert verify_tree(tree).ok


class TestRollbackThroughTree:
    def test_abort_undoes_insert(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.abort(txn)
        assert not tree.contains(b"k")

    def test_abort_undoes_delete(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"k", b"v")
        db.commit(txn)
        txn2 = db.begin()
        tree.delete(txn2, b"k")
        db.abort(txn2)
        assert tree.lookup(b"k") == b"v"

    def test_abort_undoes_update(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"k", b"original")
        db.commit(txn)
        txn2 = db.begin()
        tree.update(txn2, b"k", b"changed")
        db.abort(txn2)
        assert tree.lookup(b"k") == b"original"

    def test_abort_survives_splits_by_other_work(self, db, tree):
        """Logical undo: the key may have moved to another page."""
        txn = db.begin()
        tree.insert(txn, b"victim", b"gone-soon")
        # A lot of committed traffic splits the page the key was on.
        txn2 = db.begin()
        for i in range(400):
            tree.insert(txn2, b"key%06d" % i, b"v" * 20)
        db.commit(txn2)
        db.abort(txn)
        assert not tree.contains(b"victim")
        assert tree.count() == 400
        assert verify_tree(tree).ok

    def test_ghost_revive_abort_with_interleaved_insert(self, db, tree):
        """Regression (found by the crash fuzzer): aborting a
        ghost-revive after a *later* insert shifted the slots must not
        physically undo the value write at a stale slot index — that
        corrupted a neighbouring record.  The revive's value write
        carries a no-op logical undo instead."""
        txn = db.begin()
        tree.insert(txn, b"b", b"precious")
        db.commit(txn)
        # Create a ghost at key "c".
        t1 = db.begin()
        tree.insert(t1, b"c", b"x")
        db.abort(t1)
        # Revive "c", then insert "a" (shifting slots), then abort.
        t2 = db.begin()
        tree.insert(t2, b"c", b"x")
        tree.insert(t2, b"a", b"x")
        db.abort(t2)
        assert dict(tree.range_scan()) == {b"b": b"precious"}
        from repro.btree.verify import verify_tree

        assert verify_tree(tree).ok

    def test_structural_changes_survive_user_abort(self, db, tree):
        """System transactions (splits) are not undone by user aborts."""
        txn = db.begin()
        for i in range(400):
            tree.insert(txn, b"key%06d" % i, b"v" * 20)
        splits = db.stats.get("btree_splits")
        assert splits > 0
        db.abort(txn)
        assert tree.count() == 0
        assert verify_tree(tree).ok  # split structure remains, and is valid


def fixes(db) -> int:
    """Buffer-pool fix calls so far (every fix is a hit or a miss)."""
    return db.stats.get("buffer_hits") + db.stats.get("buffer_misses")


def leaf_of(tree, key):
    """(has the key's slot, is it a ghost, does the leaf have a foster)."""
    page, node = tree._descend(key, for_write=False)
    try:
        i, found = node.find(key)
        return found, found and node.is_ghost(i), node.has_foster
    finally:
        tree.ctx.unfix(page.page_id)


def leaf_room(tree, key) -> int:
    """Bytes the leaf holding ``key`` could still give a record."""
    page, node = tree._descend(key, for_write=False)
    try:
        return node.slotted.free_space + node.slotted.frag_bytes
    finally:
        tree.ctx.unfix(page.page_id)


def no_pins(db) -> bool:
    return all(db.pool.pin_count(pid) == 0 for pid in db.pool.resident_pages())


class TestSingleDescentWrites:
    def test_upsert_returns_whether_the_key_was_live(self, db, tree):
        txn = db.begin()
        assert tree.upsert(txn, b"k", b"v1") is False      # insert
        assert tree.upsert(txn, b"k", b"v2") is True       # update
        assert tree.delete_if_present(txn, b"k") is True   # ghost it
        assert leaf_of(tree, b"k")[:2] == (True, True)
        assert tree.delete_if_present(txn, b"k") is False  # no-op
        assert tree.upsert(txn, b"k", b"v3") is False      # revive ghost
        assert leaf_of(tree, b"k")[:2] == (True, False)
        assert tree.delete_if_present(txn, b"never") is False
        db.commit(txn)
        assert tree.lookup(b"k") == b"v3"
        assert not tree.contains(b"never")

    def test_upsert_logs_what_insert_and_update_log(self, db, tree):
        """Same records per user op as the strict calls: one for an
        insert or an update, two for a ghost revive, one for a delete."""
        txn = db.begin()
        records = db.stats.get("log_records")
        for write, extra in ((lambda: tree.upsert(txn, b"k", b"a"), 1),
                             (lambda: tree.upsert(txn, b"k", b"b"), 1),
                             (lambda: tree.delete_if_present(txn, b"k"), 1),
                             (lambda: tree.delete_if_present(txn, b"k"), 0),
                             (lambda: tree.upsert(txn, b"k", b"c"), 2)):
            write()
            assert db.stats.get("log_records") == records + extra
            records += extra
        db.commit(txn)

    def test_rollback_after_upsert(self, db, tree):
        txn = db.begin()
        tree.insert(txn, b"old", b"original")
        db.commit(txn)
        txn = db.begin()
        assert tree.upsert(txn, b"old", b"changed") is True
        assert tree.upsert(txn, b"new", b"fresh") is False
        db.abort(txn)
        assert tree.lookup(b"old") == b"original"
        assert not tree.contains(b"new")
        assert leaf_of(tree, b"new")[:2] == (True, True)  # left a ghost
        assert verify_tree(tree).ok

    @pytest.mark.parametrize("write", [
        lambda tree, txn: tree.upsert(txn, b"k", b"v" * 2000),
        lambda tree, txn: tree.insert(txn, b"k", b"v" * 2000),
        lambda tree, txn: tree.update(txn, b"k", b"v" * 2000),
        lambda tree, txn: tree.apply_sorted(txn, [("put", b"k", b"v" * 2000)]),
        lambda tree, txn: tree.upsert(txn, b"", b"v"),
    ])
    def test_bad_entry_rejected_with_no_pin_and_no_log(self, db, tree, write):
        txn = db.begin()
        tree.insert(txn, b"k", b"small")
        records = db.stats.get("log_records")
        with pytest.raises(BTreeError) as info:
            write(tree, txn)
        assert type(info.value) is BTreeError  # not a Duplicate/NotFound
        assert db.stats.get("log_records") == records
        assert no_pins(db)
        db.commit(txn)
        assert tree.lookup(b"k") == b"small"

    def deep_tree(self, db, tree, n=2000):
        txn = db.begin()
        for i in range(n):
            tree.insert(txn, b"key%06d" % i, b"v" * 20)
        db.commit(txn)
        # Writes to the probe key adopt any foster chain on its path.
        txn = db.begin()
        for _ in range(8):
            tree.upsert(txn, b"key000700", b"w" * 20)
        db.commit(txn)
        assert tree.depth() == 3
        return b"key000700"

    def test_update_put_fixes_one_page_per_level(self, db, tree):
        key = self.deep_tree(db, tree)
        txn = db.begin()
        before = fixes(db)
        assert tree.upsert(txn, key, b"x" * 20) is True
        assert fixes(db) - before == 3
        db.commit(txn)

    def test_client_put_fixes_one_page_per_level(self, db, tree):
        import repro

        key = self.deep_tree(db, tree)
        client = repro.connect(db)
        before = fixes(db)
        client.put(key, b"y" * 20)
        assert fixes(db) - before == 3
        assert client.get(key) == b"y" * 20

    def test_apply_sorted_descends_once_per_leaf(self, db, tree):
        key = self.deep_tree(db, tree)
        page, node = tree._descend(key, for_write=False)
        same_leaf = node.keys()[:6]  # the probe key's leaf, same path
        tree.ctx.unfix(page.page_id)
        assert len(same_leaf) == 6
        txn = db.begin()
        before = fixes(db)
        assert tree.apply_sorted(txn, [("put", k, b"z") for k in same_leaf]) \
            == [True] * 6
        assert fixes(db) - before == 3
        db.commit(txn)

    def test_apply_sorted_splits_mid_run(self, db, tree):
        txn = db.begin()
        for i in range(0, 400, 4):
            tree.insert(txn, b"key%06d" % i, b"old")
        db.commit(txn)
        splits = db.stats.get("btree_splits")
        ops = [("put", b"key%06d" % i, b"v" * 20) for i in range(400)]
        ops.insert(49, ("delete", b"key000048"))   # after its own put
        txn = db.begin()
        existed = tree.apply_sorted(txn, ops)
        db.commit(txn)
        assert db.stats.get("btree_splits") > splits
        assert existed[:5] == [True, False, False, False, True]
        assert existed[48:50] == [True, True]  # put, then delete, of 48
        expected = {b"key%06d" % i: b"v" * 20 for i in range(400)}
        del expected[b"key000048"]
        assert dict(tree.range_scan()) == expected
        assert verify_tree(tree).ok
        assert no_pins(db)

    def test_apply_sorted_across_a_foster_chain(self, db, tree):
        tree.adopt_every = 10**9  # keep every foster chain
        txn = db.begin()
        for i in range(300):
            tree.insert(txn, b"key%06d" % i, b"v" * 20)
        db.commit(txn)
        assert any(leaf_of(tree, b"key%06d" % i)[2] for i in range(300))
        ops = [("put", b"key%06d" % i, b"n%d" % i) for i in range(300)]
        txn = db.begin()
        before = fixes(db)
        for _verb, key, value in ops:
            tree.upsert(txn, key, value)
        one_by_one = fixes(db) - before
        before = fixes(db)
        assert tree.apply_sorted(txn, ops) == [True] * 300
        assert (fixes(db) - before) * 4 < one_by_one
        db.commit(txn)
        assert dict(tree.range_scan()) == {
            b"key%06d" % i: b"n%d" % i for i in range(300)}
        assert verify_tree(tree).ok

    @pytest.mark.parametrize("grow", ["update", "revive", "rollback"])
    def test_growing_a_record_on_a_full_leaf_splits_it(self, db, tree, grow):
        """A value that outgrows a full leaf splits it first; it used to
        log the update and then fail to apply it (PageFullError)."""
        txn = db.begin()
        tree.insert(txn, b"k", b"v" * (60 if grow == "rollback" else 1))
        if grow == "revive":
            tree.delete(txn, b"k")
        db.commit(txn)
        txn = db.begin()
        if grow == "rollback":
            tree.update(txn, b"k", b"s")
        splits = db.stats.get("btree_splits")
        i = 0
        while leaf_room(tree, b"k") > 30:  # fill k's leaf, no split yet
            tree.insert(txn, b"k%05d" % i, b"f")
            i += 1
        assert db.stats.get("btree_splits") == splits
        if grow == "rollback":
            db.abort(txn)  # restores the 60-byte value on a full leaf
            assert tree.lookup(b"k") == b"v" * 60
        else:
            tree.upsert(txn, b"k", b"g" * 100)
            db.commit(txn)
            assert tree.lookup(b"k") == b"g" * 100
        assert db.stats.get("btree_splits") > splits
        assert verify_tree(tree).ok
        assert no_pins(db)

    def test_sorted_bulk_load_keeps_foster_chains_short(self, db, tree):
        """A run that splits leaf after leaf adopts each new foster child
        on its next descent, as per-key inserts would within a few
        writes; otherwise one bulk load leaves a chain every later
        read must walk."""
        txn = db.begin()
        tree.apply_sorted(txn, [("put", b"key%06d" % i, b"v" * 20)
                                for i in range(1500)])
        db.commit(txn)
        depth = tree.depth()
        for i in range(0, 1500, 50):
            before = fixes(db)
            tree.lookup(b"key%06d" % i)
            assert fixes(db) - before <= depth + 1
        assert verify_tree(tree).ok

    def test_apply_sorted_rejects_unsorted_runs(self, db, tree):
        txn = db.begin()
        with pytest.raises(BTreeError):
            tree.apply_sorted(txn, [("put", b"b", b"1"), ("put", b"a", b"2")])
        db.commit(txn)
        assert tree.count() == 0


class TestPropertyBased:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(keys=st.lists(st.binary(min_size=1, max_size=24),
                         unique=True, min_size=1, max_size=150))
    def test_inserted_keys_all_retrievable(self, keys):
        db = Database(fast_config(page_size=1024, capacity_pages=2048,
                                  buffer_capacity=256))
        tree = db.create_index()
        txn = db.begin()
        for key in keys:
            tree.insert(txn, key, b"v:" + key)
        db.commit(txn)
        for key in keys:
            assert tree.lookup(key) == b"v:" + key
        scanned = [k for k, _v in tree.range_scan()]
        assert scanned == sorted(keys)
        assert verify_tree(tree).ok

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_mixed_operations_match_model(self, data):
        """The tree behaves like a dict under arbitrary op sequences."""
        db = Database(fast_config(page_size=1024, capacity_pages=2048,
                                  buffer_capacity=256))
        tree = db.create_index()
        model: dict[bytes, bytes] = {}
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.binary(min_size=1, max_size=12),
            st.binary(max_size=16)), max_size=120))
        txn = db.begin()
        for action, key, value in ops:
            if action == "insert":
                if key in model:
                    with pytest.raises(DuplicateKey):
                        tree.insert(txn, key, value)
                else:
                    tree.insert(txn, key, value)
                    model[key] = value
            elif action == "update":
                if key in model:
                    tree.update(txn, key, value)
                    model[key] = value
                else:
                    with pytest.raises(KeyNotFound):
                        tree.update(txn, key, value)
            else:
                if key in model:
                    tree.delete(txn, key)
                    del model[key]
                else:
                    with pytest.raises(KeyNotFound):
                        tree.delete(txn, key)
        db.commit(txn)
        assert dict(tree.range_scan()) == model
        assert verify_tree(tree).ok
