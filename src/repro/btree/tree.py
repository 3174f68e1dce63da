"""The Foster B-tree.

Structure-modifying operations (node split, adoption, root growth,
ghost removal) run as *system transactions*: contents-neutral, logged,
committed without forcing the log (Section 5.1.5).  User operations
(insert / delete / update) are logged with key-level logical undo so
that rollback works even after the touched page has split.

Every pointer traversal — parent to child *and* foster parent to foster
child — verifies that the child's fence keys equal the two adjacent key
values in the parent (Section 4.2).  A mismatch is a detected
single-page failure: the tree hands the page to the context's
``handle_invariant_failure``, which in the full engine performs
single-page recovery and returns the repaired page, letting the
traversal continue — the paper's "very early detection of page
corruptions" made operational.
"""

from __future__ import annotations

from typing import Iterator, Protocol

from repro.btree.keys import shortest_separator
from repro.btree.node import NO_FOSTER, BTreeNode, encode_pid
from repro.errors import (
    BTreeError,
    DuplicateKey,
    KeyNotFound,
    PageFailureKind,
    SinglePageFailure,
)
from repro.page.page import Page, PageType
from repro.sim.stats import Stats
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.wal.records import LogicalUndo, UndoAction


class TreeContext(Protocol):
    """Engine services the tree depends on."""

    def fix(self, page_id: int) -> Page: ...
    def unfix(self, page_id: int) -> None: ...
    def mark_dirty(self, page_id: int, lsn: int) -> None: ...
    def allocate_page(self, txn: Transaction, page_type: PageType,
                      index_id: int) -> Page:
        """Allocate, format, and log a new pinned page."""
        ...
    def get_root(self, index_id: int) -> int: ...
    def set_root(self, txn: Transaction, index_id: int, root_pid: int) -> None: ...
    def handle_invariant_failure(self, failure: SinglePageFailure) -> Page:
        """Recover a page that failed cross-page verification.

        Returns the repaired page, re-fixed.  Raises (escalates) if
        recovery is impossible.
        """
        ...


def check_entry(key: bytes, value: bytes, page_size: int) -> None:
    """Reject a record no leaf of ``page_size`` bytes may hold."""
    if not key:
        raise BTreeError("empty keys are reserved for -infinity fences")
    # Guarantee splittability: any two data records plus the
    # bookkeeping records must fit a page.
    limit = page_size // 8
    if len(key) + len(value) > limit:
        raise BTreeError(
            f"entry of {len(key) + len(value)} bytes exceeds limit {limit}")


class _Retry(Exception):
    """Internal: structural change performed; restart the descent."""


class FosterBTree:
    """A Foster B-tree bound to one index id within an engine."""

    def __init__(self, index_id: int, ctx: TreeContext,
                 tm: TransactionManager, stats: Stats,
                 adopt_every: int = 4) -> None:
        self.index_id = index_id
        self.ctx = ctx
        self.tm = tm
        self.stats = stats
        #: Adoption is opportunistic and amortized: only every N-th
        #: write that passes a foster chain performs the adoption.
        #: Chains are therefore short-lived but *observable* between
        #: operations, as in Figure 3 ("temporary!").  Set to 1 for
        #: fully eager adoption.
        self.adopt_every = max(1, adopt_every)
        self._adopt_opportunities = 0

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, index_id: int, ctx: TreeContext, tm: TransactionManager,
               stats: Stats) -> "FosterBTree":
        """Create an empty tree: a single leaf covering (-inf, +inf)."""
        tree = cls(index_id, ctx, tm, stats)
        sys_txn = tm.begin(system=True)
        root = ctx.allocate_page(sys_txn, PageType.BTREE_LEAF, index_id)
        for op in BTreeNode.ops_initialize(level=0, low=b"", high=b"",
                                           high_inf=True):
            tree._log(sys_txn, root, op)
        ctx.set_root(sys_txn, index_id, root.page_id)
        ctx.unfix(root.page_id)
        tm.commit(sys_txn)
        return tree

    # ------------------------------------------------------------------
    # Logging helper
    # ------------------------------------------------------------------
    def _log(self, txn: Transaction, page: Page, op, undo=None) -> int:  # noqa: ANN001
        lsn = self.tm.log_update(txn, page, self.index_id, op, undo)
        self.ctx.mark_dirty(page.page_id, lsn)
        return lsn

    def _log_clr(self, txn: Transaction, page: Page, op,  # noqa: ANN001
                 undo_next_lsn: int) -> int:
        lsn = self.tm.log_compensation(txn, page, self.index_id, op,
                                       undo_next_lsn)
        self.ctx.mark_dirty(page.page_id, lsn)
        return lsn

    # ------------------------------------------------------------------
    # Verified traversal
    # ------------------------------------------------------------------
    def _fix_node(self, page_id: int) -> tuple[Page, BTreeNode]:
        page = self.ctx.fix(page_id)
        try:
            return page, BTreeNode(page)
        except BTreeError as exc:
            self.ctx.unfix(page_id)
            failure = SinglePageFailure(page_id, PageFailureKind.BTREE_INVARIANT,
                                        str(exc))
            page = self.ctx.handle_invariant_failure(failure)
            return page, BTreeNode(page)

    def _fix_verified(self, page_id: int, exp_low: bytes, exp_high: bytes,
                      exp_inf: bool, exp_level: int) -> tuple[Page, BTreeNode]:
        """Fix a child and verify its fences against the parent's keys."""
        page, node = self._fix_node(page_id)
        problem = self._fence_mismatch(node, exp_low, exp_high, exp_inf, exp_level)
        if problem is None:
            self.stats.bump("btree_hops_verified")
            return page, node
        # Cross-page invariant violated: treat as a single-page failure
        # of the child and ask the engine to repair it (Figure 8 path).
        self.ctx.unfix(page_id)
        failure = SinglePageFailure(page_id, PageFailureKind.BTREE_INVARIANT, problem)
        self.stats.bump("btree_invariant_failures")
        page = self.ctx.handle_invariant_failure(failure)
        node = BTreeNode(page)
        problem = self._fence_mismatch(node, exp_low, exp_high, exp_inf, exp_level)
        if problem is not None:
            self.ctx.unfix(page_id)
            raise SinglePageFailure(page_id, PageFailureKind.BTREE_INVARIANT,
                                    f"unrepaired: {problem}")
        return page, node

    @staticmethod
    def _fence_mismatch(node: BTreeNode, exp_low: bytes, exp_high: bytes,
                        exp_inf: bool, exp_level: int) -> str | None:
        if node.level != exp_level:
            return f"level {node.level} != expected {exp_level}"
        if node.low_fence != exp_low:
            return f"low fence {node.low_fence!r} != parent key {exp_low!r}"
        if node.high_inf != exp_inf:
            return f"high-inf flag {node.high_inf} != expected {exp_inf}"
        if not exp_inf and node.high_fence != exp_high:
            return f"high fence {node.high_fence!r} != parent key {exp_high!r}"
        return None

    def _descend(self, key: bytes, for_write: bool,
                 adopt_now: bool = False) -> tuple[Page, BTreeNode]:
        """Root-to-leaf pass with continuous verification.

        Returns the pinned leaf whose range contains ``key``.  With
        ``for_write``, performs opportunistic maintenance (root growth,
        adoption — every ``adopt_every``-th chain passed, or the first
        one with ``adopt_now``) in system transactions; a structural
        change restarts the descent via :class:`_Retry`.
        """
        root_pid = self.ctx.get_root(self.index_id)
        page, node = self._fix_node(root_pid)
        if for_write and node.has_foster:
            self.ctx.unfix(page.page_id)
            self._grow_root(page.page_id)
            raise _Retry()
        while True:
            # Walk along the foster chain to the responsible node.
            while node.has_foster and key >= node.foster_key:
                exp_low, exp_high, exp_inf = node.foster_boundaries()
                child_page, child_node = self._fix_verified(
                    node.foster_pid, exp_low, exp_high, exp_inf, node.level)
                self.ctx.unfix(page.page_id)
                page, node = child_page, child_node
            if node.is_leaf:
                return page, node
            i = node.branch_child_index(key)
            child_pid = node.child_pid(i)
            exp_low, exp_high, exp_inf = node.child_boundaries(i)
            child_page, child_node = self._fix_verified(
                child_pid, exp_low, exp_high, exp_inf, node.level - 1)
            if for_write and child_node.has_foster:
                self._adopt_opportunities += 1
                if (adopt_now
                        or self._adopt_opportunities % self.adopt_every == 0):
                    adopted = self._try_adopt(page, node, child_page,
                                              child_node)
                    if adopted:
                        self.ctx.unfix(child_page.page_id)
                        self.ctx.unfix(page.page_id)
                        raise _Retry()
            self.ctx.unfix(page.page_id)
            page, node = child_page, child_node

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    # Every write is one (key, value, require) triple applied by
    # :meth:`_write_leaf`: ``value=None`` deletes (ghosts) the key;
    # ``require`` is True (the key must be live), False (it must be
    # absent or a ghost) or None (whatever the leaf holds decides).
    def insert(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Insert ``key`` -> ``value``; duplicate keys are rejected."""
        self._apply_run(txn, [(key, value, False)])

    def update(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Replace the value stored under ``key``."""
        self._apply_run(txn, [(key, value, True)])

    def delete(self, txn: Transaction, key: bytes) -> None:
        """Logical deletion: turn the record into a ghost."""
        self._apply_run(txn, [(key, None, True)])

    def upsert(self, txn: Transaction, key: bytes, value: bytes) -> bool:
        """Insert, update or revive a ghost, decided on the leaf one
        descent reaches; returns whether ``key`` was live before."""
        return self._apply_run(txn, [(key, value, None)])[0]

    def delete_if_present(self, txn: Transaction, key: bytes) -> bool:
        """Ghost ``key`` if it is live; returns whether it was."""
        return self._apply_run(txn, [(key, None, None)])[0]

    def apply_sorted(self, txn: Transaction, ops: list[tuple]) -> list[bool]:
        """Apply a key-sorted run of ``("put", k, v)`` (upsert) and
        ``("delete", k)`` (delete if present) ops, one descent per leaf.

        Equal keys keep their order, so the last write to a key wins.
        Returns, per op, whether its key was live when the op ran.
        """
        run = []
        prev = None
        for op in ops:
            key = op[1]
            if prev is not None and key < prev:
                raise BTreeError(f"apply_sorted: {key!r} follows {prev!r}")
            prev = key
            run.append((key, op[2] if op[0] == "put" else None, None))
        return self._apply_run(txn, run)

    def _apply_run(self, txn: Transaction,
                   run: list[tuple[bytes, bytes | None, bool | None]]) -> list[bool]:
        """Apply key-sorted writes leaf by leaf.

        Each descent pins the leaf responsible for the next write; every
        following write whose key lies below that leaf's upper bound —
        its foster key if it has one, otherwise its high fence — is
        applied on the same pin.  A write that does not fit releases
        the leaf, splits it, and re-descends.
        """
        existed: list[bool] = []
        i, n = 0, len(run)
        adopt_now = False
        while i < n:
            try:
                page, node = self._descend(run[i][0], True, adopt_now)
            except _Retry:
                continue
            adopt_now = False
            full = False
            try:
                if node.has_foster:
                    upper = node.foster_key
                else:
                    upper = None if node.high_inf else node.high_fence
                while i < n and (upper is None or run[i][0] < upper):
                    live = self._write_leaf(txn, page, node, *run[i])
                    if live is None:
                        full = True
                        break
                    existed.append(live)
                    i += 1
            finally:
                self.ctx.unfix(page.page_id)
            if full:
                # No room: split (system transaction) and try again.  A
                # run with more writes to come adopts the new foster
                # child on its next descent, so a bulk load never grows
                # one long chain; a single write keeps the amortized
                # adoption of ``adopt_every``.
                self._split(page.page_id)
                adopt_now = i < n - 1
        return existed

    def _write_leaf(self, txn: Transaction, page: Page, node: BTreeNode,
                    key: bytes, value: bytes | None,
                    require: bool | None) -> bool | None:
        """One write on the pinned leaf responsible for ``key``.

        Returns whether the key was live, or None when the record does
        not fit until the leaf splits (nothing was logged).
        """
        if value is not None:
            check_entry(key, value, page.size)
        i, found = node.find(key)
        live = found and not node.is_ghost(i)
        if require is not None and require != live:
            raise DuplicateKey(key) if live else KeyNotFound(key)
        if value is None:
            if live:
                undo = LogicalUndo(UndoAction.INSERT_KEY, key, node.value(i))
                self._log(txn, page, node.op_set_ghost(i, True), undo)
                self.stats.bump("btree_deletes")
            return live
        if found:
            old = node.value(i)
            if not node.room_to_grow(len(value) - len(old)):
                return None  # a larger value must not meet a full page
        if live:
            undo = LogicalUndo(UndoAction.RESTORE_VALUE, key, old)
            self._log(txn, page, node.op_update_value(i, value), undo)
            self.stats.bump("btree_updates")
            return True
        undo = LogicalUndo(UndoAction.DELETE_KEY, key)
        if found:
            # Revive the ghost: restore value, then clear the bit.  The
            # value write carries a *no-op logical undo*: rolling back
            # the revive only needs to re-ghost the record (the
            # DELETE_KEY below); a physical slot-indexed undo would be
            # unsafe once later inserts have shifted the slots.
            self._log(txn, page, node.op_update_value(i, value),
                      LogicalUndo(UndoAction.NONE, key))
            self._log(txn, page, node.op_set_ghost(i, False), undo)
        elif node.room_for(key, value):
            self._log(txn, page, node.op_insert(i, key, value), undo)
        else:
            return None
        self.stats.bump("btree_inserts")
        return False

    def lookup(self, key: bytes) -> bytes:
        """Value stored under ``key``; raises :class:`KeyNotFound`."""
        while True:
            try:
                page, node = self._descend(key, for_write=False)
            except _Retry:  # pragma: no cover - read path never retries
                continue
            try:
                i, found = node.find(key)
                if not found or node.is_ghost(i):
                    raise KeyNotFound(key)
                self.stats.bump("btree_lookups")
                return node.value(i)
            finally:
                self.ctx.unfix(page.page_id)

    def contains(self, key: bytes) -> bool:
        try:
            self.lookup(key)
            return True
        except KeyNotFound:
            return False

    def range_scan(self, low: bytes = b"", high: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) pairs with ``low <= key`` and ``key < high``.

        Fence-key trees have no sibling pointers; the scan follows
        foster pointers within a chain and re-descends with the chain's
        high fence to reach the next leaf — each re-descent is another
        verified root-to-leaf pass.
        """
        key = low
        while True:
            try:
                page, node = self._descend(key, for_write=False)
            except _Retry:  # pragma: no cover - read path never retries
                continue
            batch, next_key = self._scan_leaf(page, node, key, high)
            yield from batch
            if next_key is None:
                return
            key = next_key

    def _scan_leaf(self, page: Page, node: BTreeNode, key: bytes,
                   high: bytes | None) -> tuple[list[tuple[bytes, bytes]], bytes | None]:
        try:
            out: list[tuple[bytes, bytes]] = []
            i, _found = node.find(key)
            for j in range(i, node.nrecs):
                full = node.full_key(j)
                if high is not None and full >= high:
                    return out, None
                if not node.is_ghost(j):
                    out.append((full, node.value(j)))
            if node.has_foster:
                next_key = node.foster_key
            elif node.high_inf:
                next_key = None
            else:
                next_key = node.high_fence
            if next_key is not None and high is not None and next_key >= high:
                next_key = None
            return out, next_key
        finally:
            self.ctx.unfix(page.page_id)

    def compensate(self, txn: Transaction, undo: LogicalUndo,
                   undo_next_lsn: int) -> None:
        """Key-level compensation during rollback (logged as CLRs)."""
        if undo.action == UndoAction.NONE:
            return  # value write whose effect the re-ghosting covers
        key = undo.key
        while True:
            try:
                page, node = self._descend(key, for_write=True)
            except _Retry:
                continue
            need_split = False
            try:
                i, found = node.find(key)
                if undo.action == UndoAction.DELETE_KEY:
                    # Undo an insert: ghost the record.
                    if found and not node.is_ghost(i):
                        self._log_clr(txn, page, node.op_set_ghost(i, True),
                                      undo_next_lsn)
                elif (found and not node.room_to_grow(
                        len(undo.value) - len(node.value(i)))):
                    need_split = True  # the restored value would not fit
                elif undo.action == UndoAction.INSERT_KEY:
                    # Undo a delete: revive the ghost (or re-insert).
                    if found:
                        self._log_clr(txn, page,
                                      node.op_update_value(i, undo.value),
                                      undo_next_lsn)
                        self._log_clr(txn, page, node.op_set_ghost(i, False),
                                      undo_next_lsn)
                    elif node.room_for(key, undo.value):
                        self._log_clr(txn, page,
                                      node.op_insert(i, key, undo.value),
                                      undo_next_lsn)
                    else:
                        need_split = True
                elif undo.action == UndoAction.RESTORE_VALUE:
                    if not found:
                        raise BTreeError(
                            f"compensation target {key!r} disappeared")
                    self._log_clr(txn, page, node.op_update_value(i, undo.value),
                                  undo_next_lsn)
                if not need_split:
                    self.stats.bump("btree_compensations")
                    return
            finally:
                self.ctx.unfix(page.page_id)
            self._split_for_key(key)

    def _split_for_key(self, key: bytes) -> None:
        while True:
            try:
                page, node = self._descend(key, for_write=True)
            except _Retry:
                continue
            pid = page.page_id
            self.ctx.unfix(pid)
            self._split(pid)
            return

    # ------------------------------------------------------------------
    # Structural maintenance (system transactions)
    # ------------------------------------------------------------------
    def _split(self, page_id: int) -> None:
        """Split a node: the upper half becomes its foster child."""
        sys_txn = self.tm.begin(system=True)
        page = self.ctx.fix(page_id)
        try:
            node = BTreeNode(page)
            n = node.nrecs
            if n < 2:
                raise BTreeError(
                    f"page {page_id} cannot split with {n} records")
            mid = n // 2
            if node.is_leaf:
                separator = shortest_separator(node.full_key(mid - 1),
                                               node.full_key(mid))
            else:
                # Branch separators must equal a child's low boundary.
                separator = node.full_key(mid)
            foster_page = self.ctx.allocate_page(
                sys_txn,
                PageType.BTREE_LEAF if node.is_leaf else PageType.BTREE_BRANCH,
                self.index_id)
            try:
                high_key = b"" if node.high_inf else node.high_fence
                for op in BTreeNode.ops_initialize(
                        node.level, separator, high_key, node.high_inf,
                        node.foster_key if node.has_foster else b"",
                        node.foster_pid if node.has_foster else NO_FOSTER):
                    self._log(sys_txn, foster_page, op)
                foster_node = BTreeNode(foster_page)
                # Copy the upper half into the foster child and remove
                # it from the foster parent — one bulk op each, so a
                # split costs two data log records regardless of how
                # many records move.
                moving = node.record_entries(mid, n)
                self._log(sys_txn, foster_page,
                          foster_node.op_bulk_insert(0, moving))
                self._log(sys_txn, page, node.op_bulk_delete(mid, n))
                # ... and link the chain: this node becomes the foster
                # parent, keeping the chain-high fence (Figure 3).
                for op in node.ops_set_foster(separator, foster_page.page_id):
                    self._log(sys_txn, page, op)
            finally:
                self.ctx.unfix(foster_page.page_id)
            self.tm.commit(sys_txn)
            self.stats.bump("btree_splits")
        except BaseException:
            if sys_txn.active:
                self.tm.commit(sys_txn)  # contents-neutral; safe to keep
            raise
        finally:
            self.ctx.unfix(page_id)

    def _try_adopt(self, parent_page: Page, parent: BTreeNode,
                   child_page: Page, child: BTreeNode) -> bool:
        """Move one foster child up into the permanent parent.

        Returns True if the adoption happened (descent must restart).
        If the parent lacks room, the parent is split instead (also a
        structural change, also True).
        """
        separator = child.foster_key
        foster_pid = child.foster_pid
        if not parent.room_for_branch_record(separator):
            self.ctx.unfix(child_page.page_id)
            self.ctx.unfix(parent_page.page_id)
            self._split(parent_page.page_id)
            # Signal a restart; re-fix happens in the caller's retry.
            self.ctx.fix(parent_page.page_id)
            self.ctx.fix(child_page.page_id)
            return True
        sys_txn = self.tm.begin(system=True)
        i, found = parent.find(separator)
        if found:
            raise BTreeError(f"separator {separator!r} already in parent")
        self._log(sys_txn, parent_page,
                  parent.op_insert(i, separator, encode_pid(foster_pid)))
        for op in child.ops_set_high_fence(separator, high_inf=False):
            self._log(sys_txn, child_page, op)
        for op in child.ops_set_foster(b"", NO_FOSTER):
            self._log(sys_txn, child_page, op)
        self._maybe_extend_prefix(sys_txn, child_page, child)
        self.tm.commit(sys_txn)
        self.stats.bump("btree_adoptions")
        return True

    def _maybe_extend_prefix(self, sys_txn: Transaction, page: Page,
                             node: BTreeNode) -> None:
        """Tightened fences may permit a longer truncation prefix."""
        from repro.btree.keys import common_prefix

        if node.high_inf:
            return
        new_prefix = common_prefix(node.low_fence, node.high_fence)
        if len(new_prefix) <= len(node.prefix):
            return
        for op in node.ops_reencode_prefix(new_prefix):
            self._log(sys_txn, page, op)

    def _grow_root(self, old_root_pid: int) -> None:
        """The root has a foster child: grow the tree by one level."""
        sys_txn = self.tm.begin(system=True)
        old_root_page = self.ctx.fix(old_root_pid)
        try:
            old_root = BTreeNode(old_root_page)
            separator = old_root.foster_key
            foster_pid = old_root.foster_pid
            new_root_page = self.ctx.allocate_page(
                sys_txn, PageType.BTREE_BRANCH, self.index_id)
            try:
                for op in BTreeNode.ops_initialize(
                        old_root.level + 1, b"", b"", high_inf=True):
                    self._log(sys_txn, new_root_page, op)
                new_root = BTreeNode(new_root_page)
                self._log(sys_txn, new_root_page,
                          new_root.op_insert(0, b"", encode_pid(old_root_pid)))
                self._log(sys_txn, new_root_page,
                          new_root.op_insert(1, separator, encode_pid(foster_pid)))
                for op in old_root.ops_set_high_fence(separator, high_inf=False):
                    self._log(sys_txn, old_root_page, op)
                for op in old_root.ops_set_foster(b"", NO_FOSTER):
                    self._log(sys_txn, old_root_page, op)
                self._maybe_extend_prefix(sys_txn, old_root_page, old_root)
                self.ctx.set_root(sys_txn, self.index_id, new_root_page.page_id)
            finally:
                self.ctx.unfix(new_root_page.page_id)
            self.tm.commit(sys_txn)
            self.stats.bump("btree_root_growths")
        finally:
            self.ctx.unfix(old_root_pid)

    def migrate_node(self, page_id: int, retain_backup: bool = True) -> int:
        """Move a node to a freshly allocated page id (system txn).

        This is the page migration that write-optimized B-trees and
        wear levelling rely on (Sections 2 and 5.2.1): because every
        node has exactly one incoming pointer, the move updates one
        parent record (or the root pointer).  With ``retain_backup``,
        an image of the migrated node is retained as its page backup —
        the paper's "the old, pre-move image might be retained and
        serve as single-page backup".

        Returns the new page id.  The old page id is released to the
        engine's free list.
        """
        sys_txn = self.tm.begin(system=True)
        page = self.ctx.fix(page_id)
        try:
            node = BTreeNode(page)
            pointer = self._find_incoming_pointer(page_id, node)
            new_page = self.ctx.allocate_page(
                sys_txn,
                PageType.BTREE_LEAF if node.is_leaf else PageType.BTREE_BRANCH,
                self.index_id)
            try:
                high_key = b"" if node.high_inf else node.high_fence
                for op in BTreeNode.ops_initialize(
                        node.level, node.low_fence, high_key, node.high_inf,
                        node.foster_key if node.has_foster else b"",
                        node.foster_pid if node.has_foster else NO_FOSTER):
                    self._log(sys_txn, new_page, op)
                new_node = BTreeNode(new_page)
                n = node.nrecs
                if n:
                    self._log(sys_txn, new_page,
                              new_node.op_bulk_insert(
                                  0, node.record_entries(0, n)))
                self._repoint(sys_txn, pointer, page_id, new_page.page_id)
                if retain_backup:
                    take_copy = getattr(self.ctx, "take_page_copy", None)
                    if take_copy is not None:
                        take_copy(new_page)
                new_pid = new_page.page_id
            finally:
                self.ctx.unfix(new_page.page_id)
            self.tm.commit(sys_txn)
        finally:
            self.ctx.unfix(page_id)
        free = getattr(self.ctx, "free_page", None)
        if free is not None:
            free(page_id)
        self.stats.bump("btree_migrations")
        return new_pid

    def _find_incoming_pointer(self, target_pid: int, target: BTreeNode):
        """Locate the single incoming pointer of ``target_pid``.

        Returns ("root", None, None), ("branch", parent_pid, slot), or
        ("foster", parent_pid, None).
        """
        root_pid = self.ctx.get_root(self.index_id)
        if root_pid == target_pid:
            return ("root", None, None)
        key = target.low_fence
        pid = root_pid
        while True:
            page, node = self._fix_node(pid)
            try:
                if node.has_foster and node.foster_pid == target_pid:
                    return ("foster", pid, None)
                if node.has_foster and key >= node.foster_key:
                    next_pid = node.foster_pid
                elif node.is_leaf:
                    raise BTreeError(
                        f"page {target_pid} unreachable from the root")
                else:
                    i = node.branch_child_index(key)
                    if node.child_pid(i) == target_pid:
                        return ("branch", pid, i)
                    next_pid = node.child_pid(i)
            finally:
                self.ctx.unfix(pid)
            pid = next_pid

    def _repoint(self, sys_txn: Transaction, pointer, old_pid: int,
                 new_pid: int) -> None:
        kind, parent_pid, slot = pointer
        if kind == "root":
            self.ctx.set_root(sys_txn, self.index_id, new_pid)
            return
        parent_page = self.ctx.fix(parent_pid)
        try:
            parent = BTreeNode(parent_page)
            if kind == "branch":
                if parent.child_pid(slot) != old_pid:
                    raise BTreeError("incoming pointer moved during migration")
                self._log(sys_txn, parent_page,
                          parent.op_update_value(slot, encode_pid(new_pid)))
            else:
                if parent.foster_pid != old_pid:
                    raise BTreeError("foster pointer moved during migration")
                for op in parent.ops_set_foster(parent.foster_key, new_pid):
                    self._log(sys_txn, parent_page, op)
        finally:
            self.ctx.unfix(parent_pid)

    def remove_ghosts(self, page_id: int) -> int:
        """Physically remove ghost records from a leaf (system txn).

        Contents-neutral space reclamation (Section 5.1.5).  Returns
        the number of ghosts removed.
        """
        sys_txn = self.tm.begin(system=True)
        page = self.ctx.fix(page_id)
        removed = 0
        try:
            node = BTreeNode(page)
            if not node.is_leaf:
                raise BTreeError("ghost removal applies to leaves")
            j = 0
            while j < node.nrecs:
                if node.is_ghost(j):
                    self._log(sys_txn, page, node.op_delete(j))
                    removed += 1
                else:
                    j += 1
            self.tm.commit(sys_txn)
            if removed:
                self.stats.bump("btree_ghosts_removed", removed)
            return removed
        finally:
            self.ctx.unfix(page_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Number of levels (1 = a single leaf)."""
        pid = self.ctx.get_root(self.index_id)
        page, node = self._fix_node(pid)
        levels = node.level + 1
        self.ctx.unfix(pid)
        return levels

    def count(self) -> int:
        """Number of live (non-ghost) records."""
        return sum(1 for _ in self.range_scan())
