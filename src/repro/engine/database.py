"""The database engine facade.

One :class:`Database` owns one simulated device, one recovery log, one
buffer pool, a transaction manager, and — when single-page failures
are enabled — the page recovery index, the backup store, and the
recovery machinery of Sections 5.2.2–5.2.6.  The engine core is
decomposed into cohesive components that the facade wires together:

* :class:`repro.engine.catalog.Catalog` — metadata-page records and
  the index/heap registries;
* :class:`repro.engine.allocator.PageAllocator` — page allocation and
  the free-space pool;
* :class:`repro.engine.checkpointer.Checkpointer` — checkpoints, PRI
  persistence, page backups, and log retention/truncation;
* :class:`repro.core.recovery_manager.RecoveryManager` — the Figure-8
  page-retrieval logic, installed as the buffer pool's fetcher *and*
  repairer, so every read through :meth:`repro.buffer.buffer_pool.
  BufferPool.fix` transparently detects and repairs page failures.

Page layout on the device::

    page 0                      metadata (index roots, allocation state)
    pages 1 .. 2K               page-recovery-index region (K per partition;
                                even pids hold partition 0, odd partition 1)
    pages 2K+1 ..               data pages (B-tree nodes etc.)

Crash simulation: :meth:`crash` discards the buffer pool, all unforced
log records, and all volatile state; :meth:`restart` then runs ARIES
restart with the paper's Figure-12 PRI reconciliation.
"""

from __future__ import annotations

import struct

from repro.btree.tree import FosterBTree, check_entry
from repro.buffer.buffer_pool import BufferPool
from repro.buffer.prefetch import Prefetcher
from repro.core.backup import BackupStore
from repro.core.recovery_index import PageRecoveryIndex, PartitionedRecoveryIndex
from repro.core.recovery_manager import RecoveryManager
from repro.core.single_page import SinglePageRecovery
from repro.detect.scrubber import Scrubber, ScrubReport
from repro.engine.allocator import PageAllocator
from repro.engine.catalog import HEAP_INDEX_OFFSET, METADATA_PAGE, Catalog
from repro.engine.checkpointer import Checkpointer
from repro.engine.config import EngineConfig
from repro.errors import (
    ConfigError,
    MediaFailure,
    ReproError,
    SinglePageFailure,
    SystemFailure,
    TransactionError,
)
from repro.page.page import Page, PageType
from repro.page.slotted import SlottedPage
from repro.sim.clock import SimClock
from repro.sim.stats import Stats
from repro.storage.device import StorageDevice
from repro.storage.faults import FaultInjector
from repro.sync import ReadWriteLatch
from repro.txn.locks import LockManager
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.wal.log_manager import LogManager
from repro.wal.log_reader import LogReader
from repro.wal.ops import OpInitSlotted, OpInsert
from repro.wal.records import BackupRef, LogicalUndo


class Database:
    """A single-node database engine over one simulated device."""

    def __init__(self, config: EngineConfig | None = None,
                 clock: SimClock | None = None,
                 stats: Stats | None = None,
                 injector: FaultInjector | None = None,
                 adopt_storage: tuple[StorageDevice, LogManager] | None = None) -> None:
        self.config = config or EngineConfig()
        self.clock = clock or SimClock()
        self.stats = stats or Stats()
        self.injector = injector or FaultInjector(seed=self.config.seed)
        cfg = self.config

        if adopt_storage is not None:
            # Failover promotion (PR 7): adopt an existing device + log
            # replica — the standby's — instead of formatting fresh
            # ones.  The engine comes up crashed; the caller runs
            # restart() to finish recovery before use.
            self.device, self.log = adopt_storage
        else:
            self.device = StorageDevice(
                "db0", cfg.page_size, cfg.capacity_pages, self.clock,
                cfg.device_profile, self.stats, self.injector,
                proof_read=cfg.proof_read_writes)
            self.log = LogManager(self.clock, cfg.log_profile, self.stats,
                                  segment_bytes=cfg.log_segment_bytes,
                                  group_commit=cfg.group_commit)
        self.tm = TransactionManager(self.log, self.stats)
        self.tm.ack_mode = cfg.commit_ack_mode
        self.locks = LockManager()
        self.tm.on_finish = self._release_locks_of
        self.backup_store = BackupStore(self.clock, cfg.backup_profile,
                                        self.stats, cfg.page_size)

        #: hot standby replicating *from* this node, plus its shipping
        #: link (a SegmentShipper); see :meth:`attach_standby`
        self.standby = None
        self.standby_link = None

        if cfg.pri_partitioned:
            self.pri: PageRecoveryIndex | PartitionedRecoveryIndex = (
                PartitionedRecoveryIndex())
        else:
            self.pri = PageRecoveryIndex()

        self.catalog = Catalog(self)
        self.allocator = PageAllocator(self)
        self.checkpointer = Checkpointer(self)

        #: online access-pattern model shared by the buffer pool (which
        #: feeds it demand fixes and serves its read-ahead queue) and
        #: the recovery registries (which rank budgeted drains with it);
        #: None when ``prefetch_mode="off"`` so the classic engine
        #: carries zero speculative machinery
        self.prefetcher = None
        if cfg.prefetch_mode != "off":
            self.prefetcher = Prefetcher(
                self.stats, mode=cfg.prefetch_mode,
                depth=cfg.prefetch_depth, window=cfg.prefetch_window)

        self._build_recovery_stack()
        self.pool = self._build_pool(self.device)

        #: pending-work registry of a restart (None = no restart work
        #: pending); see repro.engine.restart_registry
        self.restart_registry = None
        #: completion watermark of the most recent restart
        self.last_restart_completion_lsn: int | None = None
        #: pending-work registry of a media restore (None = no restore
        #: work pending); see repro.engine.restore_registry
        self.restore_registry = None
        #: completion watermark of the most recent restore
        self.last_restore_completion_lsn: int | None = None
        #: backup a not-yet-complete restore depends on (survives a
        #: crash so the interrupted restore can be re-run)
        self._pending_restore_backup_id: int | None = None

        #: in-doubt (prepared, undecided) 2PC transactions recovered by
        #: restart/media analysis, keyed by global transaction id; each
        #: holds its key locks until :meth:`resolve_indoubt` delivers
        #: the coordinator's decision.  Volatile — a crash clears it
        #: and the next analysis rebuilds it from the PREPARE records.
        self.indoubt: dict[int, object] = {}

        #: observation hooks for failure/recovery tooling (the chaos
        #: harness): ``crash_hooks`` fire at the end of :meth:`crash`;
        #: ``recovery_hooks`` fire with ``(kind, report)`` after a
        #: :meth:`restart` ("restart") or :meth:`recover_media`
        #: ("media") returns, whatever code path initiated it
        self.crash_hooks: list = []
        self.recovery_hooks: list = []

        #: the engine read/write latch: sessions take it shared for
        #: lookups and exclusive for structural work (see
        #: :mod:`repro.engine.session`); the single-threaded Database
        #: API never touches it, so embeddings and the deterministic
        #: chaos harness are unaffected
        self.latch = ReadWriteLatch()

        self._crashed = adopt_storage is not None
        self._media_failed = False
        if adopt_storage is None:
            self._bootstrap()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_recovery_stack(self) -> None:
        cfg = self.config
        self.log_reader = LogReader(self.log, self.clock, cfg.log_profile,
                                    self.stats)
        if cfg.spf_enabled:
            self.single_page = SinglePageRecovery(
                self.pri, self.backup_store, self.log_reader, self.device,
                self.clock, self.stats,
                standby=getattr(self, "standby", None))
        else:
            self.single_page = None
        self.recovery_manager = RecoveryManager(
            self.device, self.pri, self.single_page, self.clock, self.stats,
            single_device_node=cfg.single_device_node,
            on_media_failure=self._on_media_failure,
            pri_lsn_check=cfg.pri_lsn_check and cfg.spf_enabled)

    def _build_pool(self, device: StorageDevice) -> BufferPool:
        """Buffer pool wired to the detection/repair/backup hooks."""
        pool = BufferPool(
            device, self.log, self.stats, self.config.buffer_capacity,
            fetcher=self.recovery_manager.fetch_page,
            on_page_cleaned=self.checkpointer.on_page_cleaned,
            on_before_write=self.checkpointer.on_before_write,
            repairer=self.recovery_manager.handle_failure)
        if self.prefetcher is not None:
            pool.prefetcher = self.prefetcher
            pool.prefetch_floor = self.config.data_start
            pool.page_bound = self.allocated_pages
        return pool

    def _wire_pool(self) -> None:
        """Re-point pool hooks after the recovery stack was rebuilt."""
        self.pool.fetcher = self.recovery_manager.fetch_page
        self.pool.repairer = self.recovery_manager.handle_failure

    def _bootstrap(self) -> None:
        """Create the metadata page of a fresh database."""
        sys_txn = self.tm.begin(system=True)
        page = Page.format(self.config.page_size, METADATA_PAGE,
                           PageType.METADATA)
        self.pool.fix_new(page)
        format_lsn = self.tm.log_format(sys_txn, page, 0,
                                        OpInitSlotted(PageType.METADATA))
        self.note_format(page.page_id, format_lsn)
        self.pool.mark_dirty(page.page_id, format_lsn)
        slotted = SlottedPage(page)
        for key, value in ((b"next_free", self.config.data_start),
                           (b"next_index", 1)):
            lsn = self.tm.log_update(
                sys_txn, page, 0,
                OpInsert(slotted.slot_count, key, struct.pack("<q", value)))
            self.pool.mark_dirty(page.page_id, lsn)
        self.pool.unfix(page.page_id)
        self.tm.commit(sys_txn)
        self.log.force()

    def _release_locks_of(self, txn: Transaction) -> None:
        """``on_finish`` hook: a finished transaction drops its locks."""
        self.locks.release_all(txn.txn_id)

    def note_format(self, page_id: int, format_lsn: int) -> None:
        """A formatting record doubles as the page's backup image."""
        if self.config.spf_enabled:
            self.pri.set_backup(page_id, BackupRef.format_record(format_lsn),
                                format_lsn, self.clock.now)

    # ------------------------------------------------------------------
    # TreeContext protocol (used by FosterBTree and HeapFile)
    # ------------------------------------------------------------------
    def fix(self, page_id: int) -> Page:
        return self.pool.fix(page_id)

    def unfix(self, page_id: int) -> None:
        self.pool.unfix(page_id)

    def mark_dirty(self, page_id: int, lsn: int) -> None:
        self.pool.mark_dirty(page_id, lsn)

    def allocate_page(self, txn: Transaction, page_type: PageType,
                      index_id: int) -> Page:
        return self.allocator.allocate_page(txn, page_type, index_id)

    def free_page(self, page_id: int) -> None:
        self.allocator.free_page(page_id)

    def allocate_heap_page(self, txn: Transaction, heap_id: int) -> Page:
        return self.allocator.allocate_heap_page(txn, heap_id)

    def get_root(self, index_id: int) -> int:
        return self.catalog.get_root(index_id)

    def set_root(self, txn: Transaction, index_id: int, root_pid: int) -> None:
        self.catalog.set_root(txn, index_id, root_pid)

    def handle_invariant_failure(self, failure: SinglePageFailure) -> Page:
        """Cross-page verification failed mid-traversal (Section 4.2).

        Routed through the buffer pool's fix path: the pool quarantines
        the suspect frame, runs Figure-8 dispatch via its repairer, and
        re-fixes the repaired page (Figure-10 recovery on the read path).
        """
        return self.pool.repair_failure(failure)

    def take_page_copy(self, page: Page) -> int:
        return self.checkpointer.take_page_copy(page)

    # ------------------------------------------------------------------
    # UndoContext protocol (used by TransactionManager)
    # ------------------------------------------------------------------
    def fix_for_undo(self, page_id: int) -> Page:
        return self.pool.fix(page_id)

    def done_with_undo_page(self, page_id: int, lsn: int) -> None:
        self.pool.mark_dirty(page_id, lsn)
        self.pool.unfix(page_id)

    def logical_compensate(self, txn: Transaction, index_id: int,
                           undo: LogicalUndo, undo_next_lsn: int) -> None:
        if index_id >= HEAP_INDEX_OFFSET:
            # Heap ops use RID-level compensation (slot stability).
            self.heap(index_id - HEAP_INDEX_OFFSET).compensate(
                txn, undo, undo_next_lsn)
            return
        self.tree(index_id).compensate(txn, undo, undo_next_lsn)

    # ------------------------------------------------------------------
    # Catalog objects
    # ------------------------------------------------------------------
    def create_index(self) -> FosterBTree:
        self._require_running()
        return self.catalog.create_index()

    def tree(self, index_id: int) -> FosterBTree:
        return self.catalog.tree(index_id)

    def create_heap(self):  # noqa: ANN201 - returns HeapFile
        self._require_running()
        return self.catalog.create_heap()

    def heap(self, heap_id: int):  # noqa: ANN201
        return self.catalog.heap(heap_id)

    def get_heap_pages(self, heap_id: int) -> list[int]:
        return self.catalog.get_heap_pages(heap_id)

    @property
    def indexes(self) -> list[int]:
        return sorted(self.catalog.trees)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        self._require_running()
        return self.tm.begin(system=False)

    def begin_system(self) -> Transaction:
        self._require_running()
        return self.tm.begin(system=True)

    def commit(self, txn: Transaction) -> int:
        return self.tm.commit(txn)

    def abort(self, txn: Transaction) -> None:
        self.tm.abort(txn, self)

    def group_commit(self):  # noqa: ANN201 - context manager
        """Batch user commits into one log force (group commit)."""
        return self.tm.group_commit()

    # Two-phase commit participation (sharded deployments) -------------
    def prepare(self, txn: Transaction, gtid: int) -> int:
        """2PC phase one: force a PREPARE record for a local branch."""
        self._require_running()
        return self.tm.prepare(txn, gtid)

    def commit_prepared(self, txn: Transaction) -> int:
        """2PC phase two, decision = commit, for a live prepared branch."""
        self._require_running()
        return self.tm.commit_prepared(txn)

    def abort_prepared(self, txn: Transaction) -> None:
        """2PC phase two, decision = abort, for a live prepared branch."""
        self._require_running()
        self.tm.abort_prepared(txn, self)

    def resolve_indoubt(self, gtid: int, commit: bool) -> int | None:
        """Deliver the coordinator's decision to a recovered in-doubt
        branch (see :attr:`indoubt`); returns the commit LSN or
        ``None`` for an abort.

        Idempotent against re-delivery: resolving a gtid with no
        in-doubt entry raises :class:`repro.errors.RecoveryError`, so
        the caller can distinguish "already resolved" via
        :attr:`indoubt` membership first.
        """
        from repro.errors import RecoveryError
        from repro.txn.transaction import TxnState

        self._require_running()
        entry = self.indoubt.get(gtid)
        if entry is None:
            raise RecoveryError(f"no in-doubt transaction for gtid {gtid}")
        txn = Transaction(entry.txn_id)
        txn.state = TxnState.PREPARED
        txn.last_lsn = entry.last_lsn
        txn.first_lsn = entry.first_lsn
        # The entry leaves the registry only once the branch finished —
        # a failure mid-rollback keeps it resolvable (CLRs make the
        # retry restartable).
        if commit:
            lsn = self.tm.commit_prepared(txn)
            self.indoubt.pop(gtid, None)
            return lsn
        self.tm.abort_prepared(txn, self)
        self.indoubt.pop(gtid, None)
        return None

    def session(self):  # noqa: ANN201 - Session
        """A transactional handle for one worker thread.

        Creating the first session arms the log's cross-thread
        group-commit barrier (window from ``config.
        commit_window_seconds``); N sessions on N threads then run
        against this one engine, commits amortizing forces through the
        leader/rider protocol.  See :mod:`repro.engine.session`.
        """
        from repro.engine.session import Session

        self.log.enable_cross_thread_commit(
            self.config.commit_window_seconds)
        self.stats.enable_locking()
        return Session(self)

    # Writes ---------------------------------------------------------------
    def apply_ops(self, txn: Transaction, index_id: int,
                  ops: list[tuple]) -> list[bool]:
        """Apply ``[("put", k, v) | ("delete", k), ...]`` within ``txn``.

        The one write path of the client facade and the shard worker: a
        put inserts, updates or revives a ghost, a delete ghosts a live
        key and is a no-op otherwise.  Every op is checked first (see
        :func:`check_ops`), then the ops are stable-sorted by key — so
        the last write to a key still wins — their key locks taken in
        that order before any page is pinned, and the sorted run handed
        to :meth:`FosterBTree.apply_sorted`, which descends once per
        leaf.  Returns, in op order, whether each op's key was live
        when the op ran.
        """
        self._require_running()
        if not txn.active:
            # Checked before any lock is taken: a lock granted to a
            # finished transaction would never be released.
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state.value}")
        check_ops(ops, self.config.page_size)
        order = sorted(range(len(ops)), key=lambda j: ops[j][1])
        run = [ops[j] for j in order]
        for op in run:
            self.locks.acquire(txn.txn_id, op[1])
        existed = [False] * len(ops)
        for j, live in zip(order, self.tree(index_id).apply_sorted(txn, run)):
            existed[j] = live
        return existed

    # Convenience single-operation transactions ------------------------
    def insert(self, tree: FosterBTree, key: bytes, value: bytes,
               txn: Transaction | None = None) -> None:
        self._one_op(tree.insert, key, value, txn=txn)

    def update(self, tree: FosterBTree, key: bytes, value: bytes,
               txn: Transaction | None = None) -> None:
        self._one_op(tree.update, key, value, txn=txn)

    def delete(self, tree: FosterBTree, key: bytes,
               txn: Transaction | None = None) -> None:
        self._one_op(tree.delete, key, txn=txn)

    def _one_op(self, op, *args, txn: Transaction | None = None) -> None:  # noqa: ANN001
        self._require_running()
        if txn is not None:
            self.locks.acquire(txn.txn_id, args[0])
            op(txn, *args)
            return
        auto = self.begin()
        try:
            self.locks.acquire(auto.txn_id, args[0])
            op(auto, *args)
        except ReproError:
            if auto.active:
                self.abort(auto)
            raise
        self.commit(auto)

    # ------------------------------------------------------------------
    # Replication (PR 7)
    # ------------------------------------------------------------------
    def attach_standby(self, mode: str = "tail"):  # noqa: ANN201 - Standby
        """Attach (or re-seed) an in-process log-shipped hot standby.

        Seeds the standby from the primary's current state — verified
        page images plus the retained durable log backlog — then hooks
        a :class:`repro.engine.replication.SegmentShipper` into the log
        so every force streams the newly durable tail.  ``mode``:
        ``"tail"`` ships every durable record as it hardens;
        ``"segment"`` ships only sealed log segments (the shipping unit
        of classic log shipping — the open segment lags naturally).

        The standby then serves as the *fifth* (and first-tried) repair
        source for single-page recovery, as the ack target of
        ``replicated_durable`` commits, and as the failover target via
        :meth:`repro.engine.replication.Standby.promote`.
        """
        from repro.engine.replication import SegmentShipper, Standby

        self._require_running()
        standby = Standby(self.config, self.clock, self.stats)
        standby.seed_from(self)
        self.log.shipper = SegmentShipper(self.log, standby, mode=mode)
        self.standby = standby
        self.standby_link = self.log.shipper
        if self.single_page is not None:
            self.single_page.standby = standby
        self.stats.bump("standby_attaches")
        return standby

    def detach_standby(self) -> None:
        """Drop the standby and its shipping link entirely."""
        self.log.shipper = None
        self.standby = None
        self.standby_link = None
        if self.single_page is not None:
            self.single_page.standby = None

    # ------------------------------------------------------------------
    # Checkpoints, backups, retention (delegated to the checkpointer)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        self._require_running()
        return self.checkpointer.checkpoint()

    def take_full_backup(self) -> int:
        self._require_running()
        return self.checkpointer.take_full_backup()

    def take_log_image(self, page_id: int) -> int:
        self._require_running()
        return self.checkpointer.take_log_image(page_id)

    def log_retention_bound(self) -> int:
        return self.checkpointer.log_retention_bound()

    def truncate_log(self, copy_forward: bool = True,
                     copy_budget: int = 64) -> int:
        self._require_running()
        return self.checkpointer.truncate_log(copy_forward, copy_budget)

    # ------------------------------------------------------------------
    # Crash / restart / media failure
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate a system failure: volatile state vanishes."""
        if (self.restore_registry is not None
                and not self.restore_registry.complete):
            # A crash interrupts an on-demand restore: the replacement
            # device is only partially rebuilt, so the media failure is
            # effectively back — recover_media() must be re-run (from
            # the same backup; already-restored pages replay as no-ops).
            self._media_failed = True
        if self._deferred_recovery is not None:
            # Pending deferred work dies with the rest of the volatile
            # state; the next recovery's analysis rediscovers it from
            # the durable log.
            self._deferred_recovery.abandon()
        self.log.crash()
        self.pool.drop_all()
        self.catalog.invalidate_volatile()
        self.tm.active.clear()
        self.indoubt.clear()  # rebuilt from durable PREPARE records
        self.locks = LockManager()  # locks are volatile too
        if isinstance(self.pri, PartitionedRecoveryIndex):
            self.pri.partitions = (PageRecoveryIndex(), PageRecoveryIndex())
        else:
            self.pri = PageRecoveryIndex()
        if self.prefetcher is not None:
            # Queued predictions and recent windows are volatile; the
            # learned summary survives and seeds post-crash warmup.
            self.prefetcher.on_crash()
        self._build_recovery_stack()
        self._wire_pool()
        self._crashed = True
        self.stats.bump("system_crashes")
        for hook in self.crash_hooks:
            hook(self)

    def restart(self, mode: str | None = None):  # noqa: ANN201 - RestartReport
        """ARIES restart with Figure-12 PRI reconciliation.

        ``mode`` overrides ``config.restart_mode`` for this restart:
        ``"eager"`` recovers fully before returning; ``"on_demand"``
        runs analysis only and returns with the database open and the
        remaining work registered (see :attr:`restart_registry`,
        :meth:`drain_restart`, :meth:`finish_restart`).
        """
        from repro.engine.system_recovery import run_restart

        report = run_restart(self, mode)
        self._crashed = False
        for hook in self.recovery_hooks:
            hook(self, "restart", report)
        return report

    @property
    def _deferred_recovery(self):  # noqa: ANN202 - a registry or None
        """The live deferred-recovery registry, if any.  Media recovery
        abandons a pending restart and restart refuses a half-restored
        device, so at most one of the two registries is live."""
        if self.restart_registry is not None:
            return self.restart_registry
        return self.restore_registry

    @property
    def restart_pending(self) -> bool:
        """Is on-demand restart work still unresolved?"""
        return (self.restart_registry is not None
                and not self.restart_registry.complete)

    def drain_restart(self, page_budget: int | None = None,
                      loser_budget: int | None = None) -> tuple[int, int]:
        """Background drain of pending restart work (bounded by the
        budgets); returns ``(pages_resolved, losers_resolved)``."""
        if self.restart_registry is None:
            return 0, 0
        return self.restart_registry.drain(page_budget, loser_budget)

    def finish_restart(self) -> tuple[int, int]:
        """Resolve every pending page and loser (the completion
        watermark is recorded once the last item resolves)."""
        if self.restart_registry is None:
            return 0, 0
        return self.restart_registry.drain_all()

    def _on_media_failure(self, media: MediaFailure) -> int:
        """Escalation callback: abort every active user transaction."""
        victims = [txn for txn in list(self.tm.active.values())
                   if not txn.is_system]
        for txn in victims:
            # The device is gone; undo work is deferred to media
            # recovery.  Transactions simply fail.
            txn_id = txn.txn_id
            self.tm.active.pop(txn_id, None)
            self.locks.release_all(txn_id)
        self._media_failed = True
        self.stats.bump("txns_killed_by_media_failure", len(victims))
        return len(victims)

    def recover_media(self, backup_id: int,
                      mode: str | None = None):  # noqa: ANN201
        """Media recovery (Section 5.1.3), eager or on demand.

        ``mode`` overrides ``config.restore_mode`` for this recovery:
        ``"eager"`` restores the whole device before returning;
        ``"on_demand"`` reopens immediately with the remaining work
        registered (see :attr:`restore_registry`,
        :meth:`drain_restore`, :meth:`finish_restore`).
        """
        from repro.engine.media_recovery import run_media_recovery

        report = run_media_recovery(self, backup_id, mode)
        for hook in self.recovery_hooks:
            hook(self, "media", report)
        return report

    @property
    def restore_pending(self) -> bool:
        """Is on-demand restore work still unresolved?"""
        return (self.restore_registry is not None
                and not self.restore_registry.complete)

    def drain_restore(self, page_budget: int | None = None,
                      loser_budget: int | None = None) -> tuple[int, int]:
        """Background drain of pending restore work (bounded by the
        budgets); returns ``(pages_restored, losers_resolved)``."""
        if self.restore_registry is None:
            return 0, 0
        return self.restore_registry.drain(page_budget, loser_budget)

    def finish_restore(self) -> tuple[int, int]:
        """Restore every pending page and undo every pending loser
        (the completion watermark is recorded once the last item
        resolves)."""
        if self.restore_registry is None:
            return 0, 0
        return self.restore_registry.drain_all()

    # ------------------------------------------------------------------
    # Prefetching
    # ------------------------------------------------------------------
    def prefetch_tick(self, budget: int | None = None) -> int:
        """Service the prefetch queue: issue up to ``budget`` queued
        speculative fetches.

        This is the engine's *only* inline prefetch service point —
        demand fixes never trigger speculative I/O themselves, they
        only enqueue predictions.  Callers run it between operations
        (a client's idle gap, the chaos scheduler's ``prefetch_tick``
        event, the dip harness's inter-op tick) so speculative reads
        are never charged to a demand operation and never run with a
        frame latch held.  Returns the number of fetches issued.
        """
        if self.prefetcher is None or self._crashed or self._media_failed:
            return 0
        return self.prefetcher.service(self.pool, budget)

    def set_prefetch_mode(self, mode: str) -> None:
        """Switch the prefetch mode at runtime (chaos harness uses
        this to toggle modes mid-schedule).

        Turning prefetching off drops the model; turning it on (or
        switching flavors) starts a fresh one — learned state is not
        carried across modes, so each mode's behavior is a function of
        the traffic it actually observed.
        """
        if mode not in ("off", "sequential", "semantic"):
            raise ConfigError(
                f"prefetch_mode must be 'off', 'sequential' or 'semantic', "
                f"got {mode!r}")
        self.config.prefetch_mode = mode
        if mode == "off":
            self.prefetcher = None
        else:
            self.prefetcher = Prefetcher(
                self.stats, mode=mode, depth=self.config.prefetch_depth,
                window=self.config.prefetch_window)
        self.pool.prefetcher = self.prefetcher
        if self.prefetcher is not None:
            self.pool.prefetch_floor = self.config.data_start
            self.pool.page_bound = self.allocated_pages

    def retire_backups(self) -> list[int]:
        """Retire superseded full backups (gated on the restore
        completion watermark and live recovery-index references)."""
        return self.checkpointer.retire_full_backups()

    def _require_running(self) -> None:
        if self._crashed:
            raise SystemFailure("database crashed; call restart() first")
        if self._media_failed:
            raise MediaFailure(self.device.name,
                               "media failed; run media recovery first")

    # ------------------------------------------------------------------
    # Scrubbing, helpers
    # ------------------------------------------------------------------
    def scrub(self, repair: bool = True) -> ScrubReport:
        """Scrub all allocated pages not currently buffered."""
        self._require_running()
        scrubber = Scrubber(self.device, self.recovery_manager, self.stats,
                            skip=self.pool.resident)
        return scrubber.scrub(0, self.allocated_pages(), repair=repair)

    def allocated_pages(self) -> int:
        return self.allocator.allocated_pages()

    def flush_everything(self) -> None:
        """Force all dirty pages out (used by experiments)."""
        self.pool.flush_all()

    def evict_everything(self) -> None:
        """Flush and evict every unpinned frame."""
        for page_id in list(self.pool.resident_pages()):
            if self.pool.pin_count(page_id) == 0:
                self.pool.evict(page_id)


def check_ops(ops: list[tuple], page_size: int) -> None:
    """Reject a write batch before any of it is applied.

    Each op must be ``("put", key, value)`` or ``("delete", key)`` with
    ``bytes`` operands (:class:`ConfigError` otherwise), and every put
    must fit a leaf of ``page_size`` bytes (:class:`repro.errors.
    BTreeError`, exactly as the tree itself would raise).
    """
    for op in ops:
        shape = (op[0], len(op)) if isinstance(op, (tuple, list)) and op else None
        if shape == ("put", 3):
            if type(op[1]) is not bytes or type(op[2]) is not bytes:
                raise ConfigError(f"batch op operands must be bytes: {op!r}")
            check_entry(op[1], op[2], page_size)
        elif shape == ("delete", 2):
            if type(op[1]) is not bytes:
                raise ConfigError(f"batch op operands must be bytes: {op!r}")
        else:
            raise ConfigError(f"unknown batch op {op!r}")
