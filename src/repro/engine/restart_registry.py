"""Deferred recovery: the pending-work registry behind instant restart
and instant restore, and the restart half of it.

The paper's per-page log chain makes every page independently
recoverable, so neither restart (Section 5.1.2) nor media restore
(Section 5.1.3) need be an offline event.  After an analysis pass the
database opens immediately and one registry tracks what a classic
recovery would have done before opening:

* **pending pages** — each with its analysis record list.  A pending
  page is brought current on its first fix through the buffer pool's
  hooks, walking its per-page chain; cold pages are recovered by a
  budgeted background :meth:`~_DeferredRecovery.drain`, which replays
  the analysis record lists the scan already paid for;
* **pending losers** — the loser-transaction set.  Each loser's key
  locks are re-acquired from its per-transaction chain, so conflicting
  user transactions trigger rollback of exactly the loser in their way
  (the lock manager's ``conflict_resolver`` hook); the drain resolves
  the rest.

Eager mode is the degenerate case: analysis, install, drain
everything, then open.  Both modes run the same per-page and per-loser
steps, which is what makes them byte-identical (the differential
oracles of ``tests/test_crash_matrix`` and ``tests/test_media_matrix``).

A **completion watermark** gates log truncation: while work is
pending, :meth:`~_DeferredRecovery.retention_bound` pins the log at
the oldest record any pending page or loser may still need; once the
last item resolves the registry detaches its hooks and records the
watermark LSN.

The two recoveries differ only in how one pending page is brought
current.  :class:`RestartRegistry` rolls the stale device copy
forward (the surviving dirty-page table); :class:`repro.engine.
restore_registry.RestoreRegistry` materializes a backup image on a
replacement device and replays onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.system_recovery import redo_page_records
from repro.errors import PageFailureKind, SinglePageFailure
from repro.page.page import Page
from repro.storage.device import DeviceReadError
from repro.sync import Mutex
from repro.txn.transaction import Transaction
from repro.wal.lsn import NULL_LSN
from repro.wal.records import LogRecord, LogRecordKind


@dataclass
class PendingLoser:
    """One loser transaction awaiting lazy rollback."""

    txn_id: int
    last_lsn: int
    is_system: bool
    first_lsn: int = NULL_LSN
    keys: set[bytes] = field(default_factory=set)


class _DeferredRecovery:
    """The deferred-recovery state machine shared by restart and
    restore.

    A subclass names where it lives (``DB_ATTR``, the ``Database``
    attribute) and the stats counters it reports under, and supplies
    the per-page step: :meth:`_fetch_pending` (first fix of a pending
    page), :meth:`_drain_page_locked` (the drain's recovery from the
    analysis record list), :meth:`_page_retention_bound` and
    :meth:`_on_complete`.
    """

    #: the Database attribute holding the live registry
    DB_ATTR: str
    #: counters bumped at install: (pending pages, pending losers)
    PENDING_STATS: tuple[str, str]
    #: counters bumped per drain: (pages resolved, losers resolved)
    DRAIN_STATS: tuple[str, str]
    #: counter bumped when a lock conflict forces a loser's rollback
    CONFLICT_STAT: str
    #: counters bumped per loser rolled back, by either path
    UNDO_STATS: tuple[str, ...]
    #: counter bumped when a fresh format supersedes a pending page
    SUPERSEDED_STAT: str

    def __init__(self, db, pending_pages: dict[int, list[LogRecord]],  # noqa: ANN001
                 att: dict[int, tuple[int, bool]]) -> None:
        self.db = db
        #: page id -> its analysis record list, in log order
        self.pending_pages = pending_pages
        self.pending_losers: dict[int, PendingLoser] = {}
        for txn_id, (last_lsn, is_system) in att.items():
            keys, first_lsn = db.tm.chain_summary(last_lsn)
            self.pending_losers[txn_id] = PendingLoser(
                txn_id, last_lsn, is_system, first_lsn, keys)
        self.completed_at_lsn: int | None = None
        #: guards the pending maps: first-fix hooks run under whatever
        #: latch the fixing thread holds (shared readers included),
        #: while drains run under the exclusive engine latch — the
        #: mutex makes each page's recovery claim atomic either way, so
        #: a page is recovered exactly once
        self._mutex = Mutex()
        #: losers whose rollback is running right now (claimed under
        #: the mutex, rolled back outside it)
        self._undoing: set[int] = set()
        #: losers rolled back so far, in rollback order
        self.undone_losers: list[int] = []

    # ------------------------------------------------------------------
    # Installation / detachment
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Hook the registry into the buffer pool and lock manager."""
        db = self.db
        setattr(db, self.DB_ATTR, self)
        self._orig_fetcher = db.pool.fetcher
        db.pool.fetcher = self._fetch
        db.locks.conflict_resolver = self.resolve_loser_conflict
        # Whatever lock state the losers left behind (a media failure
        # aborts them mid-flight) is replaced by locks re-acquired from
        # their per-transaction chains, so new transactions conflict
        # with (and then resolve) exactly the losers whose keys they
        # touch.
        for loser in self.pending_losers.values():
            db.tm.active.pop(loser.txn_id, None)
            db.locks.release_all(loser.txn_id)
        for loser in self.pending_losers.values():
            for key in loser.keys:
                db.locks.acquire(loser.txn_id, key)
        db.stats.bump(self.PENDING_STATS[0], len(self.pending_pages))
        db.stats.bump(self.PENDING_STATS[1], len(self.pending_losers))
        self._maybe_finish()

    def abandon(self) -> None:
        """Drop all pending work without resolving it (a new failure:
        the next recovery's analysis rediscovers everything from the
        durable log)."""
        self.pending_pages.clear()
        self.pending_losers.clear()
        self._detach()

    def _detach(self) -> None:
        db = self.db
        if db.pool.fetcher == self._fetch:
            db.pool.fetcher = self._orig_fetcher
        if db.locks.conflict_resolver == self.resolve_loser_conflict:
            db.locks.conflict_resolver = None
        if getattr(db, self.DB_ATTR) is self:
            setattr(db, self.DB_ATTR, None)

    def _fetch(self, page_id: int) -> Page:
        """Fetcher wrapper: pending pages take the registry's first-fix
        path; everything else the normal Figure-8 path."""
        if page_id in self.pending_pages:
            return self._fetch_pending(page_id)
        return self._orig_fetcher(page_id)

    def _maybe_finish(self) -> None:
        if self.pending_pages or self.pending_losers:
            return
        if self.completed_at_lsn is None:
            # The completion watermark: everything the failure left
            # behind is resolved; log truncation may proceed normally.
            self.completed_at_lsn = self.db.log.end_lsn
            self._on_complete()
        self._detach()

    def _resolve_page_locked(self, page_id: int) -> None:
        del self.pending_pages[page_id]
        self._maybe_finish()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_page_count(self) -> int:
        return len(self.pending_pages)

    @property
    def pending_loser_count(self) -> int:
        return len(self.pending_losers)

    @property
    def complete(self) -> bool:
        return not self.pending_pages and not self.pending_losers

    def retention_bound(self) -> int | None:
        """Oldest LSN any pending page or loser may still need, or
        ``None`` when nothing is pending (the truncation gate)."""
        bound = self._page_retention_bound() if self.pending_pages else None
        for loser in self.pending_losers.values():
            lsn = (loser.first_lsn if loser.first_lsn != NULL_LSN
                   else loser.last_lsn)
            bound = lsn if bound is None else min(bound, lsn)
        return bound

    def discard_page(self, page_id: int) -> None:
        """A pending page was reformatted by fresh allocation before
        its first read: the formatting supersedes its recovery ("it
        has the same effect as a successful write", Section 5.1.2)."""
        with self._mutex:
            if self.pending_pages.pop(page_id, None) is not None:
                self.db.stats.bump(self.SUPERSEDED_STAT)
                self._maybe_finish()

    # ------------------------------------------------------------------
    # Lazy undo (the lock manager's conflict_resolver hook)
    # ------------------------------------------------------------------
    def resolve_loser_conflict(self, holder_txn_id: int) -> bool:
        """A lock request hit ``holder_txn_id``: if it is a pending
        loser, roll it back now and let the requester retry."""
        if holder_txn_id not in self.pending_losers:
            return False
        self.db.stats.bump(self.CONFLICT_STAT)
        return self.undo_pending_loser(holder_txn_id)

    def undo_pending_loser(self, txn_id: int) -> bool:
        """Roll back one pending loser and log its ABORT record."""
        db = self.db
        # Claim under the mutex, roll back outside it: rollback fixes
        # pages (pool mutex, frame latches), and a first-fix hook on
        # another thread takes this mutex while holding a frame latch —
        # holding it across the rollback would invert that order.  The
        # loser stays in pending_losers until its rollback completes,
        # so a mid-undo failure neither strands its locks behind a
        # phantom holder nor lets the completion watermark lift early.
        with self._mutex:
            loser = self.pending_losers.get(txn_id)
            if loser is None or txn_id in self._undoing:
                return False
            self._undoing.add(txn_id)
        try:
            txn = Transaction(txn_id, is_system=loser.is_system)
            txn.last_lsn = loser.last_lsn
            db.tm.rollback_work(txn, db)
            db.log.append(LogRecord(LogRecordKind.ABORT, txn_id=txn_id,
                                    prev_lsn=txn.last_lsn))
        except BaseException:
            with self._mutex:
                self._undoing.discard(txn_id)
            raise
        with self._mutex:
            self._undoing.discard(txn_id)
            del self.pending_losers[txn_id]
            db.locks.release_all(txn_id)
            for name in self.UNDO_STATS:
                db.stats.bump(name)
            self.undone_losers.append(txn_id)
            self._maybe_finish()
        return True

    # ------------------------------------------------------------------
    # Background drain
    # ------------------------------------------------------------------
    def drain(self, page_budget: int | None = None,
              loser_budget: int | None = None) -> tuple[int, int]:
        """Resolve pending work up to the budgets; returns
        ``(pages_resolved, losers_resolved)``.

        Every drained page is recovered from its analysis record list:
        the analysis scan already paid for (and holds) every list, so
        the drain walks no per-page chains.  Unbudgeted drains
        (``drain_all``: the checkpoint gate and the whole of eager
        mode) keep one fixed order — pages by ascending id, then
        losers newest-first — so a drained on-demand recovery is
        log-byte-identical to an eager one.  *Budgeted* drains with a
        prefetcher attached take pages in predicted-next-access order
        instead, warming the working set before the cold tail.
        """
        db = self.db
        with self._mutex:
            pending_now = sorted(self.pending_pages)
        ranked = page_budget is not None and db.prefetcher is not None
        if ranked:
            pending_now = db.prefetcher.rank(pending_now)
        pages_done = 0
        for page_id in pending_now:
            if page_budget is not None and pages_done >= page_budget:
                break
            with self._mutex:
                records = self.pending_pages.get(page_id)
                if records is None:
                    continue  # resolved by a racing fix
                self._drain_page_locked(page_id, records,
                                        sequential=not ranked)
            pages_done += 1
        losers_done = 0
        with self._mutex:
            order = sorted(self.pending_losers.values(),
                           key=lambda loser: -loser.last_lsn)
        for loser in order:
            if loser_budget is not None and losers_done >= loser_budget:
                break
            if self.undo_pending_loser(loser.txn_id):
                losers_done += 1
        db.stats.bump(self.DRAIN_STATS[0], pages_done)
        db.stats.bump(self.DRAIN_STATS[1], losers_done)
        return pages_done, losers_done

    def drain_all(self) -> tuple[int, int]:
        """Resolve everything (the checkpoint gate and eager mode)."""
        return self.drain()


class RestartRegistry(_DeferredRecovery):
    """Tracks and resolves the redo/undo work a restart deferred past
    the moment the database opened (all of it, in eager mode).

    Pending pages are the surviving dirty-page table.  A pending page
    is read exactly as a redo pass would read it, then rolled forward:
    on first fix from its per-page chain through the buffer pool's
    ``redo_on_fix`` hook (the stale-but-valid device copy treated as
    an incipient single-page failure, :meth:`repro.core.single_page.
    SinglePageRecovery.roll_forward`), by the drain from its analysis
    record list.
    """

    DB_ATTR = "restart_registry"
    PENDING_STATS = ("restart_pending_pages", "restart_pending_losers")
    DRAIN_STATS = ("restart_drain_pages", "restart_drain_losers")
    CONFLICT_STAT = "lazy_undo_on_conflict"
    UNDO_STATS = ("lazy_undo_txns", "restart_undo_txns")
    SUPERSEDED_STAT = "lazy_redo_superseded"

    def __init__(self, db, page_records: dict[int, list[LogRecord]],  # noqa: ANN001
                 att: dict[int, tuple[int, bool]]) -> None:
        # Pages without collected records need no redo read at all and
        # are not registered.
        super().__init__(db, {page_id: records
                              for page_id, records in page_records.items()
                              if records}, att)
        # Drain telemetry, mirrored into an eager RestartReport.
        self.pages_read = 0
        self.records_applied = 0
        self.pages_already_current = 0
        self.pri_repair_records = 0

    def install(self) -> None:
        self.db.pool.redo_on_fix = self.on_page_fetched
        super().install()

    def _detach(self) -> None:
        if self.db.pool.redo_on_fix == self.on_page_fetched:
            self.db.pool.redo_on_fix = None
        super()._detach()

    def _on_complete(self) -> None:
        self.db.last_restart_completion_lsn = self.completed_at_lsn
        self.db.stats.bump("instant_restart_completions")

    def _page_retention_bound(self) -> int:
        return min(records[0].lsn for records in self.pending_pages.values())

    def _fetch_pending(self, page_id: int) -> Page:
        """Read one pending page for redo.  A page that never reached
        the device starts from a fresh formatted image (its first
        pending record is the formatting record); a read failure is a
        single-page failure, repaired through Figure-8 dispatch."""
        db = self.db
        if db.device.raw_image(page_id) is None:
            return Page.format(db.config.page_size, page_id)
        try:
            page = Page(db.config.page_size, db.device.read(page_id))
            page.verify(expected_page_id=page_id)
            if db.config.spf_enabled and db.config.pri_lsn_check:
                # The same stale-LSN cross-check the normal read path
                # runs (Figure 8): a lost write leaves a plausible page
                # whose only tell is a PageLSN older than the recovery
                # index expects.  Without this, redo would hit the
                # chain-mismatch guard instead of repairing the page.
                expected = db.pri.expected_page_lsn(page_id)
                if expected is not None and page.page_lsn < expected:
                    raise SinglePageFailure(
                        page_id, PageFailureKind.STALE_LSN,
                        f"PageLSN {page.page_lsn} older than recovery "
                        f"index's {expected} at restart redo")
            return page
        except DeviceReadError as exc:
            failure = SinglePageFailure(
                page_id, PageFailureKind.DEVICE_READ_ERROR, str(exc))
        except SinglePageFailure as exc:
            failure = exc
        # Single-page recovery during restart: the PRI was already
        # reconstructed by the load + analysis phases.
        return db.recovery_manager.handle_failure(failure)

    def _log_pri_repair(self, page: Page) -> None:
        """Figure 12, bottom row: the data page had been written before
        the crash, but the PRI update was lost.  Generate the missing
        log record now; applying it to the index can happen lazily,
        exactly as in normal forward processing."""
        db = self.db
        if not db.config.log_completed_writes:
            return
        db.log.append(LogRecord(LogRecordKind.PRI_UPDATE,
                                page_id=page.page_id,
                                page_lsn=page.page_lsn))
        db.stats.bump("pri_repair_records")
        self.pri_repair_records += 1
        if db.config.spf_enabled:
            db.pri.record_write(page.page_id, page.page_lsn)

    def _resolve_redone_locked(self, page: Page, applied: int) -> None:
        self.db.stats.bump("lazy_redo_pages")
        self.db.stats.bump("lazy_redo_records", applied)
        self._resolve_page_locked(page.page_id)
        if applied == 0:
            self._log_pri_repair(page)

    # ------------------------------------------------------------------
    # First fix (the buffer pool's redo_on_fix hook)
    # ------------------------------------------------------------------
    def on_page_fetched(self, page: Page) -> int | None:
        """Roll a just-fetched pending page forward from its chain.

        Returns the recovery LSN the frame must be marked dirty with,
        or ``None`` if the page turned out to be current already (the
        Figure-12 bottom row: generate the lost PRI-update record).
        """
        with self._mutex:
            records = self.pending_pages.get(page.page_id)
            if records is None:
                return None
            # The page stays pending until its redo *succeeds*: a
            # failure here propagates out of the fix (no frame is
            # installed) and a later fix retries, instead of silently
            # serving a stale page.
            chain = self.db.recovery_manager.roll_forward_stale(page)
            if chain is not None:
                applied = len(chain)
                rec_lsn = chain[0].lsn if chain else None
            else:
                # Chain-forward unsupported or the chain did not
                # connect: replay the analysis pass's record list.
                applied = redo_page_records(page, records)
                rec_lsn = records[0].lsn
            self._resolve_redone_locked(page, applied)
            return rec_lsn if applied else None

    # ------------------------------------------------------------------
    # Drain (the redo pass, one page at a time)
    # ------------------------------------------------------------------
    def _drain_page_locked(self, page_id: int, records: list[LogRecord],
                           sequential: bool) -> None:  # noqa: ARG002
        db = self.db
        page = self._fetch_pending(page_id)
        applied = redo_page_records(page, records)
        self.pages_read += 1
        self.records_applied += applied
        db.stats.bump("redo_page_reads")
        db.stats.bump("redo_records_applied", applied)
        if applied == 0:
            self.pages_already_current += 1
        self._resolve_redone_locked(page, applied)
        if applied:
            # The page is dirty again; install it in the buffer pool so
            # normal write-back (and PRI maintenance) applies.  No fix
            # of a pending page can be in flight: drains run under the
            # exclusive engine latch.
            db.pool.fix_new(page)
            db.pool.mark_dirty(page_id, records[0].lsn)
            db.pool.unfix(page_id)
