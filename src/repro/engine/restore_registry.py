"""The restore half of deferred recovery: instant media restore.

Traditional media recovery (Section 5.1.3) blocks the database while
an entire replacement device is rebuilt from backup.  The paper's
per-page primitives make that unnecessary: every page of the failed
device is independently restorable — backup image plus per-page chain
replay — so restore is an *online* event run by the same deferred-
recovery state machine as instant restart (pending pages, pending
losers, budgeted drain, completion watermark; see
:mod:`repro.engine.restart_registry`).  Only the per-page step
differs:

* **pending pages** are every page the failed device held: the pages
  in the full backup plus pages formatted since it was taken.  A
  pending page is restored by materializing its backup image (page
  copy, full backup, in-log image, or formatting record — the four
  sources of ``core/backup.py``), replaying the missing updates, and
  writing the result to the replacement device;
* **pending losers** are the transactions the media failure aborted.

Eager restore is the degenerate case: prefetch the backup with one
sequential read, then drain everything before the database reopens.

The completion watermark gates checkpointing, log truncation, and
backup retirement: while work is pending, :meth:`retention_bound` pins
the log at the backup's position (chain replay needs the tail from
there) and :meth:`repro.engine.checkpointer.Checkpointer.
retire_full_backups` refuses to retire the backup being restored from.
"""

from __future__ import annotations

from repro.engine.restart_registry import _DeferredRecovery
from repro.engine.system_recovery import redo_page_records
from repro.errors import LogError, RecoveryError
from repro.page.page import Page
from repro.wal.lsn import NULL_LSN
from repro.wal.records import BackupRef, LogRecord, LogRecordKind


class RestoreRegistry(_DeferredRecovery):
    """Tracks and resolves the per-page restore and per-loser undo
    work a media recovery deferred past the moment the database
    reopened (all of it, in eager mode)."""

    DB_ATTR = "restore_registry"
    PENDING_STATS = ("restore_pending_pages", "restore_pending_losers")
    DRAIN_STATS = ("restore_drain_pages", "restore_drain_losers")
    CONFLICT_STAT = "restore_undo_on_conflict"
    UNDO_STATS = ("restore_undo_txns",)
    SUPERSEDED_STAT = "restore_superseded"

    def __init__(self, db, backup_id: int, backup_lsn: int,  # noqa: ANN001
                 backup_pages: set[int],
                 page_records: dict[int, list[LogRecord]],
                 att: dict[int, tuple[int, bool]]) -> None:
        super().__init__(db, {page_id: page_records.get(page_id, [])
                              for page_id in set(backup_pages)
                              | set(page_records)}, att)
        self.backup_id = backup_id
        self.backup_lsn = backup_lsn
        #: pages with an image in the full backup
        self.backup_pages = set(backup_pages)
        #: eager prefetch: backup images pulled with one sequential read
        self._image_cache: dict[int, bytes] = {}
        self._image_lsns: dict[int, int] = {}
        # Telemetry mirrored into MediaRecoveryReport.
        self.pages_restored = 0
        self.bytes_restored = 0
        self.records_replayed = 0

    def install(self) -> None:
        db = self.db
        if db.config.spf_enabled and self.pending_pages:
            # The full backup covers the whole restored range; pages
            # formatted after the backup fall back to their formatting
            # records (Section 5.2.1's fourth source).
            db.pri.set_range_backup(
                0, max(self.pending_pages) + 1,
                BackupRef.full_backup(self.backup_id),
                self.backup_lsn, db.clock.now)
            for page_id, records in self.pending_pages.items():
                if page_id in self.backup_pages or not records:
                    continue
                first = records[0]
                if first.kind == LogRecordKind.FORMAT_PAGE:
                    db.pri.set_backup(page_id,
                                      BackupRef.format_record(first.lsn),
                                      first.lsn, db.clock.now)
        super().install()

    def _detach(self) -> None:
        self._image_cache.clear()
        super()._detach()

    def _on_complete(self) -> None:
        # The replacement device is fully caught up and every loser is
        # undone; checkpointing and backup retirement may proceed.
        db = self.db
        db.last_restore_completion_lsn = self.completed_at_lsn
        db._pending_restore_backup_id = None
        db.stats.bump("instant_restore_completions")
        db.log.force()

    def _page_retention_bound(self) -> int:
        # Chain replay walks each pending page back to the backup.
        return self.backup_lsn

    # ------------------------------------------------------------------
    # Per-page restore
    # ------------------------------------------------------------------
    def prefetch_images(self) -> None:
        """Pull the whole backup with one sequential read (eager mode:
        the classic restore arithmetic; on-demand pays a random read
        per page instead, which is exactly its trade)."""
        db = self.db
        if not self.backup_pages:
            return
        self._image_cache = db.backup_store.restore_full_backup(
            self.backup_id)
        self._image_lsns = db.backup_store.full_backup_lsns(self.backup_id)

    def _backup_image(self, page_id: int,
                      records: list[LogRecord]) -> tuple[Page, int]:
        """Materialize the best backup image for one pending page."""
        db = self.db
        page_size = db.config.page_size
        cached = self._image_cache.get(page_id)
        if cached is not None:
            return Page(page_size, cached), self._image_lsns[page_id]
        if page_id in self.backup_pages:
            image, lsn = db.backup_store.fetch_from_full_backup(
                self.backup_id, page_id)
            return Page(page_size, image), lsn
        if records and records[0].kind == LogRecordKind.FORMAT_PAGE:
            # Formatted after the backup: the formatting record is the
            # backup (source four); replay starts from a fresh page.
            return Page.format(page_size, page_id), NULL_LSN
        raise RecoveryError(
            f"page {page_id} is not in full backup {self.backup_id} and "
            f"has no formatting record since LSN {self.backup_lsn}")

    def _fetch_pending(self, page_id: int) -> Page:
        """First fix of a pending page: restore it, replaying the
        missing updates from its chain via the segmented WAL's indexed
        lookup — the Figure-10 mechanism."""
        with self._mutex:
            records = self.pending_pages.get(page_id)
            if records is not None:
                return self._restore_locked(page_id, records,
                                            sequential=False, use_chain=True)
        return self._orig_fetcher(page_id)  # restored by a racing drain

    def _drain_page_locked(self, page_id: int, records: list[LogRecord],
                           sequential: bool) -> None:
        # A ranked drain deliberately breaks the sequential sweep, so
        # its backup reads are priced as random.
        self._restore_locked(page_id, records, sequential, use_chain=False)

    def _restore_locked(self, page_id: int, records: list[LogRecord],
                        sequential: bool, use_chain: bool) -> Page:
        """Restore one page of the failed device: backup image plus
        per-page replay, written to the replacement device.

        A broken or disconnected chain falls back to the analysis
        record list.  Chain order and log order coincide per page, and
        both go through :func:`repro.engine.system_recovery.
        redo_page_records`, so the result is byte-identical either way.
        """
        db = self.db
        page, base_lsn = self._backup_image(page_id, records)
        applied: int | None = None
        if use_chain:
            try:
                start_lsn = db.log_reader.chain_start_lsn(page_id, None)
                chain = db.log_reader.walk_page_chain(start_lsn, base_lsn,
                                                      page_id=page_id)
                applied = redo_page_records(page, chain)
            except (RecoveryError, LogError):
                # Restart from a fresh backup image and replay the
                # analysis list instead.
                db.stats.bump("restore_chain_fallbacks")
                page, base_lsn = self._backup_image(page_id, records)
        if applied is None:
            applied = redo_page_records(
                page, [r for r in records if r.lsn > base_lsn])
        page.seal()
        db.device.write(page_id, page.data, sequential=sequential)
        if db.config.spf_enabled:
            db.pri.record_write(page_id, page.page_lsn)
        self._image_cache.pop(page_id, None)
        self.pages_restored += 1
        self.bytes_restored += len(page.data)
        self.records_replayed += applied
        db.stats.bump("restore_pages")
        db.stats.bump("restore_records", applied)
        self._resolve_page_locked(page_id)
        return page
