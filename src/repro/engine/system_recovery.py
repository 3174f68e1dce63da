"""Restart recovery with the paper's PRI integration (Section 5.1.2).

Restart is log analysis followed by the deferred-recovery state
machine of :mod:`repro.engine.restart_registry`, plus the Figure-12
actions:

* **Log analysis** (reads only the log): rebuilds the dirty page table
  ("recovery requirements") and the active transaction table from the
  last checkpoint.  An *update* record adds its page; a *PRI-update*
  record — which doubles as a completed-write record — removes it, so
  pages whose writes completed before the crash need no redo read at
  all (the Figure-4 optimization).  Backup and format records replay
  into the in-memory page recovery index.
* **Redo** (physical, per page): reads only the remaining required
  pages, applies missing updates decided by the PageLSN, and verifies
  the per-page chain ordering as it goes (the defensive check of
  Section 5.1.4).  Where a page turns out to be *already up to date* —
  it was written but its PRI-update record was lost in the crash —
  restart generates the missing PRI-update log record right away
  (Figure 12, bottom row).
* **Undo** (logical, per loser): rolls back loser transactions through
  the indexes, writing CLRs.

Eager mode runs redo and undo to completion before the database opens
(a full drain of the registry); on-demand mode opens right after
analysis and leaves them to first fixes, lock conflicts, and
background drains.

Before any of that, the persisted page recovery index is loaded from
its reserved page region; a damaged PRI page is itself repaired by
single-page recovery from its in-log full-page image — the structure is
covered by its own mechanism (Section 5.2).
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field

from repro.core.recovery_index import PageRecoveryIndex, PartitionedRecoveryIndex
from repro.errors import RecoveryError
from repro.page.page import Page
from repro.sim.clock import StopWatch
from repro.wal.lsn import LOG_START, NULL_LSN
from repro.wal.records import BackupRef, LogRecord, LogRecordKind, decompress_image


@dataclass
class RestartReport:
    """What restart recovery did and what it cost (simulated time)."""

    mode: str = "eager"
    analysis_records: int = 0
    dirty_pages_at_analysis_end: int = 0
    pages_trimmed_by_write_logging: int = 0
    redo_pages_read: int = 0
    redo_records_applied: int = 0
    redo_pages_already_current: int = 0
    pri_repair_records: int = 0
    pri_pages_repaired: int = 0
    undo_transactions: int = 0
    analysis_seconds: float = 0.0
    redo_seconds: float = 0.0
    undo_seconds: float = 0.0
    loser_txn_ids: list[int] = field(default_factory=list)
    #: prepared (2PC in-doubt) transactions found by analysis: neither
    #: redone away nor rolled back — they hold their locks until the
    #: coordinator's decision arrives via ``Database.resolve_indoubt``
    indoubt_gtids: list[int] = field(default_factory=list)
    #: on-demand mode: work registered for lazy completion instead of
    #: being done before the database opened
    pending_redo_pages: int = 0
    pending_undo_txns: int = 0

    @property
    def total_seconds(self) -> float:
        return self.analysis_seconds + self.redo_seconds + self.undo_seconds


def run_restart(db, mode: str | None = None) -> RestartReport:  # noqa: ANN001
    """Run restart recovery against a crashed :class:`Database`.

    ``mode`` overrides ``config.restart_mode`` for this one restart.
    Both modes run analysis and register the surviving dirty-page
    table and loser set with a :class:`repro.engine.restart_registry.
    RestartRegistry`.  On-demand mode returns right away with the
    database open for traffic; eager mode first drains everything —
    redo of every pending page, then undo of every loser.
    """
    from repro.engine.restart_registry import RestartRegistry

    if db._media_failed:
        # A crash interrupted an on-demand restore (or hit an already
        # media-failed node): the device is not a trustworthy redo
        # substrate, and media recovery from the retained backup
        # subsumes restart anyway — it replays the whole durable tail
        # and undoes every unfinished transaction.
        from repro.errors import MediaFailure

        raise MediaFailure(
            db.device.name,
            "device not restored; run recover_media() first (a restore "
            "interrupted by a crash re-runs from the same backup)")

    report = RestartReport()
    cfg = db.config
    report.mode = mode or cfg.restart_mode
    db._crashed = False  # recovery itself may use engine services

    if cfg.spf_enabled:
        _load_pri(db, report)

    with StopWatch(db.clock) as watch:
        dpt, att, page_records, max_txn = _analysis(db, report)
    report.analysis_seconds = watch.elapsed
    report.dirty_pages_at_analysis_end = len(dpt)
    db.tm.restore_txn_id_floor(max_txn)

    # Prepared (2PC) transactions leave the loser set: they re-acquire
    # their locks and wait in doubt for the coordinator's decision.
    att, indoubt = split_indoubt(db, att)
    report.indoubt_gtids = register_indoubt(db, indoubt)

    registry = RestartRegistry(db, page_records, att)
    registry.install()
    if report.mode == "on_demand":
        report.pending_redo_pages = registry.pending_page_count
        report.pending_undo_txns = registry.pending_loser_count
        report.loser_txn_ids = sorted(att)
        db.stats.bump("instant_restarts")
    else:
        with StopWatch(db.clock) as watch:
            registry.drain(loser_budget=0)
        report.redo_seconds = watch.elapsed
        with StopWatch(db.clock) as watch:
            registry.drain_all()
        report.undo_seconds = watch.elapsed
        report.redo_pages_read = registry.pages_read
        report.redo_records_applied = registry.records_applied
        report.redo_pages_already_current = registry.pages_already_current
        report.pri_repair_records = registry.pri_repair_records
        report.loser_txn_ids = registry.undone_losers
        report.undo_transactions = len(registry.undone_losers)
    db.log.force()
    db.stats.bump("restarts")
    return report


# ----------------------------------------------------------------------
# Pass 1: log analysis
# ----------------------------------------------------------------------
#: record kinds that end a transaction (it is no longer a loser)
TERMINAL_TXN_KINDS = (LogRecordKind.COMMIT, LogRecordKind.SYS_COMMIT,
                      LogRecordKind.ABORT, LogRecordKind.TXN_END)


@dataclass
class InDoubtTxn:
    """A prepared transaction awaiting its 2PC coordinator decision.

    Recovered by restart (or media-recovery) analysis: the transaction
    voted yes — its PREPARE record is durable — so presumed abort does
    not apply.  It holds its key locks (re-acquired from its chain)
    until :meth:`repro.engine.database.Database.resolve_indoubt`
    delivers the decision.
    """

    txn_id: int
    gtid: int
    last_lsn: int
    first_lsn: int
    keys: set[bytes] = field(default_factory=set)


def split_indoubt(db, att):  # noqa: ANN001
    """Partition an analysis ATT into losers and in-doubt transactions.

    A transaction whose chain head is a PREPARE record is *in doubt*:
    it must not be rolled back by presumed-abort undo.  The chain-head
    test works whether analysis saw the PREPARE itself or only a
    checkpoint's ATT entry pointing at it — a prepared transaction
    never logs past its PREPARE except during a decided abort, whose
    CLRs (and terminal ABORT) reclassify it correctly.

    Returns ``(losers_att, {txn_id: (gtid, last_lsn)})``.
    """
    losers: dict[int, tuple[int, bool]] = {}
    indoubt: dict[int, tuple[int, int]] = {}
    for txn_id, (last_lsn, is_system) in att.items():
        record = (db.log.record_at(last_lsn)
                  if last_lsn != NULL_LSN and db.log.has_record(last_lsn)
                  else None)
        if record is not None and record.kind == LogRecordKind.PREPARE:
            indoubt[txn_id] = (record.gtid, last_lsn)
        else:
            losers[txn_id] = (last_lsn, is_system)
    return losers, indoubt


def register_indoubt(db, indoubt: dict[int, tuple[int, int]]) -> list[int]:  # noqa: ANN001
    """Re-install in-doubt transactions after a recovery's analysis.

    Each gets its key locks back (from its per-transaction chain, the
    same walk instant restart uses for losers) and an entry in
    ``db.indoubt`` keyed by global transaction id; new transactions
    touching those keys block until the decision resolves them.
    """
    gtids: list[int] = []
    for txn_id, (gtid, last_lsn) in indoubt.items():
        keys, first_lsn = db.tm.chain_summary(last_lsn)
        for key in keys:
            db.locks.acquire(txn_id, key)
        db.indoubt[gtid] = InDoubtTxn(txn_id, gtid, last_lsn, first_lsn, keys)
        gtids.append(gtid)
    if gtids:
        db.stats.bump("indoubt_txns_recovered", len(gtids))
    return sorted(gtids)


def note_txn_record(att: dict[int, tuple[int, bool]],
                    record: LogRecord) -> None:
    """Apply one record's effect to an active-transaction table
    (txn_id -> (last_lsn, is_system)).

    The single definition of loser tracking, shared by restart
    analysis and media-recovery analysis — the two recoveries must
    never disagree on what counts as an unfinished transaction.
    """
    if not record.txn_id:
        return
    if record.kind in TERMINAL_TXN_KINDS:
        att.pop(record.txn_id, None)
    else:
        prior = att.get(record.txn_id)
        att[record.txn_id] = (record.lsn, prior[1] if prior else False)


def _analysis(db, report: RestartReport):  # noqa: ANN001
    cfg = db.config
    start_lsn = db.log.master_checkpoint_lsn or LOG_START
    records = db.log_reader.scan_from(start_lsn)
    dpt: dict[int, int] = {}
    last_update: dict[int, int] = {}
    att: dict[int, tuple[int, bool]] = {}
    page_records: dict[int, list[LogRecord]] = {}
    max_txn = 0
    pri_region = range(cfg.pri_region_start, cfg.pri_region_end)

    for record in records:
        report.analysis_records += 1
        kind = record.kind
        if kind == LogRecordKind.CHECKPOINT_END and record.checkpoint is not None:
            for page_id, rec_lsn in record.checkpoint.dirty_pages.items():
                dpt.setdefault(page_id, rec_lsn)
            for txn_id, last_lsn, is_system in record.checkpoint.active_txns:
                att[txn_id] = (last_lsn, is_system)
                max_txn = max(max_txn, txn_id)
            continue
        if record.txn_id:
            max_txn = max(max_txn, record.txn_id)
        note_txn_record(att, record)
        page_id = record.page_id
        if record.is_page_update and page_id >= 0:
            if (kind == LogRecordKind.FULL_PAGE_IMAGE
                    and page_id in pri_region):
                # PRI region pages were handled in the load phase.
                continue
            dpt.setdefault(page_id, record.lsn)
            last_update[page_id] = record.lsn
            page_records.setdefault(page_id, []).append(record)
            if kind == LogRecordKind.FORMAT_PAGE and cfg.spf_enabled:
                db.pri.set_backup(page_id, BackupRef.format_record(record.lsn),
                                  record.lsn, db.clock.now)
        elif kind == LogRecordKind.PRI_UPDATE and page_id >= 0:
            # A completed write: everything logged up to page_lsn is on
            # disk; the page leaves the recovery requirements (Figure
            # 12, analysis row 2 / the Figure-4 optimization).
            if last_update.get(page_id, NULL_LSN) <= record.page_lsn:
                if page_id in dpt:
                    dpt.pop(page_id)
                    page_records.pop(page_id, None)
                    report.pages_trimmed_by_write_logging += 1
            if cfg.spf_enabled:
                db.pri.record_write(page_id, record.page_lsn)
        elif kind == LogRecordKind.BACKUP_PAGE and page_id >= 0:
            if cfg.spf_enabled and record.backup_ref is not None:
                db.pri.set_backup(page_id, record.backup_ref,
                                  record.page_lsn, db.clock.now)
        elif (kind == LogRecordKind.BACKUP_FULL and cfg.spf_enabled
                and db.backup_store.has_full_backup(record.backup_id)):
            # The guard covers two cases: a retired backup (its record
            # outlives the media) and a promoted standby (its adopted
            # log holds the old primary's BACKUP_FULL records, but its
            # backup store starts empty).
            lsns = db.backup_store.full_backup_lsns(record.backup_id)
            if lsns:
                db.pri.set_range_backup(0, max(lsns) + 1,
                                        BackupRef.full_backup(record.backup_id),
                                        record.lsn, db.clock.now)

    # Records before the checkpoint for pages whose rec_lsn precedes it.
    min_rec = min(dpt.values(), default=None)
    if min_rec is not None and min_rec < start_lsn:
        for record in db.log_reader.scan_from(min_rec):
            if record.lsn >= start_lsn:
                break
            page_id = record.page_id
            if (record.is_page_update and page_id in dpt
                    and record.lsn >= dpt[page_id]):
                page_records.setdefault(page_id, [])
                page_records[page_id].insert(
                    _insert_pos(page_records[page_id], record.lsn), record)
    return dpt, att, page_records, max_txn


def _insert_pos(records: list[LogRecord], lsn: int) -> int:
    """Insertion point keeping ``records`` sorted by LSN.

    Binary search: the pre-checkpoint backfill may prepend thousands of
    records per page, and a linear scan made that O(n²).
    """
    return bisect.bisect_left(records, lsn, key=lambda record: record.lsn)


# ----------------------------------------------------------------------
# Redo: the per-page primitive
# ----------------------------------------------------------------------
def redo_page_records(page: Page, records: list[LogRecord]) -> int:
    """Apply the missing updates from ``records`` to one page.

    The per-page core of redo, shared by the restart registry (a
    pending page rolled forward from its analysis record list) and the
    restore registry (a pending page rebuilt from its backup image —
    chain order or analysis order, same primitive).
    Returns the number of records applied; raises
    :class:`RecoveryError` on a per-page chain mismatch (the defensive
    check of Section 5.1.4).
    """
    applied = 0
    for record in records:
        if record.kind == LogRecordKind.FULL_PAGE_IMAGE:
            as_of = record.page_lsn if record.page_lsn else record.lsn
            if page.page_lsn < as_of:
                page.data[:] = decompress_image(record.image or b"")
                page.btree_cache = None
                if page.page_lsn != as_of:
                    page.page_lsn = as_of
                applied += 1
            continue
        if record.op is None:
            continue
        if page.page_lsn >= record.lsn:
            continue  # already reflected on disk
        # Defensive check (Section 5.1.4): the chain predicts the
        # PageLSN every redo action must find.  A formatting record is
        # a chain root — it resets the page regardless of what the old
        # incarnation on the device holds.
        if (record.kind != LogRecordKind.FORMAT_PAGE
                and record.page_prev_lsn != page.page_lsn):
            raise RecoveryError(
                f"redo chain mismatch on page {page.page_id}: record "
                f"{record.lsn} expects PageLSN {record.page_prev_lsn}, "
                f"page has {page.page_lsn}")
        record.op.apply_redo(page)
        page.page_lsn = record.lsn
        applied += 1
    return applied


# ----------------------------------------------------------------------
# Phase 0: load the persisted page recovery index
# ----------------------------------------------------------------------
def _load_pri(db, report: RestartReport) -> None:  # noqa: ANN001
    """Rebuild the in-memory PRI from its page region.

    Every checkpoint rewrites the whole region, logging a full-page
    image per page *before* the CHECKPOINT_END record — so the log tail
    beginning at the master checkpoint always contains a backup for
    each region page.  A region page that fails verification is rebuilt
    from that image: single-page recovery applied to the recovery
    index itself.
    """
    start_lsn = db.log.master_checkpoint_lsn
    if not start_lsn:
        return  # no checkpoint yet; analysis rebuilds from scratch
    master = db.log.record_at(start_lsn)
    if master.kind != LogRecordKind.CHECKPOINT_END or master.checkpoint is None:
        return
    fpi_by_page: dict[int, LogRecord] = {}
    for page_id, lsn in master.checkpoint.pri_images.items():
        if db.log.has_record(lsn):
            fpi_by_page[page_id] = db.log.record_at(lsn)
    if not fpi_by_page:
        return

    partitioned = isinstance(db.pri, PartitionedRecoveryIndex)
    n_partitions = 2 if partitioned else 1
    for p in range(n_partitions):
        chunks: dict[int, bytes] = {}
        total_pages = None
        for page_id in db.checkpointer.pri_partition_pages(p):
            record = fpi_by_page.get(page_id)
            if record is None:
                continue
            page = _load_pri_page(db, page_id, record, report)
            length, seq, total = struct.unpack_from("<IHH", page.data, 32)
            total_pages = total
            chunks[seq] = bytes(page.data[40:40 + length])
        if total_pages is None:
            continue
        blob = b"".join(chunks[i] for i in sorted(chunks))
        partition = PageRecoveryIndex.deserialize(blob)
        if partitioned:
            parts = list(db.pri.partitions)
            parts[p] = partition
            db.pri.partitions = tuple(parts)
        else:
            db.pri = partition
            db._build_recovery_stack()
            db._wire_pool()

    # The region pages' own entries were created *after* the snapshots
    # were serialized (self-coverage ordering); re-derive them from the
    # image records just used, exactly as persist_pri recorded them.
    for page_id, record in fpi_by_page.items():
        db.pri.set_backup(page_id, BackupRef.log_image(record.lsn),
                          record.lsn, db.clock.now)
        db.pri.record_write(page_id, record.lsn)


def _load_pri_page(db, page_id: int, fpi: LogRecord,  # noqa: ANN001
                   report: RestartReport) -> Page:
    expected_lsn = fpi.lsn
    try:
        data = db.device.read(page_id)
        page = Page(db.config.page_size, data)
        page.verify(expected_page_id=page_id)
        if page.page_lsn == expected_lsn:
            return page
    except Exception:  # noqa: BLE001 - any damage falls through to repair
        pass
    # The device copy is damaged or stale: restore from the in-log
    # image (single-page recovery of the PRI, Section 5.2).
    page = Page(db.config.page_size, decompress_image(fpi.image or b""))
    page.page_lsn = expected_lsn
    page.seal()
    try:
        db.device.remap(page_id, "PRI page failure at restart")
    except Exception:  # noqa: BLE001 - remap is best-effort here
        pass
    db.device.write(page_id, page.data)
    report.pri_pages_repaired += 1
    db.stats.bump("pri_pages_repaired")
    return page
