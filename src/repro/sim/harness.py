"""Deterministic chaos simulation with a durability oracle.

The paper's claim is structural: single-page failures join transaction,
media, and system failures in one taxonomy, and all of them — singly
or *composed* — are repaired without losing committed work.  The
point-wise matrices (``tests/test_crash_matrix.py``,
``tests/test_media_matrix.py``) pin hand-picked protocol points; this
module is the FoundationDB-style generalization: a **seeded
discrete-event harness** that interleaves a multi-client workload with
injected failures of *every* class at *arbitrary* points, against the
real :class:`repro.engine.database.Database`, and proves after every
recovery that committed data survived.

Building blocks:

* :func:`generate_schedule` — expands ``(seed, config)`` into an
  ordered list of :class:`repro.sim.scheduler.Event` objects: client
  transactions (:class:`repro.workloads.fleet.ClientFleet`, one RNG
  stream per client), maintenance (checkpoint, backup, drain,
  truncate, retire), and the five failure kinds — ``corrupt`` (any
  :class:`repro.storage.faults.FaultKind` on any page), ``crash``
  (optionally *mid-operation*, via a :meth:`repro.sim.clock.SimClock.
  arm` deadline that fires inside whatever engine I/O crosses it),
  ``device_loss``, ``backup_loss``, and ``double`` (crash during a
  pending restore, media failure during a pending restart).
* :class:`DurabilityOracle` — shadows every committed transaction's
  effects.  After each recovery it checks (a) all committed effects
  visible, (b) no aborted effects visible, (c) B-tree invariants hold
  (:func:`repro.btree.verify.verify_tree`), and (d) — on designated
  events — that eager and on-demand recovery of the *same* failure
  image converge to byte-identical end states.  Commits interrupted
  mid-acknowledgement are *uncertain* and resolved from the durable
  log: present commit record means the effects must all be visible,
  absent means none may be (atomicity either way).
* :func:`execute_schedule` — a pure function of ``(config, events)``:
  same inputs, bit-identical trace.  That purity is what makes
  failures replayable from their seed and shrinkable.
* :func:`shrink_schedule` — greedy event deletion: a failing schedule
  is minimized by repeatedly re-running with one event removed,
  keeping removals that still fail.  Per-client RNG streams make this
  sound: deleting an event never changes what surviving events do.

Command line::

    PYTHONPATH=src python -m repro.sim.harness --seed 7
    PYTHONPATH=src python -m repro.sim.harness --campaign 200 --events 40
"""

from __future__ import annotations

import argparse
import copy
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field

from repro.btree.verify import verify_tree
from repro.core.backup import BackupPolicy
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (
    KeyNotFound,
    MediaFailure,
    RecoveryError,
    ReplicationLagError,
    SinglePageFailure,
)
from repro.sim.iomodel import HDD_PROFILE
from repro.sim.scheduler import Event, EventScheduler, shrink_events
from repro.storage.faults import FaultKind
from repro.txn.locks import DeadlockError, LockConflict
from repro.wal.records import LogRecordKind
from repro.workloads.fleet import ClientFleet

MODE_COMBOS = (("eager", "eager"), ("eager", "on_demand"),
               ("on_demand", "eager"), ("on_demand", "on_demand"))

#: the five injected failure-event kinds (transaction failures ride in
#: the client stream itself: a fraction of fleet actions abort)
FAILURE_KINDS = ("corrupt", "crash", "device_loss", "backup_loss", "double")

#: replication failure kinds, mixed in only when ``ChaosConfig.standby``
#: is on — so every pre-replication seed expands to a bit-identical
#: schedule
REPLICATION_FAILURE_KINDS = ("standby_crash", "link_loss", "failover")

#: every kind a pending mid-op crash deadline must fire before
ALL_FAILURE_KINDS = FAILURE_KINDS + REPLICATION_FAILURE_KINDS

#: event kind -> relative weight in a generated schedule
EVENT_MIX = (
    ("client", 50),
    ("drain", 8),
    ("checkpoint", 5),
    ("backup", 4),
    ("truncate", 3),
    ("retire", 2),
    ("corrupt", 9),
    ("crash", 8),
    ("device_loss", 5),
    ("backup_loss", 3),
    ("double", 3),
)

#: extra weights when a standby is configured
REPLICATION_EVENT_MIX = (
    ("standby_crash", 5),
    ("link_loss", 5),
    ("failover", 3),
)

#: extra weights when prefetching is enabled (``ChaosConfig.prefetch``
#: != "off") — gated exactly like the replication mix, so every
#: prefetch-off seed expands to a bit-identical schedule
PREFETCH_EVENT_MIX = (
    ("prefetch_tick", 6),
    ("prefetch_toggle", 2),
)


class ScheduledCrashInterrupt(Exception):
    """Raised by an armed clock deadline to cut an engine operation
    short, exactly like a process crash would.  Deliberately *not* a
    :class:`repro.errors.ReproError`: no engine code may catch it."""


def _raise_scheduled_crash() -> None:
    raise ScheduledCrashInterrupt()


@dataclass
class ChaosConfig:
    """Everything needed to reproduce one chaos run."""

    seed: int = 0
    n_events: int = 40
    n_clients: int = 4
    n_keys: int = 120
    restart_mode: str = "eager"
    restore_mode: str = "eager"
    #: attach a hot standby (PR 7): the schedule then mixes in the
    #: replication failure kinds, the standby serves as the fifth
    #: repair source, and ``failover`` events promote it
    standby: bool = False
    #: ``"local_durable"`` or ``"replicated_durable"`` (the latter
    #: requires ``standby``)
    ack_mode: str = "local_durable"
    #: shipping granularity: ``"tail"`` or ``"segment"``
    ship_mode: str = "tail"
    #: initial prefetch mode; any value but "off" also mixes the
    #: prefetch events (service ticks, runtime mode toggles) into the
    #: schedule
    prefetch: str = "off"
    #: run the eager-vs-on-demand differential oracle on designated
    #: failure events (check (d))
    differential: bool = True
    #: shrink a failing schedule by greedy event deletion
    shrink: bool = True
    max_shrink_runs: int = 150
    #: engine sizing
    capacity_pages: int = 1024
    buffer_capacity: int = 48

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            capacity_pages=self.capacity_pages,
            buffer_capacity=self.buffer_capacity,
            device_profile=HDD_PROFILE,
            log_profile=HDD_PROFILE,
            backup_profile=HDD_PROFILE,
            restart_mode=self.restart_mode,
            restore_mode=self.restore_mode,
            backup_policy=BackupPolicy(every_n_updates=24),
            commit_ack_mode=self.ack_mode,
            prefetch_mode=self.prefetch,
            seed=self.seed,
        )


@dataclass
class ChaosResult:
    """Outcome of one executed schedule."""

    config: ChaosConfig
    events: list[Event]
    ok: bool = True
    violations: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    event_counts: dict[str, int] = field(default_factory=dict)
    recoveries: int = 0
    committed_txns: int = 0
    shrunk: list[Event] | None = None

    def trace_text(self) -> str:
        header = (f"chaos seed={self.config.seed} "
                  f"restart={self.config.restart_mode} "
                  f"restore={self.config.restore_mode} "
                  f"standby={self.config.standby} "
                  f"ack={self.config.ack_mode} "
                  f"prefetch={self.config.prefetch} "
                  f"events={len(self.events)}")
        lines = [header, *self.trace,
                 "RESULT " + ("PASS" if self.ok else "FAIL")]
        lines.extend(f"VIOLATION {v}" for v in self.violations)
        if self.shrunk is not None:
            lines.append(f"SHRUNK to {len(self.shrunk)} events:")
            lines.extend("  " + event.describe() for event in self.shrunk)
        return "\n".join(lines)


def key_of(i: int) -> bytes:
    return b"k%06d" % i


# ----------------------------------------------------------------------
# Schedule generation: (seed, config) -> ordered event list
# ----------------------------------------------------------------------
def generate_schedule(config: ChaosConfig) -> list[Event]:
    """Expand ``(seed, config)`` into an ordered chaos schedule.

    When the schedule is long enough, one event of each failure kind
    is guaranteed, so a default campaign run covers the whole failure
    taxonomy; everything else is drawn from :data:`EVENT_MIX`.
    """
    rng = random.Random(f"chaos/{config.seed}")
    guaranteed = FAILURE_KINDS
    mix = EVENT_MIX
    if config.standby:
        # Only a standby-enabled config draws replication kinds, so
        # every pre-replication (seed, config) expands bit-identically.
        guaranteed = ALL_FAILURE_KINDS
        mix = EVENT_MIX + REPLICATION_EVENT_MIX
    if config.prefetch != "off":
        # Same gating for the prefetch events: prefetch-off seeds
        # (every schedule that predates PR 9) stay bit-identical.
        mix = mix + PREFETCH_EVENT_MIX
    kinds: list[str] = []
    if config.n_events >= 2 * len(guaranteed):
        kinds.extend(guaranteed)
    pool = [kind for kind, weight in mix for _ in range(weight)]
    while len(kinds) < config.n_events:
        kinds.append(rng.choice(pool))
    rng.shuffle(kinds)
    scheduler = EventScheduler()
    for step, kind in enumerate(kinds, start=1):
        scheduler.schedule(float(step), kind, **_draw_params(kind, rng, config))
    return list(scheduler.drain())


def _draw_params(kind: str, rng: random.Random,
                 config: ChaosConfig) -> dict:
    if kind == "client":
        return {"client": rng.randrange(config.n_clients)}
    if kind == "drain":
        return {"pages": rng.randrange(2, 11), "losers": rng.randrange(0, 3)}
    if kind == "corrupt":
        return {"fault": rng.choice([fk.value for fk in FaultKind]),
                "rank": rng.randrange(1_000_000),
                "victim_rank": rng.randrange(1_000_000),
                "nbits": rng.randrange(1, 9)}
    if kind == "crash":
        mid_op = rng.random() < 0.6
        return {"delay": round(rng.uniform(0.002, 0.05), 4) if mid_op else 0.0,
                "diff": rng.random() < 0.35}
    if kind == "device_loss":
        return {"diff": rng.random() < 0.35}
    if kind == "backup_loss":
        return {"rank": rng.randrange(1_000_000),
                "copy_failures": rng.randrange(0, 3)}
    if kind == "double":
        return {"direction": rng.choice(["crash_during_restore",
                                         "media_during_restart"]),
                "budget": rng.randrange(1, 7)}
    if kind == "prefetch_tick":
        return {"budget": rng.randrange(1, 9)}
    if kind == "prefetch_toggle":
        return {"mode_rank": rng.randrange(1_000_000)}
    return {}


# ----------------------------------------------------------------------
# The durability oracle
# ----------------------------------------------------------------------
class DurabilityOracle:
    """Shadow model of every committed transaction's effects.

    ``model`` maps key -> committed value; a delete removes the key.
    Transactions whose commit acknowledgement was cut off by a failure
    are parked in ``uncertain`` and resolved against the durable log
    after recovery: a surviving COMMIT record folds the staged effects
    into the model, an absent one discards them — and the subsequent
    visibility check then enforces atomicity in both directions.
    """

    def __init__(self) -> None:
        self.model: dict[bytes, bytes] = {}
        #: txn_id -> staged effects (value None = delete)
        self.uncertain: dict[int, dict[bytes, bytes | None]] = {}
        #: every applied commit, in order: (txn_id, staged, commit_lsn,
        #: replicated) — the replay tape :meth:`rebase_to_log` rebuilds
        #: the model from after a failover, when commits acknowledged
        #: ``local_durable`` may legitimately not have reached the
        #: promoted standby
        self.journal: list[tuple[int | None, dict[bytes, bytes | None],
                                 int | None, bool]] = []
        #: commits dropped by the most recent :meth:`rebase_to_log`
        self.lost_at_last_rebase = 0
        self.checks = 0

    # -- bookkeeping during the workload -------------------------------
    def commit_applied(self, staged: dict[bytes, bytes | None],
                       txn_id: int | None = None, lsn: int | None = None,
                       replicated: bool = False) -> None:
        """A transaction's commit call returned: effects are durable.

        ``replicated`` marks a commit acknowledged under
        ``replicated_durable`` — one that must survive even the total
        loss of the primary."""
        self.journal.append((txn_id, dict(staged), lsn, replicated))
        self._apply(staged)

    def record_uncertain(self, txn_id: int,
                         staged: dict[bytes, bytes | None]) -> None:
        """A failure interrupted the transaction (possibly inside the
        commit acknowledgement): durability is unknown until the log
        can be consulted after recovery."""
        if staged:
            self.uncertain[txn_id] = dict(staged)

    def resolve_uncertain(self, db: Database) -> None:
        """Resolve parked commits against the post-recovery log."""
        if not self.uncertain:
            return
        committed_lsns = {record.txn_id: record.lsn
                          for record in db.log.all_records()
                          if record.kind == LogRecordKind.COMMIT}
        for txn_id in sorted(self.uncertain):
            staged = self.uncertain.pop(txn_id)
            if txn_id in committed_lsns:
                self.commit_applied(staged, txn_id=txn_id,
                                    lsn=committed_lsns[txn_id])

    def rebase_to_log(self, db: Database, context: str) -> list[str]:
        """Failover: rebuild the model from what reached the promoted
        standby, replaying the commit journal.

        A journaled commit survives if its record is in the promoted
        log, or if it predates the log's truncation horizon (its
        effects rode the standby seed or shipped pages rather than
        records).  A commit that does *not* survive is the documented
        ``local_durable`` window — unless it was acknowledged
        ``replicated_durable``, which makes its loss a violation.  The
        journal is compacted to the survivors so a later failover
        rebases from a consistent lineage.
        """
        committed_ids = {record.txn_id for record in db.log.all_records()
                         if record.kind == LogRecordKind.COMMIT}
        horizon = db.log.truncated_below
        violations: list[str] = []
        survivors: list[tuple] = []
        model: dict[bytes, bytes] = {}
        lost = 0
        for entry in self.journal:
            txn_id, staged, lsn, replicated = entry
            survives = ((lsn is not None and lsn < horizon)
                        or txn_id in committed_ids)
            if survives:
                survivors.append(entry)
                for key, value in staged.items():
                    if value is None:
                        model.pop(key, None)
                    else:
                        model[key] = value
            else:
                lost += 1
                if replicated:
                    violations.append(
                        f"{context}: replicated-acked txn {txn_id} "
                        f"(commit LSN {lsn}) lost at failover")
        self.journal = survivors
        self.model = model
        self.lost_at_last_rebase = lost
        return violations

    def _apply(self, staged: dict[bytes, bytes | None]) -> None:
        for key, value in staged.items():
            if value is None:
                self.model.pop(key, None)
            else:
                self.model[key] = value

    # -- checks --------------------------------------------------------
    def full_check(self, db: Database, context: str,
                   index_id: int = 1) -> list[str]:
        """Checks (a)+(b)+(c): drain pending work, then demand the
        surviving state equals the committed model exactly and the
        B-tree invariants hold."""
        self.checks += 1
        self.resolve_uncertain(db)
        db.finish_restart()
        db.finish_restore()
        violations: list[str] = []
        tree = db.tree(index_id)
        scan = dict(tree.range_scan())
        missing = [k for k in self.model if k not in scan]
        wrong = [k for k in self.model
                 if k in scan and scan[k] != self.model[k]]
        phantom = [k for k in scan if k not in self.model]
        if missing:
            violations.append(
                f"{context}: {len(missing)} committed keys lost "
                f"(first: {missing[0]!r})")
        if wrong:
            violations.append(
                f"{context}: {len(wrong)} committed keys have wrong values "
                f"(first: {wrong[0]!r})")
        if phantom:
            violations.append(
                f"{context}: {len(phantom)} uncommitted keys visible "
                f"(first: {phantom[0]!r})")
        report = verify_tree(tree)
        if not report.ok:
            violations.append(
                f"{context}: B-tree invariants violated: "
                f"{report.problems[0]}")
        return violations

    def sample_check(self, db: Database, rng: random.Random,
                     context: str, n_probes: int = 8,
                     index_id: int = 1) -> list[str]:
        """A light (a)+(b) probe that rides the lazy fix paths instead
        of draining pending work: look up a sample of keys and compare
        with the model.  Keys locked by pending losers are skipped —
        their rollback has not run yet, by design."""
        self.checks += 1
        self.resolve_uncertain(db)
        violations: list[str] = []
        tree = db.tree(index_id)
        population = sorted(self.model)
        probes = (rng.sample(population, min(n_probes, len(population)))
                  if population else [])
        probes += [key_of(10**6 + rng.randrange(100))]  # an absent key
        for key in probes:
            if db.locks.holder_of(key) is not None:
                continue  # held by a pending loser awaiting lazy undo
            expected = self.model.get(key)
            try:
                actual = tree.lookup(key)
            except KeyNotFound:
                actual = None
            if actual != expected:
                violations.append(
                    f"{context}: probe {key!r} = {actual!r}, "
                    f"expected {expected!r}")
        return violations


# ----------------------------------------------------------------------
# Differential oracle helpers (check (d))
# ----------------------------------------------------------------------
def _clone_failed(db: Database) -> Database:
    """Deep-copy a failed database image so it can be recovered
    independently under the other mode (hooks are not cloned: they
    close over the harness)."""
    crash_hooks, recovery_hooks = db.crash_hooks, db.recovery_hooks
    db.crash_hooks, db.recovery_hooks = [], []
    try:
        return copy.deepcopy(db)
    finally:
        db.crash_hooks, db.recovery_hooks = crash_hooks, recovery_hooks


def _log_shape(db: Database) -> list[tuple]:
    return [(r.lsn, r.kind, r.txn_id, r.page_id, r.page_lsn,
             r.page_prev_lsn, r.prev_lsn)
            for r in db.log.all_records()]


def _device_images(db: Database) -> dict[int, bytes]:
    db.flush_everything()
    images: dict[int, bytes] = {}
    for page_id in range(db.allocated_pages()):
        raw = db.device.raw_image(page_id)
        if raw is not None:
            images[page_id] = bytes(raw)
    return images


def _compare_recoveries(eager_db: Database, lazy_db: Database,
                        context: str) -> list[str]:
    violations = []
    if _log_shape(eager_db) != _log_shape(lazy_db):
        violations.append(f"{context}: eager and on-demand logs diverge")
    if _device_images(eager_db) != _device_images(lazy_db):
        violations.append(f"{context}: eager and on-demand device images "
                          f"diverge")
    for index_id in eager_db.indexes:
        eager_scan = dict(eager_db.tree(index_id).range_scan())
        lazy_scan = dict(lazy_db.tree(index_id).range_scan())
        if eager_scan != lazy_scan:
            violations.append(f"{context}: committed state diverges on "
                              f"index {index_id}")
    return violations


# ----------------------------------------------------------------------
# Schedule execution
# ----------------------------------------------------------------------
class _Run:
    """Mutable state of one schedule execution."""

    def __init__(self, config: ChaosConfig, events: list[Event]) -> None:
        self.config = config
        self.result = ChaosResult(config=config, events=list(events))
        self.db = Database(config.engine_config())
        self.oracle = DurabilityOracle()
        self.fleet = ClientFleet(config.n_clients, config.seed,
                                 key_space=config.n_keys + 40)
        self.check_rng = random.Random(f"chaos-check/{config.seed}")
        #: (txn, staged) of the action currently executing, for
        #: uncertain-commit accounting when an interrupt cuts it short
        self.inflight: tuple[object, dict] | None = None
        self._armed_diff = False
        self.db.crash_hooks.append(self._on_crash)
        self.db.recovery_hooks.append(self._on_recovery)
        if config.ack_mode == "replicated_durable" and not config.standby:
            raise ValueError("ack_mode=replicated_durable requires standby")
        if config.standby:
            # Before any user commit: replicated_durable acks need the
            # shipping link from the very first transaction.
            self.db.attach_standby(mode=config.ship_mode)
        self.tree = self.db.create_index()
        self.index_id = self.tree.index_id
        self._load_initial()

    # -- setup ---------------------------------------------------------
    def _load_initial(self) -> None:
        db, tree = self.db, self.tree
        txn = db.begin()
        staged: dict[bytes, bytes | None] = {}
        for i in range(self.config.n_keys):
            value = b"v%d.0" % i
            tree.insert(txn, key_of(i), value)
            staged[key_of(i)] = value
        lsn = db.commit(txn)
        self.oracle.commit_applied(
            staged, txn_id=txn.txn_id, lsn=lsn,
            replicated=self.config.ack_mode == "replicated_durable")
        db.flush_everything()
        backup_id = db.take_full_backup()
        self.trace(f"load keys={self.config.n_keys} backup={backup_id}")

    # -- plumbing ------------------------------------------------------
    def trace(self, line: str) -> None:
        self.result.trace.append(f"[{self.db.clock.now:.4f}] {line}")

    def _on_crash(self, db: Database) -> None:
        """Engine crash hook: every crash is traced at its true
        position, whichever code path initiated it."""
        self.trace("crash")

    def _on_recovery(self, db: Database, kind: str, report) -> None:  # noqa: ANN001
        self.result.recoveries += 1
        # The catalog's volatile tree objects did not survive the
        # failure; re-resolve the working tree.
        self.tree = db.tree(self.index_id)
        pending = (getattr(report, "pending_redo_pages", 0)
                   or getattr(report, "pending_restore_pages", 0))
        self.trace(f"recovered kind={kind} mode={report.mode} "
                   f"pending={pending}")
        db.stats.note_max("chaos_max_pending_after_recovery", pending)

    def violation(self, message: str) -> None:
        self.result.violations.append(message)
        self.result.ok = False

    def _newest_backup_id(self) -> int:
        """The backup the next media recovery should use: the one a
        pending/interrupted restore depends on if it is retained,
        otherwise the newest retained backup with a log record."""
        db = self.db
        pinned = db._pending_restore_backup_id
        if (db.restore_registry is not None
                and not db.restore_registry.complete):
            pinned = db.restore_registry.backup_id
        if pinned is not None and db.backup_store.has_full_backup(pinned):
            return pinned
        for backup_id in reversed(db.backup_store.full_backup_ids()):
            if db.log.backup_full_lsn(backup_id) is not None:
                return backup_id
        raise RecoveryError("no usable full backup retained")

    # -- failure primitives --------------------------------------------
    def crash_now(self, diff: bool = False) -> None:
        """Process crash at this exact point, then recovery (which is
        a restore re-run when the crash interrupted a pending
        restore), then the oracle."""
        db = self.db
        db.clock.disarm()
        if self.inflight is not None:
            txn, staged = self.inflight
            self.oracle.record_uncertain(txn.txn_id, staged)
            self.inflight = None
        db.crash()
        if db._media_failed:
            # The crash interrupted an on-demand restore: the device is
            # effectively failed again; re-run from the retained backup.
            self.trace("crash interrupted pending restore; re-running")
            self.recover_media_now(diff=diff)
            return
        clone = _clone_failed(db) if diff and self.config.differential else None
        db.restart(mode=self.config.restart_mode)
        if clone is not None:
            db.finish_restart()
            other = ("on_demand" if self.config.restart_mode == "eager"
                     else "eager")
            self._differential(clone, "restart", other)
            self.check("post-crash", full=True)
        else:
            self.check("post-crash", full=False)

    def media_fail_now(self) -> None:
        """Lose the device through the real escalation path."""
        db = self.db
        db.clock.disarm()
        if self.inflight is not None:
            txn, staged = self.inflight
            self.oracle.record_uncertain(txn.txn_id, staged)
            self.inflight = None
        db.device.fail_device("chaos device loss")
        db._on_media_failure(MediaFailure(db.device.name, "chaos device loss"))
        self.trace("device_loss")

    def recover_media_now(self, diff: bool = False) -> None:
        db = self.db
        db.clock.disarm()
        backup_id = self._newest_backup_id()
        clone = _clone_failed(db) if diff and self.config.differential else None
        db.recover_media(backup_id, mode=self.config.restore_mode)
        if clone is not None:
            db.finish_restore()
            other = ("on_demand" if self.config.restore_mode == "eager"
                     else "eager")
            self._differential(clone, "restore", other, backup_id)
            self.check("post-restore", full=True)
        else:
            self.check("post-restore", full=False)

    def _differential(self, clone: Database, kind: str, other_mode: str,
                      backup_id: int | None = None) -> None:
        """Oracle check (d): recover the cloned failure image under
        the *other* mode and demand byte-identical end states.  The
        clone is fully isolated — an exception from its recovery is a
        differential violation, never attributed to the main database
        (a broken opposite mode must fail the schedule, not be
        absorbed by the run loop's failure handlers)."""
        context = f"diff-{kind}"
        try:
            if kind == "restart":
                clone.restart(mode=other_mode)
                clone.finish_restart()
            else:
                clone.recover_media(backup_id, mode=other_mode)
                clone.finish_restore()
            violations = _compare_recoveries(self.db, clone, context)
        except Exception as exc:  # noqa: BLE001 - clone faults are findings
            violations = [f"{context}: {other_mode} recovery of the same "
                          f"image raised {type(exc).__name__}: {exc}"]
        for violation in violations:
            self.violation(violation)

    def check(self, context: str, full: bool) -> None:
        if full:
            violations = self.oracle.full_check(self.db, context,
                                                index_id=self.index_id)
        else:
            violations = self.oracle.sample_check(self.db, self.check_rng,
                                                  context,
                                                  index_id=self.index_id)
        for violation in violations:
            self.violation(violation)

    # -- event dispatch ------------------------------------------------
    def dispatch(self, event: Event) -> None:
        kind = event.kind
        counts = self.result.event_counts
        counts[kind] = counts.get(kind, 0) + 1
        payload = event.payload
        db = self.db
        # A failure event while a mid-op crash deadline is still armed:
        # fire the pending crash first (with the differential setting
        # its crash event drew) so schedules stay well-ordered.
        if db.clock.armed and kind in ALL_FAILURE_KINDS:
            self.crash_now(diff=self._armed_diff)
        handler = getattr(self, f"_do_{kind}")
        handler(payload)

    def _do_client(self, payload: dict) -> None:
        db, tree, oracle = self.db, self.tree, self.oracle
        action = self.fleet.next_action(payload["client"])
        txn = db.begin()
        staged: dict[bytes, bytes | None] = {}
        self.inflight = (txn, staged)
        try:
            for verb, key_index, value in action.ops:
                key = key_of(key_index)
                # Interpret the intent against the committed model plus
                # this transaction's own staged writes.
                if key in staged:
                    exists = staged[key] is not None
                else:
                    exists = key in oracle.model
                db.locks.acquire(txn.txn_id, key)
                if verb == "lookup" or (verb == "delete" and not exists):
                    expected = (staged[key] if key in staged
                                else oracle.model.get(key))
                    try:
                        actual = tree.lookup(key)
                    except KeyNotFound:
                        actual = None
                    if actual != expected:
                        self.violation(
                            f"client read {key!r} = {actual!r}, "
                            f"expected {expected!r}")
                elif verb == "delete":
                    tree.delete(txn, key)
                    staged[key] = None
                elif exists:
                    tree.update(txn, key, value)
                    staged[key] = value
                else:
                    tree.insert(txn, key, value)
                    staged[key] = value
            if action.fate == "abort":
                db.abort(txn)
                db.stats.bump("chaos_txn_failures")
            else:
                replicated = False
                try:
                    lsn = db.commit(txn)
                    replicated = (db.tm.ack_mode == "replicated_durable")
                except ReplicationLagError:
                    # The commit IS done and locally durable; only the
                    # replication acknowledgement failed (standby down
                    # or link severed).  The oracle records it like a
                    # local_durable commit: it may be lost at failover.
                    lsn = txn.last_lsn
                    db.stats.bump("chaos_replication_lag_commits")
                oracle.commit_applied(staged, txn_id=txn.txn_id, lsn=lsn,
                                      replicated=replicated)
                self.result.committed_txns += 1
            self.inflight = None
            self.trace(f"client={action.client} seq={action.seq} "
                       f"ops={len(action.ops)} fate={action.fate}")
        except (LockConflict, DeadlockError):
            # A genuine transaction failure: roll back, effects vanish.
            self.inflight = None
            if txn.active:
                db.abort(txn)
            db.stats.bump("chaos_txn_failures")
            self.trace(f"client={action.client} seq={action.seq} "
                       f"fate=lock-abort")

    def _do_checkpoint(self, payload: dict) -> None:
        self.db.checkpoint()
        self.trace("checkpoint")

    def _do_backup(self, payload: dict) -> None:
        backup_id = self.db.take_full_backup()
        self.trace(f"backup id={backup_id}")

    def _do_drain(self, payload: dict) -> None:
        pages_r, losers_r = self.db.drain_restart(
            page_budget=payload["pages"], loser_budget=payload["losers"])
        pages_s, losers_s = self.db.drain_restore(
            page_budget=payload["pages"], loser_budget=payload["losers"])
        if pages_r or losers_r or pages_s or losers_s:
            self.trace(f"drain restart={pages_r}/{losers_r} "
                       f"restore={pages_s}/{losers_s}")

    def _do_truncate(self, payload: dict) -> None:
        from repro.errors import StorageError

        try:
            dropped = self.db.truncate_log()
        except StorageError as exc:
            if type(exc) is not StorageError:
                # Subclasses (MediaFailure, SinglePageFailure, device
                # errors) have dedicated handling in the run loop.
                raise
            # A bare StorageError is the backup medium refusing a
            # copy-forward write (for example a failure injected by a
            # backup_loss event): the old page copies survive,
            # truncation simply retries later.
            self.trace("truncate aborted by backup-media write failure")
            return
        self.trace(f"truncate dropped={dropped}")

    def _do_retire(self, payload: dict) -> None:
        retired = self.db.retire_backups()
        self.trace(f"retire backups={retired}")

    def _do_corrupt(self, payload: dict) -> None:
        db = self.db
        first, limit = db.config.data_start, db.allocated_pages()
        if limit <= first:
            return
        page_id = first + payload["rank"] % (limit - first)
        victim = first + payload["victim_rank"] % (limit - first)
        fault = FaultKind(payload["fault"])
        if fault is FaultKind.MISDIRECTED_WRITE and victim == page_id:
            victim = first + (victim + 1 - first) % (limit - first)
        db.device.apply_fault(fault, page_id, victim_page=victim,
                              nbits=payload["nbits"])
        self.trace(f"corrupt page={page_id} fault={fault.value}")

    def _do_crash(self, payload: dict) -> None:
        delay = payload["delay"]
        if delay <= 0:
            self.crash_now(diff=payload["diff"])
            return
        # Arm a mid-operation crash: the first engine I/O that carries
        # simulated time past the deadline dies mid-flight.
        self.db.clock.arm(self.db.clock.now + delay, _raise_scheduled_crash)
        self._armed_diff = payload["diff"]
        self.trace(f"crash armed delay={delay:g}")

    def _do_device_loss(self, payload: dict) -> None:
        self.media_fail_now()
        self.recover_media_now(diff=payload["diff"])

    def _do_backup_loss(self, payload: dict) -> None:
        db = self.db
        protected = {db._pending_restore_backup_id}
        if db.restore_registry is not None:
            protected.add(db.restore_registry.backup_id)
        ids = db.backup_store.full_backup_ids()
        candidates = [b for b in ids[:-1] if b not in protected]
        if candidates:
            victim = candidates[payload["rank"] % len(candidates)]
            db.backup_store.retire_full_backup(victim)
            db.stats.bump("chaos_backup_losses")
            self.trace(f"backup_loss id={victim}")
        else:
            self.trace("backup_loss skipped (last backup is sacred)")
        if payload["copy_failures"]:
            db.backup_store.inject_copy_write_failures(
                payload["copy_failures"])

    def _do_double(self, payload: dict) -> None:
        db = self.db
        direction = payload["direction"]
        self.trace(f"double direction={direction}")
        if direction == "crash_during_restore":
            self.media_fail_now()
            db.recover_media(self._newest_backup_id(), mode="on_demand")
            db.drain_restore(page_budget=payload["budget"])
            self.crash_now(diff=False)
        else:  # media failure while restart work is pending
            db.clock.disarm()
            db.crash()
            db.restart(mode="on_demand")
            self.media_fail_now()
            self.recover_media_now(diff=False)

    # -- prefetch events (PR 9) ----------------------------------------
    def _do_prefetch_tick(self, payload: dict) -> None:
        """Service the prefetch queue — the only point of a schedule
        where speculative I/O happens, so runs stay deterministic."""
        issued = self.db.prefetch_tick(payload["budget"])
        self.trace(f"prefetch_tick issued={issued}")

    def _do_prefetch_toggle(self, payload: dict) -> None:
        """Switch the prefetch mode at runtime, cycling off /
        sequential / semantic (always to a *different* mode)."""
        current = self.db.config.prefetch_mode
        options = [m for m in ("off", "sequential", "semantic")
                   if m != current]
        mode = options[payload["mode_rank"] % len(options)]
        self.db.set_prefetch_mode(mode)
        self.trace(f"prefetch_toggle mode={mode}")

    # -- replication events (PR 7) -------------------------------------
    def _do_standby_crash(self, payload: dict) -> None:
        """Toggle: a running standby dies; a dead (or never-attached)
        one is re-seeded and reattached."""
        db = self.db
        if db.standby is not None and db.standby.running:
            db.standby.crash()
            self.trace("standby_crash")
        else:
            db.detach_standby()
            db.attach_standby(mode=self.config.ship_mode)
            self.trace("standby reattached (re-seeded)")

    def _do_link_loss(self, payload: dict) -> None:
        """Toggle the shipping link: sever it, or restore it (which
        catches the standby up on the durable backlog)."""
        link = self.db.standby_link
        if link is None or (self.db.standby is not None
                            and not self.db.standby.running):
            self.trace("link_loss skipped (no live link)")
            return
        if link.link_up:
            link.sever()
            self.trace("link severed")
        else:
            link.restore()
            self.trace(f"link restored shipped={link.shipped_lsn}")

    def _do_failover(self, payload: dict) -> None:
        """Total primary loss: promote the standby, rebase the oracle
        to what actually reached it, and carry on against the new
        primary (which gets a fresh standby of its own)."""
        db = self.db
        standby = db.standby
        if standby is None or not standby.running:
            self.trace("failover skipped (no running standby)")
            return
        db.clock.disarm()
        for violation in self._check_replica_divergence("pre-failover"):
            self.violation(violation)
        # The primary is lost from here on: whatever the standby has is
        # all that survives.  (No final catch-up ship — that is exactly
        # the lag a real failover sees.)
        promoted = standby.promote(restart_mode=self.config.restart_mode)
        self.db = promoted
        promoted.crash_hooks.append(self._on_crash)
        promoted.recovery_hooks.append(self._on_recovery)
        self.result.recoveries += 1
        for violation in self.oracle.rebase_to_log(promoted, "failover"):
            self.violation(violation)
        from repro.errors import ConfigError

        try:
            self.tree = promoted.tree(self.index_id)
        except ConfigError:
            # Segment shipping can lose the whole open segment — if the
            # very first (index-creating) records never shipped, nothing
            # after them did either, so the rebased model is empty and
            # the schema is simply re-created on the new primary.
            self.tree = promoted.create_index()
            self.trace("failover lost the schema; index re-created")
            if self.oracle.model or self.tree.index_id != self.index_id:
                self.violation(
                    "failover: schema lost but rebased model non-empty "
                    f"({len(self.oracle.model)} keys survive, recreated "
                    f"index {self.tree.index_id} vs {self.index_id})")
            self.index_id = self.tree.index_id
        promoted.attach_standby(mode=self.config.ship_mode)
        self.trace(f"failover promoted applied={standby.applied_lsn} "
                   f"lost_commits={self.oracle.lost_at_last_rebase}")
        self.check("post-failover", full=True)

    def _check_replica_divergence(self, context: str) -> list[str]:
        """The replica-divergence oracle: a standby page must be
        byte-identical to the primary's durable copy *at equal
        PageLSN*.  Pages whose device image is corrupt, missing, or at
        a different LSN (dirty in the primary's pool, or the standby
        lagging/leading the flush) are incomparable and skipped."""
        from repro.errors import ReproError
        from repro.page.page import Page

        db = self.db
        standby = db.standby
        if standby is None or not standby.running or db.device.failed:
            return []
        violations: list[str] = []
        for page_id in sorted(standby.pages):
            raw = db.device.raw_image(page_id)
            if raw is None:
                continue
            try:
                primary = Page(db.config.page_size, raw)
                primary.verify(expected_page_id=page_id)
            except ReproError:
                continue  # corrupt on the primary: repair's job, not ours
            replica = standby.pages[page_id].copy()
            if primary.page_lsn != replica.page_lsn:
                continue
            # update_count is advisory backup-freshness bookkeeping:
            # the primary resets it (unlogged) when it takes a page
            # copy, so the replica legitimately drifts in that one
            # header field.  Compare everything else.
            primary.reset_update_count()
            replica.reset_update_count()
            primary.seal()
            replica.seal()
            if bytes(replica.data) != bytes(primary.data):
                violations.append(
                    f"{context}: page {page_id} diverges between primary "
                    f"and standby at equal PageLSN {primary.page_lsn}")
        return violations

    def _do_poison(self, payload: dict) -> None:
        """Test-only: commit a write the oracle never hears about, so
        the next full check fails.  Exists to prove the harness and the
        shrinker detect and minimize real divergence."""
        self.db.insert(self.tree, key_of(999_999), b"poison")
        self.trace("poison")

    # -- the loop ------------------------------------------------------
    def run(self, events: list[Event]) -> ChaosResult:
        for event in sorted(events, key=Event.sort_key):
            try:
                # Inner try: a mid-op crash interrupt whose own
                # recovery escalates to a media failure must still
                # reach the MediaFailure handler below (a sibling
                # except clause would not catch it).
                try:
                    self.dispatch(event)
                except ScheduledCrashInterrupt:
                    self.crash_now(diff=self._armed_diff)
            except MediaFailure:
                self._absorb_media_failure()
            except SinglePageFailure as exc:
                self.violation(f"unrepaired single-page failure escaped: "
                               f"{exc}")
            if not self.result.ok:
                break
        # A crash armed but never fired (not enough I/O followed):
        # fire it now rather than dropping a scheduled failure.  The
        # epilogue gets the same media-escalation absorption as the
        # loop: recovery here may legitimately escalate too.
        if self.db.clock.armed and self.result.ok:
            try:
                self.crash_now(diff=self._armed_diff)
            except MediaFailure:
                self._absorb_media_failure()
        if self.result.ok:
            try:
                self.check("final", full=True)
            except MediaFailure:
                self._absorb_media_failure()
                if self.result.ok:
                    self.check("final", full=True)
        if self.result.ok and self.config.standby:
            for violation in self._check_replica_divergence("final"):
                self.violation(violation)
        self.result.ok = not self.result.violations
        return self.result

    def _absorb_media_failure(self) -> None:
        """The device died (or single-page recovery escalated) inside
        an event or the epilogue: account the in-flight transaction,
        then restore."""
        if self.inflight is not None:
            txn, staged = self.inflight
            self.oracle.record_uncertain(txn.txn_id, staged)
            self.inflight = None
        if not self.db.device.failed:
            self.db.device.fail_device("escalated media failure")
        self.trace("media failure escaped to harness")
        self.recover_media_now(diff=False)


def execute_schedule(config: ChaosConfig, events: list[Event]) -> ChaosResult:
    """Execute a schedule; a pure function of ``(config, events)``.

    Never raises: an unexpected exception becomes a violation in the
    result (so campaigns and the shrinker treat engine crashes-of-the-
    harness-itself as failures to reproduce, not as aborts)."""
    try:
        run = _Run(config, events)
    except Exception as exc:  # noqa: BLE001 - report, don't abort
        result = ChaosResult(config=config, events=list(events))
        result.ok = False
        result.violations.append(
            f"setup raised {type(exc).__name__}: {exc}")
        return result
    try:
        return run.run(events)
    except Exception as exc:  # noqa: BLE001 - report, don't abort
        run.violation(f"unhandled {type(exc).__name__}: {exc}")
        run.result.ok = False
        return run.result


# ----------------------------------------------------------------------
# Shrinking: greedy event deletion
# ----------------------------------------------------------------------
def shrink_schedule(config: ChaosConfig,
                    events: list[Event]) -> list[Event]:
    """Minimize a failing schedule by greedy event deletion (bounded by
    ``config.max_shrink_runs`` executions)."""
    return shrink_events(
        events, lambda candidate: not execute_schedule(config, candidate).ok,
        config.max_shrink_runs)


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Generate, execute, and (on failure) shrink one chaos schedule."""
    events = generate_schedule(config)
    result = execute_schedule(config, events)
    if not result.ok and config.shrink:
        result.shrunk = shrink_schedule(config, events)
    return result


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Aggregate outcome of a multi-schedule chaos campaign."""

    schedules: int = 0
    failures: list[ChaosResult] = field(default_factory=list)
    coverage: Counter = field(default_factory=Counter)
    mode_combos: Counter = field(default_factory=Counter)
    recoveries: int = 0
    committed_txns: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def all_failure_kinds_covered(self) -> bool:
        return all(self.coverage.get(kind, 0) > 0 for kind in FAILURE_KINDS)

    def all_mode_combos_run(self) -> bool:
        return all(self.mode_combos.get(combo, 0) > 0
                   for combo in MODE_COMBOS)

    def summary(self) -> dict:
        return {
            "schedules": self.schedules,
            "failed": len(self.failures),
            "recoveries": self.recoveries,
            "committed_txns": self.committed_txns,
            "event_coverage": {k: self.coverage[k]
                               for k in sorted(self.coverage)},
            "mode_combos": {"/".join(combo): self.mode_combos[combo]
                            for combo in MODE_COMBOS},
            "all_failure_kinds_covered": self.all_failure_kinds_covered(),
            "all_mode_combos_run": self.all_mode_combos_run(),
        }


def run_campaign(n_schedules: int, base_seed: int = 0, n_events: int = 40,
                 n_clients: int = 4, n_keys: int = 120,
                 differential: bool = True, shrink: bool = True,
                 standby: bool = False, ack_mode: str = "local_durable",
                 ship_mode: str = "tail", prefetch: str = "off",
                 on_result=None) -> CampaignResult:  # noqa: ANN001
    """Run ``n_schedules`` seeded schedules, cycling through all four
    restart x restore mode combinations."""
    campaign = CampaignResult()
    for index in range(n_schedules):
        restart_mode, restore_mode = MODE_COMBOS[index % len(MODE_COMBOS)]
        config = ChaosConfig(seed=base_seed + index, n_events=n_events,
                             n_clients=n_clients, n_keys=n_keys,
                             restart_mode=restart_mode,
                             restore_mode=restore_mode,
                             standby=standby, ack_mode=ack_mode,
                             ship_mode=ship_mode, prefetch=prefetch,
                             differential=differential, shrink=shrink)
        result = run_chaos(config)
        campaign.schedules += 1
        campaign.coverage.update(result.event_counts)
        campaign.mode_combos[(restart_mode, restore_mode)] += 1
        campaign.recoveries += result.recoveries
        campaign.committed_txns += result.committed_txns
        if not result.ok:
            campaign.failures.append(result)
        if on_result is not None:
            on_result(result)
    return campaign


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.harness",
        description="Seeded deterministic chaos simulation with a "
                    "durability oracle.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--events", type=int, default=40)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--keys", type=int, default=120)
    parser.add_argument("--restart-mode", choices=["eager", "on_demand"],
                        default="eager")
    parser.add_argument("--restore-mode", choices=["eager", "on_demand"],
                        default="eager")
    parser.add_argument("--standby", action="store_true",
                        help="attach a hot standby and mix in the "
                             "replication failure kinds (standby crash, "
                             "link loss, failover)")
    parser.add_argument("--ack-mode",
                        choices=["local_durable", "replicated_durable"],
                        default="local_durable",
                        help="commit acknowledgement mode (replicated_"
                             "durable implies --standby)")
    parser.add_argument("--ship-mode", choices=["tail", "segment"],
                        default="tail", help="log shipping granularity")
    parser.add_argument("--prefetch",
                        choices=["off", "sequential", "semantic"],
                        default="off",
                        help="initial prefetch mode; any value but off "
                             "also mixes prefetch ticks and runtime mode "
                             "toggles into the schedule")
    parser.add_argument("--no-differential", action="store_true",
                        help="skip the eager-vs-on-demand byte-identity "
                             "check (faster)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="do not minimize failing schedules")
    parser.add_argument("--campaign", type=int, metavar="N",
                        help="run N schedules (seeds base..base+N-1), "
                             "cycling all four mode combinations")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first seed of a campaign")
    parser.add_argument("--artifacts", metavar="DIR",
                        help="write failing traces into DIR")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-event trace output")
    return parser


def _write_artifact(directory: str, result: ChaosResult) -> str:
    os.makedirs(directory, exist_ok=True)
    name = (f"chaos-seed{result.config.seed}"
            f"-{result.config.restart_mode}-{result.config.restore_mode}"
            f".trace")
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(result.trace_text() + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.campaign is not None:
        def report(result: ChaosResult) -> None:
            status = "ok" if result.ok else "FAIL"
            print(f"seed={result.config.seed} "
                  f"modes={result.config.restart_mode}/"
                  f"{result.config.restore_mode} "
                  f"commits={result.committed_txns} "
                  f"recoveries={result.recoveries} {status}")
            if not result.ok and args.artifacts:
                path = _write_artifact(args.artifacts, result)
                print(f"  trace written to {path}")

        campaign = run_campaign(args.campaign, base_seed=args.base_seed,
                                n_events=args.events,
                                n_clients=args.clients, n_keys=args.keys,
                                differential=not args.no_differential,
                                shrink=not args.no_shrink,
                                standby=args.standby or args.ack_mode
                                == "replicated_durable",
                                ack_mode=args.ack_mode,
                                ship_mode=args.ship_mode,
                                prefetch=args.prefetch,
                                on_result=report)
        summary = campaign.summary()
        print("campaign " + " ".join(
            f"{key}={summary[key]}" for key in
            ("schedules", "failed", "recoveries", "committed_txns")))
        print(f"coverage {summary['event_coverage']}")
        print(f"mode_combos {summary['mode_combos']}")
        if not campaign.all_failure_kinds_covered():
            print("WARNING: not all failure kinds were exercised")
        return 0 if campaign.ok else 1

    config = ChaosConfig(seed=args.seed, n_events=args.events,
                         n_clients=args.clients, n_keys=args.keys,
                         restart_mode=args.restart_mode,
                         restore_mode=args.restore_mode,
                         standby=args.standby or args.ack_mode
                         == "replicated_durable",
                         ack_mode=args.ack_mode,
                         ship_mode=args.ship_mode,
                         prefetch=args.prefetch,
                         differential=not args.no_differential,
                         shrink=not args.no_shrink)
    result = run_chaos(config)
    if args.quiet:
        print(result.trace_text().splitlines()[0])
        print("RESULT " + ("PASS" if result.ok else "FAIL"))
        for violation in result.violations:
            print(f"VIOLATION {violation}")
    else:
        print(result.trace_text())
    if not result.ok and args.artifacts:
        print(f"trace written to {_write_artifact(args.artifacts, result)}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
