"""The benchmark's metric catalogue: every figure it prints, with its
unit, its kind and what it measures.

Kinds (the labels a reader needs to weigh a number):

* ``wall`` — real time on the machine running the benchmark;
* ``sim``  — simulated time charged by the engine's I/O cost models
  (deterministic for a fixed seed and op count);
* ``count`` — a count or a ratio of counts;
* ``mem``  — resident memory.

``END_TO_END`` lists what a user of :func:`repro.connect` sees; every
workload reports each of them, so each can carry a regression bound.
Their rates and mean latencies are medians over the equal windows the
timed phase is cut into, so a burst of interference from outside the
program spoils one window rather than the run; ``n=`` in the printed
report counts the samples of all windows together.
``UNBOUNDED`` lists end-to-end figures that cannot carry a bound: the
percentiles, and figures that exist on some workloads only (no
transactions on ``embedded-faults``, no repairs elsewhere).  On a
2-vCPU virtual machine whose cores flip between a fast and a slow state
several times a second, a 99th percentile moved by 30-90% between runs
of the same code (a put's tail sits at the knee where B-tree splits
begin, a fleet get's tail on cross-CPU wake-ups), and on
``embedded-faults`` the medians moved by 25% between runs whose
throughput moved by 10%: a get there is a buffer hit, a miss with a
clean victim or a miss with a dirty victim's write-back, and the median
falls between modes.  The bounded figures use means instead.
``LAYERS`` lists per-layer figures from the traced run, named
``<module>.<figure>`` after the ``repro`` module they describe.
"""

from __future__ import annotations

import math


def metric(unit: str, kind: str, what: str) -> dict:
    return {"unit": unit, "kind": kind, "what": what}


#: reported with ``--trace 0``; bounds live in ``BENCHMARK.json``
END_TO_END = {
    "setup_s": metric(
        "s", "wall", "connect + preload of 20k keys + (faults) initial "
        "full backup and checkpoint; median of three set-ups, each in a "
        "fresh process"),
    "ops_per_s": metric(
        "ops/s", "wall", "client operations completed per second, "
        "scheduled events (faults, checkpoints, crashes) included; "
        "median over the timed phase's windows"),
    "get_mean_us": metric(
        "us", "wall", "mean latency of Client.get (median over windows, "
        "as for every mean below)"),
    "put_mean_us": metric(
        "us", "wall", "mean latency of an autocommit Client.put"),
    "scan_mean_us": metric(
        "us", "wall", "mean latency of a 100-key Client.scan"),
    "peak_rss_mb": metric(
        "MB", "mem", "peak resident set of the benchmark process plus "
        "the peaks of any shard worker processes, after set-up and "
        "warm-up (a fixed amount of work)"),
}

#: printed with ``--trace 0``; with ``--trace 1`` taken from the
#: untraced run and reported beside the layer figures (0 = not
#: applicable to the workload); percentiles over the whole timed phase
UNBOUNDED = {
    "get_p50_us": metric("us", "wall", "median latency of Client.get"),
    "get_p99_us": metric("us", "wall", "99th percentile of Client.get"),
    "put_p50_us": metric(
        "us", "wall", "median latency of an autocommit Client.put"),
    "put_p99_us": metric(
        "us", "wall", "99th percentile of an autocommit Client.put"),
    "scan_p50_us": metric(
        "us", "wall", "median latency of a 100-key Client.scan"),
    "txn_p50_us": metric(
        "us", "wall", "median latency of a 4-put Client.txn, commit "
        "included (hot, fleet)"),
    "txn_p99_us": metric(
        "us", "wall", "99th percentile of a 4-put Client.txn (hot, fleet)"),
    "batch_keys_per_s": metric(
        "keys/s", "wall", "keys written per second inside "
        "Client.apply_batch of 64 puts (hot, fleet)"),
    "repair_delay_p50_us": metric(
        "us", "wall", "median latency of client ops during which at "
        "least one single-page repair ran (faults)"),
    "repair_delay_p95_us": metric(
        "us", "wall", "95th percentile of the same ops (faults)"),
    "repair_io_sim_ms_p50": metric(
        "ms", "sim", "median simulated I/O time charged to those ops "
        "(faults)"),
    "restart_sim_ms": metric(
        "ms", "sim", "crash -> on-demand restart -> first committed put, "
        "median over the run's cycles (faults)"),
    "failed_op_ratio": metric(
        "ratio", "count", "ops that raised or returned a wrong value, "
        "over ops attempted"),
}

#: reported with ``--trace 1``; zero where a layer does no work on the
#: workload (the shard layers on the embedded workloads, repair and
#: device layers on ``embedded-hot``, engine layers' spans on the fleet,
#: whose engines run in worker processes the tracer does not reach)
LAYERS = {
    "client.self_us": metric(
        "us", "wall", "self time in repro.client per op"),
    "shard.router.self_us": metric(
        "us", "wall", "self time in ShardRouter/RouterTxn per op"),
    "shard.router.reroutes": metric(
        "count", "count", "ownership re-installs (redirects + reopens) "
        "in the timed phase"),
    "shard.rpc.calls_per_op": metric(
        "count", "count", "ProcessShard.call round trips per op"),
    "shard.rpc.roundtrip_us": metric(
        "us", "wall", "mean ProcessShard.call duration"),
    "shard.rpc.encode_us": metric(
        "us", "wall", "mean send_msg duration (pickle + socket write)"),
    "shard.rpc.wait_us": metric(
        "us", "wall", "mean recv_msg duration (wait + unpickle)"),
    "shard.twopc.prepares_per_txn": metric(
        "count", "count", "PREPARE records forced on workers per "
        "Client.txn"),
    "shard.twopc.forces_per_txn": metric(
        "count", "count", "coordinator-log forces per Client.txn"),
    "shard.worker.log_forces_per_commit": metric(
        "count", "count", "worker log forces per worker user commit"),
    "txn.locks.acquire_us": metric(
        "us", "wall", "mean LockManager.acquire duration"),
    "txn.locks.acquires_per_op": metric(
        "count", "count", "LockManager.acquire calls per op"),
    "txn.manager.commit_us": metric(
        "us", "wall", "mean TransactionManager.commit duration"),
    "btree.tree.self_us": metric(
        "us", "wall", "self time in FosterBTree per op"),
    "btree.tree.calls_per_put": metric(
        "count", "count", "FosterBTree lookup + insert + update calls "
        "per autocommit put"),
    "buffer.buffer_pool.fix_us": metric(
        "us", "wall", "mean BufferPool.fix duration"),
    "buffer.buffer_pool.fixes_per_op": metric(
        "count", "count", "BufferPool.fix calls per op"),
    "buffer.buffer_pool.hit_ratio": metric(
        "ratio", "count", "buffer hits / (hits + misses)"),
    "buffer.buffer_pool.writebacks_per_op": metric(
        "count", "count", "pages written back per op"),
    "storage.device.reads_per_op": metric(
        "count", "count", "device page reads per op"),
    "storage.device.writes_per_op": metric(
        "count", "count", "device page writes per op"),
    "storage.device.sim_ms_per_op": metric(
        "ms", "sim", "simulated device I/O time per op"),
    "wal.log_manager.append_us": metric(
        "us", "wall", "mean LogManager.append duration"),
    "wal.log_manager.records_per_commit": metric(
        "count", "count", "log records per user commit"),
    "wal.log_manager.forces_per_commit": metric(
        "count", "count", "log forces per user commit"),
    "wal.log_manager.bytes_per_user_byte": metric(
        "ratio", "count", "log bytes per key+value byte written by "
        "the client"),
    "wal.log_reader.walk_us": metric(
        "us", "wall", "mean LogReader.walk_page_chain duration"),
    "wal.log_reader.pages_per_repair": metric(
        "count", "count", "log pages read per single-page repair"),
    "core.single_page.recover_us": metric(
        "us", "wall", "mean SinglePageRecovery.recover duration"),
    "core.single_page.records_per_repair": metric(
        "count", "count", "log records replayed per repair"),
    "core.single_page.backup_fetches_per_repair": metric(
        "count", "count", "backup page fetches per repair"),
    "core.single_page.repairs_per_fault": metric(
        "ratio", "count", "repairs completed / faults injected "
        "(useful / attempted)"),
    "core.recovery_index.records_per_writeback": metric(
        "count", "count", "page-recovery-index update records per page "
        "write-back"),
    "engine.checkpointer.checkpoint_us": metric(
        "us", "wall", "mean Checkpointer.checkpoint duration"),
    "engine.system_recovery.restart_us": metric(
        "us", "wall", "mean run_restart duration (on-demand: analysis)"),
    "engine.restart_registry.lazy_redo_pages": metric(
        "count", "count", "pages rolled forward on first fix, per "
        "restart"),
    "engine.restart_registry.roll_forward_us": metric(
        "us", "wall", "mean RestartRegistry.on_page_fetched duration"),
    "trace.overhead_ops_per_s": metric(
        "ops/s", "wall", "untraced ops_per_s minus traced ops_per_s"),
    "trace.overhead_share": metric(
        "ratio", "wall", "tracing overhead as a share of untraced "
        "ops_per_s"),
}

#: the order ``--trace 1`` prints: layer figures, then the unbounded
#: end-to-end figures from the untraced run
PER_LAYER = {**LAYERS,
             **{k: v for k, v in UNBOUNDED.items()
                if k != "failed_op_ratio"}}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
