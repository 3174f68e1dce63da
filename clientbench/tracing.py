"""Layer-attributed tracing, installed from outside the program.

The tracer wraps the public methods of each layer's class at run time
(nothing under ``src/`` knows it exists) and records one span per call:
name, start, end, parent span and op id.  Self time — a span's duration
minus the durations of its child spans — is accumulated as spans close,
so every call of the timed phase is attributed even though only the
spans of the first :data:`KEEP_OPS` ops are kept for writing out.

Span names are ``<layer>:<Class>.<method>``, where the layer is the
``repro`` module the class lives in (``btree.tree``, ``shard.rpc``...).
The benchmark opens one root span per client operation (``bench:op.<kind>``)
so each call is tied to the op that caused it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

#: ops whose spans are kept for the written trace (~40 spans per op);
#: the aggregates cover every span
KEEP_OPS = 1_000

#: (module, class or None for a module function, methods, layer)
ENGINE_TARGETS = (
    ("repro.client", "SingleNodeClient",
     ("get", "put", "delete", "scan", "apply_batch"), "client"),
    ("repro.client", "_SingleNodeTxn",
     ("get", "put", "delete", "commit", "abort"), "client"),
    ("repro.txn.locks", "LockManager", ("acquire", "release_all"),
     "txn.locks"),
    ("repro.txn.manager", "TransactionManager",
     ("begin", "commit", "abort"), "txn.manager"),
    ("repro.btree.tree", "FosterBTree",
     ("lookup", "insert", "update", "delete", "range_scan"), "btree.tree"),
    ("repro.buffer.buffer_pool", "BufferPool",
     ("fix", "flush_page", "evict"), "buffer.buffer_pool"),
    ("repro.storage.device", "StorageDevice", ("read", "write"),
     "storage.device"),
    ("repro.wal.log_manager", "LogManager",
     ("append", "force", "commit_force"), "wal.log_manager"),
    ("repro.wal.log_reader", "LogReader",
     ("walk_page_chain", "scan_from"), "wal.log_reader"),
    ("repro.core.single_page", "SinglePageRecovery",
     ("recover", "roll_forward"), "core.single_page"),
    ("repro.engine.checkpointer", "Checkpointer",
     ("checkpoint", "take_full_backup"), "engine.checkpointer"),
    ("repro.engine.system_recovery", None, ("run_restart",),
     "engine.system_recovery"),
    ("repro.engine.restart_registry", "RestartRegistry",
     ("on_page_fetched", "drain"), "engine.restart_registry"),
)

#: the router's side of a fleet; its workers run in other processes
FLEET_TARGETS = (
    ("repro.client", "ShardedClient",
     ("get", "put", "delete", "scan", "apply_batch"), "client"),
    ("repro.shard.router", "ShardRouter",
     ("get", "put", "delete", "scan", "apply_batch", "partition_batches",
      "txn", "_install_ownership"), "shard.router"),
    ("repro.shard.router", "RouterTxn",
     ("get", "put", "delete", "commit", "abort"), "shard.router"),
    # The transport class lives in the router module but is the RPC
    # layer, as are the framing functions the router imported by name.
    ("repro.shard.router", "ProcessShard", ("call",), "shard.rpc"),
    ("repro.shard.router", None, ("send_msg", "recv_msg"), "shard.rpc"),
    ("repro.shard.twopc", "CoordinatorLog",
     ("allocate_gtid", "log_decision", "force"), "shard.twopc"),
)


class Tracer:
    """Span recorder with online self-time aggregation."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (start of the timed phase)."""
        self._stack: list[list] = []   # [span id, name, start, child time]
        self._next_id = 0
        self.op_id = 0
        self.op_kind = ""
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: (name, op kind) -> calls
        self.calls_by_kind: Counter = Counter()
        #: simulated seconds charged inside device calls
        self.device_sim_s = 0.0
        self.spans: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        self.calls_by_kind[name, self.op_kind] += 1
        if self.op_id <= KEEP_OPS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else -1,
                               self.op_id))

    def begin_op(self, kind: str) -> None:
        self.op_id += 1
        self.op_kind = kind
        self.enter("bench:op." + kind)

    def end_op(self) -> None:
        self.exit()

    # -- installation ----------------------------------------------------
    def install(self, targets) -> None:  # noqa: ANN001
        """Wrap every target method; :meth:`uninstall` restores them."""
        for module_name, class_name, methods, layer in targets:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module,
                                                              class_name)
            for method in methods:
                original = getattr(owner, method)
                label = f"{class_name}.{method}" if class_name else method
                name = f"{layer}:{label}"
                if layer == "storage.device":
                    wrapped = self._wrap_device(original, name)
                elif inspect.isgeneratorfunction(original):
                    wrapped = self._wrap_generator(original, name)
                else:
                    wrapped = self._wrap(original, name)
                self._patched.append((owner, method, original))
                setattr(owner, method, wrapped)

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):  # noqa: ANN001, ANN202
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    def _wrap_generator(self, fn, name: str):  # noqa: ANN001, ANN202
        # One span per resumption: the generator's work happens inside
        # next(), interleaved with its consumer's.
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):  # noqa: ANN002, ANN003, ANN202
            inner = fn(*args, **kwargs)
            while True:
                enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    exit_()
                yield item
        return traced

    def _wrap_device(self, fn, name: str):  # noqa: ANN001, ANN202
        # Device calls also charge simulated time to the shared clock.
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(device, *args, **kwargs):  # noqa: ANN001, ANN002, ANN003, ANN202
            before = device.clock.now
            enter(name)
            try:
                return fn(device, *args, **kwargs)
            finally:
                exit_()
                self.device_sim_s += device.clock.now - before
        return traced

    # -- read-out ----------------------------------------------------------
    def calls(self, name: str) -> int:
        total = self.totals.get(name)
        return total[0] if total else 0

    def mean_us(self, name: str) -> float:
        """Mean duration of one call of ``name`` (0.0 if never called)."""
        total = self.totals.get(name)
        return total[1] / total[0] * 1e6 if total else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + ":"
        return sum(total[2] for name, total in self.totals.items()
                   if name.startswith(prefix))

    def write(self, path: Path) -> None:
        """Write the kept spans (times in microseconds from the first)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({
                "fields": ["id", "name", "start_us", "end_us", "parent",
                           "op"],
                "names": names,
                "spans": [[s[0], index[s[1]], round((s[2] - origin) * 1e6, 3),
                           round((s[3] - origin) * 1e6, 3), s[4], s[5]]
                          for s in self.spans],
            }, out)


def layer_metrics(tracer: Tracer, counts: dict[str, int], ops: int,
                  op_counts: Counter, user_bytes: int,
                  faults_injected: int, fleet: bool) -> dict[str, float]:
    """Every per-layer figure of :data:`metrics.LAYERS` but the trace
    overhead, from the tracer and the engine's counter deltas."""

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    txns = op_counts["txn"]
    puts = op_counts["put"]
    commits = counts.get("user_txns_committed", 0)
    repairs = counts.get("single_page_recoveries", 0)
    tree_calls_in_puts = sum(
        tracer.calls_by_kind["btree.tree:FosterBTree." + m, "put"]
        for m in ("lookup", "insert", "update"))
    hits = counts.get("buffer_hits", 0)
    misses = counts.get("buffer_misses", 0)
    return {
        "client.self_us": per(tracer.layer_self_s("client") * 1e6, ops),
        "shard.router.self_us": per(
            tracer.layer_self_s("shard.router") * 1e6, ops),
        "shard.router.reroutes": float(tracer.calls(
            "shard.router:ShardRouter._install_ownership")),
        "shard.rpc.calls_per_op": per(
            tracer.calls("shard.rpc:ProcessShard.call"), ops),
        "shard.rpc.roundtrip_us": tracer.mean_us(
            "shard.rpc:ProcessShard.call"),
        "shard.rpc.encode_us": tracer.mean_us("shard.rpc:send_msg"),
        "shard.rpc.wait_us": tracer.mean_us("shard.rpc:recv_msg"),
        "shard.twopc.prepares_per_txn": per(
            counts.get("txns_prepared", 0), txns),
        "shard.twopc.forces_per_txn": per(
            tracer.calls("shard.twopc:CoordinatorLog.force"), txns),
        "shard.worker.log_forces_per_commit": per(
            counts.get("log_forces", 0), commits) if fleet else 0.0,
        "txn.locks.acquire_us": tracer.mean_us("txn.locks:LockManager.acquire"),
        "txn.locks.acquires_per_op": per(
            tracer.calls("txn.locks:LockManager.acquire"), ops),
        "txn.manager.commit_us": tracer.mean_us(
            "txn.manager:TransactionManager.commit"),
        "btree.tree.self_us": per(tracer.layer_self_s("btree.tree") * 1e6,
                                  ops),
        "btree.tree.calls_per_put": per(tree_calls_in_puts, puts),
        "buffer.buffer_pool.fix_us": tracer.mean_us(
            "buffer.buffer_pool:BufferPool.fix"),
        "buffer.buffer_pool.fixes_per_op": per(
            tracer.calls("buffer.buffer_pool:BufferPool.fix"), ops),
        "buffer.buffer_pool.hit_ratio": per(hits, hits + misses),
        "buffer.buffer_pool.writebacks_per_op": per(
            counts.get("pages_written_back", 0), ops),
        "storage.device.reads_per_op": per(counts.get("device_reads", 0), ops),
        "storage.device.writes_per_op": per(
            counts.get("device_writes", 0), ops),
        "storage.device.sim_ms_per_op": per(tracer.device_sim_s * 1e3, ops),
        "wal.log_manager.append_us": tracer.mean_us(
            "wal.log_manager:LogManager.append"),
        "wal.log_manager.records_per_commit": per(
            counts.get("log_records", 0), commits),
        "wal.log_manager.forces_per_commit": per(
            counts.get("log_forces", 0), commits),
        "wal.log_manager.bytes_per_user_byte": per(
            counts.get("log_bytes", 0), user_bytes),
        "wal.log_reader.walk_us": tracer.mean_us(
            "wal.log_reader:LogReader.walk_page_chain"),
        "wal.log_reader.pages_per_repair": per(
            counts.get("log_page_reads", 0), repairs),
        "core.single_page.recover_us": tracer.mean_us(
            "core.single_page:SinglePageRecovery.recover"),
        "core.single_page.records_per_repair": per(
            counts.get("spf_records_applied", 0), repairs),
        "core.single_page.backup_fetches_per_repair": per(
            counts.get("backup_page_fetches", 0), repairs),
        "core.single_page.repairs_per_fault": per(repairs, faults_injected),
        "core.recovery_index.records_per_writeback": per(
            counts.get("pri_update_records", 0),
            counts.get("pages_written_back", 0)),
        "engine.checkpointer.checkpoint_us": tracer.mean_us(
            "engine.checkpointer:Checkpointer.checkpoint"),
        "engine.system_recovery.restart_us": tracer.mean_us(
            "engine.system_recovery:run_restart"),
        "engine.restart_registry.lazy_redo_pages": per(
            counts.get("lazy_redo_pages", 0), counts.get("restarts", 0)),
        "engine.restart_registry.roll_forward_us": tracer.mean_us(
            "engine.restart_registry:RestartRegistry.on_page_fetched"),
    }
