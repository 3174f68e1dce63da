"""The three workloads, their seeded op stream, the oracle and the
closed loop that drives them through :func:`repro.connect`.

One client thread issues the next operation only after the previous
one returned (a closed loop).  Every operation goes through the public
``Client``; the benchmark touches the engine directly only to inject
the ``embedded-faults`` events (device faults, checkpoints, crashes)
and to read counters.  Every value a get or scan returns is compared
against :class:`Model`, which holds each acknowledged write.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import resource
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import repro
from repro import EngineConfig, ShardConfig

from metrics import percentile
from tracing import ENGINE_TARGETS, FLEET_TARGETS, Tracer, layer_metrics

KEY_COUNT = 20_000
CAPACITY_PAGES = 8192
PRELOAD_BATCH = 500
SCAN_KEYS = 100
TXN_PUTS = 4
BATCH_PUTS = 64
#: untimed ops before the timed phase: the first crash/restart cycle
#: (at op 1000 on embedded-faults) and the first repairs of a process
#: run several times slower than later ones
WARMUP_OPS = 2_000
#: the timed phase is cut into this many equal windows; latency and
#: rate figures are medians over the windows
WINDOWS = 5
#: embedded-faults event schedule, in ops
FAULT_GAP = (50, 150)          # one fault every ~100 ops
CHECKPOINT_EVERY = 2_000
CRASH_EVERY = 8_000
#: Every repair remaps its page to a spare sector, and the device's
#: spare pool is 5% of its capacity; an exhausted pool turns every later
#: repair into a media failure.  The faults workload's device is sized
#: so that its pool outlasts a fault every ~100 ops for a whole run:
#: 5% of 131072 pages is 6553 spares, while a 25 s run at ~5000 ops/s
#: injects ~1300 faults.  Injection still stops at 90% of the pool, and
#: a timed window without a repair fails the run.
FAULT_CAPACITY_PAGES = 131_072
FAULT_BUDGET = int(FAULT_CAPACITY_PAGES * 0.05 * 0.9)
FAULT_KINDS = ("bit_rot", "read_error", "lost_write")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (op kind, percent of ops)
    mix: tuple[tuple[str, int], ...]
    #: share of autocommit puts that write a key not seen before
    new_key_share: float
    buffer_capacity: int = 1024
    capacity_pages: int = CAPACITY_PAGES
    faults: bool = False
    fleet: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "embedded-hot",
        why="20k keys fit the 1024-frame pool: no device reads or faults, "
            "so time goes to client, locks, B-tree, WAL and commit",
        mix=(("get", 65), ("put", 25), ("txn", 5), ("scan", 3),
             ("batch", 2)),
        new_key_share=0.2),
    Workload(
        "embedded-faults",
        why="the paper's case: a tree 8x its 64-frame pool, a single-page "
            "fault every ~100 ops, checkpoints and on-demand restarts",
        mix=(("get", 80), ("put", 15), ("scan", 5)),
        new_key_share=0.0, buffer_capacity=64,
        capacity_pages=FAULT_CAPACITY_PAGES, faults=True),
    Workload(
        "fleet-process-1cpu",
        why="client and 2 shard processes pinned to one CPU: RPC framing, "
            "socket round trips and 2PC dominate; measures neither shard "
            "parallelism nor cross-CPU wake-ups",
        mix=(("get", 60), ("put", 25), ("txn", 10), ("scan", 3),
             ("batch", 2)),
        new_key_share=0.2, fleet=True),
)}


def key_of(i: int) -> bytes:
    return b"k%08d" % i


def connect(workload: Workload, seed: int):  # noqa: ANN201 - Client
    engine = EngineConfig(
        capacity_pages=workload.capacity_pages,
        buffer_capacity=workload.buffer_capacity,
        restart_mode="on_demand" if workload.faults else "eager",
        seed=seed)
    if workload.fleet:
        if hasattr(os, "sched_setaffinity"):
            # Client and both forked workers share one CPU, so the
            # shards' work is serialised and no RPC pays a cross-CPU
            # wake-up.  Unpinned on a 2-vCPU virtual machine, that
            # wake-up's cost varied 1.5-2x between runs and put the
            # workload's spread over its bound.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return repro.connect(ShardConfig(n_shards=2, transport="process",
                                         engine=engine, seed=seed))
    return repro.connect(engine)


class Model:
    """Every acknowledged write, by key ordinal (keys are dense)."""

    def __init__(self, seed: int) -> None:
        self.values: list[bytes] = []
        self._tag = seed % 10**11
        self._version = 0

    def fresh_value(self) -> bytes:
        """A 32-byte value no earlier write used."""
        self._version += 1
        return b"v%011d-%019d" % (self._tag, self._version)

    def store(self, i: int, value: bytes) -> None:
        if i == len(self.values):
            self.values.append(value)
        else:
            self.values[i] = value

    def expected_scan(self, lo: int, hi: int) -> list[tuple[bytes, bytes]]:
        return [(key_of(i), self.values[i])
                for i in range(lo, min(hi, len(self.values)))]


def setup(workload: Workload, seed: int, keys: int):  # noqa: ANN201
    """Connect, preload ``keys`` keys and, for the faults workload, take
    the initial full backup and checkpoint.  Returns (client, model)."""
    client = connect(workload, seed)
    model = Model(seed)
    for lo in range(0, keys, PRELOAD_BATCH):
        writes = [(i, model.fresh_value())
                  for i in range(lo, min(lo + PRELOAD_BATCH, keys))]
        client.apply_batch([("put", key_of(i), v) for i, v in writes])
        for i, v in writes:
            model.store(i, v)
    if workload.faults:
        client.db.take_full_backup()
        client.db.checkpoint()
    return client, model


class Run:
    """One closed-loop run of a workload over a live client."""

    def __init__(self, workload: Workload, seed: int, client, model: Model,  # noqa: ANN001
                 tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.client = client
        self.model = model
        self.tracer = tracer
        self.db = client.db if workload.faults else None
        self.ops_rng = random.Random(seed)
        self.event_rng = random.Random(seed * 7919 + 17)
        self.kinds: list[str] = []
        for kind, percent in workload.mix:
            self.kinds += [kind] * percent
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latency: dict[str, list[float]] = {k: [] for k, _ in workload.mix}
        self.batch_keys = 0
        self.user_bytes = 0
        # embedded-faults events
        self.next_fault = self.event_rng.randint(*FAULT_GAP)
        self.faults_injected = 0
        self.repair_delay: list[float] = []
        self.repair_sim: list[float] = []
        self.restart_sim: list[float] = []
        self._dispatch = {"get": self._get, "put": self._put,
                          "txn": self._txn, "scan": self._scan,
                          "batch": self._batch}

    # -- operations: each returns True when the result matched the model --
    def _get(self) -> bool:
        i = self.ops_rng.randrange(len(self.model.values))
        return self.client.get(key_of(i)) == self.model.values[i]

    def _put(self) -> bool:
        n = len(self.model.values)
        if (self.workload.new_key_share
                and self.ops_rng.random() < self.workload.new_key_share):
            i = n
        else:
            i = self.ops_rng.randrange(n)
        value = self.model.fresh_value()
        self.client.put(key_of(i), value)
        self._stored([(i, value)])
        return True

    def _txn(self) -> bool:
        writes = [(i, self.model.fresh_value()) for i in
                  self.ops_rng.sample(range(len(self.model.values)), TXN_PUTS)]
        with self.client.txn() as t:
            for i, value in writes:
                t.put(key_of(i), value)
        self._stored(writes)
        return True

    def _scan(self) -> bool:
        lo = self.ops_rng.randrange(len(self.model.values) - SCAN_KEYS)
        got = self.client.scan(key_of(lo), key_of(lo + SCAN_KEYS))
        return got == self.model.expected_scan(lo, lo + SCAN_KEYS)

    def _batch(self) -> bool:
        writes = [(i, self.model.fresh_value()) for i in
                  self.ops_rng.sample(range(len(self.model.values)),
                                      BATCH_PUTS)]
        self.client.apply_batch([("put", key_of(i), v) for i, v in writes])
        self._stored(writes)
        self.batch_keys += len(writes)
        return True

    def _stored(self, writes: list[tuple[int, bytes]]) -> None:
        for i, value in writes:
            self.model.store(i, value)
            self.user_bytes += len(key_of(i)) + len(value)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    # -- the loop ------------------------------------------------------------
    def tick(self) -> None:
        """Run any event due at this op, then one op drawn from the mix."""
        if self.db is not None:
            self._events()
        self.step(self.kinds[self.ops_rng.randrange(100)])

    def step(self, kind: str) -> None:
        """Run one op of ``kind``, timed and checked."""
        op = self._dispatch[kind]
        db = self.db
        if db is not None:
            repairs = db.stats.get("single_page_recoveries")
            sim = db.clock.now
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(kind)
        start = perf_counter()
        try:
            ok = op()
        except Exception as exc:  # any failure of the program counts
            ok = False
            self._fail(f"op {self.attempted} {kind}: "
                       f"{type(exc).__name__}: {exc}")
        else:
            if not ok:
                self._fail(f"op {self.attempted} {kind}: wrong value")
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        self.attempted += 1
        self.latency[kind].append(elapsed)
        if db is not None and db.stats.get("single_page_recoveries") != repairs:
            self.repair_delay.append(elapsed)
            self.repair_sim.append(db.clock.now - sim)

    def _events(self) -> None:
        db = self.db
        index = self.attempted
        if index >= self.next_fault:
            self.next_fault += self.event_rng.randint(*FAULT_GAP)
            if self.faults_injected < FAULT_BUDGET:
                self._inject_fault(FAULT_KINDS[self.faults_injected % 3])
        if index and index % CHECKPOINT_EVERY == 0:
            db.checkpoint()
        if index % CRASH_EVERY == CHECKPOINT_EVERY // 2:
            # Halfway between checkpoints, so restart has a typical
            # amount of log to analyse.
            self.crash_cycle()

    def _inject_fault(self, kind: str) -> None:
        db = self.db
        lo, hi = db.config.data_start, db.allocated_pages()
        for _ in range(1000):
            page = self.event_rng.randrange(lo, hi)
            if not db.pool.resident(page):
                break
        else:
            return  # everything is buffered; nothing a read would detect
        if kind == "bit_rot":
            db.device.inject_bit_rot(page)
        elif kind == "read_error":
            db.device.inject_read_error(page)
        else:
            db.device.inject_lost_write(page)
        self.faults_injected += 1

    def crash_cycle(self) -> None:
        """Crash -> on-demand restart -> first committed put; the put is
        a timed op like any other, the cycle's simulated time is kept."""
        db = self.db
        sim = db.clock.now
        db.crash()
        db.restart()
        self.step("put")
        self.restart_sim.append(db.clock.now - sim)

    def final_check(self) -> None:
        """The whole store must equal the model."""
        self.attempted += 1
        try:
            got = self.client.scan()
        except Exception as exc:  # any failure of the program counts
            self._fail(f"final scan: {type(exc).__name__}: {exc}")
            return
        if got != self.model.expected_scan(0, len(self.model.values)):
            self._fail(f"final scan: {len(got)} pairs differ from the "
                       f"model's {len(self.model.values)}")


def counters(client, workload: Workload) -> dict[str, int]:  # noqa: ANN001
    """Engine counters, summed over shards for the fleet."""
    if not workload.fleet:
        return client.db.stats.snapshot()
    total: Counter = Counter()
    for shard_stats in client.router.stats().values():
        total.update({k: v for k, v in shard_stats.items()
                      if isinstance(v, int)})
    return dict(total)


def peak_rss_mb() -> float:
    """This process's peak RSS plus each live child process's peak."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb += int(line.split()[1])
        except OSError:
            pass
    return peak_kb / 1024


def measure(workload: Workload, seed: int, seconds: float,
            ops: int | None = None, keys: int = KEY_COUNT,
            traced: bool = False, plant_wrong_value: bool = False) -> dict:
    """Set up, warm up, run the timed phase, check, and report.

    The timed phase lasts ``seconds``, or exactly ``ops`` operations
    when ``ops`` is given (what the determinism check uses).
    """
    tracer = Tracer() if traced else None
    if tracer is not None and not workload.fleet:
        tracer.install(ENGINE_TARGETS)
    start = perf_counter()
    client, model = setup(workload, seed, keys)
    setup_s = perf_counter() - start
    if tracer is not None and workload.fleet:
        # After connect: the forked workers keep the unwrapped classes.
        tracer.install(FLEET_TARGETS)
    try:
        run = Run(workload, seed, client, model, tracer)
        for _ in range(WARMUP_OPS):
            run.tick()
        # Memory after a fixed amount of work, so that a faster program
        # (more ops in the timed phase) does not read as a larger one.
        rss = peak_rss_mb()
        warm_faults = run.faults_injected
        warm_ops = run.attempted
        run.repair_delay, run.repair_sim, run.restart_sim = [], [], []
        run.batch_keys = run.user_bytes = 0
        gc.collect()
        before = counters(client, workload)
        if tracer is not None:
            tracer.reset()
        windows = []
        repairs_before = 0
        t0 = perf_counter()
        for w in range(1, WINDOWS + 1):
            run.latency = {k: [] for k in run.latency}
            window_start = perf_counter()
            if ops is not None:
                target = warm_ops + ops * w // WINDOWS
                while run.attempted < target:
                    run.tick()
            else:
                deadline = t0 + seconds * w / WINDOWS
                while perf_counter() < deadline:
                    run.tick()
            windows.append((perf_counter() - window_start, run.latency))
            if workload.faults:
                repairs = len(run.repair_delay)
                if repairs == repairs_before:
                    run._fail(f"timed window {w} saw no single-page repair")
                repairs_before = repairs
        timed_ops = run.attempted - warm_ops
        if tracer is not None:
            tracer.uninstall()  # spans and counts cover the timed phase only
        after = counters(client, workload)
        if plant_wrong_value:
            # A write behind the model's back: the oracle must notice.
            client.put(key_of(keys // 2), b"planted wrong value")
        run.final_check()
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        if workload.faults:
            for name in ("escalations_to_system", "spf_recovery_failures"):
                if after.get(name, 0):
                    run._fail(f"{name} = {after[name]}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        client.close()

    per_window = [lat for _, lat in windows]

    def windowed_mean(kind: str) -> float:
        """Median over windows of each window's mean latency of ``kind``:
        a burst of interference from outside the program spoils one
        window, not the run."""
        return statistics.median(
            statistics.fmean(lat[kind]) for lat in per_window) * 1e6

    lat = {k: sorted(x for window in per_window for x in window[k])
           for k in run.latency}
    repair = sorted(run.repair_delay)
    batch_s = sum(lat.get("batch", ()))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(
            sum(map(len, window.values())) / duration
            for duration, window in windows),
        "get_mean_us": windowed_mean("get"),
        "put_mean_us": windowed_mean("put"),
        "scan_mean_us": windowed_mean("scan"),
        "peak_rss_mb": rss,
        "get_p50_us": percentile(lat["get"], 0.50) * 1e6,
        "get_p99_us": percentile(lat["get"], 0.99) * 1e6,
        "put_p50_us": percentile(lat["put"], 0.50) * 1e6,
        "put_p99_us": percentile(lat["put"], 0.99) * 1e6,
        "scan_p50_us": percentile(lat["scan"], 0.50) * 1e6,
        "txn_p50_us": percentile(lat.get("txn", []), 0.50) * 1e6,
        "txn_p99_us": percentile(lat.get("txn", []), 0.99) * 1e6,
        "batch_keys_per_s": run.batch_keys / batch_s if batch_s else 0.0,
        "repair_delay_p50_us": percentile(repair, 0.50) * 1e6,
        "repair_delay_p95_us": percentile(repair, 0.95) * 1e6,
        "repair_io_sim_ms_p50": percentile(sorted(run.repair_sim), 0.50) * 1e3,
        "restart_sim_ms": percentile(sorted(run.restart_sim), 0.50) * 1e3,
        "failed_op_ratio": run.failed / run.attempted,
    }
    samples = {
        **{f"{kind}_{stat}_us": len(lat[kind])
           for kind in ("get", "put", "scan") for stat in ("mean", "p50")},
        "get_p99_us": len(lat["get"]), "put_p99_us": len(lat["put"]),
        "txn_p50_us": len(lat.get("txn", ())),
        "txn_p99_us": len(lat.get("txn", ())),
        "batch_keys_per_s": len(lat.get("batch", ())),
        "repair_delay_p50_us": len(repair),
        "repair_delay_p95_us": len(repair),
        "repair_io_sim_ms_p50": len(repair),
        "restart_sim_ms": len(run.restart_sim),
        "ops_per_s": timed_ops,
    }
    result = {
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "errors": run.errors,
        "metrics": metrics, "samples": samples,
    }
    if tracer is not None:
        op_counts = Counter({k: len(v) for k, v in lat.items()})
        result["layers"] = layer_metrics(
            tracer, delta, timed_ops, op_counts, run.user_bytes,
            run.faults_injected - warm_faults, fleet=workload.fleet)
        result["tracer"] = tracer
    return result


def setup_time(workload: Workload, seed: int,
               keys: int = KEY_COUNT) -> float:
    """Wall seconds of one complete set-up."""
    start = perf_counter()
    client, _ = setup(workload, seed, keys)
    elapsed = perf_counter() - start
    client.close()
    return elapsed
