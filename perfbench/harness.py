"""Set-up, closed-loop drivers, answer checks and recovery for one run.

A run builds the workload's database several times (``setup_s`` is the
median), loads the oracle, drives the timed phase, checks answers
outside the timed intervals, then closes the database and reopens it
from its ``data_dir`` (``recovery_s`` is the slowest of the reopens).  With
``trace=True`` the timed phase alternates short stretches with and
without the span recorder installed, each side running ``seconds`` in
all; the per-layer metrics come from the traced side, and the tracing
overhead compares the two.
"""

from __future__ import annotations

import gc
import itertools
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from repro import Database
from repro.errors import ReproError

from oracle import Oracle, same_rows
from tracing import LAYERS, SpanRecorder, median_of
from workloads import CHECKPOINT, READ, WORKLOADS, MixedRW

#: engine settings in force on every workload: the engine's defaults,
#: plus a ``data_dir`` on every workload so that writes and recovery are
#: measured everywhere (the WAL flush policy is set per workload)
ENGINE = {
    "num_segments": 4,
    "workers": 1,
    "batch_size": 1024,
    "io_latency_s": 0.0,
    "optimizer": "orca",
}
#: how many times set-up and reopen are repeated per run (medians
#: reported); reopening continues past REOPENS until RECOVERY_MIN_S of
#: reopen time is collected, so short recoveries get more samples
SETUPS = 3
REOPENS = 5
RECOVERY_MIN_S = 5.0
MAX_REOPENS = 15
#: a traced run alternates stretches of this much client time with and
#: without the span recorder, so both samples see the same host and
#: database state
TRACE_STRETCH_S = 0.5
#: statements sampled with trace=True for the Memo size counters
MEMO_SAMPLE = 40
#: Medians and rates are taken per window of the timed phase, and the
#: slower quartile of the windows is reported.  The development host
#: (2 vCPUs) switches within seconds between two speeds about 1.6x apart,
#: in proportions that drift over minutes; nearly every run spends part
#: of its time at the slower speed, so the slower windows are the ones
#: that repeat from run to run.  95th percentiles are taken over the whole
#: phase: a window holds too few samples for its own.
WINDOWS = 20
WINDOW_MIN = 20
#: pure-Python calibration loop length (best of three is recorded)
CALIBRATION_N = 1_000_000


def calibrate() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_N):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def percentile(values, fraction: float) -> float:
    """Linear-interpolation percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = fraction * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def windows(samples: list) -> list[list]:
    """``samples`` in completion order, cut into at most WINDOWS equal
    windows of at least WINDOW_MIN samples (the remainder is dropped)."""
    count = max(1, min(WINDOWS, len(samples) // WINDOW_MIN))
    size = len(samples) // count
    return [samples[i * size:(i + 1) * size] for i in range(count)]


def slow_median(samples: list) -> float:
    """The upper quartile, over windows, of each window's median."""
    return percentile([percentile(w, 0.5) for w in windows(samples)], 0.75)


class Failures:
    """Failed statements by reason; every entry counts in ``failed``."""

    def __init__(self):
        self.count = 0
        self.reasons: Counter = Counter()
        self.examples: dict[str, str] = {}

    def add(self, reason: str, detail: str) -> None:
        self.count += 1
        self.reasons[reason] += 1
        self.examples.setdefault(reason, detail[:300])


def error_reason(error: BaseException) -> str:
    kind = "typed" if isinstance(error, ReproError) else "untyped"
    return f"{kind} {type(error).__name__}"


class Phase:
    """Everything one timed phase measured."""

    def __init__(self):
        self.read_lat: list[float] = []
        self.write_lat: list[float] = []
        self.checkpoint_s: list[float] = []
        self.wall = 0.0
        self.attempted = 0
        #: statement id -> (op, result) for executed statements (traced)
        self.executed: dict[int, tuple] = {}
        #: reads sent through a serving session, and how many of them the
        #: result cache served
        self.session_reads = 0
        self.cache_hits = 0
        self.rows_written = 0
        #: the phase's clock at each completed statement
        self.done_at: list[float] = []
        #: engine counter deltas over the phase (see ``Run.counters``)
        self.counts: Counter = Counter()

    def ops_per_s(self) -> float:
        """The lower quartile, over windows of completions, of each
        window's completions per second of clock."""
        rates, start = [], 0.0
        for window in windows(self.done_at):
            rates.append(len(window) / (window[-1] - start))
            start = window[-1]
        return percentile(rates, 0.25)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 root: Path, scale: float = 1.0, setups: int = SETUPS,
                 reopens: int = REOPENS):
        self.wl = WORKLOADS[workload](seed, scale)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setups = setups
        self.reopens = reopens
        self.work = root / f"work-{os.getpid()}"
        self.out = root / "out"
        self.failures = Failures()
        self.ids = itertools.count(1)
        self.db = None
        self.server = None
        #: distinct reads issued, by statement text, in issue order
        self.issued: dict = {}

    # -- set-up ---------------------------------------------------------------

    def build(self, data_dir: Path) -> Database:
        db = Database(
            num_segments=ENGINE["num_segments"],
            workers=ENGINE["workers"],
            batch_size=ENGINE["batch_size"],
            data_dir=str(data_dir),
            wal_sync=self.wl.settings["wal_sync"],
        )
        for data in self.wl.tables:
            db.create_table(data.name, data.schema, data.distribution, data.scheme)
            if data.rows:
                db.insert(data.name, data.rows)
        db.analyze()
        db.checkpoint()
        return db

    def close_db(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.db is not None:
            self.db.durability.close()
            self.db = None
        gc.collect()

    def setup(self) -> list[float]:
        times = []
        for _ in range(self.setups):
            self.close_db()
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            start = time.perf_counter()
            self.db = self.build(self.work / "data")
            times.append(time.perf_counter() - start)
        return times

    # -- checking -------------------------------------------------------------

    def check(self, op, result, expected) -> None:
        if not same_rows(result.rows, expected):
            self.failures.add(
                f"wrong answer ({op.cls})",
                f"{op.sql} -> got {result.rows[:3]!r} expected {expected[:3]!r}",
            )

    def run_op(self, client, op, phase: Phase, recorder):
        """One timed statement; returns (result or None, seconds)."""
        stmt = next(self.ids)
        if recorder is not None:
            recorder.statement(stmt)
        phase.attempted += 1
        start = time.perf_counter()
        try:
            result = client.sql(op.sql)
        except Exception as error:  # every failure is counted, typed or not
            elapsed = time.perf_counter() - start
            self.failures.add(error_reason(error), f"{op.sql}: {error}")
            return None, elapsed
        elapsed = time.perf_counter() - start
        if recorder is not None:
            phase.executed[stmt] = (op, result)
        return result, elapsed

    # -- the client loop ------------------------------------------------------

    def drive(self, ops, clients, oracle: Oracle, phase: Phase, until: float,
              recorder=None) -> None:
        """The closed loop: send each statement, wait for the answer, check
        it against the oracle (outside the timed interval), repeat until
        the phase's clock reaches ``until``.  The clock is the client's
        time inside calls: checking is excluded, checkpoints are not."""
        before = self.counters()
        while phase.wall < until:
            op = next(ops)
            if op.kind == CHECKPOINT:
                phase.wall += self.checkpoint(phase, recorder)
                continue
            result, elapsed = self.run_op(clients[op.session], op, phase, recorder)
            phase.wall += elapsed
            if result is None:
                continue
            phase.done_at.append(phase.wall)
            if op.kind == READ:
                phase.read_lat.append(elapsed)
                self.issued.setdefault(op.sql, op)
                if op.session:
                    phase.session_reads += 1
                    cache = result.metrics.cache_summary or {}
                    phase.cache_hits += cache.get("result") == "hit"
                self.check(op, result, oracle.query(op.sql))
            else:
                phase.write_lat.append(elapsed)
                applied = oracle.execute(op.sql)
                phase.rows_written += applied
                if result.rows != [(applied,)]:
                    self.failures.add(
                        "wrong write count", f"{op.sql[:80]}: {result.rows}"
                    )
        after = self.counters()
        phase.counts.update({key: after[key] - before[key] for key in after})

    def checkpoint(self, phase: Phase, recorder) -> float:
        """One writer checkpoint; returns its seconds, which count in the
        phase's clock."""
        if recorder is not None:
            recorder.statement(next(self.ids))
        start = time.perf_counter()
        try:
            self.db.checkpoint()
        except Exception as error:
            self.failures.add(error_reason(error), f"checkpoint: {error}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        phase.checkpoint_s.append(elapsed)
        return elapsed

    def recheck_distinct(self, issued, oracle: Oracle) -> int:
        """After the timed phase: every distinct read, through a cached
        session and uncached, against the oracle's final state."""
        session = self.server.session(name="recheck", cache="results")
        try:
            for op in issued:
                expected = oracle.query(op.sql)
                for client, mode in ((session, "cached"), (self.db, "uncached")):
                    try:
                        result = client.sql(op.sql)
                    except Exception as error:
                        self.failures.add(error_reason(error), f"{op.sql}: {error}")
                        continue
                    if not same_rows(result.rows, expected):
                        self.failures.add(
                            f"wrong answer (final {mode})",
                            f"{op.sql} -> got {result.rows[:3]!r}",
                        )
        finally:
            session.close()
        return 2 * len(issued)

    # -- recovery -------------------------------------------------------------

    def settle(self, ops, clients, oracle: Oracle) -> int:
        """Checkpoint, then apply the stream's next ``tail_writes`` writes
        (untimed), so every reopen replays the same WAL tail however many
        statements the timed phase got through."""
        self.db.checkpoint()
        writes = (op for op in ops if op.kind != READ and op.kind != CHECKPOINT)
        for op in itertools.islice(writes, self.wl.tail_writes):
            try:
                rows = clients[op.session].sql(op.sql).rows
            except Exception as error:
                self.failures.add(error_reason(error), f"{op.sql[:80]}: {error}")
                continue
            applied = oracle.execute(op.sql)
            if rows != [(applied,)]:
                self.failures.add("wrong write count", f"{op.sql[:80]}: {rows}")
        return self.wl.tail_writes

    def recover(self, oracle: Oracle) -> tuple[list[float], int, int]:
        """Close, then reopen from ``data_dir`` several times.  Each reopen
        is timed until its first answer matches the oracle; the first one
        also compares every recovered table with the oracle.  Returns the
        reopen times, the WAL records replayed and the reopens tried."""
        self.close_db()
        main = self.wl.tables[0].name
        probe = f"SELECT count(*) FROM {main}"
        expected = oracle.query(probe)
        times, replayed = [], 0
        attempt = 0
        while attempt < self.reopens or (
            sum(times) < RECOVERY_MIN_S and attempt < MAX_REOPENS
        ):
            attempt += 1
            start = time.perf_counter()
            try:
                db = Database(num_segments=ENGINE["num_segments"],
                              data_dir=str(self.work / "data"),
                              wal_sync=self.wl.settings["wal_sync"])
                answer = db.sql(probe).rows
            except Exception as error:
                self.failures.add(error_reason(error), f"reopen: {error}")
                continue
            elapsed = time.perf_counter() - start
            if not same_rows(answer, expected):
                self.failures.add("wrong answer (recovery)",
                                  f"{probe} -> {answer} vs {expected}")
            times.append(elapsed)
            replayed = db.durability.stats_dict()["recovery_replayed_records"]
            if attempt == 1:
                for data in self.wl.tables:
                    got = db.sql(f"SELECT * FROM {data.name}").rows
                    if not same_rows(got, oracle.table(data.name)):
                        self.failures.add(
                            "wrong answer (recovered table)",
                            f"{data.name}: {len(got)} rows recovered",
                        )
            db.durability.close()
            del db
            gc.collect()
        return times, replayed, attempt

    # -- the run ---------------------------------------------------------------

    def counters(self) -> dict:
        """The engine's cumulative counters the per-layer metrics use."""
        durability = self.db.durability.stats_dict()
        results = self.db.cache.stats_dict()["results"]
        counters = {f"durability.{key}": durability[key]
                    for key in ("wal_bytes", "wal_fsyncs")}
        counters.update({f"results.{key}": results[key]
                         for key in ("hits", "misses", "invalidations", "evictions")})
        if self.server is not None:
            admission = self.server.admission.stats()
            counters["admission.admitted"] = admission["admitted"]
            counters["admission.queued_s"] = admission["queued_seconds_total"]
            counters["admission.rejected"] = sum(admission["rejected"].values())
        return counters

    def traced_phases(self, ops, clients, oracle) -> tuple[Phase, Phase, SpanRecorder]:
        """Alternate untraced and traced stretches until each phase has
        ``seconds`` on its clock."""
        plain, traced, recorder = Phase(), Phase(), SpanRecorder()
        until = 0.0
        while until < self.seconds:
            until = min(until + TRACE_STRETCH_S, self.seconds)
            self.drive(ops, clients, oracle, plain, until)
            recorder.install()
            try:
                self.drive(ops, clients, oracle, traced, until, recorder)
            finally:
                recorder.uninstall()
        return plain, traced, recorder

    def execute(self) -> dict:
        record = self.run_record()
        attempted = 0
        try:
            setup_times = self.setup()
            oracle = Oracle(self.wl.tables)
            clients = {"": self.db}
            if isinstance(self.wl, MixedRW):
                self.server = self.db.serve()
                clients["reader"] = self.server.session(name="reader", cache="results")
                clients["writer"] = self.server.session(name="writer")
            ops = self.wl.ops()
            if self.trace:
                plain, traced, recorder = self.traced_phases(ops, clients, oracle)
                attempted += traced.attempted
            else:
                plain = Phase()
                self.drive(ops, clients, oracle, plain, self.seconds)
            attempted += plain.attempted
            if isinstance(self.wl, MixedRW):
                attempted += self.recheck_distinct(list(self.issued.values()), oracle)
            memo = self.memo_sample() if self.trace else None
            attempted += self.settle(ops, clients, oracle)
            recovery, replayed, reopens = self.recover(oracle)
            attempted += reopens
            oracle.close()
        finally:
            self.close_db()
            shutil.rmtree(self.work, ignore_errors=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["timed_phase"] = {
            "seconds": plain.wall,
            "reads": len(plain.read_lat),
            "writes": len(plain.write_lat),
            "checkpoints": len(plain.checkpoint_s),
        }
        record["setup_s"] = setup_times
        record["recovery_s"] = recovery
        record["failures"] = dict(self.failures.reasons)
        record["failure_examples"] = self.failures.examples
        attempted = max(1, attempted)
        if self.trace:
            metrics = self.layer_metrics(plain, traced, recorder, memo, replayed)
            metrics["failed_ratio"] = (self.failures.count / attempted, "ratio")
            self.out.mkdir(parents=True, exist_ok=True)
            recorder.write_jsonl(self.out / f"spans-{self.wl.name}-seed{self.seed}.jsonl")
        else:
            metrics = self.end_to_end(plain, setup_times, recovery, peak_rss_mb)
        return {
            "record": record,
            "metrics": metrics,
            "attempted": attempted,
            "failed": self.failures.count,
        }

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, phase: Phase, setup_times, recovery, peak_rss_mb):
        ms = 1000.0
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "read_p50_ms": (slow_median(phase.read_lat) * ms, "ms"),
            "read_p95_ms": (percentile(phase.read_lat, 0.95) * ms, "ms"),
            "write_p50_ms": (slow_median(phase.write_lat) * ms, "ms"),
            "write_p95_ms": (percentile(phase.write_lat, 0.95) * ms, "ms"),
            "ops_per_s": (phase.ops_per_s(), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            # the slowest reopen: see WINDOWS for why the slow side repeats
            "recovery_s": (max(recovery, default=0.0), "s"),
        }

    def run_record(self) -> dict:
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "nproc": os.cpu_count(),
            "engine": dict(ENGINE),
            "workload_settings": self.wl.settings,
            "data_sizes": self.wl.sizes(),
            "setups": self.setups,
            "reopens": self.reopens,
            "calibration_s": calibrate(),
            "calibration_loop": f"sum(i*i%7) for i < {CALIBRATION_N}, best of 3",
            "bound": "CPU-bound (io_latency_s=0, workers=1, WAL not fsynced)",
        }

    def memo_sample(self) -> dict:
        """Memo size from the engine's own ``trace=True`` search summary,
        over the first distinct reads of the run (not timed)."""
        groups, expressions = [], []
        for op in list(self.issued.values())[:MEMO_SAMPLE]:
            summary = self.db.sql(op.sql, trace=True, cache="off").metrics.optimizer_summary
            groups.append(summary["groups"])
            expressions.append(summary["group_expressions"])
        return {"groups": median_of(groups), "expressions": median_of(expressions)}

    def layer_metrics(self, plain: Phase, traced: Phase, recorder, memo, replayed):
        own, incl = recorder.per_statement()
        ops = {stmt: op for stmt, (op, _) in traced.executed.items()}
        reads = [s for s, op in ops.items() if op.kind == READ]
        writes = [s for s, op in ops.items() if op.kind != READ]

        def med(table, name, stmts, scale=1e6):
            return median_of(table[s][name] * scale for s in stmts if name in table[s])

        # counts from each executed read's metrics export (result-cache
        # hits executed nothing and are left out)
        instances, motion_rows, motion_bytes, scanned, eligible = [], [], [], [], []
        rows_scanned = rows_returned = 0
        by_class = defaultdict(lambda: [0, 0])
        for stmt in reads:
            op, result = traced.executed[stmt]
            metrics = result.metrics
            if (metrics.cache_summary or {}).get("result") == "hit":
                continue
            instances.append(len(metrics.instances))
            motion = metrics.motion_stats()
            motion_rows.append(motion["rows_moved"])
            motion_bytes.append(motion["bytes_moved"])
            rows_scanned += metrics.total_rows_scanned
            rows_returned += len(result.rows)
            parts = [t for t in metrics.table_stats().values()
                     if (t["partitions_total"] or 0) > 1]
            s = sum(t["partitions_scanned"] for t in parts)
            e = sum(t["partitions_total"] for t in parts)
            scanned.append(s)
            eligible.append(e)
            kind = op.cls if op.cls in ("dynamic", "none") else "static"
            by_class[kind][0] += s
            by_class[kind][1] += e

        def ratio(num, den):
            return num / den if den else 0.0

        layer_self = Counter()
        for stmt_spans in own.values():
            for name, seconds in stmt_spans.items():
                layer_self[name.split(".")[0]] += seconds
        read_self_sum = sum(
            median_of(own[s].get(name, 0.0) for s in reads)
            for name in {n for s in reads for n in own[s]}
        )
        traced_ops = traced.ops_per_s()
        plain_ops = plain.ops_per_s()
        counts = traced.counts
        results_lookups = counts["results.hits"] + counts["results.misses"]
        metrics = {
            "sql.parse_us": (med(incl, "sql.parse", reads), "us"),
            "sql.bind_us": (med(incl, "sql.bind", reads), "us"),
            "optimizer.optimize_us": (med(incl, "optimizer.optimize", reads), "us"),
            "optimizer.place_selectors_us": (
                med(incl, "optimizer.place_selectors", reads), "us"),
            "optimizer.memo_groups_count": (memo["groups"], "count"),
            "optimizer.memo_expressions_count": (memo["expressions"], "count"),
            "optimizer.plan_nodes_count": (median_of(
                recorder.plan_nodes[s] for s in reads if s in recorder.plan_nodes), "count"),
            "executor.execute_us": (med(incl, "executor.execute", reads), "us"),
            "executor.execute_self_us": (med(own, "executor.execute", reads), "us"),
            "executor.slice_instances_count": (median_of(instances), "count"),
            "executor.motion_rows": (median_of(motion_rows), "rows"),
            "executor.motion_bytes": (median_of(motion_bytes), "bytes"),
            "executor.rows_scanned_per_returned_ratio": (
                ratio(rows_scanned, rows_returned), "ratio"),
            "catalog.scanned_partitions_count": (median_of(scanned), "count"),
            "catalog.eligible_partitions_count": (median_of(eligible), "count"),
            "catalog.partition_scan_ratio": (
                ratio(sum(scanned), sum(eligible)), "ratio"),
            "catalog.static_partition_scan_ratio": (ratio(*by_class["static"]), "ratio"),
            "catalog.dynamic_partition_scan_ratio": (ratio(*by_class["dynamic"]), "ratio"),
            "catalog.none_partition_scan_ratio": (ratio(*by_class["none"]), "ratio"),
            "storage.scan_us": (med(own, "storage.scan", reads), "us"),
            "storage.insert_us": (med(incl, "storage.insert", writes), "us"),
            "cache.result_hit_ratio": (
                ratio(traced.cache_hits, traced.session_reads), "ratio"),
            "cache.store_hit_ratio": (ratio(counts["results.hits"], results_lookups), "ratio"),
            "cache.lookup_us": (med(incl, "cache.lookup", reads), "us"),
            "cache.invalidations_count": (counts["results.invalidations"], "count"),
            "cache.evictions_count": (counts["results.evictions"], "count"),
            "durability.commit_us": (med(incl, "durability.commit", writes), "us"),
            "durability.wal_per_row_bytes": (ratio(
                counts["durability.wal_bytes"], traced.rows_written), "bytes"),
            "durability.fsyncs_per_write_ratio": (ratio(
                counts["durability.wal_fsyncs"], len(traced.write_lat)), "ratio"),
            "durability.checkpoint_s": (median_of(traced.checkpoint_s), "s"),
            "durability.recovery_replayed_count": (replayed, "count"),
            "engine.self_us": (med(own, "engine.sql", reads), "us"),
            "trace.ops_per_s": (traced_ops, "1/s"),
            "trace.untraced_ops_per_s": (plain_ops, "1/s"),
            "trace.overhead_ratio": (plain_ops / traced_ops - 1.0, "ratio"),
            "trace.read_p50_ms": (percentile(traced.read_lat, 0.5) * 1e3, "ms"),
            "trace.untraced_read_p50_ms": (
                percentile(plain.read_lat, 0.5) * 1e3, "ms"),
            "trace.read_self_sum_ms": (read_self_sum * 1e3, "ms"),
            # the admission counts read 0 when nothing is served
            "serving.queue_wait_ms": (ratio(
                counts["admission.queued_s"], counts["admission.admitted"]) * 1e3, "ms"),
            "serving.submit_self_us": (med(own, "serving.submit", reads), "us"),
            "serving.rejected_count": (counts["admission.rejected"], "count"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.share_ratio"] = (
                layer_self[layer] / traced.wall, "ratio")
        return metrics
