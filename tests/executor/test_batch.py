"""Batch execution: exact equivalence across batch widths.

The executor's one pipeline must be externally indistinguishable at any
width from width 1 (one row per batch) — same rows, same guardrail
firing points (max_rows budget, cooperative cancel, timeout), same LIMIT
semantics.  These tests pin the exact accounting rules:

* ``tick_rows(n)`` enforces exactly what ``n`` sequential ``tick()``
  calls would (cancel-after-checks thresholds, amortized deadline reads);
* ``charge_rows_batch(n)`` stops at the first crossing charge, so
  ``buffered_rows`` and the typed error message match per-row charging;
* ``TupleQueue.put_batch`` degrades to per-row puts on bounded queues so
  backpressure errors fire on the same row.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro import types as t
from repro.catalog import DistributionPolicy, PartitionScheme, TableSchema, uniform_int_level
from repro.errors import (
    ChannelError,
    QueryCancelled,
    QueryTimeout,
    ResourceLimitExceeded,
)
from repro.executor.queues import TupleQueue
from repro.resilience import CancelToken, QueryLimits

BATCH_SIZES = [1, 7, 1024]

JOIN_SQL = (
    "SELECT o.order_id, d.year FROM orders_fk o, date_dim d "
    "WHERE o.date_id = d.date_id AND d.year = 2012"
)

QUERIES = [
    "SELECT order_id, amount FROM orders WHERE amount > 50.0",
    JOIN_SQL,
    "SELECT count(*), sum(amount) FROM orders",
    (
        "SELECT d.month, count(*) FROM orders_fk o, date_dim d "
        "WHERE o.date_id = d.date_id GROUP BY d.month"
    ),
    "SELECT order_id FROM orders ORDER BY order_id DESC LIMIT 17",
    "SELECT order_id FROM orders LIMIT 5",
]


# -- guardrail unit level ----------------------------------------------------


def test_tick_rows_matches_sequential_ticks_for_cancel():
    # The threshold checkpoint lands mid-batch: the batch call must fire.
    limits = QueryLimits(cancel=CancelToken(cancel_after_checks=10))
    limits.tick_rows(9)
    with pytest.raises(QueryCancelled):
        limits.tick_rows(4)


def test_tick_rows_zero_and_inactive_are_noops():
    limits = QueryLimits()
    limits.tick_rows(0)
    limits.tick_rows(10**6)  # no guardrail configured: never raises


def test_tick_rows_crosses_deadline_boundary():
    limits = QueryLimits(timeout_seconds=0.0, check_interval=128)
    limits.start()
    # 100 ticks: no boundary crossed yet, so the amortized clock read is
    # skipped exactly as 100 sequential tick() calls would skip it.
    limits.tick_rows(100)
    with pytest.raises(QueryTimeout):
        limits.tick_rows(100)  # crosses tick 128


def test_charge_rows_batch_matches_sequential_buffered_rows():
    sequential = QueryLimits(max_rows=10)
    with pytest.raises(ResourceLimitExceeded) as seq_err:
        for _ in range(15):
            sequential.charge_rows(1)
    batched = QueryLimits(max_rows=10)
    with pytest.raises(ResourceLimitExceeded) as batch_err:
        batched.charge_rows_batch(15)
    assert batched.buffered_rows == sequential.buffered_rows == 11
    assert str(batch_err.value) == str(seq_err.value)


def test_charge_rows_batch_per_row_matches_broadcast_charges():
    # Broadcast charges num_segments per row; the crossing charge is
    # included whole, exactly like the sequential loop.
    sequential = QueryLimits(max_rows=10)
    with pytest.raises(ResourceLimitExceeded):
        for _ in range(5):
            sequential.charge_rows(4)
    batched = QueryLimits(max_rows=10)
    with pytest.raises(ResourceLimitExceeded):
        batched.charge_rows_batch(5, per_row=4)
    assert batched.buffered_rows == sequential.buffered_rows == 12


def test_charge_rows_batch_under_budget_accumulates_exactly():
    limits = QueryLimits(max_rows=100)
    limits.charge_rows_batch(40)
    limits.charge_rows_batch(60)
    assert limits.buffered_rows == 100
    with pytest.raises(ResourceLimitExceeded):
        limits.charge_rows_batch(1)
    assert limits.buffered_rows == 101


# -- queue unit level --------------------------------------------------------


def test_put_batch_drains_identically_to_per_row_puts():
    rows = [(i,) for i in range(10)]
    per_row = TupleQueue()
    for row in rows:
        per_row.put(row, producer=1)
    per_row.close()
    batched = TupleQueue()
    batched.put_batch(rows[:4], producer=1)
    batched.put_batch(rows[4:], producer=1)
    batched.put_batch([], producer=1)
    batched.close()
    assert batched.rows() == per_row.rows()


def test_put_batch_interleaves_producers_like_per_row_puts():
    per_row = TupleQueue()
    batched = TupleQueue()
    for producer in (2, 0, 1):
        run = [(producer, i) for i in range(3)]
        for row in run:
            per_row.put(row, producer=producer)
        batched.put_batch(run, producer=producer)
    per_row.close()
    batched.close()
    # the deterministic drain merges runs in producer-segment order
    assert batched.rows() == per_row.rows()


def test_put_batch_bounded_raises_on_the_same_row():
    bounded = TupleQueue(capacity=3)
    with pytest.raises(ChannelError):
        bounded.put_batch([(i,) for i in range(5)])
    assert len(bounded) == 3  # rows before the overflowing one were kept


def test_put_batch_to_closed_queue_raises():
    queue = TupleQueue()
    queue.close()
    with pytest.raises(ChannelError):
        queue.put_batch([(1,)])


# -- engine level: result equivalence ---------------------------------------


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("sql", QUERIES)
def test_batch_results_match_row_path(orders_db, sql, batch_size):
    reference = orders_db.sql(sql, batch_size=1)
    batched = orders_db.sql(sql, batch_size=batch_size)
    assert sorted(batched.rows, key=repr) == sorted(reference.rows, key=repr)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_partition_elimination_is_batch_invariant(orders_db, batch_size):
    sql = JOIN_SQL
    reference = orders_db.sql(sql, analyze=True, batch_size=1)
    batched = orders_db.sql(sql, analyze=True, batch_size=batch_size)
    assert (
        batched.metrics.partitions_scanned()
        == reference.metrics.partitions_scanned()
    )
    assert (
        batched.metrics.total_rows_scanned
        == reference.metrics.total_rows_scanned
    )


def test_metrics_record_the_batch_size(orders_db):
    result = orders_db.sql(
        "SELECT order_id FROM orders", analyze=True, batch_size=64
    )
    assert result.metrics.parallel_stats()["batch_size"] == 64


# -- engine level: guardrails fire identically -------------------------------


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_max_rows_fires_identically_at_any_batch_size(orders_db, batch_size):
    with pytest.raises(ResourceLimitExceeded) as row_err:
        orders_db.sql(JOIN_SQL, max_rows=5, batch_size=1)
    with pytest.raises(ResourceLimitExceeded) as batch_err:
        orders_db.sql(JOIN_SQL, max_rows=5, batch_size=batch_size)
    assert str(batch_err.value) == str(row_err.value)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_cancel_fires_at_any_batch_size(orders_db, batch_size):
    with pytest.raises(QueryCancelled):
        orders_db.sql(
            JOIN_SQL,
            batch_size=batch_size,
            cancel=CancelToken(cancel_after_checks=10),
        )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_timeout_fires_at_any_batch_size(orders_db, batch_size):
    with pytest.raises(QueryTimeout):
        orders_db.sql(JOIN_SQL, timeout=0.0, batch_size=batch_size)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_max_rows_budget_boundary_is_batch_invariant(orders_db, batch_size):
    # 2400 rows buffered at the gather: passes a 2400-row budget, fails
    # 2399, at every batch width (see test_max_rows_counts_motion_buffers).
    result = orders_db.sql(
        "SELECT order_id FROM orders", max_rows=2400, batch_size=batch_size
    )
    assert len(result.rows) == 2400
    with pytest.raises(ResourceLimitExceeded):
        orders_db.sql(
            "SELECT order_id FROM orders", max_rows=2399, batch_size=batch_size
        )


# -- configuration surface ---------------------------------------------------


def test_invalid_batch_size_rejected():
    with pytest.raises(ValueError):
        Database(num_segments=2, batch_size=0)
    db = Database(num_segments=2)
    db.create_table("t", TableSchema.of(("a", t.INT)))
    db.insert("t", [(1,)])
    with pytest.raises(ValueError):
        db.sql("SELECT a FROM t", batch_size=0)


def test_database_batch_size_default_is_overridable():
    db = Database(num_segments=2, batch_size=1)
    db.create_table(
        "t",
        TableSchema.of(("a", t.INT), ("k", t.INT)),
        distribution=DistributionPolicy.hashed("a"),
        partition_scheme=PartitionScheme([uniform_int_level("k", 0, 100, 4)]),
    )
    db.insert("t", [(i, i % 100) for i in range(300)])
    row_mode = db.sql("SELECT a FROM t WHERE k < 50", analyze=True)
    assert row_mode.metrics.parallel_stats()["batch_size"] == 1
    batched = db.sql("SELECT a FROM t WHERE k < 50", batch_size=32)
    assert sorted(batched.rows) == sorted(row_mode.rows)


# -- storage batch scans -----------------------------------------------------


def test_scan_segment_batches_matches_scan_segment(orders_db):
    storage = orders_db.storage
    root = orders_db.catalog.table("orders").oid
    for segment in range(orders_db.num_segments):
        rows = list(storage.store(root).scan_segment(segment))
        batches = list(
            storage.scan_table_batches(segment, root, batch_size=64)
        )
        flat = [row for batch in batches for row in batch]
        assert flat == rows
        assert all(len(batch) <= 64 for batch in batches)
        assert all(batch for batch in batches)  # never yields empties
