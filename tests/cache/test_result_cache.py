"""The result cache: footprint rules and engine-level ``cache='results'``
behaviour (hits skip execution entirely; DML drops exactly the entries it
could have changed)."""

from __future__ import annotations

from repro import Database
from repro import types as t
from repro.cache import ResultCache, ResultEntry, statement_key
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    uniform_int_level,
)


def _key(i: int):
    return statement_key(f"SELECT * FROM t WHERE a = {i}")


def _entry(i: int, footprint):
    return ResultEntry(
        _key(i), [(1, "a"), (2, "b")], ["n", "s"], footprint
    )


# ---------------------------------------------------------------------------
# ResultEntry footprint semantics
# ---------------------------------------------------------------------------


def test_rows_are_frozen():
    entry = _entry(1, {50: frozenset({101})})
    assert entry.rows == ((1, "a"), (2, "b"))
    assert isinstance(entry.rows, tuple)
    assert all(isinstance(row, tuple) for row in entry.rows)
    assert entry.column_names == ("n", "s")


def test_partitioned_footprint_intersects():
    entry = _entry(1, {50: frozenset({101, 102})})
    assert entry.stale_after(50, frozenset({102}))
    assert not entry.stale_after(50, frozenset({103}))
    assert entry.stale_after(50, None)  # truncate/drop
    assert not entry.stale_after(60, frozenset({102}))  # other table


def test_whole_table_footprint_is_always_sensitive():
    entry = _entry(1, {50: None})
    assert entry.stale_after(50, frozenset({999}))
    assert entry.stale_after(50, None)


def test_multi_table_footprint():
    entry = _entry(1, {50: frozenset({101}), 60: None})
    assert entry.stale_after(60, frozenset({7}))
    assert not entry.stale_after(50, frozenset({7}))


def test_result_cache_invalidate_counts():
    cache = ResultCache(max_entries=10, max_bytes=1 << 20)
    cache.store(_entry(1, {50: frozenset({101})}))
    cache.store(_entry(2, {50: frozenset({102})}))
    assert cache.invalidate(50, frozenset({101})) == 1
    assert len(cache) == 1
    assert cache.peek(_key(2)) is not None


# ---------------------------------------------------------------------------
# engine-level behaviour
# ---------------------------------------------------------------------------

DOMAIN, PARTS = 100, 4


def _build_db() -> Database:
    db = Database(num_segments=2, cache="results")
    db.create_table(
        "facts",
        TableSchema.of(("id", t.INT), ("key", t.INT), ("val", t.INT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("key", 0, DOMAIN, PARTS)]
        ),
    )
    db.create_table(
        "dim",
        TableSchema.of(("key", t.INT), ("grp", t.INT)),
        distribution=DistributionPolicy.hashed("key"),
    )
    db.insert("facts", [(i, i % DOMAIN, i) for i in range(200)])
    db.insert("dim", [(k, k % 5) for k in range(DOMAIN)])
    db.analyze()
    return db


HOT = "SELECT count(*), sum(val) FROM facts WHERE key >= 0 AND key <= 20"


def test_result_hit_serves_identical_rows_without_executing():
    db = _build_db()
    first = db.sql(HOT)
    assert first.metrics.cache_summary["result"] == "miss"
    assert first.metrics.cache_summary["stored"] is True
    second = db.sql(HOT)
    assert second.metrics.cache_summary["result"] == "hit"
    assert second.rows == first.rows
    assert second.column_names == first.column_names
    # a hit never executes: no elapsed time, no partitions opened
    assert second.elapsed_seconds == 0.0
    assert second.metrics.partitions_scanned() == 0


def test_dml_into_footprint_invalidates_result():
    db = _build_db()
    first = db.sql(HOT)
    db.insert("facts", [(9001, 10, 7)])  # inside the scanned range
    after = db.sql(HOT)
    assert after.metrics.cache_summary["result"] == "miss"
    assert after.rows[0][0] == first.rows[0][0] + 1
    # and the refreshed entry serves the new answer
    assert db.sql(HOT).rows == after.rows


def test_dml_outside_footprint_preserves_result():
    db = _build_db()
    db.sql(HOT)
    db.insert("facts", [(9002, 90, 7)])  # partition outside [0, 20]
    assert db.sql(HOT).metrics.cache_summary["result"] == "hit"


def test_unpartitioned_scan_is_whole_table_sensitive():
    db = _build_db()
    sql = "SELECT count(*) FROM dim"
    db.sql(sql)
    assert db.sql(sql).metrics.cache_summary["result"] == "hit"
    db.insert("dim", [(5000, 1)])
    after = db.sql(sql)
    assert after.metrics.cache_summary["result"] == "miss"
    assert after.rows[0][0] == DOMAIN + 1


def test_join_footprint_covers_both_sides():
    db = _build_db()
    sql = (
        "SELECT count(*) FROM facts f, dim d "
        "WHERE f.key = d.key AND d.grp = 3"
    )
    db.sql(sql)
    assert db.sql(sql).metrics.cache_summary["result"] == "hit"
    db.insert("dim", [(1001, 3)])  # dim side: whole-table sensitivity
    assert db.sql(sql).metrics.cache_summary["result"] == "miss"


def test_dml_statements_are_never_result_cached():
    db = _build_db()
    before = len(db.cache.results)
    db.sql("INSERT INTO facts SELECT id, key, val FROM facts WHERE key = 5")
    assert len(db.cache.results) == before


def test_result_stats_count_only_select_lookups():
    """DML never probes the result cache: a SELECT run twice followed by
    an INSERT ... VALUES, an INSERT ... SELECT, an UPDATE and a DELETE
    shows exactly the SELECT's one miss and one hit."""
    db = _build_db()
    db.sql(HOT)
    db.sql(HOT)
    db.sql("INSERT INTO facts VALUES (9004, 90, 7)")
    db.sql("INSERT INTO facts SELECT id, key, val FROM facts WHERE key = 5")
    db.sql("UPDATE facts SET val = 0 WHERE key = 91")
    db.sql("DELETE FROM facts WHERE key = 92")
    results = db.cache.stats_dict()["results"]
    assert (results["hits"], results["misses"]) == (1, 1)
    assert results["stores"] == 1


def test_served_rows_are_fresh_copies():
    db = _build_db()
    db.sql(HOT)
    served = db.sql(HOT)
    served.rows.append(("tampered",))
    again = db.sql(HOT)
    assert again.metrics.cache_summary["result"] == "hit"
    assert ("tampered",) not in again.rows


def test_results_mode_also_populates_selection_cache():
    """'results' is a superset of 'partitions': after a result entry is
    invalidated, the surviving selection entry still short-circuits the
    selectors on the recomputation."""
    db = _build_db()
    db.sql(HOT)
    db.insert("facts", [(9003, 90, 7)])  # outside both footprints
    db.cache.results.clear()  # force a result miss, keep selections
    recompute = db.sql(HOT)
    assert recompute.metrics.cache_summary["result"] == "miss"
    assert recompute.metrics.cache_summary["selection"] == "hit"
