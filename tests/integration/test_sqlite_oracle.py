"""Results agree with an independent oracle: stdlib ``sqlite3``.

The same tuples are loaded into a partitioned, distributed ``Database``
and into an in-memory SQLite database, and a fixed battery of statements
runs on both.  Result multisets must match (ordered lists under ORDER
BY), at every batch width × optimizer × worker count × selector
lowering.  The only rewrite between the two dialects is the date
literal: ``'MM-DD-YYYY'`` here, ISO ``'YYYY-MM-DD'`` for SQLite, which
stores dates as ISO text.

Amounts are multiples of 0.25, so float sums are exact in any summation
order and need no tolerance.
"""

from __future__ import annotations

import datetime
import random
import re
import sqlite3
from collections import Counter

import pytest

from repro import Database
from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    monthly_range_level,
    uniform_int_level,
)

YEAR_START = datetime.date(2013, 1, 1)
STORES = 20

SCHEMAS = {
    "sales": "id INTEGER, amount REAL, day TEXT, store INTEGER",
    "stores": "store INTEGER, region INTEGER",
    "visits": "id INTEGER, store INTEGER, qty INTEGER",
}

#: (name, statement, ordered) — ordered results compare as lists
QUERIES = [
    (
        "static-range-filter-project",
        "SELECT id, amount * 2, day FROM sales "
        "WHERE day BETWEEN '03-01-2013' AND '04-15-2013' AND amount > 10",
        False,
    ),
    (
        "static-point-aggregate",
        "SELECT count(*), sum(amount), avg(amount) FROM sales "
        "WHERE day = '05-15-2013'",
        False,
    ),
    (
        "dynamic-hash-join",
        "SELECT v.id, v.qty, s.region FROM visits v, stores s "
        "WHERE v.store = s.store AND s.region = 2",
        False,
    ),
    (
        "join-on-with-date-filter",
        "SELECT count(*), sum(s.amount) FROM sales s "
        "JOIN stores r ON s.store = r.store "
        "WHERE r.region = 0 AND s.day >= '06-01-2013'",
        False,
    ),
    (
        "in-subquery-semi-join",
        "SELECT id, store FROM sales "
        "WHERE store IN (SELECT store FROM stores WHERE region = 1)",
        False,
    ),
    (
        "in-subquery-on-non-key-column",
        "SELECT id FROM visits WHERE qty IN "
        "(SELECT region FROM stores WHERE store < 4) AND store > 10",
        False,
    ),
    (
        # a constant IN subject leaves no equi-key: semi NLJoin
        "in-subquery-nested-loop-semi-join",
        "SELECT id FROM visits WHERE store > 15 AND 2 IN "
        "(SELECT region FROM stores WHERE store < 4)",
        False,
    ),
    (
        "non-equi-nested-loop-join",
        "SELECT v.id, s.store FROM visits v, stores s "
        "WHERE v.qty > s.region AND s.store < 3 AND v.store = 7",
        False,
    ),
    (
        "group-by-aggregates",
        "SELECT store, count(*), count(amount), sum(amount), min(day), "
        "max(amount) FROM sales GROUP BY store",
        False,
    ),
    (
        "group-by-over-join",
        "SELECT s.region, count(*), sum(v.qty) FROM visits v, stores s "
        "WHERE v.store = s.store GROUP BY s.region",
        False,
    ),
    (
        "order-by-limit",
        "SELECT id, amount FROM sales WHERE amount IS NOT NULL "
        "ORDER BY amount DESC, id LIMIT 7",
        True,
    ),
    (
        "order-by-ascending",
        "SELECT id, day FROM sales WHERE day < '01-20-2013' ORDER BY day, id",
        True,
    ),
    (
        "distinct",
        "SELECT DISTINCT region FROM stores",
        False,
    ),
    (
        "null-and-in-list",
        "SELECT count(*) FROM sales WHERE amount IS NULL "
        "OR store IN (3, 5, 7)",
        False,
    ),
    (
        "integer-division-and-modulo",
        "SELECT id, (0 - id) / 7, id / (0 - 7), (0 - id) % 7, id % (0 - 7) "
        "FROM sales WHERE day < '02-01-2013'",
        False,
    ),
    (
        "negative-literal-arithmetic",
        "SELECT -5/2, 7/(0-2), (0-5) % 3, 5 % (0-3) FROM stores "
        "WHERE store = 1",
        False,
    ),
]

#: statements applied in order; after each the touched table's full
#: contents must match
DML = [
    (
        "sales",
        "INSERT INTO sales SELECT id + 10000, amount, day, store FROM sales "
        "WHERE day BETWEEN '01-01-2013' AND '01-31-2013'",
    ),
    (
        "sales",
        "UPDATE sales SET amount = amount + 1 WHERE day >= '11-01-2013'",
    ),
    # moves rows across partitions (the partition key changes)
    ("sales", "UPDATE sales SET day = '12-15-2013' WHERE id % 50 = 0"),
    ("sales", "DELETE FROM sales WHERE store = 3 AND day < '04-01-2013'"),
    (
        "visits",
        "DELETE FROM visits WHERE store IN "
        "(SELECT store FROM stores WHERE region = 3)",
    ),
]

BATCH_SIZES = (1, 3, 1024)
OPTIMIZERS = ("orca", "planner")
WORKERS = (1, 4)
LOWERING = (False, True)

SETTINGS = [
    pytest.param(
        {
            "batch_size": batch_size,
            "optimizer": optimizer,
            "workers": workers,
            "lower_selectors": lower,
        },
        id=f"w{batch_size}-{optimizer}-x{workers}-{'lowered' if lower else 'native'}",
    )
    for batch_size in BATCH_SIZES
    for optimizer in OPTIMIZERS
    for workers in WORKERS
    for lower in LOWERING
]

_DATE_LITERAL = re.compile(r"'(\d{2})-(\d{2})-(\d{4})'")


def to_sqlite(statement: str) -> str:
    """The statement in SQLite's dialect: only date literals change."""
    return _DATE_LITERAL.sub(r"'\3-\1-\2'", statement)


def _rows() -> dict[str, list[tuple]]:
    rng = random.Random(20140622)
    sales = []
    for i in range(1, 601):
        day = YEAR_START + datetime.timedelta(days=rng.randrange(365))
        amount = None if i % 37 == 0 else rng.randrange(0, 400) * 0.25
        sales.append((i, amount, day, rng.randrange(STORES)))
    stores = [(store, store % 4) for store in range(STORES)]
    visits = [
        (i, rng.randrange(STORES), rng.randrange(5)) for i in range(1, 401)
    ]
    return {"sales": sales, "stores": stores, "visits": visits}


def build() -> tuple[Database, sqlite3.Connection]:
    """The engine and the oracle, loaded with the same tuples."""
    db = Database(num_segments=4)
    db.create_table(
        "sales",
        TableSchema.of(
            ("id", t.INT), ("amount", t.FLOAT), ("day", t.DATE),
            ("store", t.INT),
        ),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [monthly_range_level("day", YEAR_START, 12)]
        ),
    )
    db.create_table(
        "stores",
        TableSchema.of(("store", t.INT), ("region", t.INT)),
        distribution=DistributionPolicy.hashed("store"),
    )
    db.create_table(
        "visits",
        TableSchema.of(("id", t.INT), ("store", t.INT), ("qty", t.INT)),
        distribution=DistributionPolicy.hashed("id"),
        partition_scheme=PartitionScheme(
            [uniform_int_level("store", 0, STORES, 4)]
        ),
    )
    oracle = sqlite3.connect(":memory:")
    for name, rows in _rows().items():
        db.insert(name, rows)
        oracle.execute(f"CREATE TABLE {name} ({SCHEMAS[name]})")
        oracle.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(rows[0]))})",
            [tuple(_normalize(value) for value in row) for row in rows],
        )
    db.analyze()
    return db, oracle


def _normalize(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


def _result(rows, ordered: bool):
    normalized = [tuple(_normalize(value) for value in row) for row in rows]
    return normalized if ordered else Counter(normalized)


@pytest.fixture(scope="module")
def loaded():
    db, oracle = build()
    yield db, oracle
    oracle.close()


@pytest.mark.parametrize("settings", SETTINGS)
@pytest.mark.parametrize(
    "statement, ordered",
    [pytest.param(sql, ordered, id=name) for name, sql, ordered in QUERIES],
)
def test_select_matches_sqlite(loaded, statement, ordered, settings):
    db, oracle = loaded
    expected = oracle.execute(to_sqlite(statement)).fetchall()
    actual = db.sql(statement, **settings).rows
    assert _result(actual, ordered) == _result(expected, ordered)


@pytest.mark.parametrize("settings", SETTINGS)
def test_dml_matches_sqlite(settings):
    db, oracle = build()
    try:
        for table, statement in DML:
            changed = oracle.execute(to_sqlite(statement)).rowcount
            assert db.sql(statement, **settings).rows == [(changed,)], statement
            everything = f"SELECT * FROM {table}"
            assert _result(db.sql(everything).rows, False) == _result(
                oracle.execute(everything).fetchall(), False
            ), statement
    finally:
        oracle.close()


def test_battery_reaches_every_operator():
    """The battery is only an oracle for operators it runs: across the
    settings it covers every operator of the batch pipeline."""
    db, oracle = build()
    oracle.close()
    seen: set[str] = set()
    modes: set[str] = set()
    for optimizer in OPTIMIZERS:
        for lower in LOWERING:
            statements = [sql for _, sql, _ in QUERIES]
            statements += [sql for _, sql in DML]
            for statement in statements:
                result = db.sql(
                    statement,
                    optimizer=optimizer,
                    lower_selectors=lower,
                    analyze=True,
                )
                seen.update(node.op for node in result.metrics.nodes)
                modes.update(
                    entry["mode"]
                    for entry in result.metrics.selectors.values()
                )
    assert {"static", "dynamic"} <= modes
    assert {
        "PartitionSelector",
        "DynamicScan",
        "Filter",
        "Project",
        "HashJoin",
        "NLJoin",
        "Append",
        "HashAgg",
        "Sort",
        "Limit",
        "Update",
        "Delete",
        "ConstraintsFunctionScan",
        "PropagatingProject",
    } <= seen, sorted(seen)
