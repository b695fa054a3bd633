"""The three benchmark workloads: schemas, generated rows and statements.

Every input is drawn from the run's seed.  The engine only ever sees the
SQL text and the row tuples built here; the oracle (``oracle.py``) loads
the very same tuples into sqlite.

Date literals in the engine's SQL use the paper's ``'MM-DD-YYYY'``
spelling.  :func:`oracle.translate` rewrites them to ISO for sqlite; that
is the only difference between the two statement texts.
"""

from __future__ import annotations

import datetime
import itertools
import random
from dataclasses import dataclass

from repro import types as t
from repro.catalog import (
    DistributionPolicy,
    PartitionScheme,
    TableSchema,
    monthly_range_level,
)
from repro.workloads import tpcds, tpch

READ = "read"
WRITE = "write"
CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class Op:
    """One client operation.

    ``cls`` is the statement class (the mix the seed must not change).
    ``session`` names the serving session that sends it (``mixed_rw``);
    empty means ``Database.sql`` directly.
    """

    kind: str
    cls: str
    sql: str
    session: str = ""


@dataclass
class TableData:
    name: str
    schema: TableSchema
    distribution: DistributionPolicy
    scheme: PartitionScheme | None
    rows: list


def lit(day: datetime.date) -> str:
    """A date literal in the paper's US spelling."""
    return f"'{day.month:02d}-{day.day:02d}-{day.year:04d}'"


def month_bounds(year: int, month: int) -> tuple[datetime.date, datetime.date]:
    first = datetime.date(year, month, 1)
    following = t.add_months(first, 1)
    return first, following - datetime.timedelta(days=1)


def values_sql(table: str, rows: list[tuple]) -> str:
    def value(v) -> str:
        if isinstance(v, datetime.date):
            return lit(v)
        if isinstance(v, str):
            return f"'{v}'"
        return repr(v)

    body = ", ".join("(" + ", ".join(value(v) for v in row) + ")" for row in rows)
    return f"INSERT INTO {table} VALUES {body}"


def lineitem_row(rng: random.Random, orderkey: int, line: int, day) -> tuple:
    return (
        orderkey,
        rng.randint(1, 20000),
        rng.randint(1, 1000),
        line,
        float(rng.randint(1, 50)),
        round(rng.uniform(900.0, 105000.0), 2),
        round(rng.uniform(0.0, 0.1), 2),
        round(rng.uniform(0.0, 0.08), 2),
        rng.choice(tpch.RETURN_FLAGS),
        rng.choice(tpch.LINE_STATUSES),
        day,
    )


class Workload:
    """Base: ``tables`` holds the generated data, ``ops()`` yields the
    client's statements."""

    name = ""
    #: rows per INSERT ... VALUES
    write_rows = 10
    #: writes left in the WAL after the last checkpoint when a run reopens
    tail_writes = 100
    #: engine settings in force (for the run record)
    settings: dict = {}

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.tables: list[TableData] = []

    def sizes(self) -> dict:
        sizes = {data.name: len(data.rows) for data in self.tables}
        for data in self.tables:
            if data.scheme is not None:
                sizes[f"{data.name}.partitions"] = data.scheme.num_leaves
        return sizes


# -- short_pruned -------------------------------------------------------------


class ShortPruned(Workload):
    """Point lookups pruned to one partition plus one-month range
    aggregates over an 84-partition ``lineitem``, with a trickle of
    10-row inserts into the newest month."""

    name = "short_pruned"
    settings = {"cache": "off", "wal_sync": "async"}
    #: one block: 8 point lookups, 2 range aggregates (80/20), 1 write
    BLOCK = ("point",) * 4 + ("range",) + ("point",) * 4 + ("range", "write")

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        rows = list(tpch.generate_lineitem(max(400, int(60000 * scale)), seed))
        self.rows = rows
        self.tables = [
            TableData(
                "lineitem",
                tpch.lineitem_schema(),
                DistributionPolicy.hashed("l_orderkey"),
                tpch.lineitem_scheme(84),
                rows,
            )
        ]

    def ops(self):
        rng = random.Random(self.seed * 7919 + 1)
        next_key = max(r[0] for r in self.rows) + 1
        shapes = itertools.cycle((False, True))
        last = tpch.SHIPDATE_END - datetime.timedelta(days=1)
        newest = (last.year, last.month)
        for cls in itertools.cycle(self.BLOCK):
            if cls == "point":
                row = self.rows[rng.randrange(len(self.rows))]
                yield Op(
                    READ,
                    cls,
                    "SELECT l_orderkey, l_linenumber, l_quantity, "
                    "l_extendedprice, l_returnflag FROM lineitem "
                    f"WHERE l_shipdate = {lit(row[10])} "
                    f"AND l_orderkey = {row[0]}",
                )
            elif cls == "range":
                year = rng.randint(tpch.SHIPDATE_START.year, last.year)
                first, end = month_bounds(year, rng.randint(1, 12))
                where = f"l_shipdate BETWEEN {lit(first)} AND {lit(end)}"
                if next(shapes):
                    sql = (
                        "SELECT l_returnflag, count(*) AS n, "
                        "sum(l_extendedprice) AS revenue FROM lineitem "
                        f"WHERE {where} GROUP BY l_returnflag"
                    )
                else:
                    sql = (
                        "SELECT count(*) AS n, sum(l_quantity) AS qty, "
                        f"avg(l_discount) AS disc FROM lineitem WHERE {where}"
                    )
                yield Op(READ, cls, sql)
            else:
                first, end = month_bounds(*newest)
                rows = [
                    lineitem_row(
                        rng,
                        next_key,
                        i + 1,
                        first + datetime.timedelta(
                            days=rng.randrange((end - first).days + 1)
                        ),
                    )
                    for i in range(self.write_rows)
                ]
                next_key += 1
                yield Op(WRITE, "insert", values_sql("lineitem", rows))


# -- analytic_star ------------------------------------------------------------


class _Recorder:
    """Stands in for a Database while ``tpcds.load_data`` generates rows,
    so the engine and the oracle load the same tuples."""

    def __init__(self):
        self.rows: dict[str, list] = {}
        self.storage = self

    def insert(self, table: str, rows) -> int:
        batch = list(rows)
        self.rows.setdefault(table, []).extend(batch)
        return len(batch)

    def store_by_name(self, table: str):
        recorder = self

        class _Store:
            def insert(self, row):
                recorder.rows.setdefault(table, []).append(tuple(row))

        return _Store()

    def analyze(self) -> None:
        pass


def _sk(day: datetime.date) -> int:
    return (day - tpcds.FIRST_DAY).days


def _year_sk(year: int) -> tuple[int, int]:
    return _sk(datetime.date(year, 1, 1)), _sk(datetime.date(year, 12, 31))


def _quarter_sk(year: int, quarter: int) -> tuple[int, int]:
    first = datetime.date(year, 3 * quarter - 2, 1)
    end = t.add_months(first, 3) - datetime.timedelta(days=1)
    return _sk(first), _sk(end)


#: calendar years fully inside the date dimension (1998-01-01 .. 2002-12-30)
_YEARS = (1998, 1999, 2000, 2001)
_ALL_YEARS = (1998, 1999, 2000, 2001, 2002)


def star_templates():
    """The 33 TPC-DS-like templates of ``repro.workloads.tpcds`` with
    their literals drawn from ``rng``: (name, class, fn(rng) -> sql)."""

    def year(rng):
        return _year_sk(rng.choice(_YEARS))

    def quarter(rng):
        return _quarter_sk(rng.choice(_ALL_YEARS), rng.randint(1, 4))

    def between(col, lo_hi):
        return f"{col} BETWEEN {lo_hi[0]} AND {lo_hi[1]}"

    s = []
    add = lambda name, kind, fn: s.append((name, kind, fn))  # noqa: E731

    # static elimination: constant ranges on the partition key
    add("q01", "static", lambda r: "SELECT sum(ss_sales_price) AS total FROM store_sales "
        f"WHERE {between('ss_sold_date_sk', year(r))}")
    add("q02", "static", lambda r: "SELECT avg(ss_sales_price) AS avg_price FROM store_sales "
        f"WHERE {between('ss_sold_date_sk', quarter(r))}")
    add("q03", "static", lambda r: "SELECT count(*) AS cnt FROM web_sales "
        f"WHERE {between('ws_sold_date_sk', year(r))}")
    add("q04", "static", lambda r: "SELECT sum(cs_sales_price) AS total FROM catalog_sales "
        f"WHERE {between('cs_sold_date_sk', quarter(r))}")
    add("q05", "static", lambda r: "SELECT sum(sr_return_amt) AS refunds FROM store_returns "
        f"WHERE {between('sr_returned_date_sk', year(r))}")
    add("q06", "static", lambda r: "SELECT count(*) AS cnt, avg(wr_return_amt) AS avg_amt "
        f"FROM web_returns WHERE {between('wr_returned_date_sk', quarter(r))}")
    add("q07", "static", lambda r: "SELECT sum(cr_return_amt) AS total FROM catalog_returns "
        f"WHERE {between('cr_returned_date_sk', year(r))}")
    add("q08", "static", lambda r: "SELECT avg(inv_quantity_on_hand) AS avg_qty FROM inventory "
        f"WHERE {between('inv_date_sk', quarter(r))}")
    add("q09", "static", lambda r: "SELECT i_category, sum(ss_sales_price) AS total "
        "FROM store_sales, item WHERE ss_item_sk = i_item_sk "
        f"AND {between('ss_sold_date_sk', quarter(r))} GROUP BY i_category")
    add("q10", "static", lambda r: "SELECT c_state, count(*) AS orders "
        "FROM web_sales, customer WHERE ws_customer_sk = c_customer_sk "
        f"AND {between('ws_sold_date_sk', year(r))} GROUP BY c_state")

    def one_month(r):
        lo = quarter(r)[0]
        return lo, lo + 30

    add("q11", "static", lambda r: "SELECT count(*) AS cnt FROM store_sales "
        f"WHERE {between('ss_sold_date_sk', one_month(r))}")

    def two_years(r):
        first = r.choice(_YEARS[:-1])
        return _year_sk(first)[0], _year_sk(first + 1)[1]

    add("q12", "static", lambda r: "SELECT avg(cs_quantity) AS avg_qty FROM catalog_sales "
        f"WHERE {between('cs_sold_date_sk', two_years(r))}")
    add("q13", "static", lambda r: "SELECT count(*) AS cnt FROM inventory "
        f"WHERE {between('inv_date_sk', year(r))} "
        f"AND inv_quantity_on_hand < {r.randint(20, 80)}")
    add("q14", "static", lambda r: "SELECT sum(ss_net_profit) AS profit FROM store_sales "
        f"WHERE {between('ss_sold_date_sk', year(r))} AND ss_quantity > {r.randint(2, 8)}")
    add("q15", "static", lambda r: "SELECT count(*) AS cnt FROM web_returns "
        f"WHERE {between('wr_returned_date_sk', quarter(r))} "
        f"OR {between('wr_returned_date_sk', quarter(r))}")

    # dynamic elimination: the partition key is bound through a join
    def y(r):
        return r.choice(_ALL_YEARS)

    add("q16", "dynamic", lambda r: (lambda m: "SELECT avg(ss_sales_price) AS avg_price "
        "FROM store_sales WHERE ss_sold_date_sk IN (SELECT d_date_sk FROM date_dim "
        f"WHERE d_year = {y(r)} AND d_moy BETWEEN {m} AND {m + 2})")(r.randint(1, 10)))
    add("q17", "dynamic", lambda r: "SELECT d_moy, sum(ss_sales_price) AS total "
        "FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk "
        f"AND d_year = {y(r)} AND d_qoy = {r.randint(1, 4)} GROUP BY d_moy")
    add("q18", "dynamic", lambda r: "SELECT count(*) AS cnt FROM web_sales, date_dim "
        f"WHERE ws_sold_date_sk = d_date_sk AND d_year = {y(r)} "
        f"AND d_moy = {r.randint(1, 12)}")
    add("q19", "dynamic", lambda r: "SELECT sum(cs_sales_price) AS total FROM catalog_sales "
        "WHERE cs_sold_date_sk IN (SELECT d_date_sk FROM date_dim "
        f"WHERE d_year = {y(r)} AND d_qoy = {r.randint(1, 4)})")
    add("q20", "dynamic", lambda r: "SELECT avg(sr_return_amt) AS avg_amt "
        "FROM store_returns, date_dim WHERE sr_returned_date_sk = d_date_sk "
        f"AND d_year = {y(r)} AND d_dow = {r.randint(1, 7)}")
    add("q21", "dynamic", lambda r: "SELECT count(*) AS cnt FROM web_returns "
        "WHERE wr_returned_date_sk IN (SELECT d_date_sk FROM date_dim "
        f"WHERE d_year = {y(r)} AND d_moy = {r.randint(1, 12)})")
    add("q22", "dynamic", lambda r: "SELECT sum(cr_return_amt) AS total "
        "FROM catalog_returns, date_dim WHERE cr_returned_date_sk = d_date_sk "
        f"AND d_year = {y(r)} AND d_qoy = {r.randint(1, 4)}")
    add("q23", "dynamic", lambda r: "SELECT avg(inv_quantity_on_hand) AS avg_qty "
        "FROM inventory, date_dim WHERE inv_date_sk = d_date_sk "
        f"AND d_year = {y(r)} AND d_moy = {r.randint(1, 12)}")
    add("q24", "dynamic", lambda r: (lambda m: "SELECT i_category, sum(ss_sales_price) AS total "
        "FROM store_sales, date_dim, item WHERE ss_sold_date_sk = d_date_sk "
        f"AND ss_item_sk = i_item_sk AND d_year = {y(r)} "
        f"AND d_moy BETWEEN {m} AND {m + 2} GROUP BY i_category")(r.randint(1, 10)))
    add("q25", "dynamic", lambda r: "SELECT c_state, sum(ws_sales_price) AS total "
        "FROM web_sales, date_dim, customer WHERE ws_sold_date_sk = d_date_sk "
        f"AND ws_customer_sk = c_customer_sk AND d_year = {y(r)} "
        f"AND d_qoy = {r.randint(1, 4)} GROUP BY c_state")
    add("q26", "dynamic", lambda r: (lambda m: "SELECT count(*) AS cnt "
        "FROM store_returns, date_dim WHERE sr_returned_date_sk = d_date_sk "
        f"AND d_year = {y(r)} AND d_moy BETWEEN {m} AND {m + 1}")(r.randint(1, 11)))

    # no elimination possible: no predicate reaches the partition key
    add("q27", "none", lambda r: "SELECT count(*) AS cnt, sum(ss_sales_price) AS total "
        "FROM store_sales")
    add("q28", "none", lambda r: "SELECT i_category, avg(ws_sales_price) AS avg_price "
        "FROM web_sales, item WHERE ws_item_sk = i_item_sk "
        f"AND i_current_price > {r.randint(50, 250)} GROUP BY i_category")
    add("q29", "none", lambda r: "SELECT count(*) AS cnt FROM catalog_sales "
        f"WHERE cs_quantity >= {r.randint(5, 18)}")
    add("q30", "none", lambda r: "SELECT c_state, sum(sr_return_amt) AS refunds "
        "FROM store_returns, customer WHERE sr_customer_sk = c_customer_sk "
        "GROUP BY c_state")
    add("q31", "none", lambda r: "SELECT sum(inv_quantity_on_hand) AS on_hand FROM inventory")
    add("q32", "none", lambda r: "SELECT avg(wr_return_amt) AS avg_amt FROM web_returns "
        f"WHERE wr_return_amt > {r.randint(50, 180)}")
    add("q33", "none", lambda r: "SELECT i_category, count(*) AS cnt "
        "FROM catalog_returns, item WHERE cr_item_sk = i_item_sk GROUP BY i_category")
    return s


class AnalyticStar(Workload):
    """The TPC-DS-like star (7 fact tables x 60 partitions) driven by the
    33 templates in a fixed round robin, one 10-row store_sales insert
    after every third read."""

    name = "analytic_star"
    settings = {"cache": "off", "wal_sync": "async"}
    READS_PER_WRITE = 3
    ITEMS = 400
    CUSTOMERS = 300

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        recorder = _Recorder()
        tpcds.load_data(
            recorder,
            fact_rows=max(200, int(20000 * scale)),
            items=self.ITEMS,
            customers=self.CUSTOMERS,
            seed=seed,
        )
        probe = _SchemaProbe()
        tpcds.create_schema(probe)
        self.tables = [
            TableData(name, schema, dist, scheme, recorder.rows.get(name, []))
            for name, schema, dist, scheme in probe.tables
        ]

    def ops(self):
        rng = random.Random(self.seed * 7919 + 2)
        templates = star_templates()
        # date keys of the date dimension's last 30 days
        newest_lo, newest_hi = tpcds.NUM_DAYS - 30, tpcds.NUM_DAYS - 1
        for i, (_, kind, fn) in enumerate(itertools.cycle(templates)):
            yield Op(READ, kind, fn(rng))
            if i % self.READS_PER_WRITE == self.READS_PER_WRITE - 1:
                rows = [
                    (
                        rng.randint(newest_lo, newest_hi),
                        rng.randrange(self.ITEMS),
                        rng.randrange(self.CUSTOMERS),
                        rng.randint(1, 20),
                        round(rng.uniform(1.0, 300.0), 2),
                        round(rng.uniform(-50.0, 150.0), 2),
                    )
                    for _ in range(self.write_rows)
                ]
                yield Op(WRITE, "insert", values_sql("store_sales", rows))


class _SchemaProbe:
    """Collects ``create_table`` calls so the star's DDL comes from
    ``tpcds.create_schema`` unchanged."""

    def __init__(self):
        self.tables = []

    def create_table(self, name, schema, distribution=None, partition_scheme=None):
        self.tables.append((name, schema, distribution, partition_scheme))


# -- mixed_rw -----------------------------------------------------------------


MIXED_RANKS_SEED = 2014


class MixedRW(Workload):
    """A durable, monthly-partitioned ``lineitem`` served through two
    sessions: a result-cached reader issuing Zipf-skewed three-month
    aggregates, and a writer inserting into the newest month, rolling the
    oldest month into an archive and checkpointing on a fixed write count.
    One client thread sends both sessions' statements in a fixed
    interleaving, so the sequence of table states depends only on the
    seed."""

    name = "mixed_rw"
    settings = {
        "cache": {"reader": "results", "writer": "off"},
        "wal_sync": "async",
    }
    START = datetime.date(1995, 1, 1)
    MONTHS = 36
    ROWS_PER_MONTH = 700
    #: the writer's statement follows every READS_PER_WRITE reads
    READS_PER_WRITE = 20
    #: retention roll and checkpoint periods, in writes.  A roll adds two
    #: heavy writes (INSERT ... SELECT, DELETE); at one per 100 inserts
    #: they stay well under 5% of writes, so write_p95_ms does not sit on
    #: the edge between them and the plain inserts.
    ROLL_EVERY = 100
    CHECKPOINT_EVERY = 50
    #: one whole roll cycle, so every reopen replays exactly one roll
    tail_writes = ROLL_EVERY + 2
    #: rolled months cycle over the oldest ones, never the newest
    ROLLABLE = 30
    ZIPF_S = 1.1
    AGGREGATES = (
        "count(*) AS n, sum(l_extendedprice) AS revenue",
        "avg(l_quantity) AS qty, max(l_discount) AS disc",
        "sum(l_quantity) AS qty, min(l_tax) AS tax",
        "count(*) AS n, avg(l_extendedprice) AS price",
    )
    FILTERS = ("", " AND l_returnflag = 'A'", " AND l_returnflag = 'N'",
               " AND l_linestatus = 'O'")

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        per_month = max(20, int(self.ROWS_PER_MONTH * scale))
        rows = []
        orderkey = 1
        for m in range(self.MONTHS):
            first, end = self.month(m)
            for i in range(per_month):
                day = first + datetime.timedelta(
                    days=rng.randrange((end - first).days + 1)
                )
                rows.append(lineitem_row(rng, orderkey, i % 4 + 1, day))
                if i % 4 == 3:
                    orderkey += 1
        self.next_key = orderkey + 1
        scheme = PartitionScheme(
            [monthly_range_level("l_shipdate", self.START, self.MONTHS)]
        )
        self.tables = [
            TableData("lineitem", tpch.lineitem_schema(),
                      DistributionPolicy.hashed("l_orderkey"), scheme, rows),
            TableData("lineitem_archive", tpch.lineitem_schema(),
                      DistributionPolicy.hashed("l_orderkey"), None, []),
        ]
        # the distinct reads: every 3-month window x aggregate x filter
        self.reads = []
        for start in range(self.MONTHS - 2):
            lo, _ = self.month(start)
            _, hi = self.month(start + 2)
            for agg in self.AGGREGATES:
                for flt in self.FILTERS:
                    self.reads.append(Op(
                        READ,
                        "window",
                        f"SELECT {agg} FROM lineitem WHERE l_shipdate "
                        f"BETWEEN {lit(lo)} AND {lit(hi)}{flt}",
                        "reader",
                    ))
        # The Zipf rank of each statement is fixed, not drawn from the
        # seed, so every seed has the same hot set; the seed draws the data,
        # the written rows and the sequence of reads.  Windows over the
        # month being written take the coldest ranks: every write drops
        # them from the result cache, and a hot one would tie the hit
        # ratio to the write share.
        random.Random(MIXED_RANKS_SEED).shuffle(self.reads)
        newest = lit(self.month(self.MONTHS - 1)[1])
        self.reads.sort(key=lambda op: newest in op.sql)

    def month(self, index: int) -> tuple[datetime.date, datetime.date]:
        first = t.add_months(self.START, index)
        return month_bounds(first.year, first.month)

    def ops(self):
        reads = self.read_ops()
        for write in self.write_ops():
            if write.cls == "insert":
                yield from itertools.islice(reads, self.READS_PER_WRITE)
            yield write

    def read_ops(self):
        rng = random.Random(self.seed * 7919 + 4)
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(self.reads))]
        while True:
            yield from rng.choices(self.reads, weights, k=256)

    def write_ops(self):
        rng = random.Random(self.seed * 7919 + 5)
        first, end = self.month(self.MONTHS - 1)
        next_key = self.next_key
        for writes in itertools.count(1):
            rows = [
                lineitem_row(
                    rng, next_key, i % 4 + 1,
                    first + datetime.timedelta(days=rng.randrange((end - first).days + 1)),
                )
                for i in range(self.write_rows)
            ]
            next_key += 1
            yield Op(WRITE, "insert", values_sql("lineitem", rows), "writer")
            if writes % self.ROLL_EVERY == 0:
                month = (writes // self.ROLL_EVERY - 1) % self.ROLLABLE
                lo, hi = self.month(month)
                where = f"l_shipdate BETWEEN {lit(lo)} AND {lit(hi)}"
                yield Op(WRITE, "archive",
                         f"INSERT INTO lineitem_archive SELECT * FROM lineitem WHERE {where}",
                         "writer")
                yield Op(WRITE, "delete", f"DELETE FROM lineitem WHERE {where}", "writer")
            if writes % self.CHECKPOINT_EVERY == 0:
                yield Op(CHECKPOINT, "checkpoint", "")


WORKLOADS = {cls.name: cls for cls in (ShortPruned, AnalyticStar, MixedRW)}
