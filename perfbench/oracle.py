"""An independent answer check: the same rows and statements in sqlite.

The oracle shares no code with the engine.  It loads the generated tuples
into an in-memory stdlib ``sqlite3`` database and runs each statement
with one rewrite, the date-literal spelling (``'MM-DD-YYYY'`` to ISO).
Results are compared as multisets.  Dates compare as ISO strings.
Numbers compare exactly when both sides are integers, and otherwise
within ``REL_TOL``/``ABS_TOL``, because the two engines add floats in
different orders.
"""

from __future__ import annotations

import datetime
import math
import re
import sqlite3

#: float tolerance: relative, with an absolute floor for sums near zero
REL_TOL = 1e-9
ABS_TOL = 1e-6

_US_DATE = re.compile(r"'(\d{2})-(\d{2})-(\d{4})'")
_SQL_TYPES = {"INT": "INTEGER", "BIGINT": "INTEGER", "FLOAT": "REAL",
              "TEXT": "TEXT", "DATE": "TEXT", "BOOL": "INTEGER"}


def translate(sql: str) -> str:
    """The engine's statement as sqlite runs it: US date literals to ISO."""
    return _US_DATE.sub(lambda m: f"'{m[3]}-{m[1]}-{m[2]}'", sql)


def _cell(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, bool):
        return int(value)
    return value


def normalize(rows) -> list[tuple]:
    """Rows as comparable tuples, sorted with floats rounded for the sort
    key only (comparison keeps full precision)."""
    cells = [tuple(_cell(v) for v in row) for row in rows]

    def key(row):
        return tuple(
            (0, "") if v is None
            else (1, round(v, 6)) if isinstance(v, (int, float))
            else (2, str(v))
            for v in row
        )

    return sorted(cells, key=key)


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def same_rows(got, expected) -> bool:
    """Multiset equality of two row lists under the tolerance above."""
    left, right = normalize(got), normalize(expected)
    if len(left) != len(right):
        return False
    return all(
        len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
        for x, y in zip(left, right)
    )


class Oracle:
    """One in-memory sqlite database mirroring the benchmark's tables."""

    def __init__(self, tables):
        self.conn = sqlite3.connect(":memory:", check_same_thread=False)
        for data in tables:
            columns = ", ".join(
                f"{c.name} {_SQL_TYPES[c.data_type.kind.name]}"
                for c in data.schema.columns
            )
            self.conn.execute(f"CREATE TABLE {data.name} ({columns})")
            marks = ", ".join("?" * len(data.schema.columns))
            self.conn.executemany(
                f"INSERT INTO {data.name} VALUES ({marks})",
                (tuple(_cell(v) for v in row) for row in data.rows),
            )
            # index the partition key and the first column, the columns the
            # statements filter or join on, so checking stays cheap
            keys = {data.schema.columns[0].name}
            if data.scheme is not None:
                keys.update(data.scheme.keys)
            for key in sorted(keys):
                self.conn.execute(
                    f"CREATE INDEX {data.name}_{key} ON {data.name} ({key})"
                )
        self.conn.commit()

    def query(self, sql: str) -> list[tuple]:
        return self.conn.execute(translate(sql)).fetchall()

    def execute(self, sql: str) -> int:
        """Apply one write; returns the affected row count."""
        cursor = self.conn.execute(translate(sql))
        self.conn.commit()
        return cursor.rowcount

    def table(self, name: str) -> list[tuple]:
        return self.query(f"SELECT * FROM {name}")

    def close(self) -> None:
        self.conn.close()
