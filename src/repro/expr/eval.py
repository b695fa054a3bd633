"""Compiled expression evaluation.

A :class:`RowLayout` names the columns of a tuple stream (each as a
``(qualifier, name)`` pair).  :func:`compile_expression` turns an expression
tree into a plain Python closure ``row -> value`` resolved against a layout
once, so the per-tuple cost is a few function calls rather than repeated
tree interpretation and name lookups.

SQL three-valued logic: closures return ``True``/``False``/``None`` for
predicates; :func:`compile_predicate` wraps a closure so filters pass only
rows where the predicate is strictly true.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

from ..errors import BindError, ExecutionError
from .ast import (
    AggCall,
    Arithmetic,
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    Parameter,
)

RowFunc = Callable[[tuple], Any]


class RowLayout:
    """The (qualifier, name) identity of each slot in a tuple stream."""

    __slots__ = ("slots", "_by_name")

    def __init__(self, slots: Sequence[tuple[str | None, str]]):
        self.slots: tuple[tuple[str | None, str], ...] = tuple(slots)
        by_name: dict[str, list[int]] = {}
        for i, (_, name) in enumerate(self.slots):
            by_name.setdefault(name, []).append(i)
        self._by_name = by_name

    @staticmethod
    def for_table(alias: str, column_names: Iterable[str]) -> "RowLayout":
        return RowLayout([(alias, name) for name in column_names])

    def concat(self, other: "RowLayout") -> "RowLayout":
        """Layout of a join output: left slots then right slots."""
        return RowLayout(self.slots + other.slots)

    def resolve(self, ref: ColumnRef) -> int:
        """Slot index for a column reference.

        Raises :class:`BindError` when the reference is unknown or — for an
        unqualified name visible from several relations — ambiguous.
        """
        candidates = self._by_name.get(ref.name, [])
        if ref.qualifier is not None:
            candidates = [
                i for i in candidates if self.slots[i][0] == ref.qualifier
            ]
        if not candidates:
            raise BindError(f"column {ref!r} not found in row layout")
        if len(candidates) > 1:
            raise BindError(f"column reference {ref!r} is ambiguous")
        return candidates[0]

    def has(self, ref: ColumnRef) -> bool:
        try:
            self.resolve(ref)
        except BindError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowLayout):
            return NotImplemented
        return self.slots == other.slots

    def __repr__(self) -> str:
        names = ", ".join(
            f"{q}.{n}" if q else n for q, n in self.slots
        )
        return f"RowLayout({names})"


def _compare(op: str, left: Any, right: Any) -> bool | None:
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise AssertionError(op)


def compile_expression(
    expr: Expression,
    layout: RowLayout,
    params: Sequence[Any] | None = None,
) -> RowFunc:
    """Compile ``expr`` into a closure evaluating it against rows shaped by
    ``layout``.  ``params`` supplies values for ``$n`` parameters."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ColumnRef):
        idx = layout.resolve(expr)
        return lambda row: row[idx]

    if isinstance(expr, Parameter):
        if params is None or expr.index > len(params):
            raise ExecutionError(
                f"no value bound for parameter ${expr.index}"
            )
        value = params[expr.index - 1]
        return lambda row: value

    if isinstance(expr, Comparison):
        op = expr.op
        left = compile_expression(expr.left, layout, params)
        right = compile_expression(expr.right, layout, params)
        return lambda row: _compare(op, left(row), right(row))

    if isinstance(expr, BoolExpr):
        arg_funcs = [compile_expression(a, layout, params) for a in expr.args]
        if expr.op == BoolExpr.NOT:
            inner = arg_funcs[0]

            def negate(row: tuple) -> bool | None:
                value = inner(row)
                return None if value is None else not value

            return negate
        if expr.op == BoolExpr.AND:

            def conjunction(row: tuple) -> bool | None:
                saw_null = False
                for func in arg_funcs:
                    value = func(row)
                    if value is False:
                        return False
                    if value is None:
                        saw_null = True
                return None if saw_null else True

            return conjunction

        def disjunction(row: tuple) -> bool | None:
            saw_null = False
            for func in arg_funcs:
                value = func(row)
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False

        return disjunction

    if isinstance(expr, Between):
        subject = compile_expression(expr.subject, layout, params)
        lo = compile_expression(expr.lo, layout, params)
        hi = compile_expression(expr.hi, layout, params)

        def between(row: tuple) -> bool | None:
            value, low, high = subject(row), lo(row), hi(row)
            if value is None or low is None or high is None:
                return None
            return low <= value <= high

        return between

    if isinstance(expr, InList):
        subject = compile_expression(expr.subject, layout, params)
        values = set(expr.values)

        def in_list(row: tuple) -> bool | None:
            value = subject(row)
            if value is None:
                return None
            return value in values

        return in_list

    if isinstance(expr, IsNull):
        subject = compile_expression(expr.subject, layout, params)
        if expr.negated:
            return lambda row: subject(row) is not None
        return lambda row: subject(row) is None

    if isinstance(expr, Arithmetic):
        op = expr.op
        left = compile_expression(expr.left, layout, params)
        right = compile_expression(expr.right, layout, params)

        def arith(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0:
                raise ExecutionError("division by zero")
            if isinstance(a, int) and isinstance(b, int):
                quotient = _truncated_quotient(a, b)
                return quotient if op == "/" else a - b * quotient
            return a / b if op == "/" else math.fmod(a, b)

        return arith

    if isinstance(expr, AggCall):
        raise ExecutionError(
            "aggregate calls are evaluated by the Agg operator, not inline"
        )

    raise ExecutionError(f"cannot compile expression {expr!r}")


def _truncated_quotient(a: int, b: int) -> int:
    """Integer quotient rounded toward zero, as SQL (PostgreSQL/GPDB,
    SQLite) defines ``/`` on integers — Python's ``//`` floors instead.
    The matching remainder ``a - b * q`` takes the dividend's sign."""
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1
    return quotient


def compile_predicate(
    expr: Expression,
    layout: RowLayout,
    params: Sequence[Any] | None = None,
) -> Callable[[tuple], bool]:
    """Compile a predicate; NULL results count as non-matching."""
    func = compile_expression(expr, layout, params)
    return lambda row: func(row) is True


def evaluate(
    expr: Expression,
    row: tuple = (),
    layout: RowLayout | None = None,
    params: Sequence[Any] | None = None,
) -> Any:
    """One-shot evaluation (convenience for tests and constant folding)."""
    return compile_expression(expr, layout or RowLayout(()), params)(row)
