"""The benchmark's own tests, at smoke size.

Run from the root of a checkout with ``python -m pytest perfbench/tests``.
"""

import itertools
import json
from pathlib import Path

import pytest

import harness
from repro.engine import Database
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
#: smoke size: data scale, timed seconds
SMOKE = {"short_pruned": (0.02, 0.5), "analytic_star": (0.02, 0.5), "mixed_rw": (0.1, 1.0)}


def smoke_run(workload, tmp_path, trace=False, seed=3):
    scale, seconds = SMOKE[workload]
    run = harness.Run(workload, seed, seconds, trace, tmp_path, scale=scale,
                      setups=1, reopens=1)
    return run, run.execute()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload, tmp_path):
    _, outcome = smoke_run(workload, tmp_path)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    emitted = {name: unit for name, (_, unit) in outcome["metrics"].items()}
    assert emitted == declared
    assert all(value > 0 for value, _ in outcome["metrics"].values())
    assert outcome["failed"] == 0, outcome["record"]["failure_examples"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run_emits_every_per_layer_metric(workload, tmp_path):
    _, outcome = smoke_run(workload, tmp_path, trace=True)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    emitted = {name: unit for name, (_, unit) in outcome["metrics"].items()}
    assert emitted == declared
    assert outcome["failed"] == 0, outcome["record"]["failure_examples"]
    spans = (tmp_path / "out").glob(f"spans-{workload}-seed3.jsonl")
    assert next(spans).read_text().count("engine.sql") > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracle_fails_a_run_with_a_tampered_result(workload, tmp_path, monkeypatch):
    original = Database.sql

    def tampered(self, query, *args, **kwargs):
        result = original(self, query, *args, **kwargs)
        if query.startswith("SELECT") and result.rows:
            result.rows = result.rows[1:]
        elif query.startswith("SELECT"):
            result.rows = [(-1,)]
        return result

    monkeypatch.setattr(Database, "sql", tampered)
    run, outcome = smoke_run(workload, tmp_path)
    assert outcome["failed"] > 0
    assert any("wrong answer" in reason for reason in run.failures.reasons)


def first_ops(workload, seed, n=2500):
    """Enough statements to include mixed_rw's first roll and checkpoint."""
    return list(itertools.islice(WORKLOADS[workload](seed, scale=0.02).ops(), n))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_literals_not_the_class_mix(workload):
    one, two = first_ops(workload, 1), first_ops(workload, 2)
    assert [(op.kind, op.cls) for op in one] == [(op.kind, op.cls) for op in two]
    assert [op.sql for op in one] != [op.sql for op in two]


def test_same_seed_gives_the_same_inputs():
    one, two = WORKLOADS["analytic_star"](5, 0.02), WORKLOADS["analytic_star"](5, 0.02)
    assert [d.rows for d in one.tables] == [d.rows for d in two.tables]
    assert first_ops("short_pruned", 5) == first_ops("short_pruned", 5)
