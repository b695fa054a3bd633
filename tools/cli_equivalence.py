#!/usr/bin/env python3
"""Scripted-CLI equivalence check: settings that must not change results.

Each case pipes the same scripted shell session through ``python -m
repro`` twice — once under a reference prefix of ``SET`` statements and
once under a candidate prefix — strips the ``SET`` acknowledgement lines,
and requires the two transcripts to be identical, byte for byte:

* worker parallelism (serial vs ``SET workers 4``);
* batch width (1 vs 1024, and 1 vs 1024 under ``SET workers 4``);
* selection caching (off vs ``SET cache partitions``, with every
  statement repeated so the second run replays cached OID sets, and an
  INSERT in the middle exercising invalidation).

Usage::

    PYTHONPATH=src python tools/cli_equivalence.py

Prints a unified diff for every case whose transcripts differ and exits
non-zero if any did, or if a scripted statement errored.
"""

from __future__ import annotations

import difflib
import os
import pathlib
import subprocess
import sys

RANGE_COUNT = (
    "SELECT count(*) FROM orders "
    "WHERE date BETWEEN '10-01-2013' AND '12-31-2013';"
)
JOIN_SUM = (
    "SELECT count(*), sum(orders_fk.amount) FROM orders_fk, date_dim "
    "WHERE orders_fk.date_id = date_dim.date_id AND date_dim.year = 2013;"
)
POINT_AVG = "SELECT avg(amount) FROM orders WHERE date = '05-15-2013';"

#: script name -> statements run after ``\demo``
SCRIPTS: dict[str, list[str]] = {
    "parallel": [RANGE_COUNT, JOIN_SUM],
    "width": [RANGE_COUNT, JOIN_SUM, "SELECT count(*) FROM date_dim;"],
    "cache": [
        RANGE_COUNT,
        RANGE_COUNT,
        POINT_AVG,
        "INSERT INTO orders VALUES (99001, 10.0, '05-15-2013');",
        POINT_AVG,
    ],
}

#: (case, script, reference SET prefix, candidate SET prefix)
CASES: list[tuple[str, str, list[str], list[str]]] = [
    ("serial vs workers 4", "parallel", [], ["SET workers 4;"]),
    (
        "width 1 vs width 1024",
        "width",
        ["SET batch_size 1;"],
        ["SET batch_size 1024;"],
    ),
    (
        "width 1 vs width 1024 + workers 4",
        "width",
        ["SET batch_size 1;"],
        ["SET workers 4;", "SET batch_size 1024;"],
    ),
    ("cache off vs partitions", "cache", [], ["SET cache partitions;"]),
]

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def transcript(script: str, prefix: list[str]) -> list[str]:
    """The shell's output for ``prefix`` + ``\\demo`` + the script, minus
    the acknowledgement line of each ``SET`` in the prefix."""
    lines = [*prefix, "\\demo", *SCRIPTS[script], "\\q"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro"],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        # the scripted shell exits 1 if any statement errored
        raise SystemExit(
            f"FAIL  {' '.join(prefix) or '(defaults)'} / {script}: shell "
            f"exited {proc.returncode}\n{proc.stdout}{proc.stderr}"
        )
    acks = tuple(f"{line.split()[1]} is " for line in prefix)
    return [
        line
        for line in proc.stdout.splitlines()
        if not (acks and line.startswith(acks))
    ]


def main() -> int:
    cache: dict[tuple[str, tuple[str, ...]], list[str]] = {}

    def run(script: str, prefix: list[str]) -> list[str]:
        key = (script, tuple(prefix))
        if key not in cache:
            cache[key] = transcript(script, prefix)
        return cache[key]

    failed = 0
    for name, script, reference, candidate in CASES:
        expected = run(script, reference)
        actual = run(script, candidate)
        if expected == actual:
            print(f"ok    {name} ({len(expected)} lines)")
            continue
        failed += 1
        print(f"FAIL  {name}")
        sys.stdout.writelines(
            line + "\n"
            for line in difflib.unified_diff(
                expected,
                actual,
                fromfile=" ".join(reference) or "(defaults)",
                tofile=" ".join(candidate),
                lineterm="",
            )
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
