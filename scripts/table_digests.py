#!/usr/bin/env python3
"""Rewrite tests/table_digests.txt, the byte-identity record of 3,600 seeded tables.

A key is (scenario, seed, steps): scenarios in `ScenarioId` order, then seeds
0..99, then steps 3, 11, 101 and 1001.  Its table is `render_csv(r) +
render_json(r)` of r = `test_cli._seeded_sweep(scenario, steps, seed)`, and its
line in the record is `scenario seed steps digest`, the digest being the first 16
hex digits of the table's SHA-256.  The script prints each key whose digest
differs from the record it replaces, then the SHA-256 of all tables fed in key
order.  It takes about 10 s.

Run from the repository root: PYTHONPATH=src python scripts/table_digests.py
"""

import hashlib
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
RECORD = TESTS / "table_digests.txt"
SEEDS = range(100)
STEPS = (3, 11, 101, 1001)

sys.path.insert(0, str(TESTS))
from test_cli import _seeded_sweep  # noqa: E402

from fockproj import cli  # noqa: E402
from fockproj.models import ScenarioId  # noqa: E402


def keys() -> list:
    """Every key, in record order."""
    return [(s.value, seed, steps) for s in ScenarioId for seed in SEEDS for steps in STEPS]


def table(key) -> bytes:
    scenario, seed, steps = key
    result = _seeded_sweep(ScenarioId(scenario), steps, seed)
    return (cli.render_csv(result) + cli.render_json(result)).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def read_record() -> dict:
    """The committed digest of each key; empty if there is no record yet."""
    if not RECORD.exists():
        return {}
    record = {}
    for line in RECORD.read_text().splitlines():
        scenario, seed, steps, value = line.split()
        record[scenario, int(seed), int(steps)] = value
    return record


def main() -> None:
    old, overall, lines = read_record(), hashlib.sha256(), []
    for key in keys():
        data = table(key)
        overall.update(data)
        value = digest(data)
        lines.append(f"{key[0]} {key[1]} {key[2]} {value}")
        if old.get(key) != value:
            print("changed:", *key)
    RECORD.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} tables, sha256 {overall.hexdigest()}")


if __name__ == "__main__":
    main()
