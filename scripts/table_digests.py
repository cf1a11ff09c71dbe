#!/usr/bin/env python3
"""Rewrite tests/table_digests.txt, the byte-identity record of 3,600 seeded tables.

This module defines the record, and tier-1 imports it.  A key is (scenario,
seed, steps), in the order of `keys()`.  Its table is `render_csv(r) +
render_json(r)` of r = `seeded_sweep(scenario, steps, seed)`, and its line in
the record is `scenario seed steps digest`, the digest being the first 16 hex
digits of the table's SHA-256.  The script prints each key whose digest differs
from the record it replaces, then the SHA-256 of all tables fed in key order.
It takes about 10 s and needs fockproj and numpy only.

Run from the repository root: PYTHONPATH=src python scripts/table_digests.py
"""

import hashlib
import random
from pathlib import Path

from fockproj import DetectorModel, ProjectorAngles, analysis, cli, models
from fockproj.models import ScenarioId

RECORD = Path(__file__).resolve().parent.parent / "tests" / "table_digests.txt"
SEEDS = range(100)
STEPS = (3, 11, 101, 1001)


def sweep_of(scenario: ScenarioId, steps: int, params: dict) -> analysis.SweepResult:
    """`analysis.sweep` at a parameter dict, split into its angles, detectors and keywords."""
    p = dict(params)
    angles = ProjectorAngles(p.pop("beta"), p.pop("theta")) if "beta" in p else None
    detectors = DetectorModel(p.pop("eta")) if "eta" in p else None
    return analysis.sweep(scenario, steps, angles, detectors, **p)


def seeded_sweep(scenario: ScenarioId, steps: int, seed: int) -> analysis.SweepResult:
    """A sweep at parameters drawn from the scenario's ranges, cut to [-10, 10]."""
    rng = random.Random(f"{scenario.value}:{seed}")
    return sweep_of(scenario, steps, {q.name: rng.uniform(max(q.lo, -10.0), min(q.hi, 10.0))
                                      for q in models.SCENARIOS[scenario].params})


def keys() -> list:
    """Every key, in record order: scenarios in `ScenarioId` order, then seeds, then steps."""
    return [(s.value, seed, steps) for s in ScenarioId for seed in SEEDS for steps in STEPS]


def checked_keys() -> list:
    """The share that tier-1 rechecks, as all 3,600 tables take about 10 s: the even seeds at
    3, 11 and 101 steps and every 20th seed at 1001, in record order."""
    share = [(s, seed, steps) for s, seed, steps in keys() if seed % (20 if steps == 1001 else 2) == 0]
    assert len(share) == 1395, "the share rule changed"
    return share


def table(key) -> bytes:
    scenario, seed, steps = key
    result = seeded_sweep(ScenarioId(scenario), steps, seed)
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


def changed(keys) -> list:
    """The keys among `keys` whose table differs from the record."""
    record = read_record()
    return [key for key in keys if digest(table(key)) != record.get(key)]


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
