"""Self-tests of the benchmark: tracer arithmetic, determinism, the
correctness gate, binding restoration and the command-line contract.

Run from the repository root:  python -m pytest -q fockbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import fockproj
import fockproj.cli
from fockproj import analysis

import run
import spans
import worker
import workloads

BENCH_DIR, ROOT = run.BENCH_DIR, run.ROOT


def _traced(workload, count, seed=7):
    tracer = spans.Tracer()
    engine = worker.InProcess(workload)
    for req in workloads.first(workload, seed, count):
        _, found = engine.execute(req, tracer)
        assert found == []
    return tracer


def _bindings():
    """Every attribute of every fockproj module, and of the patched classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "fockproj" or name.startswith("fockproj."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (fockproj.FockState, fockproj.ModeUnitary):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_self_times_sum_to_inclusive_time():
    tracer = _traced("angle-scan", 10)
    stats = tracer.stats
    total_self = sum(v[1] for v in stats.values())
    root_incl = stats[spans.ROOT_SPAN][2]
    assert stats[spans.ROOT_SPAN][0] == 10
    assert total_self == pytest.approx(root_incl, rel=1e-9)
    assert 0.0 < spans.layer_time(tracer.snapshot()) <= root_incl
    for name, (calls, self_s, incl_s) in stats.items():
        assert self_s <= incl_s + 1e-12, name


def test_same_seed_gives_same_inputs_and_counts():
    for workload in workloads.WORKLOADS:
        assert workloads.first(workload, 5, 30) == workloads.first(workload, 5, 30)
        assert workloads.first(workload, 5, 30) != workloads.first(workload, 6, 30)
    for workload, count in (("angle-scan", 10), ("engine-dense", 4)):
        a, b = _traced(workload, count), _traced(workload, count)
        assert {k: v[0] for k, v in a.stats.items()} == {k: v[0] for k, v in b.stats.items()}
        assert a.counters == b.counters
    assert a.counters["lift.terms_out"] > 0


def test_angle_scan_never_lifts():
    tracer = _traced("angle-scan", 10)
    assert tracer.stats["transforms.lift"][0] == 0
    assert tracer.stats["fock.FockState"][0] > 0


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        # names imported elsewhere are rebound too, not only the defining module
        assert fockproj.projectors.inner_product is not before[("fockproj.fock", "inner_product")]
        assert fockproj.projectors.inner_product.__wrapped__ is before[("fockproj.fock", "inner_product")]
    _traced("engine-dense", 1)
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def _corrupt(result):
    probabilities = list(result.probabilities)
    probabilities[3] = math.nan
    return dataclasses.replace(result, probabilities=tuple(probabilities))


def test_injected_bad_curve_raises_failed_ratio(monkeypatch):
    original = analysis.sweep
    calls = []

    def flaky_sweep(*args, **kwargs):
        calls.append(1)
        if len(calls) % 5 == 2:
            return _corrupt(original(*args, **kwargs))
        if len(calls) % 5 == 4:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "sweep", flaky_sweep)
    out = worker.serve("angle-scan", 3, 0.0, worker.InProcess("angle-scan"))
    out["peak_rss_mb"] = 1.0
    values, _, _ = run.end_to_end(out, [0.1], [0.1])
    assert len(out["latencies_s"]) == worker.MIN_REQUESTS
    assert out["failed"] == 2 * worker.MIN_REQUESTS // 5
    assert values["failed_ratio"] == pytest.approx(0.4)
    assert values["curve_ms_p90"] == math.inf


def test_gate_checks_cli_tables():
    req = workloads.first("cli-cold", 2, 1)[0]
    result, _ = workloads.run_sweep(req)
    assert workloads.check_cli(req, 0, fockproj.cli.render_csv(result)) == []
    as_json = dataclasses.replace(req, output_format="json")
    assert workloads.check_cli(as_json, 0, fockproj.cli.render_json(result)) == []
    assert workloads.check_cli(as_json, 0, "{not json") != []
    assert workloads.check_cli(req, 3, None) != []
    assert workloads.check_cli(req, 0, fockproj.cli.render_csv(_corrupt(result))) != []


def test_engine_gate_knows_the_expected_verdicts():
    req = workloads.Request("hom4-coincidence", 101)
    result, text = workloads.run_sweep(req)
    assert workloads.check_sweep("engine-dense", req, (result, text)) == []
    flipped = dataclasses.replace(result, extrema=())
    assert workloads.check_sweep("engine-dense", req, (flipped, text)) != []


def test_layer_map_covers_the_per_layer_metrics():
    spec = run.load_spec()
    names = [m["name"] for m in spec["per_layer"]]
    groups = json.loads(run.LAYER_MAP_PATH.read_text())["groups"]
    mapped = [name for group in groups for name in group["metrics"]]
    assert sorted(mapped) == sorted(names)
    workload_names = run.workload_names(spec)
    assert workload_names == list(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    for group in groups:
        for move in group["moves"]:
            assert move["metric"] in e2e and move["workload"] in workload_names
    produced = spans.layer_metrics(_traced("angle-scan", 5).snapshot(), 5, 1.0, 1.0, {"numpy": 1, "fockproj": 2})
    assert set(names) <= set(produced)


def test_compare_marks_wide_spread_unresolved():
    spec = run.load_spec()

    def runs(values):
        return [
            {"workload": "angle-scan", "trace": 0, "values": {"curves_per_s": v}} for v in values
        ]

    steady = runs([100.0, 101.0, 99.0, 100.5, 99.5])
    noisy = runs([60.0, 100.0, 140.0, 80.0, 120.0])
    assert "unresolved" in run.compare(spec, steady, noisy)
    assert "within bound" in run.compare(spec, steady, runs([99.0, 100.0, 101.0, 100.2, 99.8]))
    assert "REGRESSED" in run.compare(spec, steady, runs([70.0, 70.5, 69.5, 70.2, 69.8]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "fockbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "fockbench/run.py", "--workload", "angle-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
